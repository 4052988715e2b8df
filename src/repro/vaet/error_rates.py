"""Error-rate driven timing margins (Fig. 7).

"Due to the high value of sigma for the latencies, a large timing
margin is required to keep the error rates within acceptable limits"
and "for lower values of target error rates, high timing margins are
required" (Sec. III).

Writes: the per-cell WER envelope WER(t) = (pi^2 Delta / 4) e^(-2 r t)
is averaged over the sampled process population (each cell has its own
Delta and rate r), union-bounded over the word, and inverted for the
pulse width that meets the target.  The average is dominated by the
weak-cell tail — exactly the effect VAET-STT exists to capture.

Reads: sensing fails when the developed differential at the sense
instant is below the latch offset.  Longer sensing develops more
signal, so RER falls with read period; the Gaussian signal/offset
budget gives RER(t) in closed form.

Both Newton solves run on kernels of the population: the write kernel
(:class:`WriteKernel`) and the ascending sense gains.  Neither reads
the word width: a population is a function of the PDK, temperature,
seed and size, the array's fixed path resistance and its sense develop
time alone.  So :class:`repro.vaet.explorer.DesignSpaceExplorer` keeps
them as population records that word-width, column and target siblings
share, and solves each sibling afresh over them
(:meth:`ErrorRateAnalysis.pinned`,
:meth:`repro.vaet.ecc.ECCAnalysis.pinned`).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.nvsim.subarray import SENSE_MARGIN
from repro.utils.normal import SQRT1_2, ndtr, ndtri, sorted_sf_sum
from repro.utils.roots import brentq
from repro.vaet.montecarlo import MonteCarloEngine
from repro.vaet.variation_model import (
    CellSamples,
    normals_prefix,
    scalar_reference_enabled,
)


#: Newton stops once a step moves log(x) by at most this much.  The
#: convergence is quadratic, so the returned root is ~STEP^2 from the
#: true one; the brentq reference stops within xtol=1e-4.
NEWTON_LOG_TOL = 1e-6
NEWTON_MAX_PASSES = 100

#: Cells per block of a read-kernel pass.  A block's handful of
#: temporaries (256 KiB each) stay in a core's L2 cache; one pass over
#: all 200k cells at once ran ~1.8x slower, bound by memory traffic.
READ_BLOCK = 1 << 15


class UnreachableTargetError(ValueError):
    """No argument inside a solver's bracket meets the error-rate target."""


def unreachable(what: str, lo: float, hi: float) -> UnreachableTargetError:
    """The error every margin and ECC solve raises for a target outside
    its bracket ``[exp(lo), exp(hi)]`` seconds, on either solver path."""
    return UnreachableTargetError(
        "%s unreachable: outside [%.1e, %.1e] s"
        % (what, math.exp(lo), math.exp(hi))
    )


def brentq_log_root(gap, lo: float, hi: float, xtol: float, what: str) -> float:
    """The brentq reference solve of ``gap(x) = 0`` on ``[lo, hi]``."""
    try:
        return brentq(gap, lo, hi, xtol=xtol)
    except ValueError:
        raise unreachable(what, lo, hi) from None


def newton_log_root(kernel, log_target: float, lo: float, hi: float,
                    start, what: str):
    """Safeguarded Newton solve of ``log f(e^x) = log_target`` on [lo, hi].

    ``kernel(x)`` makes one population pass and returns ``log f`` and
    its slope ``d log f / dx``; ``f`` falls with ``x``.  ``start`` is an
    initial ``x`` or an ``(x, log f, slope)`` triple from an earlier
    pass, which is reused without a new one.  Every pass tightens a
    sign-change bracket; a step that leaves the bracket (or a useless
    slope) bisects it when both ends are known, and otherwise evaluates
    the missing hard limit, which ends the solve when the target lies
    beyond it.  Stops on a Newton step of at most ``NEWTON_LOG_TOL``.

    Returns:
        The root ``x`` and the last pass as an ``(x, log f, slope)``
        triple, a warm start for the next target.

    Raises:
        UnreachableTargetError: The target lies outside ``[lo, hi]``.
    """
    left, right = lo, hi
    left_known = right_known = False
    if isinstance(start, tuple):
        x, log_f, slope = start
    else:
        x = min(max(start, lo), hi)
        log_f, slope = kernel(x)
    for _ in range(NEWTON_MAX_PASSES):
        gap = log_f - log_target
        if gap == 0.0:
            return x, (x, log_f, slope)
        if gap > 0.0:
            if x >= hi:
                raise unreachable(what, lo, hi)
            left, left_known = max(left, x), True
        else:
            if x <= lo:
                raise unreachable(what, lo, hi)
            right, right_known = min(right, x), True
        step = -gap / slope if slope < 0.0 else math.nan
        if left < x + step < right:
            if abs(step) <= NEWTON_LOG_TOL:
                return x + step, (x, log_f, slope)
            x += step
        elif left_known and right_known:
            if right - left <= NEWTON_LOG_TOL:
                return 0.5 * (left + right), (x, log_f, slope)
            x = 0.5 * (left + right)
        else:
            x = hi if gap > 0.0 else lo
        log_f, slope = kernel(x)
    raise RuntimeError("%s: no convergence in %d passes" % (what, NEWTON_MAX_PASSES))


@dataclass(frozen=True)
class WriteMarginResult:
    """Write-latency solve for one WER target.

    Attributes:
        wer_target: Per-word write error rate target.
        pulse_width: Required per-phase pulse width [s].
        total_latency: Overhead + two margined phases [s].
    """

    wer_target: float
    pulse_width: float
    total_latency: float


@dataclass(frozen=True)
class ReadMarginResult:
    """Read-latency solve for one RER target.

    Attributes:
        rer_target: Per-word read error rate target.
        sense_time: Required signal development time [s].
        total_latency: Overhead + develop + regeneration [s].
    """

    rer_target: float
    sense_time: float
    total_latency: float


class WriteKernel:
    """The Newton write kernel of one cell population.

    Everything a write-pulse solve reads, and nothing else: the
    switching cells' rates and WER envelopes, with the stuck cells
    (zero rate) kept only as a count, since each adds WER 1 at any
    pulse.  :meth:`ErrorRateAnalysis.write_margin` and the ECC pulse
    inversion (:class:`repro.vaet.ecc.ECCAnalysis`) both solve on it.
    It holds two population-sized arrays, not the analysis's dozen, so
    :class:`repro.vaet.explorer.DesignSpaceExplorer` can keep a
    :meth:`compact` copy for the sibling points of a sweep.

    Args:
        rates: Precessional rate of each switching cell [1/s].
        envelope: WER envelope ``pi^2 Delta / 4`` of each switching cell.
        population: Cells sampled, stuck ones included.
        stuck_fraction: Share of the population that never switches.
    """

    def __init__(self, rates: np.ndarray, envelope: np.ndarray,
                 population: int, stuck_fraction: float):
        self.rates = rates
        self.envelope = envelope
        self.population = population
        self.stuck_fraction = stuck_fraction
        self.stuck_count = float(population - len(rates))

    def compact(self) -> "WriteKernel":
        """A copy whose two arrays share one read-only block."""
        block = np.stack((self.rates, self.envelope))
        block.flags.writeable = False
        return WriteKernel(block[0], block[1], self.population,
                           self.stuck_fraction)

    def write_pass(self, log_pulse: float):
        """One write-kernel pass: log mean cell WER and its slope in log t.

        WER_i = min(A_i e^(-2 r_i t), 1) over the switching cells, plus
        the stuck count.
        """
        pulse = math.exp(log_pulse)
        rates = self.rates
        wer = np.exp(np.multiply(rates, -2.0 * pulse))
        wer *= self.envelope
        # Cells capped at WER 1 contribute no slope.
        capped_rate = 0.0
        if wer.max() >= 1.0:
            capped = wer >= 1.0
            capped_rate = float(rates[capped].sum())
            wer[capped] = 1.0
        total = float(wer.sum()) + self.stuck_count
        if total <= 0.0:
            return -math.inf, math.nan
        decay = float(np.dot(rates, wer)) - capped_rate
        return math.log(total / self.population), -2.0 * pulse * decay / total

    def write_start(self, mean_wer: float) -> float:
        """A log pulse at or beyond the root of mean cell WER = ``mean_wer``.

        No cell beats the slowest rate with the largest envelope, so the
        pulse that brings that bound down to the target is an upper one.
        """
        stuck = self.stuck_fraction
        excess = (mean_wer - stuck) / (1.0 - stuck)
        bound = math.log(float(self.envelope.max()) / excess)
        slowest = float(self.rates.min())
        return math.log(max(bound, 1e-300) / (2.0 * slowest))

    def newton_pulse(self, mean_wer: float, lo: float, hi: float,
                     what: str, start=None):
        """Newton solve of mean cell WER = ``mean_wer`` for a log pulse.

        ``start`` is as for :func:`newton_log_root` and defaults to a
        cold upper bound.  Returns the root and the last pass.
        """
        if start is None:
            start = self.write_start(mean_wer)
        return newton_log_root(
            self.write_pass, math.log(mean_wer), lo, hi, start, what
        )


class ErrorRateAnalysis:
    """WER/RER timing-margin solver bound to one Monte Carlo engine.

    Samples the error population once.  On the vectorised path its
    cells are the first ``4 * population`` normals of the seed's stream
    (:func:`~repro.vaet.variation_model.normals_prefix`), shared with
    every analysis and Monte Carlo write of that seed in the process.
    The write solves run on :attr:`kernel`, the population's
    :class:`WriteKernel`, and the read solve on its ascending sense
    gains; the population-mean WER (:meth:`mean_cell_wer`, the ECC
    stuck-cell floor and the scalar reference) uses the full arrays.
    """

    def __init__(self, engine: MonteCarloEngine, population: int = 200_000,
                 seed: int = 2018):
        self.engine = engine
        variation = engine.variation
        if scalar_reference_enabled():
            cells = variation.sample_cells(np.random.default_rng(seed), population)
        else:
            normals = normals_prefix(seed, 4 * population)
            cells = variation.cells_from_normals(normals.reshape(4, -1))
        self._rates = variation.switching_rates(cells)
        signals = variation.read_signal_currents(cells)
        # The readers of the cells past here (read disturb, retention
        # faults) take Delta, R_P, drive strength and I_c0 only.
        self.cells: CellSamples = replace(
            cells, diameter=None, resistance_ap_write=None, rate_prefactor=None
        )
        del cells
        # Pulse-independent factors, hoisted so the margin solvers (tens
        # of word_wer/word_rer evaluations per brentq call) only pay for
        # one exp/ndtr pass over the population per iteration.
        self._switching = self._rates > 0.0
        self._stuck_fraction = float(np.mean(self._rates <= 0.0))
        self._envelope = (math.pi ** 2) * self.cells.delta / 4.0
        # One sort gives both the median (np.median's two middle order
        # statistics) and the Newton read kernel's per-cell k in
        # Phi(-k t), ascending so that each erfc branch of a pass is one
        # contiguous slice: dividing by positive constants keeps the
        # order, and each k is the same two divisions as in draw order.
        ordered = np.sort(signals)
        middle = len(ordered) // 2
        self._nominal_signal = float(
            ordered[middle] if len(ordered) % 2
            else np.mean(ordered[middle - 1:middle + 1])
        )
        cdv = engine.leaf.sense.develop_time * self._nominal_signal
        # C such that t_nom develops dV across the nominal cell.
        self._capacitance_equiv = cdv / SENSE_MARGIN
        signals /= self._capacitance_equiv
        self._developed_per_second = signals
        ordered /= self._capacitance_equiv
        ordered /= SENSE_MARGIN / 3.0
        self._sense_gain = ordered
        self.kernel = WriteKernel(
            self._rates[self._switching], self._envelope[self._switching],
            len(self._rates), self._stuck_fraction,
        )

    @classmethod
    def pinned(cls, engine: MonteCarloEngine,
               sense_gain: np.ndarray) -> "ErrorRateAnalysis":
        """A read solver over another analysis's ascending sense gains.

        The gains read nothing of the word, so ``engine`` may be any
        array of the same node, subarray height and develop time.  With
        no cells to fall back on, it serves only the Newton
        :meth:`read_margin`:
        :class:`repro.vaet.explorer.DesignSpaceExplorer` builds one per
        point from a memoised population and never under the scalar
        flag.
        """
        analysis = cls.__new__(cls)
        analysis.engine, analysis._sense_gain = engine, sense_gain
        return analysis

    # -- writes -------------------------------------------------------

    def mean_cell_wer(self, pulse_width: float) -> float:
        """Population-mean per-cell WER (no word union bound).

        The shared write-error kernel: cells with zero precessional
        rate (delivered current below I_c0) contribute WER 1 — they
        dominate once the sampled population is large enough to contain
        them.  Also the per-bit WER the ECC layer budgets against.
        """
        if pulse_width <= 0.0:
            return 1.0
        if scalar_reference_enabled():
            return self._mean_cell_wer_scalar(pulse_width)
        per_cell = self._envelope * np.exp(-2.0 * self._rates * pulse_width)
        per_cell = np.where(self._switching, np.minimum(per_cell, 1.0), 1.0)
        return float(np.mean(per_cell))

    def _mean_cell_wer_scalar(self, pulse_width: float) -> float:
        """Reference kernel: one cell at a time (``REPRO_VAET_SCALAR``)."""
        terms = []
        for envelope, rate, switching in zip(
            self._envelope, self._rates, self._switching
        ):
            if switching:
                terms.append(min(envelope * math.exp(-2.0 * rate * pulse_width), 1.0))
            else:
                terms.append(1.0)
        return math.fsum(terms) / len(terms)

    def word_wer(self, pulse_width) -> float:
        """Expected per-word WER at a per-phase pulse width.

        Population-averaged per-cell WER, union-bounded over the word.
        Accepts a scalar pulse width (returns a float) or an array of
        pulse widths (returns an array, one WER per pulse — the batch
        fast path evaluates the whole sweep in one broadcast).
        """
        if np.ndim(pulse_width) > 0:
            return self._word_wer_batch(np.asarray(pulse_width, dtype=float))
        mean_wer = self.mean_cell_wer(float(pulse_width))
        return min(1.0, max(mean_wer * self.engine.word_bits, 1e-300))

    def _word_wer_batch(self, pulse_widths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`word_wer` over an array of pulse widths."""
        pulses = pulse_widths[:, None]
        per_cell = self._envelope[None, :] * np.exp(
            -2.0 * self._rates[None, :] * pulses
        )
        per_cell = np.where(
            self._switching[None, :], np.minimum(per_cell, 1.0), 1.0
        )
        mean_wer = np.where(
            pulse_widths > 0.0, np.mean(per_cell, axis=1), 1.0
        )
        return np.minimum(
            1.0, np.maximum(mean_wer * self.engine.word_bits, 1e-300)
        )

    def write_margin(self, wer_target: float) -> WriteMarginResult:
        """Solve the pulse width for a per-word WER target.

        Raises:
            UnreachableTargetError: If the target is unreachable: below
                the stuck-cell floor (sub-critical cells whose WER no
                pulse width can fix; that is ECC's job, Fig. 8), or not
                met by the longest pulse of the bracket.
        """
        if not 0.0 < wer_target < 1.0:
            raise ValueError("WER target must be in (0, 1)")
        floor = self._stuck_fraction * self.engine.word_bits
        if wer_target <= floor:
            raise UnreachableTargetError(
                "WER target %.1e below the stuck-cell floor %.1e; "
                "requires error correction" % (wer_target, floor)
            )
        lo, hi = math.log(10e-12), math.log(1e-6)
        what = "WER target %.1e" % wer_target
        if scalar_reference_enabled():
            def gap(log_pulse: float) -> float:
                wer = max(self.word_wer(math.exp(log_pulse)), 1e-299)
                return math.log(wer) - math.log(wer_target)

            log_pulse = brentq_log_root(gap, lo, hi, 1e-4, what)
        else:
            log_pulse, _ = self.kernel.newton_pulse(
                wer_target / self.engine.word_bits, lo, hi, what
            )
        pulse = math.exp(log_pulse)
        total = self.engine._overhead + 2.0 * pulse
        return WriteMarginResult(wer_target, pulse, total)

    # -- reads ----------------------------------------------------------

    def word_rer(self, sense_time, offset_sigma: float = None) -> float:
        """Expected per-word RER for a given development time.

        The developed differential of bit i is I_i * t / C; it must beat
        a Gaussian latch offset.  RER_bit = Q((I_i t / C - 0) / sigma_os)
        ... evaluated per sampled cell and union-bounded over the word.
        Accepts a scalar sense time (returns a float) or an array of
        sense times (returns an array, one RER per time).
        """
        sigma = offset_sigma if offset_sigma is not None else SENSE_MARGIN / 3.0
        if np.ndim(sense_time) > 0:
            return self._word_rer_batch(np.asarray(sense_time, dtype=float), sigma)
        if sense_time <= 0.0:
            return 1.0
        if scalar_reference_enabled():
            return self._word_rer_scalar(float(sense_time), sigma)
        per_cell = ndtr(-(self._developed_per_second * sense_time / sigma))
        return min(1.0, float(np.mean(per_cell)) * self.engine.word_bits)

    def _word_rer_scalar(self, sense_time: float, sigma: float) -> float:
        """Reference kernel: one cell at a time (``REPRO_VAET_SCALAR``).

        Phi(-x) comes from libm's ``erfc``, independent of the numpy
        port the vectorised kernels use.
        """
        terms = [
            0.5 * math.erfc(developed * sense_time / sigma * SQRT1_2)
            for developed in self._developed_per_second
        ]
        mean_rer = math.fsum(terms) / len(terms)
        return min(1.0, mean_rer * self.engine.word_bits)

    def _word_rer_batch(self, sense_times: np.ndarray, sigma: float) -> np.ndarray:
        """Vectorised :meth:`word_rer` over an array of sense times."""
        developed = self._developed_per_second[None, :] * sense_times[:, None]
        per_cell = ndtr(-(developed / sigma))
        mean_rer = np.where(
            sense_times > 0.0, np.mean(per_cell, axis=1), 1.0
        )
        return np.minimum(1.0, mean_rer * self.engine.word_bits)

    def read_margin(self, rer_target: float) -> ReadMarginResult:
        """Solve the sense time for a per-word RER target.

        Raises:
            UnreachableTargetError: If no sense time in the bracket meets
                the target.
        """
        if not 0.0 < rer_target < 1.0:
            raise ValueError("RER target must be in (0, 1)")
        lo, hi = math.log(1e-12), math.log(1e-6)
        what = "RER target %.1e" % rer_target
        if scalar_reference_enabled():
            def gap(log_time: float) -> float:
                return math.log(
                    max(self.word_rer(math.exp(log_time)), 1e-300)
                ) - math.log(rer_target)

            log_time = brentq_log_root(gap, lo, hi, 1e-4, what)
        else:
            # Phi(-k_min t) bounds the mean from above: its root is a
            # start at or beyond the solution.
            mean_rer = rer_target / self.engine.word_bits
            slowest = float(self._sense_gain[0])
            start = (
                math.log(-ndtri(mean_rer) / slowest)
                if mean_rer < 0.5 and slowest > 0.0 else lo
            )
            log_time, _ = newton_log_root(
                self._read_pass, math.log(mean_rer), lo, hi, start, what
            )
        sense_time = math.exp(log_time)
        regen = self.engine.leaf.sense.delay - self.engine.leaf.sense.develop_time
        total = self.engine._overhead + sense_time + regen
        return ReadMarginResult(rer_target, sense_time, total)

    def _read_pass(self, log_time: float):
        """One read-kernel pass: log mean cell RER and its slope in log t.

        Mean Phi(-k t) over the cells, k = developed rate / sigma, and
        its slope -t mean(k phi(k t)) / mean Phi(-k t).  With
        y = k t / sqrt(2), one density exp(-y^2) serves both: the
        slope's phi and, over the sorted gains, the erfc tails of
        :func:`~repro.utils.normal.sorted_sf_sum`.  The pass walks the
        gains in blocks of ``READ_BLOCK``, so each block's temporaries
        stay in cache.
        """
        sense_time = math.exp(log_time)
        scale = sense_time * SQRT1_2
        gain = self._sense_gain
        total = weighted = 0.0
        for start in range(0, len(gain), READ_BLOCK):
            block = gain[start:start + READ_BLOCK]
            scaled = np.multiply(block, scale)
            density = np.exp(-np.square(scaled))
            total += sorted_sf_sum(scaled, density)
            weighted += float(np.dot(block, density))
        if total <= 0.0:
            return -math.inf, math.nan
        slope = weighted * sense_time / math.sqrt(2.0 * math.pi)
        return math.log(total / len(gain)), -slope / total
