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

One :class:`ErrorRateAnalysis` is the error population: everything
the margin solves, the ECC sweep and the read-disturb bound read of
the sampled cells.  Both Newton solves run on its kernels, the write
kernel (:class:`WriteKernel`) and the read kernel of ascending sense
gains (:class:`ReadKernel`).  The population reads nothing of the
word: it is a function of the PDK, temperature, seed and size, the
array's fixed path resistance and its sense develop time alone.  So
the word-level solves take the array whose words they serve
(``engine``), and :class:`repro.vaet.explorer.DesignSpaceExplorer`
keeps one population for its word-width, column and target siblings,
each of which builds its ECC sweep and disturb bound over it through
their ordinary constructors.

Binned passes.  A pass sums a smooth function of each cell's rate (or
gain) over the whole population, so, as in the fast Gauss transform
(Greengard and Strain, "The fast Gauss transform", SIAM J. Sci. Stat.
Comput. 12(1), 1991), each kernel also keeps its cells grouped into
bins of width ``WRITE_BIN_WIDTH`` in log r (``READ_BIN_WIDTH`` in log
k) with a few moments per bin (:class:`MomentBins`): sum w o^n / n! for
n below the order, where o = v / c - 1 is a cell's relative offset from
its bin centre c, and w its weight (the WER envelope of a write cell, 1
for a read cell).  A pass then sums, per bin, the Taylor series of the
kernel about the centre: e^(-2 c t (1 + o)) for writes, and
Phi(-c t (1 + o)) for reads, whose derivatives are Hermite polynomials
times the Gaussian density.  Each binned pass also sums a rigorous
bound on the Lagrange remainder of its series, and of its slope's.  It
returns its value only when both bounds are at most ``BIN_RTOL`` of
the value and of the slope, and when no write cell can reach the WER
cap of 1; otherwise it runs the per-cell pass (``cell_pass``).  That
happens where the series converge slowly or the cap binds: the cap
region, the bracket ends and deep-tail probes.  A kernel with fewer
than ``BIN_MIN_FILL`` cells per bin of its range holds no bins and
always runs the per-cell pass.  Every solve of a kernel goes through the same
``write_pass``/``read_pass``, so there is no second solver path.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from repro.nvsim.subarray import SENSE_MARGIN
from repro.utils.normal import (
    SQRT1_2,
    ndtr,
    ndtri,
    sorted_sf,
    sorted_sf_sum,
)
from repro.utils.blocks import map_blocks
from repro.utils.roots import brentq
from repro.vaet.montecarlo import MonteCarloEngine, word_blocks
from repro.vaet.read_disturb import dwell_times
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

#: Bin width in log rate, and moments per bin, of the write kernel.  At
#: the default 200k cells this gives ~260-330 bins; the remainder bound
#: of order 9 holds at every Newton pass of the ECC sweeps.
WRITE_BIN_WIDTH = 0.004
WRITE_BIN_ORDER = 9
#: Bin width in log gain, and moments per bin, of the read kernel
#: (~570-690 bins at 200k cells).
READ_BIN_WIDTH = 1e-3
READ_BIN_ORDER = 8
#: A binned pass is used only when its remainder bounds are at most
#: this share of its value and of its slope.
BIN_RTOL = 1e-14
#: A kernel is binned only with at least this many cells per bin that
#: its range spans: below it the bins save little and their build costs
#: more than the passes they serve (10k cells span ~225-375 write bins).
BIN_MIN_FILL = 64

_TINY = np.finfo(float).tiny
_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: Cramer's inequality, |He_n(x)| e^(-x^2/4) <= K sqrt(n!), with
#: K = 1.086435 rounded up.
_CRAMER = 1.09


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


def _hermite_pair(x, n: int):
    """``(He_(n-1)(x), He_n(x))``, probabilists' Hermite polynomials,
    by their recurrence He_(k+1) = x He_k - k He_(k-1); ``n >= 1``."""
    prev, cur = 1.0, x
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return prev, cur


def _largest_hermite_root(n: int) -> float:
    """An upper bound, tight to rounding, on the largest zero of He_n.

    Newton from ``sqrt(4n + 2)``, above every zero, where He_n is
    increasing and convex, so each step stays above the zero.
    """
    x = math.sqrt(4.0 * n + 2.0)
    while True:
        lower, value = _hermite_pair(x, n)
        step = value / (n * lower)
        x -= step
        if step <= 1e-15 * x:
            return x + 1e-9


class MomentBins:
    """A cell population grouped into bins of equal width in log value.

    Bin j holds the cells with ``v_min e^(j width) <= v < v_min
    e^((j + 1) width)``; its centre is ``c = v_min e^((j + 1/2)
    width)``, and its moments are the sums of ``w o^n / n!`` over its
    cells, with ``o = v / c - 1`` a cell's relative offset and ``w`` its
    weight.  Only occupied bins are kept, in ascending order.  The build
    is sort-free: one ``bincount`` per moment, or, over ``ascending``
    values, one ``reduceat`` over contiguous slices.

    Attributes:
        centre: Bin centres, ascending.
        moments: ``(order, bins)`` array of the scaled moments.
        spread: The largest ``|o|`` of any cell.
        total_weight: Sum of all weights.
    """

    def __init__(self, values: np.ndarray, weights, width: float,
                 order: int, ascending: bool = False):
        if ascending:
            low = math.log(float(values[0]))
            steps = np.arange(int((math.log(float(values[-1])) - low) / width) + 1)
            ends = np.searchsorted(values, np.exp(low + (steps + 1) * width))
            ends[-1] = len(values)
            counts = np.diff(ends, prepend=0)
            occupied = np.flatnonzero(counts)
            starts = ends[occupied] - counts[occupied]
            self.centre = np.exp(low + (occupied + 0.5) * width)
            offset = values / np.repeat(self.centre, counts[occupied])

            def bin_sums(term):
                return np.add.reduceat(term, starts)
        else:
            logs = np.log(values)
            low = float(logs.min())
            index = ((logs - low) * (1.0 / width)).astype(np.intp)
            counts = np.bincount(index)
            occupied = np.flatnonzero(counts)
            index = (np.cumsum(counts > 0) - 1)[index]
            self.centre = np.exp(low + (occupied + 0.5) * width)
            offset = values / self.centre[index]

            def bin_sums(term):
                return np.bincount(index, term, minlength=len(occupied))
        offset -= 1.0
        self.spread = float(np.abs(offset).max())
        self.moments = np.empty((order, len(occupied)))
        term = np.ones_like(offset) if weights is None else weights.copy()
        for n in range(order):
            self.moments[n] = bin_sums(term)
            self.moments[n] /= math.factorial(n)
            if n + 1 < order:
                term *= offset
        self.total_weight = float(self.moments[0].sum())

    @classmethod
    def build(cls, values: np.ndarray, weights, width: float, order: int,
              ascending: bool = False):
        """The bins of ``values`` (all positive), or None when the
        population has fewer than ``BIN_MIN_FILL`` cells per bin that
        its range spans.  The test reads only the extreme values, so a
        small population pays nothing for it."""
        if len(values) < BIN_MIN_FILL:
            return None
        if ascending:
            low, high = float(values[0]), float(values[-1])
        else:
            low, high = float(values.min()), float(values.max())
        if not low > 0.0:
            return None
        spanned = math.log(high / low) / width + 1.0
        if len(values) < BIN_MIN_FILL * spanned:
            return None
        return cls(values, weights, width, order, ascending)


def _horner(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sum_n rows[n] z^n`` elementwise."""
    out = rows[-1].copy()
    for row in rows[-2::-1]:
        out *= z
        out += row
    return out


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
    pulse, and the rates' :class:`MomentBins` (None for a small
    population).  :meth:`ErrorRateAnalysis.write_margin`, the ECC
    pulse inversion (:class:`repro.vaet.ecc.ECCAnalysis`) and the
    population-mean WER all read it.

    Args:
        rates: Precessional rate of each switching cell [1/s].
        envelope: WER envelope ``pi^2 Delta / 4`` of each switching cell.
        population: Cells sampled, stuck ones included.
    """

    def __init__(self, rates: np.ndarray, envelope: np.ndarray,
                 population: int):
        self.rates = rates
        self.envelope = envelope
        self.population = population
        self.stuck_count = float(population - len(rates))
        #: Share of the population that never switches.
        self.stuck_fraction = self.stuck_count / population
        self.bins = MomentBins.build(
            rates, envelope, WRITE_BIN_WIDTH, WRITE_BIN_ORDER
        )
        if self.bins is not None:
            bins = self.bins
            # The slope's series: sum_n n m_n z^(n-1).
            self._slope_moments = (
                np.arange(1, WRITE_BIN_ORDER)[:, None] * bins.moments[1:]
            )
            # No cell reaches WER 1 while 2 r_min t > log(max envelope).
            self._cap_rate = 0.5 * math.log(float(envelope.max())) / float(
                rates.min()
            )

    def write_pass(self, log_pulse: float):
        """One write-kernel pass: log mean cell WER and its slope in log t.

        Binned when the remainder bound allows it (see the module
        docstring), else :meth:`cell_pass`.
        """
        if self.bins is not None:
            result = self._binned_pass(math.exp(log_pulse))
            if result is not None:
                return result
        return self.cell_pass(log_pulse)

    def _binned_pass(self, pulse: float):
        """:meth:`cell_pass` from the bins, or None where its remainder
        bound is too loose or a cell may reach the WER cap.

        With x = 2 c t per bin and z = -x, the bin's WER sum is
        e^-x P(z), P(z) = sum_n m_n z^n, and its sum of r WER is
        c e^-x (P(z) + P'(z)).  Each cell's truncated series
        e^(-x o) misses at most e^u u^N / N! with u = x |o|max, N the
        order; the slope's sum misses c (1 + N/x) times that.
        """
        if pulse <= self._cap_rate:
            return None
        bins = self.bins
        x = bins.centre * (2.0 * pulse)
        z = -x
        decay = np.exp(z)
        series = _horner(bins.moments, z)
        value = float(np.dot(decay, series))
        series += _horner(self._slope_moments, z)
        decay *= bins.centre
        decay_rate = float(np.dot(decay, series))
        u = x * bins.spread
        remainder = np.exp(u - x)
        remainder *= u ** WRITE_BIN_ORDER
        remainder *= bins.moments[0]
        remainder /= math.factorial(WRITE_BIN_ORDER)
        value_bound = float(remainder.sum()) + _TINY * bins.total_weight
        remainder *= bins.centre
        remainder *= 1.0 + WRITE_BIN_ORDER / x
        rate_bound = float(remainder.sum()) + (
            _TINY * bins.total_weight * float(bins.centre[-1])
            * (1.0 + bins.spread)
        )
        total = value + self.stuck_count
        if not (value_bound <= BIN_RTOL * total
                and rate_bound <= BIN_RTOL * decay_rate):
            return None
        return (math.log(total / self.population),
                -2.0 * pulse * decay_rate / total)

    def cell_pass(self, log_pulse: float):
        """The write pass over every cell.

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


class ReadKernel:
    """The Newton read kernel of one cell population.

    The cells' ascending gains k (developed rate over the latch offset
    sigma), read-only, and their :class:`MomentBins` (None for a small
    population).  The mean cell RER at sense time t is the mean of
    Phi(-k t).  Like :class:`WriteKernel`, it reads nothing of the
    word, so sibling points share it.

    Args:
        gain: Ascending gains of the cells [1/s].
    """

    def __init__(self, gain: np.ndarray):
        self.gain = gain
        self.bins = MomentBins.build(
            gain, None, READ_BIN_WIDTH, READ_BIN_ORDER, ascending=True
        )
        if self.bins is not None:
            moments = self.bins.moments
            # The slope's series pairs m_n with (n + 1) m_(n+1).
            self._slope_moments = moments.copy()
            self._slope_moments[:-1] += (
                np.arange(1, READ_BIN_ORDER)[:, None] * moments[1:]
            )

    def newton_time(self, mean_rer: float, lo: float, hi: float, what: str):
        """Newton solve of mean cell RER = ``mean_rer`` for a log sense
        time; returns the root and the last pass.

        Phi(-k_min t) bounds the mean from above: its root is a start at
        or beyond the solution.
        """
        slowest = float(self.gain[0])
        start = (
            math.log(-ndtri(mean_rer) / slowest)
            if mean_rer < 0.5 and slowest > 0.0 else lo
        )
        return newton_log_root(
            self.read_pass, math.log(mean_rer), lo, hi, start, what
        )

    def read_pass(self, log_time: float):
        """One read-kernel pass: log mean cell RER and its slope in log t.

        Binned when the remainder bound allows it (see the module
        docstring), else :meth:`cell_pass`.
        """
        if self.bins is not None:
            result = self._binned_pass(math.exp(log_time))
            if result is not None:
                return result
        return self.cell_pass(log_time)

    def _binned_pass(self, sense_time: float):
        """:meth:`cell_pass` from the bins, or None where its remainder
        bound is too loose.

        With y = c t per bin, a cell's Phi(-y (1 + o)) is Phi(-y) plus
        phi(y) sum_(n>=1) (-y)^n He_(n-1)(y) o^n / n!, and its k phi(k t)
        is c phi(y) (1 + o) sum_n (-y)^n He_n(y) o^n / n!.  The series
        of order N misses at most v^N / N! max |He_(N-1)| phi over the
        bin, v = y |o|max, and the slope's c (v^N / N! max |He_N| phi +
        |o|max v^(N-1) / (N-1)! max |He_(N-1)| phi).  Past the largest
        zero of He_(m+1), |He_m| phi falls, so its maximum sits at the
        bin's low end y - v; below it Cramer's inequality bounds it.
        """
        bins = self.bins
        order = READ_BIN_ORDER
        y = bins.centre * sense_time
        density = np.exp(-0.5 * np.square(y))
        # terms[n] = (-y)^n He_n(y), by He's recurrence times (-y)^(n+1):
        # terms[n+1] = -y^2 (terms[n] + n terms[n-1]).
        terms = np.empty((order, len(y)))
        terms[0] = 1.0
        np.square(y, out=terms[1])
        np.negative(terms[1], out=terms[1])
        for n in range(1, order - 1):
            np.multiply(terms[n - 1], n, out=terms[n + 1])
            terms[n + 1] += terms[n]
            terms[n + 1] *= terms[1]
        # The value's series is -y sum_n (-y)^n He_n m_(n+1).
        tails = sorted_sf(y * SQRT1_2, density)
        density /= _SQRT_2PI
        value = float(np.dot(tails, bins.moments[0])) - float(np.vdot(
            terms[:-1], bins.moments[1:] * (y * density)
        ))
        density *= bins.centre
        rate = float(np.vdot(terms, self._slope_moments * density))
        v = y * bins.spread
        low = y - v
        near, far = _hermite_pair(low, order)
        low_density = np.exp(-0.5 * np.square(low))
        low_density /= _SQRT_2PI
        cramer = np.exp(-0.25 * np.square(np.maximum(low, 0.0)))
        cramer *= _CRAMER / _SQRT_2PI
        near_peak = np.where(
            low >= _HERMITE_ROOTS[0], np.abs(near) * low_density,
            cramer * math.sqrt(math.factorial(order - 1)),
        )
        far_peak = np.where(
            low >= _HERMITE_ROOTS[1], np.abs(far) * low_density,
            cramer * math.sqrt(math.factorial(order)),
        )
        term = v ** order / math.factorial(order)
        term *= bins.moments[0]
        value_bound = float(np.dot(term, near_peak)) + _TINY * bins.total_weight
        rate_bound = float(np.dot(term * bins.centre, far_peak + (
            order * bins.spread / np.maximum(v, _TINY)) * near_peak
        )) + _TINY * bins.total_weight * float(bins.centre[-1])
        if not (value_bound <= BIN_RTOL * value
                and rate_bound <= BIN_RTOL * rate):
            return None
        return (math.log(value / bins.total_weight),
                -sense_time * rate / value)

    def cell_pass(self, log_time: float):
        """The read pass over every cell.

        Mean Phi(-k t) over the cells and its slope
        -t mean(k phi(k t)) / mean Phi(-k t).  With y = k t / sqrt(2),
        one density exp(-y^2) serves both: the slope's phi and, over the
        sorted gains, the erfc tails of
        :func:`~repro.utils.normal.sorted_sf_sum`.  The pass walks the
        gains in blocks of ``READ_BLOCK``, so each block's temporaries
        stay in cache.
        """
        sense_time = math.exp(log_time)
        scale = sense_time * SQRT1_2
        gain = self.gain
        total = weighted = 0.0
        for start in range(0, len(gain), READ_BLOCK):
            block = gain[start:start + READ_BLOCK]
            scaled = np.multiply(block, scale)
            density = np.exp(-np.square(scaled))
            total += sorted_sf_sum(scaled, density)
            weighted += float(np.dot(block, density))
        if total <= 0.0:
            return -math.inf, math.nan
        slope = weighted * sense_time / _SQRT_2PI
        return math.log(total / len(gain)), -slope / total


#: Upper bounds on the largest zeros of He_N and He_(N+1), N the read
#: order: past them |He_(N-1)| phi and |He_N| phi fall.
_HERMITE_ROOTS = (
    _largest_hermite_root(READ_BIN_ORDER),
    _largest_hermite_root(READ_BIN_ORDER + 1),
)


#: The cell columns an error population keeps past its build: its
#: readers past there (read disturb, retention faults) take Delta, R_P,
#: drive strength and I_c0 only.
KEPT_COLUMNS = ("delta", "critical_current", "resistance_p", "drive_strength")


def _kept(cells: CellSamples) -> CellSamples:
    """``cells`` with every column but :data:`KEPT_COLUMNS` set to None."""
    return replace(cells, **{
        field.name: None for field in fields(cells)
        if field.name not in KEPT_COLUMNS
    })


def _cell_columns(variation, cells: CellSamples):
    """The switching rate, read signal and read-disturb 1/tau of each
    of ``cells``, each a fresh array."""
    rates = variation.switching_rates(cells)
    signals = variation.read_signal_currents(cells)
    inverse_tau = dwell_times(variation, cells)
    np.divide(1.0, inverse_tau, out=inverse_tau)
    return rates, signals, inverse_tau


def _build_population(variation, normals: np.ndarray):
    """The cells of ``normals`` (four rows of standard normals) and
    their :func:`_cell_columns`.

    Built in blocks of ``WRITE_CHUNK`` cells
    (:func:`~repro.utils.blocks.map_blocks`), each writing its slice of
    the kept columns and of the three per-cell columns; a single block
    is built inline, and its kept columns are the cells' own arrays.
    """
    blocks = word_blocks(normals.shape[1], 1)
    if len(blocks) == 1:
        cells = variation.cells_from_normals(normals)
        return (cells,) + _cell_columns(variation, cells)
    kept = {name: np.empty(normals.shape[1]) for name in KEPT_COLUMNS}
    columns = tuple(np.empty(normals.shape[1]) for _ in range(3))

    def build(block):
        span = block[1]
        cells = variation.cells_from_normals(normals[:, span])
        for name, column in kept.items():
            column[span] = getattr(cells, name)
        for column, values in zip(columns, _cell_columns(variation, cells)):
            column[span] = values

    map_blocks(build, blocks)
    cells = CellSamples(**{
        field.name: kept.get(field.name) for field in fields(CellSamples)
    })
    return (cells,) + columns


class ErrorRateAnalysis:
    """The error population of one array, and its WER/RER margin solver.

    Samples the population once.  On the vectorised path its cells are
    the first ``4 * population`` normals of the seed's stream
    (:func:`~repro.vaet.variation_model.normals_prefix`), shared with
    every analysis and Monte Carlo write of that seed in the process.
    The build reduces the cells to what every consumer reads: the write
    kernel, the read kernel, the stuck-cell floor and the read-disturb
    mean 1/tau.  The margin solves, the ECC sweep
    (:class:`repro.vaet.ecc.ECCAnalysis`) and the disturb bound
    (:class:`repro.vaet.read_disturb.ReadDisturbAnalysis`) all read
    these; under ``REPRO_VAET_SCALAR`` the per-cell reference kernels
    iterate the same kernel arrays, and brentq replaces Newton.

    Attributes:
        engine: The array the population was drawn for.
        cells: Delta, R_P, drive strength and I_c0 of every cell, for
            the per-cell readers (the Fig. 9 curve, retention faults);
            None where a holder that keeps only the kernels (the
            explorer's population memo) released them.
        kernel: The :class:`WriteKernel`, its arrays one read-only block.
        read_kernel: The :class:`ReadKernel`, its gains read-only.
        wer_floor: The population-mean WER no pulse gets below,
            ``mean_cell_wer(1.0)``: the stuck cells' share.
        mean_inverse_tau: Population mean of 1/tau, the cells' mean
            read-disturb dwell rate [1/s].
    """

    def __init__(self, engine: MonteCarloEngine, population: int = 200_000,
                 seed: int = 2018):
        self.engine = engine
        variation = engine.variation
        if scalar_reference_enabled():
            cells = variation.sample_cells(np.random.default_rng(seed), population)
            rates, signals, inverse_tau = _cell_columns(variation, cells)
        else:
            cells, rates, signals, inverse_tau = _build_population(
                variation, normals_prefix(seed, 4 * population).reshape(4, -1)
            )
        self.cells: Optional[CellSamples] = _kept(cells)
        del cells
        # The disturb bound reads only the mean of 1/tau.
        self.mean_inverse_tau = float(np.mean(inverse_tau))
        del inverse_tau
        # The switching cells' rates and envelopes pi^2 Delta / 4, in
        # one read-only block.
        switching = rates > 0.0
        block = np.empty((2, int(np.count_nonzero(switching))))
        np.compress(switching, rates, out=block[0])
        np.compress(switching, self.cells.delta, out=block[1])
        del rates, switching
        block[1] *= math.pi ** 2
        block[1] /= 4.0
        block.flags.writeable = False
        self.kernel = WriteKernel(block[0], block[1], population)
        # One sort gives both the median (np.median's two middle order
        # statistics) and the read kernel's per-cell k in Phi(-k t),
        # ascending so that each erfc branch of a pass is one contiguous
        # slice: dividing by positive constants keeps the order.
        signals.sort()
        middle = len(signals) // 2
        self._nominal_signal = float(
            signals[middle] if len(signals) % 2
            else np.mean(signals[middle - 1:middle + 1])
        )
        cdv = engine.leaf.sense.develop_time * self._nominal_signal
        # C such that t_nom develops dV across the nominal cell.
        self._capacitance_equiv = cdv / SENSE_MARGIN
        # k = I / (C sigma), sigma the latch offset.
        signals /= self._capacitance_equiv
        signals /= SENSE_MARGIN / 3.0
        signals.flags.writeable = False
        self.read_kernel = ReadKernel(signals)
        # 1 s pulse: only stuck cells remain.
        self.wer_floor = self.mean_cell_wer(1.0)

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
        kernel = self.kernel
        per_cell = kernel.envelope * np.exp(-2.0 * kernel.rates * pulse_width)
        np.minimum(per_cell, 1.0, out=per_cell)
        return (float(per_cell.sum()) + kernel.stuck_count) / kernel.population

    def _mean_cell_wer_scalar(self, pulse_width: float) -> float:
        """Reference kernel: one cell at a time (``REPRO_VAET_SCALAR``),
        each stuck cell counted as WER 1."""
        kernel = self.kernel
        terms = [
            min(envelope * math.exp(-2.0 * rate * pulse_width), 1.0)
            for envelope, rate in zip(kernel.envelope, kernel.rates)
        ]
        terms.append(kernel.stuck_count)
        return math.fsum(terms) / kernel.population

    def word_wer(self, pulse_width: float) -> float:
        """Expected per-word WER at a per-phase pulse width.

        Population-averaged per-cell WER, union-bounded over the word.
        """
        mean_wer = self.mean_cell_wer(float(pulse_width))
        return min(1.0, max(mean_wer * self.engine.word_bits, 1e-300))

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
        floor = self.kernel.stuck_fraction * self.engine.word_bits
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

    def word_rer(self, sense_time: float) -> float:
        """Expected per-word RER for a given development time.

        The developed differential of bit i is I_i * t / C; it must beat
        a Gaussian latch offset sigma.  RER_bit = Q(I_i t / (C sigma)) =
        Phi(-k_i t), k_i the read kernel's gain, evaluated per sampled
        cell and union-bounded over the word.
        """
        if sense_time <= 0.0:
            return 1.0
        if scalar_reference_enabled():
            return self._word_rer_scalar(float(sense_time), self.engine.word_bits)
        per_cell = ndtr(-(self.read_kernel.gain * sense_time))
        return min(1.0, float(np.mean(per_cell)) * self.engine.word_bits)

    def _word_rer_scalar(self, sense_time: float, word_bits: int) -> float:
        """Reference kernel: one cell at a time (``REPRO_VAET_SCALAR``).

        Phi(-x) comes from libm's ``erfc``, independent of the numpy
        port the vectorised kernels use.
        """
        gains = self.read_kernel.gain
        terms = [0.5 * math.erfc(gain * sense_time * SQRT1_2) for gain in gains]
        return min(1.0, math.fsum(terms) / len(terms) * word_bits)

    def read_margin(self, rer_target: float,
                    engine: Optional[MonteCarloEngine] = None
                    ) -> ReadMarginResult:
        """Solve the sense time for a per-word RER target.

        Args:
            rer_target: Per-word read error rate target.
            engine: The array whose words are read; by default the one
                the population was drawn for.  The population reads
                nothing of the word, so any array of the same node,
                subarray height and develop time may share it.

        Raises:
            UnreachableTargetError: If no sense time in the bracket meets
                the target.
        """
        if not 0.0 < rer_target < 1.0:
            raise ValueError("RER target must be in (0, 1)")
        engine = self.engine if engine is None else engine
        lo, hi = math.log(1e-12), math.log(1e-6)
        what = "RER target %.1e" % rer_target
        if scalar_reference_enabled():
            def gap(log_time: float) -> float:
                rer = self._word_rer_scalar(math.exp(log_time), engine.word_bits)
                return math.log(max(rer, 1e-300)) - math.log(rer_target)

            log_time = brentq_log_root(gap, lo, hi, 1e-4, what)
        else:
            log_time, _ = self.read_kernel.newton_time(
                rer_target / engine.word_bits, lo, hi, what
            )
        sense_time = math.exp(log_time)
        regen = engine.leaf.sense.delay - engine.leaf.sense.develop_time
        total = engine._overhead + sense_time + regen
        return ReadMarginResult(rer_target, sense_time, total)
