"""Monte Carlo engine for word-level write/read statistics.

Writes: a word completes when its slowest bit has switched; two-phase
row writes double the pulse stage.  Reads: the word is sensed in
parallel and completes when the weakest-signal bit has developed the
required margin.  Both are sampled fully vectorised.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.nvsim.bank import BankTiming
from repro.nvsim.subarray import SubarrayTiming
from repro.utils.mathx import median
from repro.vaet.variation_model import (
    VariationModel,
    draw_read_blocks,
    scalar_reference_enabled,
)

#: Cells per chunk of the vectorised write Monte Carlo.  A chunk's
#: columns are 512 KiB each, where one pass over the 384k cells of a
#: 256-bit default-effort Monte Carlo held ten columns of 3 MB.
WRITE_CHUNK = 1 << 16


@dataclass
class WriteSamples:
    """Word-level write Monte Carlo output.

    Attributes:
        latency: Per-word write completion latency [s] (overhead + two
            self-timed phases).
        energy: Per-word write energy [J] at the margined pulse.
        cell_times: Raw per-cell switching times (flattened) [s].
    """

    latency: np.ndarray
    energy: np.ndarray
    cell_times: np.ndarray


@dataclass
class ReadSamples:
    """Word-level read Monte Carlo output.

    Attributes:
        latency: Per-word read latency [s].
        energy: Per-word read energy [J].
        signal_currents: Raw per-cell sense signals (flattened) [A].
    """

    latency: np.ndarray
    energy: np.ndarray
    signal_currents: np.ndarray


class MonteCarloEngine:
    """Word-level sampler bound to one array configuration.

    Args:
        variation: The per-cell variation model.
        subarray_timing: Nominal leaf timing (supplies the RC overheads
            that ride on every access).
        bank_timing: Nominal bank overhead (decoder, H-tree).
        word_bits: Bits per access word.
    """

    def __init__(
        self,
        variation: VariationModel,
        subarray_timing: SubarrayTiming,
        bank_timing: BankTiming,
        word_bits: int,
    ):
        self.variation = variation
        self.leaf = subarray_timing
        self.bank = bank_timing
        self.word_bits = word_bits
        tech = variation.pdk.tech
        self._vdd = tech.vdd
        self._overhead = (
            self.bank.overhead_delay
            + self.leaf.wordline_delay
            + self.leaf.bitline_delay
        )
        self._periphery_energy = (
            self.bank.decoder.energy + self.bank.htree_energy
        )
        self._active_subarrays = variation.subarray.config.active_subarrays

    def sample_writes(
        self, rng: np.random.Generator, num_words: int, margin_sigmas: float = 2.0
    ) -> WriteSamples:
        """Sample ``num_words`` word writes from ``rng``.

        Draws the cells' variation normals, then as
        :meth:`writes_from_normals`.
        """
        size = num_words * self.word_bits
        if not scalar_reference_enabled():
            return self.writes_from_normals(
                rng.standard_normal((4, size)), rng, num_words, margin_sigmas
            )
        variation = self.variation
        cells = variation.sample_cells(rng, size)
        currents = variation.delivered_write_current(cells)
        times = variation._times_at(
            cells.delta, variation._rates_at(cells, currents), rng
        )
        return self._sample_writes_scalar(times, currents, num_words, margin_sigmas)

    def writes_from_normals(
        self, normals: np.ndarray, rng: np.random.Generator, num_words: int,
        margin_sigmas: float = 2.0,
    ) -> WriteSamples:
        """``num_words`` word writes of the cells drawn as ``normals``.

        ``normals`` holds the cells' four blocks of ``num_words`` x
        ``word_bits`` variation normals as rows (see
        :meth:`~repro.vaet.variation_model.VariationModel.cells_from_normals`);
        ``rng`` draws each write's initial angle.

        Latency: overhead + 2 x (max switching time over the word's
        bits) — the self-timed completion of the two write phases.
        Energy: every bit is driven for the *margined* pulse (mean
        completion + ``margin_sigmas`` sigma), since an open-loop array
        cannot cut power per bit the instant it happens to switch.

        The cells are built and timed in chunks of whole words, about
        ``WRITE_CHUNK`` cells each; a word's maximum and current sum
        are reductions over its own row, so no value depends on the
        chunking.
        """
        variation = self.variation
        bits = self.word_bits
        times = np.empty(num_words * bits)
        word_max = np.empty(num_words)
        word_current = np.empty(num_words)
        step = max(1, WRITE_CHUNK // bits)
        for first in range(0, num_words, step):
            words = slice(first, min(first + step, num_words))
            span = slice(words.start * bits, words.stop * bits)
            cells = variation.cells_from_normals(normals[:, span])
            currents = variation.delivered_write_current(cells)
            rates = variation._rates_at(cells, currents)
            delta = cells.delta
            # Only Delta is read from here on: free the other columns
            # before the switching-time pass allocates its own.
            del cells
            chunk = variation._times_at(delta, rates, rng)
            times[span] = chunk
            word_max[words] = np.max(chunk.reshape(-1, bits), axis=1)
            word_current[words] = np.sum(currents.reshape(-1, bits), axis=1)
        # Times are finite or +inf (non-switching): words containing a
        # non-switching cell get the window cap.
        word_max[np.isinf(word_max)] = 100e-9
        latency = self._overhead + 2.0 * word_max

        applied_pulse = 2.0 * (
            float(np.mean(word_max)) + margin_sigmas * float(np.std(word_max))
        )
        cell_energy = word_current * self._vdd * applied_pulse / 2.0
        # The /2 reflects that each bit conducts in only one of the two
        # phases (half the bits per phase on average).
        energy = self._periphery_energy + cell_energy
        return WriteSamples(latency=latency, energy=energy, cell_times=times)

    def _sample_writes_scalar(
        self, times, currents, num_words: int, margin_sigmas: float
    ) -> WriteSamples:
        """Word-at-a-time reference reduction (``REPRO_VAET_SCALAR``).

        Same statistics as the vectorised path from the same per-cell
        samples; word maxima are exact, the mean/std/energy sums differ
        from numpy's pairwise summation only in the last ulp.
        """
        word_max = np.empty(num_words)
        word_current = np.empty(num_words)
        for w in range(num_words):
            worst = 0.0
            stuck = False
            total_current = 0.0
            for b in range(self.word_bits):
                t = times[w * self.word_bits + b]
                if not np.isfinite(t):
                    stuck = True
                else:
                    worst = max(worst, t)
                total_current += currents[w * self.word_bits + b]
            word_max[w] = 100e-9 if stuck else worst
            word_current[w] = total_current
        mean = math.fsum(word_max) / num_words
        variance = math.fsum((t - mean) ** 2 for t in word_max) / num_words
        applied_pulse = 2.0 * (mean + margin_sigmas * math.sqrt(variance))
        latency = self._overhead + 2.0 * word_max
        energy = (
            self._periphery_energy
            + word_current * self._vdd * applied_pulse / 2.0
        )
        return WriteSamples(latency=latency, energy=energy, cell_times=times)

    def sample_reads(
        self, rng: np.random.Generator, num_words: int
    ) -> ReadSamples:
        """Sample ``num_words`` word reads.

        The sense develop time of each bit is C_bl * dV / I_signal with
        the per-cell signal current; the word completes on the slowest
        bit, plus the regeneration time.  Draws the cells' variation
        normals, then as :meth:`reads_from_normals`.
        """
        size = num_words * self.word_bits
        if scalar_reference_enabled():
            cells = self.variation.sample_cells(rng, size)
            signals = self.variation.read_signal_currents(cells)
            return self._sample_reads_scalar(
                cells, signals, self._develop_times(signals), num_words
            )
        return self.reads_from_normals(draw_read_blocks(rng, size), num_words)

    def reads_from_normals(self, blocks, num_words: int) -> ReadSamples:
        """``num_words`` word reads of the cells drawn as ``blocks``.

        ``blocks`` are the cells' diameter, RA and drive-strength blocks
        of ``num_words`` x ``word_bits`` normals
        (:func:`~repro.vaet.variation_model.draw_read_blocks`): the read
        path needs R_P and drive strength only.
        """
        from repro.nvsim.subarray import READ_BIAS

        resistance_p, strength = self.variation.read_cells(blocks)
        read_currents, signals = self.variation.read_path_currents(
            resistance_p, strength
        )
        del resistance_p, strength
        develop = self._develop_times(signals)
        matrix = develop.reshape(num_words, self.word_bits)
        word_develop = np.max(matrix, axis=1)
        regen = self.leaf.sense.delay - self.leaf.sense.develop_time
        latency = self._overhead + word_develop + regen

        # Energy: mirror the nominal decomposition (periphery + wordline
        # + per-bit bitline swing + sense static) and add the per-cell
        # conduction term (the parallel-state read current), which
        # scales with the word's develop time.
        current_matrix = read_currents.reshape(num_words, self.word_bits)
        bit_energy = (
            np.sum(current_matrix, axis=1) * READ_BIAS * np.maximum(word_develop, 0.0)
        )
        subarray = self.variation.subarray
        wordline = self._active_subarrays * subarray.wordline_energy()
        bitline_swing = (
            self.word_bits
            * subarray.bitline.capacitance
            * READ_BIAS
            * self._vdd
        )
        sense_static = self.word_bits * self.leaf.sense.energy
        energy = (
            self._periphery_energy + wordline + bitline_swing + sense_static + bit_energy
        )
        return ReadSamples(latency=latency, energy=energy, signal_currents=signals)

    def _develop_times(self, signals: np.ndarray) -> np.ndarray:
        """Per-cell develop time from the capacitance the nominal model
        used: t_nom = C dV / I_nom => C dV = t_nom * I_nom."""
        nominal_signal = median(signals)
        cdv = self.leaf.sense.develop_time * nominal_signal
        return cdv / np.maximum(signals, 1e-9)

    def _sample_reads_scalar(
        self, cells, signals, develop, num_words: int
    ) -> ReadSamples:
        """Word-at-a-time reference reduction (``REPRO_VAET_SCALAR``)."""
        from repro.nvsim.subarray import READ_BIAS

        read_currents = READ_BIAS / (
            cells.resistance_p
            + self.variation._fixed_path_r / np.sqrt(cells.drive_strength)
        )
        word_develop = np.empty(num_words)
        word_current = np.empty(num_words)
        for w in range(num_words):
            worst = -np.inf
            total_current = 0.0
            for b in range(self.word_bits):
                worst = max(worst, develop[w * self.word_bits + b])
                total_current += read_currents[w * self.word_bits + b]
            word_develop[w] = worst
            word_current[w] = total_current
        regen = self.leaf.sense.delay - self.leaf.sense.develop_time
        latency = self._overhead + word_develop + regen
        bit_energy = word_current * READ_BIAS * np.maximum(word_develop, 0.0)
        subarray = self.variation.subarray
        wordline = self._active_subarrays * subarray.wordline_energy()
        bitline_swing = (
            self.word_bits
            * subarray.bitline.capacitance
            * READ_BIAS
            * self._vdd
        )
        sense_static = self.word_bits * self.leaf.sense.energy
        energy = (
            self._periphery_energy + wordline + bitline_swing + sense_static + bit_energy
        )
        return ReadSamples(latency=latency, energy=energy, signal_currents=signals)
