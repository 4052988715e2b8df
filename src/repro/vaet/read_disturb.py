"""Read-disturb analysis (Fig. 9).

"The read operation in STT-MRAM is also affected by read disturb,
where the read current accidentally flips the data stored in the MTJ
... Even though a higher read latency leads to a lower RER as per
Fig. 7, it will lead to increased read disturb probability as shown in
Fig. 9.  Hence the read period should be fixed considering the
conflicting requirements for RER and read disturb."

The disturb is a thermally-activated reversal over the barrier lowered
by the read current: P = 1 - exp(-t_read / tau), tau = tau0 *
exp(Delta (1 - I_read/I_c0)), population-averaged over process
variation (weak cells dominate, as always).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.core.thermal import ATTEMPT_TIME
from repro.nvsim.subarray import READ_BIAS


def dwell_times(variation, cells) -> np.ndarray:
    """Each cell's mean time to a read-disturb flip, tau [s].

    tau = tau0 exp(min(Delta (1 - min(I_read / I_c0, 0.999)), 700)) with
    I_read = V_read / (R_P + R_fixed / sqrt(strength)), built in one
    array in place.

    Args:
        variation: The :class:`~repro.vaet.variation_model.VariationModel`
            the cells were drawn from (its fixed path resistance).
        cells: Cells with Delta, R_P, drive strength and I_c0.
    """
    tau = np.sqrt(cells.drive_strength)
    np.divide(variation._fixed_path_r, tau, out=tau)
    tau += cells.resistance_p
    np.divide(READ_BIAS, tau, out=tau)
    tau /= cells.critical_current
    np.minimum(tau, 0.999, out=tau)
    np.subtract(1.0, tau, out=tau)
    tau *= cells.delta
    np.minimum(tau, 700.0, out=tau)
    np.exp(tau, out=tau)
    tau *= ATTEMPT_TIME
    return tau


@dataclass(frozen=True)
class ReadDisturbPoint:
    """One point of the Fig. 9 curve.

    Attributes:
        read_period: Read current exposure time [s].
        per_bit_probability: Population-mean per-bit disturb probability.
        per_word_probability: Union bound over the word.
    """

    read_period: float
    per_bit_probability: float
    per_word_probability: float


class ReadDisturbAnalysis:
    """Read-disturb probability vs read period for one array.

    Args:
        analysis: The error population
            (:class:`~repro.vaet.error_rates.ErrorRateAnalysis`), whose
            mean 1/tau the disturb bound reads.
        engine: The array whose words are read; by default the one the
            population was drawn for.  The population reads nothing of
            the word, so any array of the same node and subarray height
            may share it.
    """

    def __init__(self, analysis, engine=None):
        self.analysis = analysis
        self.engine = analysis.engine if engine is None else engine
        #: Population mean of 1/tau, all :meth:`max_read_period` reads.
        self.mean_inverse_tau = analysis.mean_inverse_tau

    @cached_property
    def _tau(self) -> np.ndarray:
        """Every cell's tau, for the Fig. 9 curve (needs the cells)."""
        return dwell_times(self.analysis.engine.variation, self.analysis.cells)

    def per_bit_probability(self, read_period: float) -> float:
        """Population-mean per-bit disturb probability for one read."""
        if read_period < 0.0:
            raise ValueError("read period must be non-negative")
        ratio = read_period / self._tau
        probability = -np.expm1(-np.minimum(ratio, 700.0))
        return float(np.mean(probability))

    def point(self, read_period: float) -> ReadDisturbPoint:
        """Evaluate one read period."""
        per_bit = self.per_bit_probability(read_period)
        per_word = min(1.0, per_bit * self.engine.word_bits)
        return ReadDisturbPoint(read_period, per_bit, per_word)

    def sweep(self, read_periods: Sequence[float]) -> List[ReadDisturbPoint]:
        """The Fig. 9 sweep over read periods."""
        return [self.point(t) for t in read_periods]

    def max_read_period(self, per_word_budget: float) -> float:
        """Longest read period keeping the word disturb under budget.

        The inverse question Fig. 9 exists to answer: the read period
        must satisfy the RER floor (Fig. 7) from below and this bound
        from above.
        """
        if not 0.0 < per_word_budget < 1.0:
            raise ValueError("budget must be in (0, 1)")
        # P ~ t * mean(1/tau) for small P: invert directly.
        return per_word_budget / (self.engine.word_bits * self.mean_inverse_tau)
