"""Retention-fault accumulation and scrubbing analysis.

The write-path analyses (Figs. 7-8) margin against *write* errors;
over the storage lifetime, thermally-activated retention flips
accumulate instead.  With a t-error-correcting code per word, the array
fails when t+1 flips gather in one word between scrub passes — so the
scrub interval is the design knob trading controller energy against
the uncorrectable-failure (FIT) target.

Process variation matters here even more than for writes: the mean
per-bit flip rate is dominated by the weak-Delta tail of the cell
population, exactly like the read-disturb analysis.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.thermal import ATTEMPT_TIME
from repro.utils.roots import brentq
from repro.vaet.ecc import block_failure_probability
from repro.vaet.error_rates import ErrorRateAnalysis

#: One FIT = one failure per 1e9 device-hours.
FIT_HOURS = 1e9


@dataclass(frozen=True)
class ScrubPoint:
    """One scrub-interval evaluation.

    Attributes:
        scrub_interval: Time between scrub passes [s].
        per_bit_flip_probability: Population-mean P(flip) per interval.
        word_failure_probability: P(> t flips in one word) per interval.
        array_fit: Uncorrectable-failure rate of the whole array [FIT].
    """

    scrub_interval: float
    per_bit_flip_probability: float
    word_failure_probability: float
    array_fit: float


class RetentionFaultModel:
    """Retention-flip statistics over a sampled cell population.

    Args:
        analysis: The shared cell population (reuses the Fig. 7
            sampler so the weak-cell tail is consistent across
            analyses).
        ecc_correct_bits: Correction capability t of the word ECC.
        temperature_factor: Multiplier on 1/Delta for hot operation
            (1.0 = the population's native temperature).
        screen_quantile: Fraction of the weakest-Delta cells mapped out
            by factory retention test and repaired with redundancy —
            standard STT-MRAM practice, since the retention tail is
            *static* (the same weak cells always fail) and therefore
            repairable, unlike the stochastic write tail.
    """

    def __init__(
        self,
        analysis: ErrorRateAnalysis,
        ecc_correct_bits: int = 1,
        temperature_factor: float = 1.0,
        screen_quantile: float = 0.001,
    ):
        if ecc_correct_bits < 0:
            raise ValueError("ECC capability must be non-negative")
        if temperature_factor <= 0.0:
            raise ValueError("temperature factor must be positive")
        if not 0.0 <= screen_quantile < 0.5:
            raise ValueError("screen quantile must be in [0, 0.5)")
        self.analysis = analysis
        self.engine = analysis.engine
        self.ecc_correct_bits = ecc_correct_bits
        self.screen_quantile = screen_quantile
        delta = analysis.cells.delta / temperature_factor
        if screen_quantile > 0.0:
            threshold = np.quantile(delta, screen_quantile)
            delta = delta[delta >= threshold]
            self.screen_delta_threshold = float(threshold)
        else:
            self.screen_delta_threshold = 0.0
        exponent = np.minimum(delta, 700.0)
        self._tau = ATTEMPT_TIME * np.exp(exponent)

    @property
    def words_in_array(self) -> int:
        """Word count of the configured array."""
        config = self.engine.variation.subarray.config
        return config.capacity_bits // self.engine.word_bits

    def per_bit_flip_probability(self, interval: float) -> float:
        """Population-mean per-bit flip probability over ``interval``."""
        if interval < 0.0:
            raise ValueError("interval must be non-negative")
        ratio = np.minimum(interval / self._tau, 700.0)
        return float(np.mean(-np.expm1(-ratio)))

    def word_failure_probability(self, interval: float) -> float:
        """P(more than t flips in one word) within one scrub interval."""
        p = self.per_bit_flip_probability(interval)
        n = self.engine.word_bits
        return block_failure_probability(n, p, self.ecc_correct_bits)

    def point(self, interval: float) -> ScrubPoint:
        """Evaluate one scrub interval."""
        p_bit = self.per_bit_flip_probability(interval)
        p_word = self.word_failure_probability(interval)
        # Failures per interval across the array -> per hour -> FIT.
        failures_per_hour = p_word * self.words_in_array * 3600.0 / interval
        return ScrubPoint(
            scrub_interval=interval,
            per_bit_flip_probability=p_bit,
            word_failure_probability=p_word,
            array_fit=failures_per_hour * FIT_HOURS,
        )

    def sweep(self, intervals: Sequence[float]) -> List[ScrubPoint]:
        """Evaluate a ladder of scrub intervals."""
        return [self.point(interval) for interval in intervals]

    def scrub_interval_for_fit(
        self, fit_target: float, bounds: tuple = (1e-3, 1e8)
    ) -> float:
        """Longest scrub interval meeting a FIT target [s].

        Raises:
            ValueError: If the target is unreachable within bounds
                (even continuous scrubbing cannot fix stuck-weak cells).
        """
        if fit_target <= 0.0:
            raise ValueError("FIT target must be positive")
        low, high = bounds

        def gap(log_interval: float) -> float:
            point = self.point(math.exp(log_interval))
            return math.log(max(point.array_fit, 1e-300)) - math.log(fit_target)

        if gap(math.log(low)) > 0.0:
            raise ValueError(
                "FIT target %.3g unreachable even at %.3g s scrubbing"
                % (fit_target, low)
            )
        if gap(math.log(high)) < 0.0:
            return high
        return math.exp(
            brentq(gap, math.log(low), math.log(high), xtol=1e-4)
        )

    def scrub_energy_per_day(self, interval: float, access_energy: float) -> float:
        """Controller energy cost of scrubbing [J/day].

        One scrub pass reads (and re-writes a correctable fraction of)
        every word; dominated by the reads.
        """
        passes_per_day = 86400.0 / interval
        return passes_per_day * self.words_in_array * access_energy
