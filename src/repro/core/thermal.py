"""Thermal stability and data retention of the MSS in memory mode.

"MTJs can have adjustable retention by playing with the diameter of
the stack thus allowing to minimize the switching current according to
the specified retention" (Sec. I).  This module implements exactly that
trade-off: the Neel-Brown retention model, the thermal stability factor
Delta, and the solver that finds the diameter delivering a retention
target.
"""

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.geometry import PillarGeometry
from repro.core.material import FreeLayerMaterial
from repro.utils.constants import BOLTZMANN, MU_0, ROOM_TEMPERATURE
from repro.utils.roots import brentq

#: Attempt period of the Neel-Brown model [s]; 1 ns is the standard value.
ATTEMPT_TIME = 1e-9

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


@dataclass(frozen=True)
class ThermalStability:
    """Thermal stability of one MSS pillar at a given temperature.

    Attributes:
        material: Free layer material.
        geometry: Pillar geometry.
        temperature: Operating temperature [K].
    """

    material: FreeLayerMaterial
    geometry: PillarGeometry
    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def energy_barrier(self) -> float:
        """Zero-field energy barrier E_b = mu0 Ms H_k,eff V_th / 2 [J].

        Uses the thermally-relevant (nucleation-capped) volume so that
        very wide pillars do not report unphysically large barriers.
        """
        hk = self.geometry.effective_anisotropy_field(self.material)
        if hk <= 0.0:
            return 0.0
        volume = self.geometry.thermally_relevant_volume(self.material)
        return 0.5 * MU_0 * self.material.ms * hk * volume

    @property
    def delta(self) -> float:
        """Thermal stability factor Delta = E_b / k_B T [-]."""
        return self.energy_barrier / (BOLTZMANN * self.temperature)

    def relaxation_time(self, current_ratio: float = 0.0) -> float:
        """Neel-Brown mean time to thermally reverse [s].

        Args:
            current_ratio: I / I_c0 through the junction; spin torque
                linearly lowers the barrier (Koch-Sun model), so
                tau = tau0 * exp(Delta * (1 - I/Ic0)).

        Returns:
            Mean dwell time in the current state; ``inf`` if the
            effective barrier is enormous.
        """
        effective_delta = self.delta * (1.0 - current_ratio)
        if effective_delta <= 0.0:
            return ATTEMPT_TIME
        exponent = min(effective_delta, 700.0)
        return ATTEMPT_TIME * math.exp(exponent)

    def retention_failure_probability(self, dwell_time: float, current_ratio: float = 0.0) -> float:
        """Probability the bit thermally flips within ``dwell_time`` [s]."""
        if dwell_time < 0.0:
            raise ValueError("dwell time must be non-negative")
        tau = self.relaxation_time(current_ratio)
        if math.isinf(tau):
            return 0.0
        ratio = dwell_time / tau
        if ratio > 700.0:
            return 1.0
        return 1.0 - math.exp(-ratio)

    def retention_years(self) -> float:
        """Mean retention expressed in years."""
        return self.relaxation_time() / SECONDS_PER_YEAR


def delta_for_retention(
    retention_seconds: float,
    failure_probability: float = 0.5,
) -> float:
    """Thermal stability factor needed for a retention target.

    Args:
        retention_seconds: Required dwell time [s].
        failure_probability: Acceptable flip probability over that time
            (0.5 reproduces the "mean retention" convention).

    Returns:
        The minimum Delta; ~40 for 10-year retention of a single bit,
        higher once the failure budget is shared across a whole array.
    """
    if retention_seconds <= 0.0:
        raise ValueError("retention must be positive")
    if not 0.0 < failure_probability < 1.0:
        raise ValueError("failure probability must be in (0, 1)")
    # 1 - exp(-t / (tau0 e^Delta)) = p  =>  Delta = ln(t / (tau0 * -ln(1-p)))
    denominator = -math.log1p(-failure_probability)
    return math.log(retention_seconds / (ATTEMPT_TIME * denominator))


def diameter_for_retention(
    material: FreeLayerMaterial,
    retention_seconds: float,
    failure_probability: float = 0.5,
    temperature: float = ROOM_TEMPERATURE,
    thickness: float = 1.3e-9,
    bounds: Optional[tuple] = None,
) -> float:
    """Find the pillar diameter that meets a retention target [m].

    This is the paper's retention-by-diameter design rule.  The solve is
    monotone within the macrospin range because the barrier grows with
    area faster than H_k,eff shrinks.

    Raises:
        ValueError: If no diameter in ``bounds`` achieves the target.
    """
    target_delta = delta_for_retention(retention_seconds, failure_probability)
    low, high = bounds if bounds is not None else (10e-9, 120e-9)

    def gap(diameter: float) -> float:
        geometry = PillarGeometry(diameter=diameter, free_layer_thickness=thickness)
        stability = ThermalStability(material, geometry, temperature)
        return stability.delta - target_delta

    gap_low, gap_high = gap(low), gap(high)
    if gap_low > 0.0:
        return low
    if gap_high < 0.0:
        raise ValueError(
            "retention target Delta=%.1f unreachable below %.0f nm pillar"
            % (target_delta, high * 1e9)
        )
    return brentq(gap, low, high)
