"""Co-integration cross-talk: bias-magnet stray fields on memory cells.

The MSS pitch is that sensor/oscillator bias magnets co-integrate with
memory pillars at the cost of "only one additional lithography step"
(Sec. I).  The price of co-integration is magnetic cross-talk: a
patterned magnet biasing a sensor leaks stray field onto neighbouring
*memory* pillars, and an in-plane field on a perpendicular cell lowers
its energy barrier — degrading retention and write-error margins.

This module computes:

* the on-axis stray field of a bias pair at a victim beyond the
  magnets (same surface-charge model as :mod:`repro.core.bias`);
* the Stoner-Wohlfarth barrier degradation E_b(h) = E_b0 (1 - h)^2 for
  a hard-axis disturb field h = H / H_k,eff;
* the astroid switching boundary (for completeness and testing);
* the **keep-out distance** design rule: the minimum spacing between a
  bias pair and a memory pillar that preserves a retention target.
"""

import math

from repro.core.bias import BiasMagnetPair, rectangular_pole_face_field
from repro.core.geometry import PillarGeometry
from repro.core.material import FreeLayerMaterial
from repro.core.thermal import ThermalStability
from repro.utils.constants import ROOM_TEMPERATURE
from repro.utils.roots import brentq


def stray_field_on_axis(pair: BiasMagnetPair, distance_from_center: float) -> float:
    """Stray field magnitude at a victim on the bias axis [A/m].

    Args:
        pair: The aggressor bias-magnet pair.
        distance_from_center: Victim position along the magnetisation
            axis, measured from the pair centre [m].  Must be beyond the
            outer magnet face.

    Raises:
        ValueError: If the point lies inside the magnet structure.
    """
    m = pair.material.magnetization
    inner = pair.gap / 2.0
    outer = inner + pair.length
    d = distance_from_center
    if d <= outer:
        raise ValueError(
            "victim at %.3g m is inside/abreast the magnets (outer face %.3g m)"
            % (d, outer)
        )

    def face(dist: float) -> float:
        return rectangular_pole_face_field(m, pair.width, pair.height, dist)

    # Near block: +charge outer face (closer), -charge inner face.
    # Far block: +charge inner face, -charge outer face.
    return (
        face(d - outer) - face(d - inner) + face(d + inner) - face(d + outer)
    )


def barrier_degradation_factor(normalized_field: float) -> float:
    """Stoner-Wohlfarth barrier factor for a hard-axis field.

    E_b(h) = E_b0 (1 - h)^2 for h = H_disturb / H_k,eff in [0, 1];
    zero beyond (the cell loses bistability).
    """
    if normalized_field < 0.0:
        raise ValueError("disturb field magnitude must be non-negative")
    if normalized_field >= 1.0:
        return 0.0
    return (1.0 - normalized_field) ** 2


def astroid_switching_field(angle: float) -> float:
    """Stoner-Wohlfarth astroid: normalised switching field vs angle.

    h_sw(psi) = 1 / (cos(psi)^(2/3) + sin(psi)^(2/3))^(3/2)

    with psi the angle between the applied field and the easy axis;
    1.0 along the axes, minimum 0.5 at 45 degrees.
    """
    psi = abs(angle) % math.pi
    if psi > math.pi / 2.0:
        psi = math.pi - psi
    c = abs(math.cos(psi)) ** (2.0 / 3.0)
    s = abs(math.sin(psi)) ** (2.0 / 3.0)
    return 1.0 / (c + s) ** 1.5


class CrosstalkAnalysis:
    """Keep-out analysis between a bias pair and a memory pillar.

    Args:
        pair: Aggressor bias-magnet pair (sensor or oscillator mode).
        material: Victim free-layer material.
        victim: Victim memory pillar geometry.
        temperature: Operating temperature [K].
    """

    def __init__(
        self,
        pair: BiasMagnetPair,
        material: FreeLayerMaterial,
        victim: PillarGeometry,
        temperature: float = ROOM_TEMPERATURE,
    ):
        self.pair = pair
        self.material = material
        self.victim = victim
        self.temperature = temperature
        self._stability = ThermalStability(material, victim, temperature)
        self._hk = victim.effective_anisotropy_field(material)
        if self._hk <= 0.0:
            raise ValueError("victim pillar has no perpendicular anisotropy")

    @property
    def undisturbed_delta(self) -> float:
        """Victim Delta with no stray field."""
        return self._stability.delta

    def disturbed_delta(self, distance: float) -> float:
        """Victim Delta at a given centre-to-centre spacing [m]."""
        h = stray_field_on_axis(self.pair, distance) / self._hk
        return self.undisturbed_delta * barrier_degradation_factor(h)

    def retention_at_distance(self, distance: float) -> float:
        """Victim mean retention [s] at a given spacing."""
        from repro.core.thermal import ATTEMPT_TIME

        delta = self.disturbed_delta(distance)
        if delta <= 0.0:
            return ATTEMPT_TIME
        return ATTEMPT_TIME * math.exp(min(delta, 700.0))

    def keep_out_distance(self, delta_budget_fraction: float = 0.95) -> float:
        """Minimum spacing preserving a fraction of the victim Delta [m].

        Args:
            delta_budget_fraction: Retained Delta fraction (0.95 = the
                stray field may cost at most 5 % of the barrier).

        Raises:
            ValueError: If the budget is not in (0, 1).
        """
        if not 0.0 < delta_budget_fraction < 1.0:
            raise ValueError("budget fraction must be in (0, 1)")
        target = self.undisturbed_delta * delta_budget_fraction
        outer = self.pair.gap / 2.0 + self.pair.length

        def gap_fn(distance: float) -> float:
            return self.disturbed_delta(distance) - target

        low = outer * 1.01
        high = 1e-4  # 100 um is beyond any stray field of interest
        if gap_fn(low) >= 0.0:
            return low
        return brentq(gap_fn, low, high)
