"""Patterned permanent-magnet bias field model.

The MSS turns a memory MTJ into an RF oscillator or a field sensor by
adding "patterned permanent magnets (for instance made of CoCr alloy or
NdFeB) ... on the two sides of the MTJ pillars, as this is done to bias
magnetoresistive heads in hard disk drives" (Sec. I).  Only one extra
lithography step is needed; the magnet *size and shape* set the
horizontal bias field:

* oscillator mode — bias ~ H_k,eff / 2 (free layer tilts ~30 degrees),
* sensor mode — bias slightly above H_k,eff (free layer pulled in-plane).

The stray field of a uniformly magnetised rectangular block is computed
with the magnetic-surface-charge model: each pole face of half-sides
(A, B) at distance z on its axis contributes

    H(z) = (M / pi) * atan( A B / (z sqrt(A^2 + B^2 + z^2)) )

(the solid-angle formula).  Two blocks flank the pillar symmetrically,
so their fields add at the pillar centre.
"""

import math
from dataclasses import dataclass, replace
from typing import Tuple

from repro.utils.constants import MU_0
from repro.utils.roots import brentq


@dataclass(frozen=True)
class PermanentMagnetMaterial:
    """Hard magnet material for the bias blocks.

    Attributes:
        name: Material label.
        remanence: Remanent flux density B_r [T].
        coercivity: Intrinsic coercivity [A/m] (reported for data sheets;
            not used in the field computation itself).
    """

    name: str
    remanence: float
    coercivity: float

    def __post_init__(self) -> None:
        if self.remanence <= 0.0:
            raise ValueError("remanence must be positive")
        if self.coercivity <= 0.0:
            raise ValueError("coercivity must be positive")

    @property
    def magnetization(self) -> float:
        """Remanent magnetisation M_r = B_r / mu0 [A/m]."""
        return self.remanence / MU_0


#: CoCr alloy, the HDD-head-biasing material quoted by the paper.
COCR = PermanentMagnetMaterial("CoCr", remanence=0.50, coercivity=1.2e5)

#: Sintered-NdFeB-like thin film, the stronger option quoted by the paper.
NDFEB = PermanentMagnetMaterial("NdFeB", remanence=1.20, coercivity=9.0e5)


def rectangular_pole_face_field(
    magnetization: float, width: float, height: float, distance: float
) -> float:
    """Axial H field of one rectangular magnetic pole face [A/m].

    Args:
        magnetization: Surface charge density = block magnetisation [A/m].
        width: Face width [m].
        height: Face height [m].
        distance: Axial distance from the face plane [m] (> 0).
    """
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    a = width / 2.0
    b = height / 2.0
    argument = (a * b) / (distance * math.sqrt(a * a + b * b + distance * distance))
    return (magnetization / math.pi) * math.atan(argument)


@dataclass(frozen=True)
class BiasMagnetPair:
    """Two identical bias blocks flanking the MTJ pillar.

    Both blocks are magnetised along +x (in-plane); the pillar sits at
    the midpoint of the gap.  Like charges face away so the two inner
    faces present opposite charge to the gap and the fields add.

    Attributes:
        material: Hard magnet material.
        width: Face width (y extent) [m].
        height: Face height (z extent) [m].
        length: Block length along the field axis (x extent) [m].
        gap: Edge-to-edge spacing between the inner faces [m].
    """

    material: PermanentMagnetMaterial = COCR
    width: float = 200e-9
    height: float = 60e-9
    length: float = 200e-9
    gap: float = 120e-9

    def __post_init__(self) -> None:
        for name in ("width", "height", "length", "gap"):
            if getattr(self, name) <= 0.0:
                raise ValueError("%s must be positive" % name)

    def field_at_center(self) -> float:
        """In-plane bias field H_x at the pillar position [A/m].

        Each block contributes its near (positive) face at gap/2 and its
        far (negative) face at gap/2 + length; both blocks contribute
        identically by symmetry.
        """
        m = self.material.magnetization
        near = rectangular_pole_face_field(m, self.width, self.height, self.gap / 2.0)
        far = rectangular_pole_face_field(
            m, self.width, self.height, self.gap / 2.0 + self.length
        )
        per_block = near - far
        return 2.0 * per_block

    def field_vector(self) -> Tuple[float, float, float]:
        """Bias field vector in the device frame (x in-plane) [A/m]."""
        return (self.field_at_center(), 0.0, 0.0)

    def with_gap(self, gap: float) -> "BiasMagnetPair":
        """Return a copy with a different gap."""
        return replace(self, gap=gap)


def design_bias_magnets(
    target_field: float,
    material: PermanentMagnetMaterial = COCR,
    width: float = 200e-9,
    height: float = 60e-9,
    length: float = 200e-9,
    gap_bounds: Tuple[float, float] = (30e-9, 2000e-9),
) -> BiasMagnetPair:
    """Size the magnet gap to produce a target in-plane field.

    This implements the paper's "the size and shape of the permanent
    magnet biasing layer will be adjusted to produce a horizontal field"
    design step.  The gap is the natural lithographic knob; the field is
    monotonically decreasing in it.

    Raises:
        ValueError: If the target is outside what the geometry can reach.
    """
    if target_field <= 0.0:
        raise ValueError("target field must be positive")
    low, high = gap_bounds

    def gap_error(gap: float) -> float:
        pair = BiasMagnetPair(material, width, height, length, gap)
        return pair.field_at_center() - target_field

    error_low, error_high = gap_error(low), gap_error(high)
    if error_low < 0.0:
        raise ValueError(
            "target field %.3g A/m exceeds the maximum %.3g A/m at minimum gap"
            % (target_field, target_field + error_low)
        )
    if error_high > 0.0:
        raise ValueError("target field not reachable even at maximum gap")
    gap = brentq(gap_error, low, high)
    return BiasMagnetPair(material, width, height, length, gap)
