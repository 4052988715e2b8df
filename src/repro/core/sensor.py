"""MSS sensor mode: linear out-of-plane magnetic field sensor.

Per Sec. I of the paper: "the size and shape of the permanent magnet
biasing layer will be adjusted to produce a horizontal field slightly
larger than the effective perpendicular anisotropy field (~1 kOe) so
that the free layer magnetization will be pulled in-plane ... When
submitted to an out-of-plane field to be sensed, the free layer
magnetization will rotate upwards or downwards producing a resistance
change proportional to the out-of-plane field amplitude."

The statics are Stoner-Wohlfarth: minimise

    e(theta) = 1/2 sin^2(theta) - h_x sin(theta) - h_z cos(theta)

(normalised by mu0 Ms H_k,eff V; theta measured from +z).  For
h_x = H_bias / H_k > 1 and small h_z the solution is

    m_z = h_z / (h_x - 1)

i.e. a linear transfer with sensitivity 1 / (H_bias - H_k) and full
scale |H_z| ~ (H_bias - H_k).
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.core.geometry import PillarGeometry
from repro.core.material import BarrierMaterial, FreeLayerMaterial
from repro.core.mtj import MTJTransport
from repro.utils.constants import BOLTZMANN, GILBERT_GYROMAGNETIC, MU_0, ROOM_TEMPERATURE


@dataclass(frozen=True)
class SensorOperatingPoint:
    """Static solution of the biased free layer under a sensed field.

    Attributes:
        theta: Polar angle of the magnetisation from +z [rad].
        mz: Out-of-plane magnetisation component cos(theta) [-].
        resistance: Junction resistance at the read bias [ohm].
    """

    theta: float
    mz: float
    resistance: float


class MSSFieldSensor:
    """Out-of-plane field sensor built from a biased MSS pillar.

    Args:
        material: Free layer material.
        geometry: (Large-diameter) pillar geometry.
        barrier: Tunnel barrier transport parameters.
        bias_field: In-plane bias field from the permanent magnets [A/m];
            must exceed H_k,eff for the linear sensing regime.
        read_voltage: Bias voltage used when converting angle to
            resistance [V].
        temperature: Operating temperature [K] (for noise estimates).
    """

    def __init__(
        self,
        material: FreeLayerMaterial,
        geometry: PillarGeometry,
        barrier: BarrierMaterial,
        bias_field: float,
        read_voltage: float = 0.1,
        temperature: float = ROOM_TEMPERATURE,
    ):
        self.material = material
        self.geometry = geometry
        self.barrier = barrier
        self.bias_field = bias_field
        self.read_voltage = read_voltage
        self.temperature = temperature
        self.transport = MTJTransport(geometry, barrier)
        self._hk = geometry.effective_anisotropy_field(material)
        if self._hk <= 0.0:
            raise ValueError("sensor pillar has no perpendicular anisotropy")
        if bias_field <= self._hk:
            raise ValueError(
                "sensor mode requires bias field (%.3g A/m) > H_k,eff (%.3g A/m)"
                % (bias_field, self._hk)
            )

    @property
    def anisotropy_field(self) -> float:
        """Effective perpendicular anisotropy field H_k,eff [A/m]."""
        return self._hk

    @property
    def normalized_bias(self) -> float:
        """h_x = H_bias / H_k,eff (> 1 in sensor mode)."""
        return self.bias_field / self._hk

    def _reduced_energy(self, theta: float, h_z: float) -> float:
        h_x = self.normalized_bias
        return 0.5 * math.sin(theta) ** 2 - h_x * math.sin(theta) - h_z * math.cos(theta)

    def operating_point(self, sensed_field: float) -> SensorOperatingPoint:
        """Solve the static magnetisation angle for an out-of-plane field.

        Args:
            sensed_field: H_z to be measured [A/m].
        """
        from scipy import optimize

        h_z = sensed_field / self._hk
        result = optimize.minimize_scalar(
            lambda theta: self._reduced_energy(theta, h_z),
            bounds=(1e-6, math.pi - 1e-6),
            method="bounded",
        )
        theta = float(result.x)
        mz = math.cos(theta)
        resistance = float(self.transport.resistance(mz, self.read_voltage))
        return SensorOperatingPoint(theta=theta, mz=mz, resistance=resistance)

    def transfer_curve(self, fields: np.ndarray) -> np.ndarray:
        """Resistance vs out-of-plane field over an array of H_z [ohm]."""
        return np.asarray([self.operating_point(h).resistance for h in fields])

    @property
    def small_signal_mz_sensitivity(self) -> float:
        """d m_z / d H_z at zero field [1/(A/m)] = 1 / (H_bias - H_k)."""
        return 1.0 / (self.bias_field - self._hk)

    @property
    def sensitivity(self) -> float:
        """Small-signal resistance sensitivity dR/dH_z [ohm/(A/m)].

        Chain rule through the angular transport model at m_z = 0.
        """
        epsilon = 1e-4
        r_plus = float(self.transport.resistance(epsilon, self.read_voltage))
        r_minus = float(self.transport.resistance(-epsilon, self.read_voltage))
        dr_dmz = (r_plus - r_minus) / (2.0 * epsilon)
        return dr_dmz * self.small_signal_mz_sensitivity

    @property
    def linear_range(self) -> float:
        """Full-scale field before saturation |H_z| < H_bias - H_k [A/m]."""
        return self.bias_field - self._hk

    def thermal_field_noise_density(self) -> float:
        """Thermal magnetisation noise referred to the input field.

        Returns the equivalent field noise spectral density
        [A/m per sqrt(Hz)] from the fluctuation-dissipation theorem,
        evaluated in the flat low-frequency limit:

            S_Hz = sqrt(4 alpha k_B T / (gamma0 mu0 Ms V)) / |chi|

        with chi the m_z susceptibility.  Larger pillars are quieter —
        the second reason sensor-mode MSS uses a bigger diameter.
        """
        volume = self.geometry.volume
        raw = math.sqrt(
            4.0
            * self.material.damping
            * BOLTZMANN
            * self.temperature
            / (GILBERT_GYROMAGNETIC * MU_0 * self.material.ms * volume)
        )
        return raw / self.small_signal_mz_sensitivity / self._hk

    def johnson_field_noise_density(self) -> float:
        """Johnson voltage noise referred to the input field [A/m/sqrt(Hz)].

        sqrt(4 k_B T R) divided by the voltage responsivity
        V_read * (dR/dH) / R.
        """
        r0 = self.operating_point(0.0).resistance
        voltage_noise = math.sqrt(4.0 * BOLTZMANN * self.temperature * r0)
        responsivity = self.read_voltage * abs(self.sensitivity) / r0
        return voltage_noise / responsivity

    def detectivity(self) -> float:
        """Total input-referred field noise density [A/m/sqrt(Hz)]."""
        thermal = self.thermal_field_noise_density()
        johnson = self.johnson_field_noise_density()
        return math.sqrt(thermal * thermal + johnson * johnson)

    def digitize(self, resistance: float) -> float:
        """Invert the transfer curve: estimate H_z from a resistance [A/m].

        Uses the linear small-signal model; accurate within the linear
        range, which is where a sensor is operated.
        """
        r0 = self.operating_point(0.0).resistance
        return (resistance - r0) / self.sensitivity


def sensor_bias_field_rule(anisotropy_field: float, margin: float = 1.1) -> float:
    """Paper design rule: bias "slightly larger" than H_k,eff [A/m]."""
    if margin <= 1.0:
        raise ValueError("sensor bias margin must exceed 1")
    return margin * anisotropy_field
