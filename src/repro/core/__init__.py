"""MSS device physics: the paper's primary contribution.

One perpendicular STT-MTJ stack ("Multifunctional Standardized Stack")
configured into memory, RF-oscillator or sensor devices through pillar
diameter and patterned permanent-magnet bias fields.
"""

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "BarrierMaterial": ".material",
    "FreeLayerMaterial": ".material",
    "MSS_BARRIER": ".material",
    "MSS_FREE_LAYER": ".material",
    "MEMORY_PILLAR": ".geometry",
    "PillarGeometry": ".geometry",
    "SENSOR_PILLAR": ".geometry",
    "oblate_spheroid_demag_factor": ".geometry",
    "MTJTransport": ".mtj",
    "LLGConfig": ".llg",
    "LLGResult": ".llg",
    "MacrospinLLG": ".llg",
    "thermal_equilibrium_angle": ".llg",
    "ATTEMPT_TIME": ".thermal",
    "ThermalStability": ".thermal",
    "delta_for_retention": ".thermal",
    "diameter_for_retention": ".thermal",
    "SwitchingModel": ".switching",
    "BiasMagnetPair": ".bias",
    "COCR": ".bias",
    "NDFEB": ".bias",
    "PermanentMagnetMaterial": ".bias",
    "design_bias_magnets": ".bias",
    "rectangular_pole_face_field": ".bias",
    "MSSFieldSensor": ".sensor",
    "SensorOperatingPoint": ".sensor",
    "sensor_bias_field_rule": ".sensor",
    "MSSOscillator": ".oscillator",
    "OscillatorOperatingPoint": ".oscillator",
    "equilibrium_tilt": ".oscillator",
    "oscillator_bias_field_rule": ".oscillator",
    "MSSDevice": ".modes",
    "MSSMode": ".modes",
    "design_memory_mss": ".modes",
    "design_oscillator_mss": ".modes",
    "design_sensor_mss": ".modes",
    "BehavioralMTJModel": ".compact",
    "CompactModelState": ".compact",
    "PhysicalMTJModel": ".compact",
    "CrosstalkAnalysis": ".crosstalk",
    "astroid_switching_field": ".crosstalk",
    "barrier_degradation_factor": ".crosstalk",
    "stray_field_on_axis": ".crosstalk",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
