"""SPICE-class circuit simulation substrate (MNA + Newton + MDL)."""

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "Circuit": ".netlist",
    "Element": ".netlist",
    "ConvergenceError": ".mna",
    "GMIN": ".mna",
    "MNASystem": ".mna",
    "solve_nonlinear": ".mna",
    "Capacitor": ".elements",
    "CurrentSource": ".elements",
    "DC": ".elements",
    "Pulse": ".elements",
    "PWL": ".elements",
    "Resistor": ".elements",
    "VoltageSource": ".elements",
    "Waveform": ".elements",
    "MOSFET": ".mosfet",
    "MTJElement": ".mtj_element",
    "TransientResult": ".analysis",
    "dc_operating_point": ".analysis",
    "transient": ".analysis",
    "Trace": ".waveform",
    "WaveformSet": ".waveform",
    "CrossEvent": ".mdl",
    "Delay": ".mdl",
    "Energy": ".mdl",
    "Expression": ".mdl",
    "Extreme": ".mdl",
    "Integral": ".mdl",
    "Measurement": ".mdl",
    "MeasurementScript": ".mdl",
    "When": ".mdl",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
