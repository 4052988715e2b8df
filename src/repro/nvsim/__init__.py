"""NVSim-class circuit-level memory latency/energy/area model."""

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "CellKind": ".config",
    "MemoryConfig": ".config",
    "MemoryType": ".config",
    "PAPER_ARRAY": ".config",
    "WireSegment": ".wire",
    "driver_resistance": ".wire",
    "global_wire": ".wire",
    "intermediate_wire": ".wire",
    "local_wire": ".wire",
    "DecoderEstimate": ".decoder",
    "decoder_estimate": ".decoder",
    "SenseAmpEstimate": ".senseamp_model",
    "sense_amp_estimate": ".senseamp_model",
    "SubarrayModel": ".subarray",
    "SubarrayTiming": ".subarray",
    "BankModel": ".bank",
    "BankTiming": ".bank",
    "MemoryEstimate": ".result",
    "NVSimEstimator": ".estimator",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
