"""MSS standard/periphery cells and the characterisation flow."""

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "ACCESS_WIDTH_FACTOR": ".bitcell",
    "BitCellHandles": ".bitcell",
    "build_read_cell": ".bitcell",
    "build_write_cell": ".bitcell",
    "SenseAmpHandles": ".sense_amp",
    "build_sense_path": ".sense_amp",
    "reference_resistance": ".sense_amp",
    "DRIVER_WIDTH_FACTOR": ".write_driver",
    "WriteDriverHandles": ".write_driver",
    "build_driver_write_path": ".write_driver",
    "NonVolatileFlipFlop": ".nvff",
    "NVFFTimings": ".nvff",
    "CurrentSourceLevel": ".current_source",
    "ProgrammableCurrentSource": ".current_source",
    "CellConfig": ".cellconfig",
    "CharacterizationSettings": ".characterize",
    "characterize_cell": ".characterize",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
