"""repro: reproduction of the DATE 2018 MSS/GREAT spintronics paper.

Subpackages
-----------
``repro.core``
    MSS device physics — MTJ transport, macrospin LLGS, retention,
    STT switching statistics, bias magnets, sensor and oscillator modes.
``repro.pdk``
    Process design kit: CMOS technology nodes, transistor compact model,
    corners and statistical variation.
``repro.spice``
    SPICE-class circuit simulator (MNA, DC + transient) with an MDL
    measurement layer.
``repro.cells``
    MRAM bit cell, sense amplifier, write driver, non-volatile flip-flop
    and the characterisation flow feeding VAET-STT.
``repro.nvsim``
    NVSim-class circuit-level memory latency/energy/area estimator.
``repro.vaet``
    VAET-STT: variation-aware estimation (Table 1, Figs. 7-9).
``repro.archsim``
    gem5-class trace-driven big.LITTLE system simulator.
``repro.mcpat``
    McPAT-class power/area roll-up.
``repro.magpie``
    MAGPIE cross-layer hybrid-memory exploration flow (Figs. 11-12).
``repro.dse``
    Parallel, cached design-space exploration engine: declarative
    parameter spaces (grid/LHS), content-hash keyed jobs, an on-disk
    result cache, a multiprocessing campaign runner with failure
    isolation, and Pareto frontier extraction.  ``run`` runs a
    ``MemoryCampaign`` (VAET-STT) or a ``SystemCampaign`` (MAGPIE); the
    legacy ``DesignSpaceExplorer.sweep_subarrays`` is a thin wrapper over
    it, and ``MagpieFlow.run`` runs its grid through the same campaign
    dispatch as a ``SystemCampaign`` (see ``examples/dse_campaign.py``).

The five device names below are loaded on first access (PEP 562), so
``import repro.dse`` does not pull in the device physics or scipy.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Names re-exported from ``repro.core``, resolved on first access.
_CORE_NAMES = (
    "MSSDevice",
    "MSSMode",
    "design_memory_mss",
    "design_oscillator_mss",
    "design_sensor_mss",
)

__all__ = ["__version__", *_CORE_NAMES]

__getattr__ = lazy_exports(__name__, dict.fromkeys(_CORE_NAMES, "repro.core"))
