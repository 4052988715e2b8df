"""What a fresh process loads: the campaign engine and worker start lean.

Each case imports in a new interpreter, since this test session has
long since loaded everything.  The package inits of ``repro``,
``repro.core``, ``repro.cells``, ``repro.spice``, ``repro.nvsim``,
``repro.dse`` and ``repro.dse.net`` resolve their exports on first
access, so a process loads only the submodules it uses.  The engine
loads neither ``repro.core`` nor scipy.  The worker's evaluation set
loads no scipy module at all: the root solves use
``repro.utils.roots.brentq`` and Phi, its inverse and the binomial
tail come from ``repro.utils.normal``.  Nor does it load the device
modes, LLG or SPICE modules, the campaign server (and with it
``asyncio``) or the analytics.  It imports in ~0.4-0.5 s on a 2-vCPU
host, against ~0.75-0.9 s with ``scipy.special`` and eager
``repro.dse`` inits, and ~0.9-1.35 s when it also loaded
``scipy.optimize``.  Evaluating a point loads no ``numpy.ma`` either.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What a network worker imports before it can evaluate a memory point.
WORKER_EVALUATION_SET = ("repro.dse.__main__", "repro.dse.net.worker",
                         "repro.vaet.explorer")


#: Packages whose inits resolve their exports on first access.
LAZY_PACKAGES = ("repro", "repro.core", "repro.cells", "repro.spice", "repro.nvsim",
                 "repro.dse", "repro.dse.net")

#: Device-physics modules a memory-point evaluation never needs.
UNUSED_DEVICE_MODULES = (
    "repro.core.llg", "repro.core.sensor", "repro.core.bias",
    "repro.core.crosstalk", "repro.core.oscillator",
)


def fresh_run(code):
    """Run ``code`` in a fresh interpreter and return its JSON output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    return json.loads(done.stdout)


def loaded_modules(*names):
    """Modules in ``sys.modules`` after a fresh interpreter imports ``names``."""
    return set(fresh_run(
        "import importlib, json, sys\n"
        "for name in %r: importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n" % (names,)
    ))


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_engine_imports_no_scipy_and_no_device_physics():
    modules = loaded_modules("repro.dse.campaign", "repro.dse.net")
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]
    assert not [m for m in modules if m.startswith("repro.core")]


def test_worker_evaluation_set_imports_no_scipy():
    modules = loaded_modules(*WORKER_EVALUATION_SET)
    assert not _under(modules, "scipy")


def test_worker_evaluation_set_loads_only_the_physics_it_uses():
    modules = loaded_modules(*WORKER_EVALUATION_SET)
    assert not [m for m in UNUSED_DEVICE_MODULES if m in modules]
    # repro.cells.cellconfig, the one cells module the evaluator reads,
    # needs no circuit simulator.
    assert not _under(modules, "repro.spice")


def test_worker_evaluation_set_skips_the_server_and_analytics():
    modules = loaded_modules(*WORKER_EVALUATION_SET)
    for name in ("repro.dse.net.server", "repro.dse.analytics", "asyncio", "ssl"):
        assert name not in modules


def test_evaluating_a_point_imports_no_scipy():
    """A lazy import cannot creep back in at evaluation time."""
    loaded = fresh_run(
        "import json, sys, tempfile\n"
        "from repro.dse.campaign import MemoryCampaign, run\n"
        "from repro.dse.space import ParameterSpace\n"
        "space = ParameterSpace()\n"
        "space.add('word_bits', [128])\n"
        "campaign = MemoryCampaign(space, num_words=50, error_population=2000)\n"
        "with tempfile.TemporaryDirectory() as directory:\n"
        "    result = run(campaign, directory, workers=1)\n"
        "print(json.dumps([len(result.records()), sorted(sys.modules)]))\n"
    )
    points, modules = loaded
    assert points == 1
    assert not _under(modules, "scipy")
    # Nor numpy.ma, which numpy 2's np.median imports on first call
    # (older numpy loads it with numpy itself).
    assert not set(_under(modules, "numpy.ma")) - loaded_modules("numpy")


def test_every_lazy_export_resolves_from_a_fresh_interpreter():
    unresolved = fresh_run(
        "import importlib, json\n"
        "missing = []\n"
        "for name in %r:\n"
        "    package = importlib.import_module(name)\n"
        "    for export in package.__all__:\n"
        "        space = {}\n"
        "        exec('from %%s import %%s as value' %% (name, export), space)\n"
        "        if space['value'] is not getattr(package, export):\n"
        "            missing.append((name, export))\n"
        "print(json.dumps(missing))\n" % (LAZY_PACKAGES,)
    )
    assert unresolved == []


@pytest.mark.parametrize("name", LAZY_PACKAGES[1:])
def test_lazy_package_refuses_unknown_names(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        package.x  # noqa: B018


def test_package_names_resolve_lazily():
    import repro.core

    assert repro.MSSDevice is repro.core.MSSDevice
    from repro import design_memory_mss

    assert design_memory_mss is repro.core.design_memory_mss


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        repro.x  # noqa: B018
