"""What a fresh process loads: the campaign engine and worker start lean.

Each case imports in a new interpreter, since this test session has
long since loaded everything.  ``import repro`` resolves its device
names on first access, so the engine loads neither ``repro.core`` nor
scipy; the worker's evaluation set loads ``scipy.special`` but not
``scipy.stats`` (~0.5 s of imports).
"""

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


def loaded_modules(*names):
    """Modules in ``sys.modules`` after a fresh interpreter imports ``names``."""
    code = (
        "import importlib, json, sys\n"
        "for name in %r: importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n" % (names,)
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    return set(json.loads(done.stdout))


def test_engine_imports_no_scipy_and_no_device_physics():
    modules = loaded_modules("repro.dse.campaign", "repro.dse.net")
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]
    assert not [m for m in modules if m.startswith("repro.core")]


def test_worker_evaluation_set_skips_scipy_stats():
    modules = loaded_modules(*WORKER_EVALUATION_SET)
    assert "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.stats")]


def test_package_names_resolve_lazily():
    import repro.core

    assert repro.MSSDevice is repro.core.MSSDevice
    from repro import design_memory_mss

    assert design_memory_mss is repro.core.design_memory_mss


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        repro.x  # noqa: B018
