"""Root test fixtures and import plumbing.

Puts the ``tests/`` directory itself on ``sys.path`` so suites in
subdirectories (``tests/dse``, ...) can import the shared helpers that
live in :mod:`test_utils` (fault injection: ``CrashingRunner``,
``torn_write``) regardless of pytest's collection order.

Every test starts with an empty explorer physics memo: a test that
monkeypatches the physics must not be served the record an earlier
test computed for the same key under other physics.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _clear_physics_memo():
    # Only once loaded: a test that never evaluates a point need not
    # import the physics.
    explorer = sys.modules.get("repro.vaet.explorer")
    if explorer is not None:
        explorer.clear_physics_memo()
