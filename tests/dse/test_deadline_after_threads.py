"""A deadline run after points that ran their passes on threads.

A serial default-effort point runs its population passes on helper
threads (``repro.utils.blocks``), joined before each pass returns.  A
later ``deadline`` run forks its evaluation child from that process,
which must then be single-threaded: the child inherits no helper to
wait on, and Python 3.12+ warns on a fork with live threads.  The
sequence runs in a fresh interpreter, with every DeprecationWarning
shown, so that a hang is a timeout rather than a stuck suite.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import json, threading
from repro.dse.campaign import MemoryCampaign, run
from repro.dse.space import ParameterSpace
from repro.utils import blocks
from repro.vaet.explorer import clear_physics_memo

blocks.usable_cpus = lambda: 2  # threads even on a one-CPU host
started = []


class Thread(threading.Thread):
    def start(self):
        started.append(self.name)
        super().start()


blocks.threading.Thread = Thread
space = ParameterSpace()
space.add("subarray_rows", [128, 256])
space.add("word_bits", [128])
campaign = MemoryCampaign(space)
plain = run(campaign, workers=1).records()
threads = threading.active_count()
clear_physics_memo()
bounded = run(campaign, workers=1, deadline=60.0).records()
print(json.dumps({
    "helpers": len(started) > 0,
    "threads": threads,
    "equal": plain == bounded,
    "points": len(plain),
}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a deadline needs os.fork")
def test_deadline_child_after_threaded_points_gives_equal_records():
    # A session of its own, so that a hang kills the evaluation child too.
    process = subprocess.Popen(
        [sys.executable, "-W", "always::DeprecationWarning", "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("the deadline run hung after threaded points")
    assert process.returncode == 0, err
    assert json.loads(out) == {
        "helpers": True, "threads": 1, "equal": True, "points": 2,
    }
    assert "multi-threaded" not in err
