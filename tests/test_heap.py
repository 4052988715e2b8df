"""The allocator policy that keeps a memory point's heap resident."""

import ctypes
import platform
import resource
import sys

import pytest

from repro.utils import heap

GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


@pytest.fixture
def fresh_policy(monkeypatch):
    """Let ``keep_heap_resident`` decide again; restore its state after."""
    monkeypatch.setattr(heap, "_resident", None)


def test_missing_libc_reports_false(monkeypatch, fresh_policy):
    def no_libc(*args, **kwargs):
        raise OSError("libc.so.6: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert heap.keep_heap_resident() is False
    # Decided once per process: a second call does not retry.
    assert heap.keep_heap_resident() is False


@pytest.mark.skipif(not GLIBC, reason="the policy only applies on Linux/glibc")
def test_policy_applies_and_is_idempotent(fresh_policy):
    assert heap.keep_heap_resident() is True
    assert heap.keep_heap_resident() is True


@pytest.mark.skipif(not GLIBC, reason="the policy only applies on Linux/glibc")
def test_memory_point_stops_refaulting_its_heap():
    from repro.dse.campaign import evaluate_memory_point
    from repro.nvsim import MemoryConfig
    from repro.vaet.explorer import DesignConstraints

    spec = {
        "node_nm": 45,
        "config": MemoryConfig(word_bits=128).to_dict(),
        "constraints": DesignConstraints().to_dict(),
        "num_words": 300,
        "error_population": 50_000,
        "seed": 2018,
    }
    evaluate_memory_point(spec, 0)  # warm-up: the heap grows to size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate_memory_point(dict(spec, seed=2019), 0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # ~3.7k without the policy, single digits with it.
    assert faults < 200
