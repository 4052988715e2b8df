"""The traced run: layer shims installed from the benchmark's own files.

:class:`Tracer` replaces the layers' public functions and methods with
timing wrappers at class or module level, inside the benchmark process
only, and puts the originals back on :meth:`Tracer.remove`.  Spans nest
per thread, so a layer's self time is its busy time minus that of the
traced layers it called.  Nothing under ``src/`` is edited.
"""

import functools
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Direct children of ``DesignSpaceExplorer.evaluate`` in the span tree;
#: with the evaluate span's self time they must add up to its busy time.
VAET_CHILDREN = (
    "vaet.mc_estimate", "vaet.population", "vaet.read_margin",
    "vaet.ecc", "vaet.disturb",
)

#: Per-layer metrics reported by the traced run: name -> unit.
PER_LAYER = {
    "pdk.for_node_s": "s",
    "nvsim.estimate_s": "s",
    "vaet.population_s": "s",
    "vaet.mc_estimate_s": "s",
    "vaet.read_margin_s": "s",
    "vaet.read_margin_passes": "count",
    "vaet.ecc_s": "s",
    "vaet.ecc_passes": "count",
    "vaet.ecc_budget_s": "s",
    "vaet.ecc_chosen_ratio": "ratio",
    "vaet.disturb_s": "s",
    "vaet.evaluate_s": "s",
    "vaet.unaccounted_s": "s",
    "dse.cache.put_s": "s",
    "dse.cache.puts": "count",
    "resume_s": "s",
    "first_result_s": "s",
    "dse.cache.get_s": "s",
    "dse.cache.hit_ratio": "ratio",
    "dse.checkpoint.record_s": "s",
    "dse.checkpoint.load_s": "s",
    "dse.runner.self_s": "s",
    "dse.net.rtt_p50_s": "s",
    "spawn.import_s": "s",
    "spawn.scipy_import_s": "s",
    "dse.analytics.report_s": "s",
    "trace.overhead_frac": "ratio",
}


class Stats:
    """Busy time, self time, calls and useful outcomes per layer."""

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.useful: Dict[str, int] = defaultdict(int)
        self.points = 0
        self.wall = 0.0


class RttProbe:
    """Time ``status`` round-trips to a campaign server from a thread."""

    def __init__(self, address, samples: List[float], interval: float = 0.02):
        from repro.dse.net.protocol import Connection

        self.samples = samples
        self._connection = Connection(*address, timeout=10.0)
        self._connection.connect()
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            reply = self._connection.request({"op": "status"})
            if reply.get("ok"):
                self.samples.append(time.perf_counter() - start)
            self._stop.wait(self._interval)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._connection.close()


class Tracer:
    """Install, record and remove the layer shims."""

    def __init__(self):
        self.phases = {"cold": Stats(), "resume": Stats()}
        self.rtts: List[float] = []
        self._sink: Optional[Stats] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List = []

    def phase(self, name: Optional[str]) -> None:
        """Attribute spans to the ``cold``/``resume`` phase, or to none."""
        self._sink = self.phases[name] if name else None

    def rtt_probe(self, address) -> RttProbe:
        return RttProbe(address, self.rtts)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, name: str, useful=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = self._sink
            if sink is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    sink.busy[name] += elapsed
                    sink.self_time[name] += elapsed - children
                    sink.calls[name] += 1
                    if useful is not None and useful(result):
                        sink.useful[name] += 1

        return wrapper

    def _counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sink = self._sink
            if sink is not None:
                with self._lock:
                    sink.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(make(raw.__func__))
        else:
            patched = make(raw)
        setattr(owner, attr, patched)
        self._undo.append(functools.partial(setattr, owner, attr, raw))

    def span(self, owner, attr: str, name: str, useful=None) -> None:
        self._patch(owner, attr, lambda fn: self._span(fn, name, useful))

    def count(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._counter(fn, name))

    def install(self) -> None:
        """Wrap every traced layer (see README.md for the layer map)."""
        import repro.vaet.ecc as ecc_module
        from repro.dse.cache import ResultCache
        from repro.dse.checkpoint import CampaignState
        from repro.dse.fidelity import LOWFI_MEMORY_TARGET
        from repro.dse.runner import MEMORY_TARGET, get_target, register_target
        from repro.nvsim.estimator import NVSimEstimator
        from repro.pdk.kit import ProcessDesignKit
        from repro.vaet.ecc import ECCAnalysis
        from repro.vaet.error_rates import ErrorRateAnalysis
        from repro.vaet.estimator import VAETSTT
        from repro.vaet.explorer import DesignSpaceExplorer
        from repro.vaet.read_disturb import ReadDisturbAnalysis

        self.span(ProcessDesignKit, "for_node", "pdk.for_node")
        self.span(NVSimEstimator, "estimate", "nvsim.estimate")
        self.span(ErrorRateAnalysis, "__init__", "vaet.population")
        self.span(VAETSTT, "estimate", "vaet.mc_estimate")
        self.span(ErrorRateAnalysis, "read_margin", "vaet.read_margin")
        self.count(ErrorRateAnalysis, "word_rer", "vaet.read_margin_passes")
        self.span(ECCAnalysis, "point", "vaet.ecc")
        self.count(ErrorRateAnalysis, "mean_cell_wer", "vaet.ecc_passes")
        self.span(ecc_module, "per_bit_budget", "vaet.ecc_budget")
        self.span(VAETSTT, "read_disturb", "vaet.disturb")
        self.span(ReadDisturbAnalysis, "max_read_period", "vaet.disturb")
        self.span(DesignSpaceExplorer, "evaluate", "vaet.evaluate")
        self.span(ResultCache, "put", "dse.cache.put")
        self.span(ResultCache, "get", "dse.cache.get",
                  useful=lambda record: record is not None)
        self.span(CampaignState, "record", "dse.checkpoint.record")
        self.span(CampaignState, "load", "dse.checkpoint.load")
        for target in (MEMORY_TARGET, LOWFI_MEMORY_TARGET):
            original = get_target(target)
            register_target(target, self._span(original, "dse.evaluator"))
            self._undo.append(functools.partial(register_target, target, original))

    def remove(self) -> None:
        """Put every original back, newest shim first."""
        while self._undo:
            self._undo.pop()()


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scipy_self_s(importtime: str) -> float:
    """Sum of ``-X importtime`` self times of scipy's modules [s]."""
    total = 0
    for line in importtime.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line)
        if match and re.match(r"scipy(\.|$)", match.group(2)):
            total += int(match.group(1))
    return total * 1e-6


SPAWN_RUNS = 5
IMPORTTIME_RUNS = 3


def spawn_probe(root: str) -> Dict:
    """Cold start of a fresh interpreter importing ``repro.dse.campaign``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-c", "import repro.dse.campaign"]
    walls = []
    for _ in range(SPAWN_RUNS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=root, env=env)
        walls.append(time.perf_counter() - start)
    scipy = []
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime"] + command[1:],
            check=True, cwd=root, env=env, stderr=subprocess.PIPE, text=True,
        )
        scipy.append(_scipy_self_s(done.stderr))
    return {
        "spawn.import_s": statistics.median(walls),
        "spawn.scipy_import_s": statistics.median(scipy),
    }


def layer_metrics(tracer: Tracer, extra: Dict) -> Dict[str, float]:
    """Per-layer metrics of the traced repetitions.

    Cold-phase layers are per completed point; ``dse.cache.get_s`` and
    ``dse.cache.hit_ratio`` come from the resume phase (per point),
    ``dse.checkpoint.load_s`` per resume, the RTT per ``status`` op.
    Layers the workload never reaches in this process read 0.
    """
    cold, warm = tracer.phases["cold"], tracer.phases["resume"]
    busy, points = cold.busy, cold.points
    evaluate = busy["vaet.evaluate"]
    unaccounted = cold.self_time["vaet.evaluate"]
    children = sum(busy[name] for name in VAET_CHILDREN)
    if abs(children + unaccounted - evaluate) > 1e-6 * max(evaluate, 1e-9):
        raise RuntimeError(
            "vaet children (%.6f s) + unaccounted (%.6f s) != evaluate (%.6f s)"
            % (children, unaccounted, evaluate)
        )
    engine = (
        busy["dse.evaluator"] + busy["dse.cache.put"]
        + busy["dse.cache.get"] + busy["dse.checkpoint.record"]
    )
    metrics = {
        "pdk.for_node_s": _per(busy["pdk.for_node"], points),
        "nvsim.estimate_s": _per(busy["nvsim.estimate"], points),
        "vaet.population_s": _per(busy["vaet.population"], points),
        "vaet.mc_estimate_s": _per(busy["vaet.mc_estimate"], points),
        "vaet.read_margin_s": _per(busy["vaet.read_margin"], points),
        "vaet.read_margin_passes": _per(
            cold.calls["vaet.read_margin_passes"], cold.calls["vaet.read_margin"]
        ),
        "vaet.ecc_s": _per(busy["vaet.ecc"], points),
        "vaet.ecc_passes": _per(cold.calls["vaet.ecc_passes"], points),
        "vaet.ecc_budget_s": _per(busy["vaet.ecc_budget"], points),
        "vaet.ecc_chosen_ratio": _per(
            cold.calls["vaet.evaluate"], cold.calls["vaet.ecc"]
        ),
        "vaet.disturb_s": _per(busy["vaet.disturb"], points),
        "vaet.evaluate_s": _per(evaluate, points),
        "vaet.unaccounted_s": _per(unaccounted, points),
        "dse.cache.put_s": _per(busy["dse.cache.put"], points),
        "dse.cache.puts": _per(cold.calls["dse.cache.put"], points),
        "dse.cache.get_s": _per(warm.busy["dse.cache.get"], warm.points),
        "dse.cache.hit_ratio": _per(
            warm.useful["dse.cache.get"], warm.calls["dse.cache.get"]
        ),
        "dse.checkpoint.record_s": _per(busy["dse.checkpoint.record"], points),
        "dse.checkpoint.load_s": _per(
            warm.busy["dse.checkpoint.load"], warm.calls["dse.checkpoint.load"]
        ),
        "dse.runner.self_s": _per(cold.wall - engine, points),
        "dse.net.rtt_p50_s": (
            statistics.median(tracer.rtts) if tracer.rtts else 0.0
        ),
    }
    metrics.update(extra)
    return metrics
