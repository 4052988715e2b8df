"""The three campaign workloads, one repetition of each, and output checks.

A workload is a closed-loop batch: every point of its grid is submitted
to one ``run_memory_campaign`` call at once and the executor pulls work
as it frees up.  One repetition is a cold campaign in a fresh directory
followed by a warm ``resume=True`` replay of the same directory.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_mem_default.json")

#: A workload seed ``n`` runs campaign seed ``BASE + n % COUNT``; the
#: stored mem-default reference holds one record set per campaign seed.
CAMPAIGN_SEED_BASE = 2018
CAMPAIGN_SEED_COUNT = 8

#: Latencies come out of brentq solves with ``xtol=1e-4`` on the log
#: axis, so two conforming solvers may land up to 2e-4 apart.
LATENCY_RTOL = 2e-4
LATENCY_FIELDS = ("write_latency", "read_latency")

DEFAULT_EFFORT = dict(num_words=1500, error_population=200_000)
REDUCED_EFFORT = dict(num_words=200, error_population=10_000)

#: ``tail`` is the percentile reported as ``point_tail_s``: the highest
#: with >= 10 intervals beyond it in a 45 s run, fixed per workload so
#: that runs with one repetition more or less stay comparable.
WORKLOADS = {
    # The smoke grid at the evaluator defaults, serial: the vaet layers
    # do nearly all of the work.
    "mem-default": dict(
        axes=[
            ("subarray_rows", [128, 256, 512]),
            ("word_bits", [128, 256]),
            ("wer_target", [1e-9, 1e-12]),
            ("node_nm", [45, 65]),
        ],
        effort=DEFAULT_EFFORT, fidelity="high", fleet=False, tail=90,
    ),
    # Cheap points through two spawned network workers: spawn, import,
    # lease round-trips and the server's cache/journal writes dominate.
    "mem-fleet": dict(
        axes=[
            ("subarray_rows", [128, 256, 512]),
            ("subarray_cols", [128, 256]),
            ("word_bits", [128, 256]),
            ("wer_target", [1e-9, 1e-12, 1e-15]),
            ("node_nm", [45, 65]),
        ],
        effort=REDUCED_EFFORT, fidelity="high", fleet=True, tail=95,
    ),
    # Sub-millisecond analytic points: the cold phase is cache and
    # journal writes, the resume is journal load and cache reads.  Run
    # by hand; BENCHMARK.json leaves it out (see README.md).
    "screen-replay": dict(
        axes=[
            ("subarray_rows", [32, 64, 128, 256, 512, 1024]),
            ("subarray_cols", [32, 64, 128, 256, 512, 1024]),
            ("word_bits", [32, 64, 128, 256]),
            ("wer_target", [1e-9, 1e-12, 1e-15, 1e-18]),
            ("node_nm", [45, 65]),
        ],
        effort=REDUCED_EFFORT, fidelity="low", fleet=False, tail=99,
    ),
}

FLEET_WORKERS = 2
#: The coordinator finds results once per poll, so completion intervals
#: are whole numbers of polls.  At the default 50 ms, completions reach
#: the progress callback in batches and the median interval is only the
#: batch drain; at 10 ms it flips between one and two polls from run to
#: run.  At 2 ms the intervals follow the workers' own pace.
FLEET_POLL = 0.002
RESUMES = 5
#: A fleet that stops producing results fails the run well inside the
#: benchmark's own time limit instead of hanging it.
FLEET_STALL_S = 60.0


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit("perfbench: no src/repro next to %s" % HERE)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from %s" % repro.__file__)


def campaign_seed(seed: int) -> int:
    return CAMPAIGN_SEED_BASE + seed % CAMPAIGN_SEED_COUNT


@dataclass
class Setup:
    """Everything prepared before the timed phase of one run."""

    name: str
    seed: int
    space: object
    settings: Dict
    fleet: bool
    work: str
    reference: Optional[Dict[str, Dict]] = None


def grid(name: str, seed: int):
    """The workload's parameter space and campaign settings."""
    from repro.dse import ParameterSpace

    spec = WORKLOADS[name]
    space = ParameterSpace()
    for axis, values in spec["axes"]:
        space.add(axis, values)
    settings = dict(spec["effort"], fidelity=spec["fidelity"],
                    seed=campaign_seed(seed))
    return space, settings


def prepare(name: str, seed: int, work: str) -> Setup:
    """Imports, grid build, campaign home and reference load."""
    use_checkout()
    from repro.dse.campaign import run_memory_campaign  # noqa: F401

    spec = WORKLOADS[name]
    if spec["fleet"]:
        from repro.dse.net import NetworkExecutor  # noqa: F401
    space, settings = grid(name, seed)
    os.makedirs(work, exist_ok=True)
    reference = None
    if name == "mem-default":
        with open(REFERENCE) as handle:
            reference = json.load(handle)[str(settings["seed"])]
    return Setup(name, seed, space, settings, spec["fleet"], work, reference)


@dataclass
class Rep:
    """One cold campaign plus its warm resumes, timed from outside.

    ``warm`` holds the last resume's outcomes; ``warm_hit_rate`` is the
    lowest cache hit rate of all the resumes.
    """

    directory: str
    points: int
    wall: float
    first: float
    intervals: List[float]
    resumes: List[float]
    worker_rss_mb: float
    cold: Dict[str, tuple]
    warm: Dict[str, tuple]
    warm_hit_rate: float


def peak_rss_of(process) -> float:
    """Peak RSS of a live child process [MB] (Linux ``VmHWM``; 0 if gone).

    ``RUSAGE_CHILDREN`` cannot stand in for this: a child forked from
    this (large) process is charged the parent's pages before it execs,
    so the set-up probes would read as big as the benchmark itself.
    """
    try:
        with open("/proc/%d/status" % process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _outcomes(result) -> Dict[str, tuple]:
    return {
        job.key: (out.ok, out.from_cache, out.result)
        for job, out in zip(result.jobs, result.outcomes)
    }


def run_rep(setup: Setup, directory: str, tracer=None) -> Rep:
    """Run one repetition; ``tracer`` (optional) attributes layer time."""
    from repro.dse.campaign import run_memory_campaign

    ticks: List[float] = []

    def progress(_):
        ticks.append(time.perf_counter())

    executor, probe, worker_rss = "serial", None, 0.0
    if setup.fleet:
        from repro.dse.net import NetworkExecutor

        executor = NetworkExecutor(
            directory, spawn_workers=FLEET_WORKERS, poll=FLEET_POLL,
            timeout=FLEET_STALL_S,
        )
    try:
        if tracer is not None:
            if setup.fleet:
                probe = tracer.rtt_probe(executor.address)
            tracer.phase("cold")
        start = time.perf_counter()
        cold = run_memory_campaign(
            setup.space, directory, executor=executor, progress=progress,
            **setup.settings
        )
        wall = time.perf_counter() - start
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.phase(None)
        if setup.fleet:
            worker_rss = max(map(peak_rss_of, executor.procs), default=0.0)
            executor.close()
    first = ticks[0] - start if ticks else wall
    intervals = [b - a for a, b in zip(ticks, ticks[1:])]

    # A resume of a finished campaign takes milliseconds, so it is
    # repeated; it writes nothing, so each replay sees the same directory.
    resumes, hit_rates = [], []
    for _ in range(RESUMES):
        if tracer is not None:
            tracer.phase("resume")
        try:
            start = time.perf_counter()
            warm = run_memory_campaign(
                setup.space, directory, resume=True, executor="serial",
                **setup.settings
            )
            resumes.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.phase(None)
        hit_rates.append(warm.cache_stats["hit_rate"])
    return Rep(
        directory, len(cold.jobs), wall, first, intervals, resumes, worker_rss,
        _outcomes(cold), _outcomes(warm), min(hit_rates),
    )


def _matches_reference(expected: Dict, result: Dict) -> bool:
    if expected["feasible"] != result.get("feasible"):
        return False
    if not expected["feasible"]:
        return True
    want, got = expected["point"], result["point"]
    if set(want) != set(got):
        return False
    for name, value in want.items():
        if name in LATENCY_FIELDS:
            if abs(got[name] - value) > LATENCY_RTOL * abs(value):
                return False
        elif got[name] != value:
            return False
    return True


def serial_reference(setup: Setup) -> Dict[str, Dict]:
    """The fleet's jobs evaluated in-process, uncached (its oracle)."""
    from repro.dse.campaign import explore_memory
    from repro.dse.runner import CampaignRunner

    result = explore_memory(
        setup.space, runner=CampaignRunner(workers=1), **setup.settings
    )
    return {key: res for key, (_, _, res) in _outcomes(result).items()}


class Checker:
    """Count checked point outcomes and those that failed a check.

    Cold points must succeed and match the workload's oracle: the
    stored reference for mem-default, a serial run of the same jobs for
    mem-fleet, success alone for the analytic screen.  Resumed points
    must all be cache replays identical to the cold records, at a 1.0
    hit rate.  Repetitions are checked as they arrive and their records
    dropped, so memory does not grow with the repetition count; the
    fleet's oracle is computed in :meth:`finish`, after the timed phase.
    """

    def __init__(self, setup: Setup):
        self.setup = setup
        self.attempted = 0
        self.failed = 0
        self._held: List[Rep] = []

    def add(self, rep: Rep) -> None:
        if self.setup.fleet:
            self._held.append(rep)
        else:
            self._check(rep, self.setup.reference, exact=False)

    def finish(self) -> Dict[str, int]:
        if self._held:
            oracle = serial_reference(self.setup)
            for rep in self._held:
                self._check(rep, oracle, exact=True)
            self._held = []
        return {"attempted": self.attempted, "failed": self.failed}

    def _check(self, rep: Rep, oracle: Optional[Dict], exact: bool) -> None:
        for key in set(rep.cold) | set(rep.warm) | set(oracle or ()):
            self.attempted += 2
            cold = rep.cold.get(key)
            warm = rep.warm.get(key)
            ok = cold is not None and cold[0] and not cold[1]
            if ok and oracle is not None:
                want = oracle.get(key)
                ok = want is not None and (
                    want == cold[2] if exact
                    else _matches_reference(want, cold[2])
                )
            self.failed += 0 if ok else 1
            replayed = (
                cold is not None and warm is not None and warm[0]
                and warm[1] and warm[2] == cold[2]
                and rep.warm_hit_rate == 1.0
            )
            self.failed += 0 if replayed else 1
        rep.cold, rep.warm = {}, {}


def remove(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)


def setup_probe(name: str, seed: int, work: str) -> float:
    """Wall-clock of :func:`prepare` in a fresh interpreter [s]."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--work", work,
    ]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    remove(work)
    return elapsed
