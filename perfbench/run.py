"""Campaign benchmark of the ``repro.dse`` engine and the physics it drives.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mem-default --seed 1 --seconds 45 --trace 0

Each run repeats the workload's campaign (cold, then warm resumes)
until ``--seconds`` have passed, checks every output, prints each metric
with its unit and sample count, and ends with one JSON line.  With
``--trace 0`` it reports the end-to-end metrics of untraced runs; with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics.  See README.md for the workloads and the
layer -> metric -> workload map.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import workloads

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_p50_s": "s",
    "point_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Fallback when a run is too short for its workload's tail percentile:
#: the highest of these with >= 10 samples beyond.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
SETUP_PROBES = 5
REPORT_BUILDS = 3


def tail(samples, highest):
    """(percentile, nearest-rank value) of the reported tail."""
    ordered = sorted(samples)
    for pct in [p for p in TAIL_PERCENTILES if p <= highest]:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def peak_rss_mb(reps) -> float:
    """Peak RSS of this process plus its largest fleet worker [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max(rep.worker_rss_mb for rep in reps)


def repeat(setup, seconds, checker, tracer=None, between=None):
    """One untimed warm-up repetition, then repetitions until ``seconds`` pass.

    The warm-up lets lazy imports and first-touch allocations finish
    before timing (the first repetition ran ~10-20% slower).  With a
    ``tracer`` every second timed repetition is traced, and there are
    at least two.  ``between(elapsed)`` runs before each timed
    repetition.  Only the last repetition's directory is kept (for the
    analytics report); earlier ones are removed between repetitions.
    """
    warmup = workloads.run_rep(setup, os.path.join(setup.work, "warmup"))
    checker.add(warmup)
    workloads.remove(warmup.directory)
    reps = []
    start = time.perf_counter()
    while (
        len(reps) < (2 if tracer else 1)
        or time.perf_counter() - start < seconds
    ):
        if reps:
            workloads.remove(reps[-1].directory)
        if between is not None:
            between(time.perf_counter() - start)
        directory = os.path.join(setup.work, "rep%d" % len(reps))
        if tracer is None or len(reps) % 2 == 0:
            rep = workloads.run_rep(setup, directory)
        else:
            tracer.install()
            try:
                rep = workloads.run_rep(setup, directory, tracer)
            finally:
                tracer.remove()
            tracer.phases["cold"].points += rep.points
            tracer.phases["cold"].wall += rep.wall
            tracer.phases["resume"].points += len(rep.warm) * workloads.RESUMES
        checker.add(rep)
        reps.append(rep)
    return reps


def end_to_end(setup, seconds, checker):
    setup_samples = []

    def probe(elapsed=math.inf):
        # Spread over the run, so the median sees more than one burst
        # of host contention.
        if elapsed >= len(setup_samples) * seconds / SETUP_PROBES:
            work = os.path.join(setup.work, "probe%d" % len(setup_samples))
            setup_samples.append(
                workloads.setup_probe(setup.name, setup.seed, work)
            )

    reps = repeat(setup, seconds, checker, between=probe)
    while len(setup_samples) < SETUP_PROBES:
        probe()
    rss = peak_rss_mb(reps)
    intervals = [gap for rep in reps for gap in rep.intervals]
    pct, tail_value = tail(intervals, workloads.WORKLOADS[setup.name]["tail"])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "points_per_s": statistics.median(r.points / r.wall for r in reps),
        "point_p50_s": statistics.median(intervals),
        "point_tail_s": tail_value,
        "peak_rss_mb": rss,
    }
    samples = {
        "setup_s": len(setup_samples),
        "points_per_s": len(reps),
        "point_p50_s": len(intervals),
        "point_tail_s": len(intervals),
        "peak_rss_mb": 1,
    }
    notes = {
        "point_tail_s": "p%d of %d intervals" % (pct, len(intervals)),
    }
    return metrics, END_TO_END, samples, notes


def per_layer(setup, seconds, checker):
    from layers import (
        IMPORTTIME_RUNS, PER_LAYER, SPAWN_RUNS, Tracer, layer_metrics,
        spawn_probe,
    )
    from repro.dse.analytics import build_report

    tracer = Tracer()
    reps = repeat(setup, seconds, checker, tracer)
    plain, traced = reps[0::2], reps[1::2]
    overhead = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in plain) - 1.0
    )
    builds = []
    for _ in range(REPORT_BUILDS):
        start = time.perf_counter()
        build_report(reps[-1].directory)
        builds.append(time.perf_counter() - start)
    resumes = [sample for rep in plain for sample in rep.resumes]
    extra = spawn_probe(workloads.ROOT)
    extra["resume_s"] = min(resumes)
    extra["first_result_s"] = min(r.first for r in plain)
    extra["dse.analytics.report_s"] = statistics.median(builds)
    extra["trace.overhead_frac"] = overhead
    metrics = layer_metrics(tracer, extra)
    cold = tracer.phases["cold"]
    samples = {name: cold.points for name in PER_LAYER}
    samples.update({
        "dse.cache.get_s": tracer.phases["resume"].points,
        "dse.cache.hit_ratio": tracer.phases["resume"].calls["dse.cache.get"],
        "dse.checkpoint.load_s": tracer.phases["resume"].calls["dse.checkpoint.load"],
        "dse.net.rtt_p50_s": len(tracer.rtts),
        "resume_s": len(resumes),
        "first_result_s": len(plain),
        "spawn.import_s": SPAWN_RUNS,
        "spawn.scipy_import_s": IMPORTTIME_RUNS,
        "dse.analytics.report_s": REPORT_BUILDS,
        "trace.overhead_frac": len(reps),
    })
    notes = {
        "trace.overhead_frac": "%d traced vs %d untraced repetitions"
        % (len(traced), len(plain)),
        "resume_s": "fastest resume of the untraced repetitions",
        "first_result_s": "fastest of the untraced repetitions",
    }
    if setup.fleet:
        notes["vaet.evaluate_s"] = (
            "points evaluate in worker processes: only campaign-process "
            "layers and the spawn probe are traced"
        )
    unreached = sorted(name for name, value in metrics.items() if value == 0.0)
    if unreached:
        notes["unreached"] = ", ".join(unreached)
    return metrics, PER_LAYER, samples, notes


def environment(setup):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": setup.name,
        "seed": setup.seed,
        "campaign_seed": setup.settings["seed"],
        "points": setup.space.size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, args.work)
        return 0

    workloads.use_checkout()
    work = os.path.join(
        workloads.ROOT, ".perfbench-work", "%s-%d" % (args.workload, os.getpid())
    )
    scratch = os.path.join(work, "tmp")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    try:
        setup = workloads.prepare(args.workload, args.seed, work)
        checker = workloads.Checker(setup)
        if args.trace:
            metrics, units, samples, notes = per_layer(
                setup, args.seconds, checker
            )
        else:
            metrics, units, samples, notes = end_to_end(
                setup, args.seconds, checker
            )
        counts = checker.finish()
        env = environment(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    counts["error_frac"] = counts["failed"] / counts["attempted"]
    print("environment: " + json.dumps(env, sort_keys=True))
    for name in units:
        line = "%-26s %14.6g %-6s n=%d" % (
            name, metrics[name], units[name], samples[name]
        )
        if name in notes:
            line += "  (%s)" % notes[name]
        print(line)
    print("%-26s %14.6g %-6s n=%d" % (
        "error_frac", counts["error_frac"], "frac", counts["attempted"]
    ))
    if "unreached" in notes:
        print("not reached by this workload (reported as 0): " + notes["unreached"])
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
