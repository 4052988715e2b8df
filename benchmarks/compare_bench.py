"""Gate CI on a fresh perf snapshot against the committed baseline.

CI runs ``bench_dse.py --snapshot <current>`` and then::

    python benchmarks/compare_bench.py BENCH_dse.json <current>

to compare the committed baseline (``BENCH_dse.json`` at the repo
root) against the run that just happened.  The comparison **gates**:
any gated metric drifting more than 30% in the wrong direction fails
the build with a one-line diff per regression.  Metrics dominated by
shared-runner noise (process-spawn wall-clocks) are report-only.

``REPRO_BENCH_NO_GATE=1`` downgrades the gate to a report (exit 0) —
the escape hatch for known-noisy runners and for intentional
re-baselining PRs, which should also refresh the snapshot::

    PYTHONPATH=src python benchmarks/bench_dse.py --snapshot

A metric missing from either file compares as ``n/a`` and never fails
(baselines predating a section stay usable).  Exit status: 0 clean or
gate disabled, 1 on a gated regression, 2 on unreadable input.
"""

import argparse
import json
import math
import os
import sys

#: Wrong-direction drift beyond this fraction fails a gated metric.
TOLERANCE = 0.30

#: (section, metric, direction, gated) — direction "down" means lower
#: is better.  Gated metrics enforce the TOLERANCE; the rest are
#: printed for eyeballing only (executor wall-clocks pay interpreter
#: startup and TCP round-trips, far noisier than 30% across runners).
METRICS = [
    ("journal", "jsonl_us_per_point_last_decile", "down", True),
    ("journal", "jsonl_flatness", "down", True),
    ("journal", "resume_load_s", "down", True),
    # One read-side fold over a 10^4-event campaign directory; the
    # bench asserts < 1 s absolutely, the gate catches slow creep.
    ("analytics", "report_build_s", "down", True),
    ("analytics", "events_per_s", "up", False),
    ("executors", "serial_wall_s", "down", False),
    ("executors", "pool_speedup", "up", False),
    ("executors", "network_speedup", "up", False),
    ("evaluator", "vector_s_per_point", "down", True),
    ("evaluator", "vector_speedup", "up", True),
    # Population passes of the root solves at the default effort are
    # deterministic: any drift is a solver change.
    ("evaluator", "write_passes_per_point", "down", True),
    ("evaluator", "read_passes_per_point", "down", True),
    # The per-cell ones among them: where a binned pass's remainder
    # bound failed.  Report-only: it moves with the bound, not a defect.
    ("evaluator", "cell_passes_per_point", "down", False),
    ("evaluator", "default_s_per_point", "down", False),
    # The second point of a default-effort wer_target pair: the physics
    # memo serves its WER-independent stage, so it pays for its ECC
    # sweep alone.  A memo that stops hitting multiplies it ~10x.
    ("evaluator", "shared_s_per_point", "down", True),
    # Cold start of a spawned worker: fresh interpreters importing what
    # it needs to evaluate a memory point (numpy, scipy.special, vaet).
    ("evaluator", "worker_ready_s", "down", True),
    # The sibling grid with a deadline over without one: deadline
    # points share one evaluation child and its physics memo.  The
    # bench asserts <= 1.5 absolutely; the gate catches slow creep.
    ("evaluator", "deadline_ratio", "down", True),
    # Per point of a default-effort grid of one seed over both nodes,
    # every point a memo miss: the points share the seed's normals.
    ("evaluator", "grid_s_per_point", "down", True),
    # Minor page faults of a default-effort point after a warm-up: a
    # handful while glibc keeps the heap resident, ~18k when it trims.
    ("evaluator", "minor_faults_per_point", "down", True),
    # Evaluations-to-target are seeded and fully deterministic — any
    # drift is a sampler behaviour change, so the surrogate's is gated.
    ("sampler", "surrogate_evals_to_target", "down", True),
    ("sampler", "lhs_evals_to_target", "down", False),
    ("sampler", "grid_evals_to_target", "down", False),
    ("sampler", "proposals_per_s", "up", False),
    # The disabled fault plane's cost on the evaluator path: the bench
    # itself asserts < 2% absolutely; the gate catches slow creep.
    ("chaos_guard", "chaos_guard_overhead_pct", "down", True),
    ("chaos_guard", "guard_ns_per_fire", "down", False),
]

#: Absolute drift below which a gated metric never fails: a count that
#: sits near zero moves by more than TOLERANCE on noise alone.
NOISE_FLOOR = {
    ("evaluator", "minor_faults_per_point"): 1000,
}


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        sys.stderr.write("cannot read snapshot %s: %s\n" % (path, exc))
        raise SystemExit(2)


def compare(baseline, current, out=sys.stdout):
    """Print the metric table; return one-line reports of gated regressions."""
    regressions = []
    width = max(len("%s.%s" % (s, m)) for s, m, _, _ in METRICS)
    out.write(
        "%-*s %14s %14s %9s\n"
        % (width, "metric", "baseline", "current", "delta")
    )
    for section, metric, direction, gated in METRICS:
        base = baseline.get(section, {}).get(metric)
        cur = current.get(section, {}).get(metric)
        label = "%s.%s" % (section, metric)
        if base is None or cur is None:
            out.write("%-*s %14s %14s %9s\n" % (
                width, label,
                "-" if base is None else "%.4g" % base,
                "-" if cur is None else "%.4g" % cur,
                "n/a",
            ))
            continue
        if base:
            delta = (cur - base) / base
        else:
            delta = 0.0 if cur == base else math.copysign(math.inf, cur)
        worse = delta > 0 if direction == "down" else delta < 0
        regressed = (
            gated and worse and abs(delta) > TOLERANCE
            and abs(cur - base) > NOISE_FLOOR.get((section, metric), 0)
        )
        flag = "REGRESSION" if regressed else ("(worse)" if worse else "")
        out.write("%-*s %14.4g %14.4g %+8.1f%% %s\n" % (
            width, label, base, cur, delta * 100.0, flag
        ))
        if regressed:
            regressions.append(
                "REGRESSION %s: %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)"
                % (label, base, cur, delta * 100.0, TOLERANCE * 100.0)
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate a perf snapshot against the committed "
                    "baseline (>30%% wrong-direction drift fails; "
                    "REPRO_BENCH_NO_GATE=1 reports only)."
    )
    parser.add_argument("baseline", help="committed snapshot (BENCH_dse.json)")
    parser.add_argument("current", help="snapshot from this run")
    args = parser.parse_args(argv)
    regressions = compare(_load(args.baseline), _load(args.current))
    if not regressions:
        print("\nperf gate: all gated metrics within %.0f%% of baseline"
              % (TOLERANCE * 100.0))
        return 0
    print()
    for line in regressions:
        print(line)
    if os.environ.get("REPRO_BENCH_NO_GATE", "") not in ("", "0"):
        print("perf gate: DISABLED (REPRO_BENCH_NO_GATE set) — "
              "reporting only")
        return 0
    print("perf gate: FAILED — rerun on a quiet machine, or refresh the "
          "baseline via 'bench_dse.py --snapshot' if the change is "
          "intentional (REPRO_BENCH_NO_GATE=1 skips the gate)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
