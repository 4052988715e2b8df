"""Calibrate the analytic low-fidelity screen against the full model.

The multi-fidelity ladder (:mod:`repro.dse.fidelity`) promotes points
by their *low-fidelity* Pareto rank, so its correctness budget is the
analytic NVSim-class estimator's error distribution relative to the
variation-aware Monte-Carlo evaluator.  This harness sweeps the same
design points at both fidelities through ``repro.dse.run``, joins the
records point-by-point, and reports the mean / p95 relative error and
the rank agreement per objective — the NVSim-vs-measured comparison
pattern of OpenNVRAM's ``nvsim_comparison``, applied to our own two
fidelities.

Runs two ways:

* under pytest (``-m bench``), asserting the screen stays usable — the
  rank ordering of every ladder objective must correlate strongly;
* as a plain script for artefact capture::

      PYTHONPATH=src python benchmarks/calibrate_fidelity.py

Either way the error table lands in
``benchmarks/output/calibrate_fidelity.json``.
"""

import argparse
import json
import os
import sys

import numpy as np

try:
    import pytest
except ImportError:  # script mode works without pytest installed
    pytest = None

sys.path.insert(0, os.path.dirname(__file__))
from artifacts import save_artifact  # noqa: E402

from repro.dse import MemoryCampaign, ParameterSpace, run  # noqa: E402

#: Objectives the error table covers (the ladder defaults plus area).
OBJECTIVES = (
    "write_latency", "read_latency",
    "write_energy", "read_energy",
    "area", "edp_proxy",
)

SETTINGS = dict(num_words=200, error_population=10_000)

if pytest is not None:
    pytestmark = [pytest.mark.bench, pytest.mark.slow]


def calibration_space() -> ParameterSpace:
    """12 points: organisation x word width x reliability target."""
    space = ParameterSpace()
    space.add("subarray_rows", [128, 256, 512])
    space.add("word_bits", [128, 256])
    space.add("wer_target", [1e-9, 1e-12])
    return space


def _join_key(record, axes):
    return tuple(record[name] for name in axes)


def _rank_correlation(low, high):
    """Tie-aware Spearman rank correlation of two aligned vectors.

    Ties are expected — the analytic screen cannot see the reliability
    axes, so points differing only in ``wer_target`` share one
    low-fidelity estimate — and must get average ranks, not
    argsort-order ranks, or the correlation is pure noise.  A constant
    vector (e.g. the screen's area over organisation-only axes)
    correlates 0 with anything varying.
    """
    from scipy import stats

    low_ranks = stats.rankdata(low)
    high_ranks = stats.rankdata(high)
    if np.ptp(low_ranks) == 0 or np.ptp(high_ranks) == 0:
        return 1.0 if np.array_equal(low_ranks, high_ranks) else 0.0
    return float(np.corrcoef(low_ranks, high_ranks)[0, 1])


def calibrate(space=None, **settings):
    """Sweep both fidelities over the same points; summarise the error.

    Returns the summary dict: per-objective mean / p95 / max relative
    error ``|low - high| / high`` and the Spearman rank correlation,
    plus the wall-clock of each sweep (the cost gap the ladder banks).
    """
    space = space if space is not None else calibration_space()
    settings = dict(SETTINGS, **settings)
    axes = [axis.name for axis in space.axes]

    high = run(MemoryCampaign(space, **settings))
    low = run(MemoryCampaign(space, fidelity="low", **settings))
    high_rows = {_join_key(r, axes): r for r in high.records()}
    low_rows = {_join_key(r, axes): r for r in low.records()}
    joined = sorted(set(high_rows) & set(low_rows))
    assert joined, "no joinable points — both sweeps must share the space"

    summary = {
        "points": space.size,
        "joined": len(joined),
        "settings": {k: settings[k] for k in sorted(settings)},
        "high_wall_s": high.elapsed,
        "low_wall_s": low.elapsed,
        "low_speedup": high.elapsed / max(low.elapsed, 1e-9),
        "objectives": {},
    }
    for objective in OBJECTIVES:
        high_vals = np.array([high_rows[k][objective] for k in joined], float)
        low_vals = np.array([low_rows[k][objective] for k in joined], float)
        error = np.abs(low_vals - high_vals) / np.abs(high_vals)
        summary["objectives"][objective] = {
            "mean_rel_error": float(error.mean()),
            "p95_rel_error": float(np.percentile(error, 95)),
            "max_rel_error": float(error.max()),
            "rank_correlation": _rank_correlation(low_vals, high_vals),
        }
    return summary


def _check_and_save(name, summary):
    # The screen does not need to be *accurate* — the ladder re-scores
    # everything it promotes — but it must *order* the space usefully
    # under the ladder's default objectives (energy and the EDP proxy;
    # measured rho = 1.00 / 0.88 here).  Latency ordering is known to
    # degrade across word-width/ECC axes (measured rho = 0.24) — the
    # table records it so campaign authors widen promote_ranks or pick
    # screenable objectives; it is not gated.
    for objective in ("write_energy", "edp_proxy"):
        stats = summary["objectives"][objective]
        assert stats["rank_correlation"] >= 0.8, (
            "%s rank correlation %.2f — screening would mis-promote"
            % (objective, stats["rank_correlation"])
        )
    for objective in OBJECTIVES:
        assert np.isfinite(
            summary["objectives"][objective]["mean_rel_error"]
        )
    assert summary["low_speedup"] > 10.0, (
        "analytic screen only %.1fx faster" % summary["low_speedup"]
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_fidelity_calibration():
    """The screen's error bars, measured and archived."""
    summary = calibrate()
    _check_and_save("calibrate_fidelity.json", summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the analytic screen's error against the "
                    "Monte-Carlo evaluator (JSON artefact capture)."
    )
    parser.add_argument(
        "--num-words", type=int, default=SETTINGS["num_words"],
        help="Monte-Carlo words per point (default: %(default)s)",
    )
    parser.add_argument(
        "--error-population", type=int,
        default=SETTINGS["error_population"],
        help="Monte-Carlo error population (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    summary = _check_and_save(
        "calibrate_fidelity.json",
        calibrate(
            num_words=args.num_words,
            error_population=args.error_population,
        ),
    )
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
