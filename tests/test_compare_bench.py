"""The perf-gate logic of ``benchmarks/compare_bench.py``.

The gate itself runs in CI against real snapshots; these tests pin its
decision rules on synthetic ones: >30% wrong-direction drift on a
gated metric fails unless it is within the metric's absolute noise
floor, improvements and report-only metrics never do,
missing sections compare as ``n/a``, and ``REPRO_BENCH_NO_GATE=1``
downgrades a failure to a report.
"""

import io
import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
)
import compare_bench  # noqa: E402


def _snapshot(**overrides):
    base = {
        "journal": {
            "jsonl_us_per_point_last_decile": 40.0,
            "jsonl_flatness": 1.2,
            "resume_load_s": 0.05,
        },
        "executors": {
            "serial_wall_s": 1.2,
            "pool_speedup": 1.8,
            "network_speedup": 1.4,
        },
        "evaluator": {
            "vector_s_per_point": 0.02,
            "scalar_s_per_point": 1.0,
            "vector_speedup": 50.0,
            "shared_s_per_point": 0.012,
            "deadline_ratio": 1.1,
            "grid_s_per_point": 0.1,
            "cell_passes_per_point": 1,
        },
    }
    for dotted, value in overrides.items():
        section, metric = dotted.split(".")
        base[section][metric] = value
    return base


def _compare(baseline, current):
    out = io.StringIO()
    regressions = compare_bench.compare(baseline, current, out=out)
    return regressions, out.getvalue()


class TestCompare:
    def test_identical_snapshots_are_clean(self):
        regressions, report = _compare(_snapshot(), _snapshot())
        assert regressions == []
        assert "REGRESSION" not in report

    def test_small_drift_within_tolerance(self):
        current = _snapshot(**{"journal.jsonl_us_per_point_last_decile": 50.0})
        regressions, report = _compare(_snapshot(), current)
        assert regressions == []
        assert "(worse)" in report

    def test_down_metric_regression_flagged(self):
        current = _snapshot(**{"evaluator.vector_s_per_point": 0.03})
        regressions, _ = _compare(_snapshot(), current)
        assert len(regressions) == 1
        assert "evaluator.vector_s_per_point" in regressions[0]
        assert regressions[0].startswith("REGRESSION")

    def test_up_metric_regression_flagged(self):
        current = _snapshot(**{"evaluator.vector_speedup": 30.0})
        regressions, _ = _compare(_snapshot(), current)
        assert len(regressions) == 1
        assert "evaluator.vector_speedup" in regressions[0]

    def test_shared_point_regression_flagged(self):
        # A physics memo that stops hitting makes the sibling point pay
        # for the whole evaluation again.
        current = _snapshot(**{"evaluator.shared_s_per_point": 0.15})
        regressions, _ = _compare(_snapshot(), current)
        assert len(regressions) == 1
        assert "evaluator.shared_s_per_point" in regressions[0]

    def test_deadline_ratio_regression_flagged(self):
        # A fork per deadline point forfeits the memo: ~2.5x.
        current = _snapshot(**{"evaluator.deadline_ratio": 2.5})
        regressions, _ = _compare(_snapshot(), current)
        assert len(regressions) == 1
        assert "evaluator.deadline_ratio" in regressions[0]

    def test_grid_point_regression_flagged(self):
        # Points that stop sharing the seed's normals redraw them.
        current = _snapshot(**{"evaluator.grid_s_per_point": 0.14})
        regressions, _ = _compare(_snapshot(), current)
        assert len(regressions) == 1
        assert "evaluator.grid_s_per_point" in regressions[0]

    def test_improvement_never_flags(self):
        current = _snapshot(**{
            "evaluator.vector_s_per_point": 0.001,
            "evaluator.vector_speedup": 500.0,
            "journal.jsonl_flatness": 0.9,
        })
        regressions, _ = _compare(_snapshot(), current)
        assert regressions == []

    def test_report_only_metrics_never_gate(self):
        current = _snapshot(**{
            "executors.pool_speedup": 0.5,
            "executors.serial_wall_s": 10.0,
            "executors.network_speedup": 0.5,
            "evaluator.cell_passes_per_point": 20,
        })
        regressions, report = _compare(_snapshot(), current)
        assert regressions == []
        assert report.count("(worse)") == 4

    def test_zero_baseline_unchanged_is_clean(self):
        baseline = _snapshot(**{"evaluator.minor_faults_per_point": 0})
        regressions, report = _compare(baseline, baseline)
        assert regressions == []
        assert "REGRESSION" not in report

    def test_fault_count_within_noise_floor_is_clean(self):
        baseline = _snapshot(**{"evaluator.minor_faults_per_point": 2})
        current = _snapshot(**{"evaluator.minor_faults_per_point": 40})
        regressions, report = _compare(baseline, current)
        assert regressions == []
        assert "(worse)" in report

    def test_trimmed_heap_fault_count_flagged(self):
        baseline = _snapshot(**{"evaluator.minor_faults_per_point": 0})
        current = _snapshot(**{"evaluator.minor_faults_per_point": 18000})
        regressions, _ = _compare(baseline, current)
        assert len(regressions) == 1
        assert "evaluator.minor_faults_per_point" in regressions[0]

    def test_missing_section_is_na_not_failure(self):
        baseline = _snapshot()
        del baseline["evaluator"]
        regressions, report = _compare(baseline, _snapshot())
        assert regressions == []
        assert "n/a" in report


class TestMain:
    def _paths(self, tmp_path, baseline, current):
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return str(base_path), str(cur_path)

    def test_clean_run_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_NO_GATE", raising=False)
        assert compare_bench.main(
            list(self._paths(tmp_path, _snapshot(), _snapshot()))
        ) == 0
        assert "perf gate: all gated metrics" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_NO_GATE", raising=False)
        current = _snapshot(**{"journal.jsonl_flatness": 5.0})
        assert compare_bench.main(
            list(self._paths(tmp_path, _snapshot(), current))
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION journal.jsonl_flatness" in out
        assert "perf gate: FAILED" in out

    def test_escape_hatch_downgrades_to_report(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_NO_GATE", "1")
        current = _snapshot(**{"journal.jsonl_flatness": 5.0})
        assert compare_bench.main(
            list(self._paths(tmp_path, _snapshot(), current))
        ) == 0
        assert "DISABLED" in capsys.readouterr().out

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            compare_bench.main([str(tmp_path / "missing.json"),
                                str(tmp_path / "missing.json")])
        assert excinfo.value.code == 2
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_committed_baseline_parses(self, tmp_path):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        baseline = compare_bench._load(os.path.join(root, "BENCH_dse.json"))
        regressions, _ = _compare(baseline, baseline)
        assert regressions == []
