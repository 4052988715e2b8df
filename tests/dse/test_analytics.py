"""Tests for read-side campaign analytics (`analyze` + build_report)."""

import json
import os
import shutil
import socket

import numpy as np
import pytest

from repro.dse import CampaignState, campaign_key, journal_path
from repro.dse.__main__ import main
from repro.dse.analytics import build_report, percentile

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN_DIR = os.path.join(FIXTURES, "analyze_campaign")
GOLDEN_EXPECTED = os.path.join(FIXTURES, "analyze_campaign_expected.json")

MEMORY_SPEC = {
    "kind": "memory",
    "axes": {"subarray_rows": [128, 256], "wer_target": [1e-9]},
    "settings": {"num_words": 100, "error_population": 5000},
    "sampler": "grid",
}


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _assert_close(actual, expected, path="$"):
    """Recursive equality, floats compared with tolerance.

    The golden payload is committed as rendered JSON; exact float
    round-trips are guaranteed by json itself, but the tolerance keeps
    the fixture stable across any future formatting change.
    """
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_close(actual[key], expected[key], "%s.%s" % (path, key))
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, "%s[%d]" % (path, i))
    elif isinstance(expected, bool):
        assert actual is expected, path
    elif isinstance(expected, (int, float)):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert actual == expected, path


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.5
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 25) == 1.75

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5

    @pytest.mark.parametrize("size", range(2, 60))
    def test_equals_np_percentile_to_the_bit(self, size):
        # Exponential samples, as evaluation latencies are; numpy lerps
        # from the nearer order statistic past the midpoint.
        values = list(np.random.default_rng(size).exponential(0.05, size))
        for q in (50, 90, 99):
            assert percentile(values, q) == float(np.percentile(values, q)), q

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], 101)
        with pytest.raises(ValueError, match="0, 100"):
            percentile([1.0], -1)


class TestGoldenFixture:
    """The committed campaign directory replays to the committed payload.

    Regenerate both after an intentional format change:
    ``PYTHONPATH=src python tests/dse/fixtures/make_analyze_campaign.py``.
    """

    def test_analyze_json_matches_golden(self, capsys):
        assert main(["analyze", GOLDEN_DIR, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        with open(GOLDEN_EXPECTED) as handle:
            expected = json.load(handle)
        _assert_close(payload, expected)

    def test_fixture_covers_every_family(self):
        """The fixture earns its keep: all four analytics families are
        non-trivially populated (guards against a regeneration that
        silently hollows it out)."""
        report = build_report(GOLDEN_DIR)
        assert report.latency is not None and report.latency["count"] == 4
        assert report.latency["p50"] == pytest.approx(2.5)
        assert report.completions == 4
        assert report.throughput == pytest.approx(4 / 8.5)
        assert report.rates["cache_hit"] == pytest.approx(0.2)
        assert report.rates["retry"] == pytest.approx(0.2)
        assert report.rates["timeout"] == pytest.approx(0.2)
        workers = {fold.worker: fold for fold in report.workers}
        assert set(workers) == {"w1", "w2"}
        # w1 died holding K3: busy credit stops at its last heartbeat.
        assert workers["w1"].utilization == pytest.approx(0.75)
        assert workers["w1"].completed == 1
        assert workers["w2"].completed == 2
        assert [s.front_size for s in report.pareto] == [1, 2, 2]
        assert report.pareto[-1].hypervolume == pytest.approx(0.5)
        assert report.status["done"] == 4
        assert report.status["quarantined"] == 1
        assert report.status["remaining"] == 0
        assert report.accounting_consistent

    def test_human_output(self, capsys):
        assert main(["analyze", GOLDEN_DIR]) == 0
        out = capsys.readouterr().out
        assert "4/5 done, 2 failed (1 timed out), 0 remaining, 1 quarantined" in out
        assert "WARNING" not in out
        assert "throughput:" in out
        assert "latency:    p50" in out
        assert "cache-hit 20.0%" in out
        assert "worker:     w1" in out
        assert "worker:     w2" in out
        assert "pareto:     objectives [write_latency:min, write_energy:min]" in out

    def test_objectives_override(self, capsys):
        assert main([
            "analyze", GOLDEN_DIR, "--json",
            "--objectives", "write_energy:min",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pareto"]["objectives"] == [["write_energy", "min"]]
        # Single-objective front is always a single record.
        assert all(
            s["front_size"] <= 1 for s in payload["pareto"]["samples"]
        )

    def test_malformed_objective_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", GOLDEN_DIR, "--objectives", "edp:sideways"])

    def test_samples_flag_caps_series(self, capsys):
        assert main(["analyze", GOLDEN_DIR, "--json", "--samples", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        samples = payload["pareto"]["samples"]
        assert len(samples) == 1
        assert samples[-1]["completed"] == 3  # final state always kept


class TestDamageTolerance:
    def test_torn_tail_is_reported_not_fatal(self, tmp_path, capsys):
        camp = str(tmp_path / "camp")
        shutil.copytree(GOLDEN_DIR, camp)
        with open(os.path.join(camp, "journal.jsonl"), "a") as handle:
            handle.write('{"event": "done", "key": "ff00", "elap')  # no \n
        assert main(["analyze", camp, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal"]["torn_bytes"] > 0
        assert payload["status"]["done"] == 4  # the torn line never counts
        assert main(["analyze", camp]) == 0
        assert "torn tail" in capsys.readouterr().out

    def test_mid_crash_journal_yields_partial_report(self, tmp_path):
        """A campaign killed right after begin still analyzes cleanly."""
        camp = tmp_path / "camp"
        camp.mkdir()
        CampaignState.open(
            journal_path(str(camp)), campaign_key({"kind": "t"}), total=3
        ).close()
        report = build_report(str(camp))
        assert report.latency is None
        assert report.completions == 0
        assert report.throughput == 0.0
        assert report.workers == []
        assert report.pareto == []
        assert report.accounting_consistent
        assert report.status["remaining"] == 3

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "no campaign journal" in capsys.readouterr().err

    def test_interior_corruption_exits_2(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        camp.mkdir()
        state = CampaignState.open(
            journal_path(str(camp)), campaign_key({"kind": "t"}), total=1
        )
        state.close()
        with open(journal_path(str(camp)), "a") as handle:
            handle.write("{ not json\n")
            handle.write('{"event": "total", "total": 2}\n')
        assert main(["analyze", str(camp), "--json"]) == 2
        assert capsys.readouterr().err.strip()


class TestEndToEnd:
    def test_serial_campaign_reports_all_families(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        camp = str(tmp_path / "camp")
        assert main([
            "run", spec, "--dir", camp, "--quiet", "--executor", "serial",
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", camp, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"]["done"] == 2
        assert payload["accounting_consistent"] is True
        assert payload["latency"]["count"] == 2
        assert payload["latency"]["p50"] > 0
        assert payload["throughput"]["completions"] == 2
        assert payload["rates"]["cache_hit"] == 0.0
        # Memory campaigns default to the edp_proxy objective, joined
        # from the result cache's nested memory records.
        assert payload["pareto"]["objectives"] == ["edp_proxy"]
        samples = payload["pareto"]["samples"]
        assert samples and samples[-1]["front_size"] >= 1
        assert samples[-1]["completed"] == 2
        assert payload["workers"] == []  # serial: no lease logs

    def test_network_campaign_reports_worker_fold(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        camp = str(tmp_path / "camp")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main([
            "run", spec, "--dir", camp, "--quiet",
            "--executor", "network", "--port", str(port),
            "--spawn-workers", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", camp, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"]["done"] == 2
        assert payload["latency"]["count"] == 2
        assert payload["pareto"]["samples"]
        workers = payload["workers"]
        assert workers  # the server's lease log fed the utilization fold
        assert sum(fold["completed"] for fold in workers) == 2
        assert not [f for f in workers if f["worker"].startswith("coordinator")]
        for fold in workers:
            assert 0.0 <= fold["utilization"] <= 1.0
            assert fold["busy_s"] <= fold["span_s"] or fold["span_s"] == 0

    def test_resume_after_run_keeps_report_consistent(
        self, tmp_path, capsys
    ):
        """analyze on a resumed (fully cached) campaign keeps the
        summary counters while the tail holds no fresh evaluation."""
        spec = _write_spec(tmp_path, MEMORY_SPEC)
        camp = str(tmp_path / "camp")
        assert main([
            "run", spec, "--dir", camp, "--quiet", "--executor", "serial",
        ]) == 0
        assert main([
            "resume", spec, "--dir", camp, "--quiet", "--executor", "serial",
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", camp, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"]["done"] == 2
        assert payload["accounting_consistent"] is True
