"""Tests for campaign journals and checkpointed (resumable) execution."""

import gc
import json
import os
import time
import warnings

import pytest

from repro.dse import (
    CampaignRunner,
    CampaignState,
    Job,
    JobResult,
    ResultCache,
    campaign_key,
    read_events,
    register_target,
)
from test_utils import run_closed

KEY = campaign_key({"kind": "test", "axes": [["x", [0, 1, 2, 3, 4, 5]]]})


def _echo(spec, seed):
    return {"value": spec["x"] * 10}


def _fragile(spec, seed):
    if spec["x"] == 1:
        raise ValueError("point 1 is broken")
    return {"value": spec["x"]}


@pytest.fixture(autouse=True)
def _targets():
    register_target("ckpt-echo", _echo)
    register_target("ckpt-fragile", _fragile)


class Killed(Exception):
    """Stands in for SIGKILL: aborts the campaign mid-stream."""


class TestCampaignState:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        state = CampaignState.open(path, KEY, total=6, meta={"kind": "test"})
        job = Job("ckpt-echo", {"x": 0})
        (outcome,) = CampaignRunner(workers=1).run([job])
        state.record(outcome)
        loaded = CampaignState.load(path)
        assert loaded.key == KEY
        assert loaded.total == 6
        assert loaded.done == 1
        assert loaded.failed == 0
        assert loaded.entry(job.key) == {
            "ok": True,
            "error": None,
            "elapsed": outcome.elapsed,
        }
        assert loaded.meta == {"kind": "test"}
        state.close()

    def test_status_payload(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        state = CampaignState.open(path, KEY, total=4)
        status = state.status()
        assert status["total"] == 4
        assert status["done"] == 0
        assert status["remaining"] == 4
        assert status["campaign_key"] == KEY

    def test_resume_rejects_foreign_journal(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        CampaignState.open(path, KEY, total=4)
        other = campaign_key({"kind": "test", "axes": [["x", [9]]]})
        with pytest.raises(ValueError, match="different campaign"):
            CampaignState.open(path, other, total=4, resume=True)

    def test_fresh_open_overwrites(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        state = CampaignState.open(path, KEY, total=4)
        job = Job("ckpt-echo", {"x": 0})
        (outcome,) = CampaignRunner(workers=1).run([job])
        state.record(outcome)
        state.close()
        fresh = CampaignState.open(path, KEY, total=4, resume=False)
        assert fresh.done == 0
        assert CampaignState.load(path).done == 0
        fresh.close()

    def test_load_corrupt_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="corrupt"):
            CampaignState.load(str(path))

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignState.load(str(tmp_path / "nope.json"))

    def test_journal_is_valid_jsonl_after_every_record(self, tmp_path):
        """Every append leaves one parseable JSON object per line."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=3)
        jobs = [Job("ckpt-echo", {"x": i}) for i in range(3)]
        for count, outcome in enumerate(CampaignRunner(workers=1).run(jobs)):
            state.record(outcome)
            state.sync()
            with open(path) as handle:
                events = [json.loads(line) for line in handle if line.strip()]
            assert events[0]["event"] == "begin"
            assert events[0]["campaign_key"] == KEY
            assert sum(1 for e in events if e["event"] == "done") == count + 1
            loaded = CampaignState.load(path)
            assert loaded.done == count + 1
        state.close()

    def test_record_appends_one_line_per_point(self, tmp_path):
        """O(1) journal I/O: history is never rewritten on record()."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=4)
        jobs = [Job("ckpt-echo", {"x": i}) for i in range(4)]
        sizes = []
        for outcome in CampaignRunner(workers=1).run(jobs):
            state.record(outcome)
            state.sync()
            sizes.append(os.path.getsize(path))
        state.close()
        growth = [b - a for a, b in zip(sizes, sizes[1:])]
        # Each completion appends one bounded line: growth is flat, not
        # proportional to the number of points already journaled.
        assert max(growth) <= 2 * min(growth)

    def test_save_failure_leaves_no_tmp_and_keeps_journal(self, tmp_path):
        """Regression: an unserialisable snapshot payload must neither
        litter ``*.tmp`` files nor damage the journal on disk."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=1, meta={"kind": "test"})
        job = Job("ckpt-echo", {"x": 0})
        (outcome,) = CampaignRunner(workers=1).run([job])
        state.record(outcome)
        state.meta["poison"] = object()  # not JSON-serialisable
        with pytest.raises(TypeError):
            state.save()
        assert list(tmp_path.glob("*.tmp")) == []
        loaded = CampaignState.load(path)
        assert loaded.done == 1
        assert loaded.entry(job.key)["ok"] is True
        state.close()

    def test_atomic_write_cleans_tmp_when_replace_fails(
        self, tmp_path, monkeypatch
    ):
        """The tmp file is removed in a finally even when the final
        rename blows up mid-write."""
        from repro.dse.journal import atomic_write_text

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(str(tmp_path / "out.json"), "{}")
        assert list(tmp_path.glob("*.tmp")) == []


class TestStatusAccounting:
    def test_quarantined_points_leave_remaining(self, tmp_path):
        """Regression: a quarantined point counted as both done and
        remaining — ``done + remaining + quarantined`` summed past
        ``total``.  The buckets are disjoint now."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=4)
        for outcome in CampaignRunner(workers=1).run(
            [Job("ckpt-echo", {"x": i}) for i in range(2)]
        ):
            state.record(outcome)
        bad = Job("ckpt-fragile", {"x": 1})
        (failure,) = CampaignRunner(workers=1).run([bad])
        state.record(failure)
        state.quarantine(bad.key, 3)
        status = state.status()
        assert status["done"] == 2
        assert status["quarantined"] == 1
        assert status["remaining"] == 1  # the one point never submitted
        assert (
            status["done"] + status["remaining"] + status["quarantined"]
            == status["total"]
        )
        # failed/timeouts stay raw diagnostics over every completion:
        # the quarantined point's final failure is still visible.
        assert status["failed"] == 1
        state.close()

    def test_release_returns_point_to_remaining(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=2)
        bad = Job("ckpt-fragile", {"x": 1})
        (failure,) = CampaignRunner(workers=1).run([bad])
        state.record(failure)
        state.quarantine(bad.key, 3)
        assert state.status()["remaining"] == 1
        state.release()
        status = state.status()
        assert status["quarantined"] == 0
        assert status["remaining"] == 2
        assert status["failed"] == 0  # the failed entry was cleared
        state.close()

    def test_accounting_identity_survives_reload(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=3)
        bad = Job("ckpt-fragile", {"x": 1})
        (failure,) = CampaignRunner(workers=1).run([bad])
        state.record(failure)
        state.quarantine(bad.key, 3)
        state.close()
        status = CampaignState.load(path).status()
        assert status["done"] == 0
        assert status["quarantined"] == 1
        assert status["remaining"] == 2
        assert (
            status["done"] + status["remaining"] + status["quarantined"]
            == status["total"]
        )


class TestMonotoneStamps:
    def test_append_clamps_backward_clock(self, tmp_path):
        """Regression: a backwards wall-clock step (NTP) journaled a
        decreasing ``t``; appends clamp to the high-water mark."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=2)
        state._append({"event": "started", "key": "k1", "t": 100.0})
        state._append({"event": "started", "key": "k2", "t": 50.0})
        state.close()
        events, torn = read_events(path)
        assert torn == 0
        assert [e["t"] for e in events[1:]] == [100.0, 100.0]

    def test_reload_seeds_high_water_mark(self, tmp_path):
        """The clamp spans process restarts: a journal whose stamps run
        ahead of this host's clock never regresses on resume."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=2)
        future = time.time() + 3600.0
        state._append({"event": "started", "key": "k1", "t": future})
        state.close()
        reloaded = CampaignState.load(path)
        job = Job("ckpt-echo", {"x": 0})
        (outcome,) = CampaignRunner(workers=1).run([job])
        reloaded.record(outcome)  # wall-clock is an hour behind
        reloaded.close()
        events, _ = read_events(path)
        stamps = [e["t"] for e in events[1:]]
        assert stamps == sorted(stamps)
        assert events[-1]["t"] >= future

    def test_cached_completion_journals_original_elapsed(self, tmp_path):
        """Regression: cache-served completions journaled no elapsed,
        so analytics mistook a hit for a zero-latency evaluation."""
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState.open(path, KEY, total=1)
        job = Job("ckpt-echo", {"x": 0})
        state.record(JobResult(
            job=job, ok=True, result={"value": 0},
            elapsed=0.125, from_cache=True,
        ))
        state.close()
        events, _ = read_events(path)
        cached = [e for e in events if e["event"] == "cached"]
        assert cached and cached[0]["elapsed"] == 0.125


class TestRunCheckpointed:
    def _runner(self, tmp_path):
        return CampaignRunner(
            workers=1, cache=ResultCache(str(tmp_path / "cache"))
        )

    def test_kill_then_resume_zero_reevaluation(self, tmp_path):
        """The acceptance criterion, on cheap jobs: kill after N of M
        points, resume, finish with the N points untouched and results
        identical to an uninterrupted run."""
        calls = []

        def counting(spec, seed):
            calls.append(spec["x"])
            return {"value": spec["x"]}

        register_target("ckpt-count", counting)
        jobs = [Job("ckpt-count", {"x": i}) for i in range(6)]
        path = str(tmp_path / "checkpoint.json")

        # Uninterrupted reference (separate cache, same evaluator).
        reference = CampaignRunner(
            workers=1, cache=ResultCache(str(tmp_path / "ref-cache"))
        ).run(jobs)
        assert len(calls) == 6

        def bomb(event):
            if event.done == 3:
                raise Killed()

        del calls[:]
        runner = self._runner(tmp_path)
        state = CampaignState.open(path, KEY, total=6)
        with pytest.raises(Killed):
            run_closed(jobs, runner, state, progress=bomb)
        assert len(calls) == 3  # killed after the 3rd evaluation

        journal = CampaignState.load(path)
        finished = set(journal.completed)
        assert 1 <= journal.done <= 3

        resumed_state = CampaignState.open(path, KEY, total=6, resume=True)
        results = run_closed(jobs, runner, resumed_state, progress=None)

        # Zero re-evaluation: every point ran exactly once across both
        # attempts, and the journaled points came back as cache hits.
        assert sorted(calls) == list(range(6))
        for job, outcome in zip(jobs, results):
            if job.key in finished:
                assert outcome.from_cache
        # Byte-identical to the uninterrupted run.
        assert [r.result for r in results] == [r.result for r in reference]
        assert [r.ok for r in results] == [r.ok for r in reference]
        assert CampaignState.load(path).done == 6

    def test_failed_points_replay_without_retry(self, tmp_path):
        jobs = [Job("ckpt-fragile", {"x": i}) for i in range(3)]
        path = str(tmp_path / "checkpoint.json")
        runner = self._runner(tmp_path)
        state = CampaignState.open(path, KEY, total=3)
        first = run_closed(jobs, runner, state)
        assert [r.ok for r in first] == [True, False, True]

        calls = []

        def healed(spec, seed):
            calls.append(spec["x"])
            return {"value": spec["x"]}

        register_target("ckpt-fragile", healed)
        resumed = CampaignState.open(path, KEY, total=3, resume=True)
        replayed = run_closed(jobs, runner, resumed)
        assert calls == []  # journaled failure replayed, evaluator untouched
        assert not replayed[1].ok
        assert "point 1 is broken" in replayed[1].error
        assert replayed[1].from_cache

        retried = run_closed(jobs, runner, resumed, retry_failed=True)
        assert calls == [1]
        assert retried[1].ok
        register_target("ckpt-fragile", _fragile)

    def test_duplicate_jobs_supported(self, tmp_path):
        jobs = [Job("ckpt-echo", {"x": 7})] * 3
        state = CampaignState.open(str(tmp_path / "c.json"), KEY, total=3)
        results = run_closed(jobs, self._runner(tmp_path), state)
        assert [r.result["value"] for r in results] == [70, 70, 70]
        assert state.done == 1  # one key, journaled once

    def test_progress_reports_submitted_points(self, tmp_path):
        events = []
        jobs = [Job("ckpt-echo", {"x": i}) for i in range(4)]
        state = CampaignState.open(str(tmp_path / "c.json"), KEY, total=4)
        run_closed(
            jobs, self._runner(tmp_path), state, progress=events.append
        )
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert events[-1].total == 4
        assert events[-1].failed == 0

    def test_journal_ok_with_missing_cache_reevaluates(self, tmp_path):
        """A journaled-ok point whose cache entry vanished re-runs."""
        calls = []

        def counting(spec, seed):
            calls.append(spec["x"])
            return {"value": spec["x"]}

        register_target("ckpt-count2", counting)
        jobs = [Job("ckpt-count2", {"x": i}) for i in range(2)]
        path = str(tmp_path / "checkpoint.json")
        runner = self._runner(tmp_path)
        state = CampaignState.open(path, KEY, total=2)
        run_closed(jobs, runner, state)
        assert len(calls) == 2

        # Wipe the cache but keep the journal.
        import shutil

        shutil.rmtree(str(tmp_path / "cache"))
        resumed = CampaignState.open(path, KEY, total=2, resume=True)
        results = run_closed(jobs, runner, resumed)
        assert len(calls) == 4  # both re-evaluated — correctness over thrift
        assert all(r.ok for r in results)


class Interrupted(BaseException):
    """Escapes the runner's per-point isolation, as a Ctrl-C would."""


class TestEntryPointsCloseTheJournal:
    """A campaign entry point that raises releases its journal handle."""

    @staticmethod
    def _interrupt(spec, seed):
        raise Interrupted()

    def _assert_closes(self, monkeypatch, target, run):
        from repro.dse import runner as runner_module

        monkeypatch.setitem(runner_module._TARGETS, target, self._interrupt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Interrupted) as raised:
                run()
            del raised  # its traceback holds the campaign's frames
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_memory_campaign(self, tmp_path, monkeypatch):
        from repro.dse import ParameterSpace, run_memory_campaign
        from repro.dse.runner import MEMORY_TARGET

        space = ParameterSpace().add("subarray_rows", [128, 256])
        self._assert_closes(monkeypatch, MEMORY_TARGET, lambda: run_memory_campaign(
            space, str(tmp_path / "camp"), workers=1, num_words=20,
            error_population=500,
        ))

    def test_system_campaign(self, tmp_path, monkeypatch):
        from repro.dse import run_system_campaign
        from repro.dse.runner import SYSTEM_TARGET
        from repro.magpie.scenarios import Scenario

        self._assert_closes(monkeypatch, SYSTEM_TARGET, lambda: run_system_campaign(
            str(tmp_path / "camp"), workloads=["bodytrack"],
            scenarios=[Scenario.FULL_SRAM], workers=1,
        ))
