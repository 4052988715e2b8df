"""Fault-injection tests for the JSONL journal: torn lines, kills,
compaction, retries, quarantine, and the refusal of version-1 journals.

The cheap mechanics live here (echo evaluators, workers=1); the
end-to-end campaigns over real evaluators stay in
test_resume_campaign.py.  ``CrashingRunner`` / ``torn_write`` come from
``tests/test_utils.py``.
"""

import json
import os
import shutil

import pytest
from test_utils import CampaignKilled, CrashingRunner, torn_write

from repro.dse import (
    JOURNAL_NAME,
    CampaignRunner,
    CampaignState,
    Job,
    ResultCache,
    RetryPolicy,
    campaign_key,
    journal_path,
    read_events,
    register_target,
    run_checkpointed,
)
from repro.dse.journal import COMPACT_TAIL_SHARE, snapshot_path
from repro.dse.runner import JobResult

KEY = campaign_key({"kind": "journal-test", "axes": [["x", [0, 1, 2, 3]]]})

CALLS = []


def _echo(spec, seed):
    CALLS.append((spec["x"], seed))
    return {"value": spec["x"] * 10}


def _boom(spec, seed):
    CALLS.append((spec["x"], seed))
    raise ValueError("point %d always breaks" % spec["x"])


def _flaky(spec, seed):
    """Fails until the reseeded second attempt comes around."""
    CALLS.append((spec["x"], seed))
    previous = sum(1 for x, _ in CALLS[:-1] if x == spec["x"])
    if previous < spec.get("heal_after", 1):
        raise ValueError("flaky point %d (attempt %d)" % (spec["x"], previous + 1))
    return {"value": spec["x"] * 10}


@pytest.fixture(autouse=True)
def _targets():
    register_target("jrnl-echo", _echo)
    register_target("jrnl-boom", _boom)
    register_target("jrnl-flaky", _flaky)
    del CALLS[:]


def _runner(tmp_path, name="cache"):
    return CampaignRunner(workers=1, cache=ResultCache(str(tmp_path / name)))


def _complete_campaign(tmp_path, n=4):
    """A finished n-point campaign; returns (jobs, results, journal path)."""
    jobs = [Job("jrnl-echo", {"x": i}) for i in range(n)]
    path = str(tmp_path / JOURNAL_NAME)
    state = CampaignState.open(path, KEY, total=n)
    results = run_checkpointed(jobs, _runner(tmp_path), state)
    state.close()
    return jobs, results, path


class TestTornLineRecovery:
    def test_recovery_from_every_byte_offset(self, tmp_path):
        """Truncating the journal at ANY byte offset past the begin
        line loads cleanly and keeps every fully-written event."""
        _, _, path = _complete_campaign(tmp_path, n=4)
        raw = open(path, "rb").read()
        lines = raw.decode().splitlines(keepends=True)
        header_end = len(lines[0].encode())
        # done-event count that survives a truncation at each offset.
        boundaries = []
        position = 0
        for line in lines:
            position += len(line.encode())
            boundaries.append((position, line))

        work = str(tmp_path / "torn.jsonl")
        for offset in range(header_end, len(raw) + 1):
            shutil.copyfile(path, work)
            torn_write(work, offset)
            state = CampaignState.load(work)
            survivors = sum(
                1
                for end, line in boundaries
                if '"done"' in line
                # A complete record survives even without its final
                # newline terminator (end - 1 == offset).
                and (end <= offset or end - 1 == offset)
            )
            assert state.done == survivors, "offset %d" % offset
            assert state.key == KEY

    def test_torn_tail_is_truncated_before_next_append(self, tmp_path):
        jobs, _, path = _complete_campaign(tmp_path, n=3)
        torn_write(path, os.path.getsize(path) - 5)
        state = CampaignState.open(path, KEY, total=4, resume=True)
        assert state.done == 2  # the torn third point is gone
        extra = Job("jrnl-echo", {"x": 99})
        run_checkpointed(
            resumed_jobs(jobs) + [extra], _runner(tmp_path), state
        )
        state.close()
        _, torn = read_events(path)
        assert torn == 0  # the torn bytes were cut, not buried
        assert CampaignState.load(path).done == 4

    def test_interior_corruption_raises(self, tmp_path):
        _, _, path = _complete_campaign(tmp_path, n=3)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[2] = b'{"event": "done", "key":  GARBAGE\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="corrupt"):
            CampaignState.load(path)

    def test_whole_file_garbage_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("{ not json at all")
        with pytest.raises(ValueError, match="corrupt"):
            CampaignState.load(str(path))


class TestKillAndResume:
    def test_kill_then_tear_then_resume_identical(self, tmp_path):
        """The acceptance criterion end to end: kill the campaign
        mid-stream, tear the journal at every byte offset of its final
        line, resume — zero re-evaluation of intact points, results
        identical to an uninterrupted run."""
        jobs = [Job("jrnl-echo", {"x": i}) for i in range(4)]
        reference = CampaignRunner(
            workers=1, cache=ResultCache(str(tmp_path / "ref-cache"))
        ).run(jobs)

        base = tmp_path / "killed"
        base.mkdir()
        path = str(base / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=4)
        killer = CrashingRunner(_runner(base), crash_after=2)
        with pytest.raises(CampaignKilled):
            run_checkpointed(jobs, killer, state)
        state.close()
        frozen = open(path, "rb").read()
        done_at_kill = CampaignState.load(path).done
        assert done_at_kill == 2

        # The final journal line may be torn anywhere: every offset
        # from "last line fully gone" to "fully present" must resume
        # to the identical end state.
        last_line_start = frozen.rfind(b"\n", 0, len(frozen) - 1) + 1
        for offset in range(last_line_start, len(frozen) + 1):
            for name in (JOURNAL_NAME, snapshot_path(JOURNAL_NAME)):
                target = str(base / name)
                if os.path.exists(target):
                    os.unlink(target)
            with open(path, "wb") as handle:
                handle.write(frozen)
            torn_write(path, offset)

            del CALLS[:]
            resumed = CampaignState.open(path, KEY, total=4, resume=True)
            survivors = set(resumed.completed)
            results = run_checkpointed(resumed_jobs(jobs), _runner(base), resumed)
            resumed.close()
            # Intact points replay from the cache: never re-evaluated.
            evaluated = {x for x, _ in CALLS}
            for job in jobs:
                if job.key in survivors:
                    assert job.spec["x"] not in evaluated
            assert [r.result for r in results] == [r.result for r in reference]
            assert [r.ok for r in results] == [r.ok for r in reference]
            assert CampaignState.load(path).done == 4


def resumed_jobs(jobs):
    """Fresh Job objects (same content) — resumption never relies on
    object identity, only on content keys."""
    return [Job(job.target, dict(job.spec)) for job in jobs]


class TestCompaction:
    def test_compaction_preserves_state_and_shrinks_log(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        state = CampaignState(path, KEY, total=40, compact_threshold=20)
        jobs = [Job("jrnl-echo", {"x": i}) for i in range(40)]
        results = CampaignRunner(workers=1).run(jobs)
        for outcome in results:
            state.record(outcome)
        state.close()
        assert os.path.exists(snapshot_path(path))
        events, _ = read_events(path)
        # Far fewer lines than points: the log was folded away.
        assert len(events) < 25
        loaded = CampaignState.load(path)
        assert loaded.done == 40
        assert loaded.failed == 0
        for job, outcome in zip(jobs, results):
            assert loaded.entry(job.key)["ok"] is outcome.ok

    def test_compactions_grow_apart_with_the_snapshot(self, tmp_path):
        """A rewrite waits for a tail of ``COMPACT_TAIL_SHARE`` of the
        snapshot's bytes, so rewrites grow geometrically apart instead
        of landing every ``compact_threshold`` lines."""
        path = str(tmp_path / "journal.jsonl")
        points = 2000
        state = CampaignState(path, KEY, total=points, compact_threshold=8)
        journal = state._journal
        rewrites = []
        compact = journal.compact

        def counting(begin_event, snapshot):
            rewrites.append((journal.tail_bytes, journal.snapshot_bytes))
            compact(begin_event, snapshot)

        journal.compact = counting
        for i in range(points):
            job = Job("jrnl-echo", {"x": i})
            state.record_started([job.key])
            state.record(JobResult(job=job, ok=True, result=None, elapsed=1e-3))
        state.close()
        # One rewrite per 8 lines would be 500.
        assert 10 < len(rewrites) < 60
        for tail, snapshot in rewrites:
            assert tail >= COMPACT_TAIL_SHARE * snapshot
        assert rewrites[-1][1] == max(size for _, size in rewrites)
        loaded = CampaignState.load(path)
        assert loaded.done == points
        # A resumed journal measures its snapshot and tail again.
        assert loaded._journal.snapshot_bytes == os.path.getsize(
            snapshot_path(path)
        )
        assert loaded._journal.tail_bytes == os.path.getsize(path)

    def test_save_compacts_on_demand(self, tmp_path):
        _, _, path = _complete_campaign(tmp_path, n=4)
        state = CampaignState.load(path)
        state.save()
        state.close()
        events, _ = read_events(path)
        assert [e["event"] for e in events] == ["begin"]
        assert CampaignState.load(path).done == 4

    def test_crash_between_snapshot_and_rewrite_is_idempotent(self, tmp_path):
        """Snapshot written, journal rewrite lost: replaying the full
        log over the snapshot must converge to the same state."""
        _, _, path = _complete_campaign(tmp_path, n=4)
        full_log = open(path, "rb").read()
        state = CampaignState.load(path)
        state.save()  # snapshot + one-line tail
        state.close()
        with open(path, "wb") as handle:  # crash: old log restored
            handle.write(full_log)
        loaded = CampaignState.load(path)
        assert loaded.done == 4
        assert loaded.failed == 0
        assert loaded.total == 4

    def test_stale_snapshot_from_other_campaign_is_ignored(self, tmp_path):
        _, _, path = _complete_campaign(tmp_path, n=3)
        state = CampaignState.load(path)
        state.save()
        state.close()
        # A fresh campaign at the same path must not inherit anything.
        other = campaign_key({"kind": "journal-test", "axes": [["x", [9]]]})
        fresh = CampaignState.open(path, other, total=1)
        fresh.close()
        assert CampaignState.load(path).done == 0
        assert not os.path.exists(snapshot_path(path))


class TestRetryAndQuarantine:
    def test_flaky_point_recovers_on_reseeded_retry(self, tmp_path):
        jobs = [Job("jrnl-flaky", {"x": 1})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=1)
        policy = RetryPolicy(max_attempts=3)
        (result,) = run_checkpointed(
            jobs, _runner(tmp_path), state, retry=policy
        )
        state.close()
        assert result.ok
        assert result.attempts == 2
        assert len(CALLS) == 2
        seeds = [seed for _, seed in CALLS]
        assert seeds[0] != seeds[1]  # content-derived reseeding
        loaded = CampaignState.load(path)
        assert loaded.retried == 1
        assert loaded.retries == 1
        assert loaded.quarantined == set()
        kinds = [e["event"] for e in read_events(path)[0]]
        assert "retry" in kinds and "done" in kinds

    def test_budget_exhaustion_quarantines(self, tmp_path):
        jobs = [Job("jrnl-boom", {"x": 5}), Job("jrnl-echo", {"x": 1})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=2)
        policy = RetryPolicy(max_attempts=3)
        results = run_checkpointed(
            jobs, _runner(tmp_path), state, retry=policy
        )
        state.close()
        assert not results[0].ok
        assert results[0].attempts == 3
        assert results[1].ok
        assert sum(1 for x, _ in CALLS if x == 5) == 3
        loaded = CampaignState.load(path)
        assert loaded.quarantined == {jobs[0].key}
        status = loaded.status()
        assert status["quarantined"] == 1
        assert status["quarantine"] == [jobs[0].key]
        assert status["retried"] == 1
        assert status["retries"] == 2

    def test_quarantined_point_not_rerun_on_resume(self, tmp_path):
        jobs = [Job("jrnl-boom", {"x": 5})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=1)
        policy = RetryPolicy(max_attempts=2)
        run_checkpointed(jobs, _runner(tmp_path), state, retry=policy)
        state.close()
        assert len(CALLS) == 2

        del CALLS[:]
        resumed = CampaignState.open(path, KEY, total=1, resume=True)
        (replayed,) = run_checkpointed(
            jobs, _runner(tmp_path), resumed, retry=policy
        )
        resumed.close()
        assert CALLS == []  # quarantine blocks re-evaluation
        assert not replayed.ok
        assert "always breaks" in replayed.error
        assert replayed.from_cache

    def test_budget_spans_resumes(self, tmp_path):
        """Attempts journaled before a kill count against the budget."""
        jobs = [Job("jrnl-boom", {"x": 5})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=1)
        run_checkpointed(
            jobs, _runner(tmp_path), state, retry=RetryPolicy(max_attempts=2)
        )
        state.close()
        assert len(CALLS) == 2  # budget of 2 spent, point quarantined

        # Resuming with a *larger* budget: quarantine still holds...
        del CALLS[:]
        resumed = CampaignState.open(path, KEY, total=1, resume=True)
        run_checkpointed(
            jobs, _runner(tmp_path), resumed, retry=RetryPolicy(max_attempts=4)
        )
        assert CALLS == []
        # ...until released; then only the *remaining* budget is fresh.
        released = resumed.release()
        assert released == [jobs[0].key]
        (result,) = run_checkpointed(
            jobs, _runner(tmp_path), resumed, retry=RetryPolicy(max_attempts=4)
        )
        resumed.close()
        assert len(CALLS) == 4
        assert not result.ok and result.attempts == 4

    def test_retry_failed_releases_quarantine(self, tmp_path):
        jobs = [Job("jrnl-boom", {"x": 5})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=1)
        policy = RetryPolicy(max_attempts=2)
        run_checkpointed(jobs, _runner(tmp_path), state, retry=policy)
        assert jobs[0].key in state.quarantined

        register_target("jrnl-boom", _echo)  # the point is healed
        del CALLS[:]
        (result,) = run_checkpointed(
            jobs, _runner(tmp_path), state, retry_failed=True, retry=policy
        )
        state.close()
        register_target("jrnl-boom", _boom)
        assert result.ok
        assert len(CALLS) == 1
        loaded = CampaignState.load(path)
        assert loaded.quarantined == set()
        assert loaded.entry(jobs[0].key)["ok"] is True

    def test_failed_points_without_policy_replay_unchanged(self, tmp_path):
        """No policy, no budget: the PR-2 contract is untouched."""
        jobs = [Job("jrnl-boom", {"x": 5})]
        path = str(tmp_path / JOURNAL_NAME)
        state = CampaignState.open(path, KEY, total=1)
        run_checkpointed(jobs, _runner(tmp_path), state)
        assert len(CALLS) == 1
        (replayed,) = run_checkpointed(jobs, _runner(tmp_path), state)
        state.close()
        assert len(CALLS) == 1
        assert not replayed.ok and replayed.from_cache
        assert CampaignState.load(path).quarantined == set()

    def test_quarantined_excluded_from_records_and_pareto(self):
        from repro.dse import JobResult, MemoryCampaignResult

        def outcome(x):
            job = Job(
                "vaet-memory",
                {
                    "node_nm": 45,
                    "constraints": {"wer_target": 1e-9},
                    "config": {"x": x},
                },
            )
            point = {
                "config": {"rows": 64, "x": x},
                "write_latency": 1.0 + x,
                "write_energy": 2.0,
                "area": 1.0,
            }
            return job, JobResult(
                job=job, ok=True, result={"feasible": True, "point": point}
            )

        pairs = [outcome(0), outcome(1)]
        result = MemoryCampaignResult(
            jobs=[j for j, _ in pairs],
            outcomes=[o for _, o in pairs],
            elapsed=0.0,
            quarantined=[pairs[0][0].key],
        )
        records = result.records()
        assert len(records) == 1  # the quarantined point is excluded
        assert records[0]["key"] == pairs[1][0].key
        assert all(
            row["key"] != pairs[0][0].key for row in result.pareto()
        )


class TestVersionOneJournal:
    """Version-1 ``checkpoint.json`` journals are refused, never adopted."""

    def _stage(self, tmp_path):
        """A campaign directory holding only a version-1 journal."""
        (tmp_path / "checkpoint.json").write_text(json.dumps({
            "version": 1, "campaign_key": KEY, "total": 4, "completed": {},
        }))
        return str(tmp_path)

    def test_journal_path_names_the_migrating_commit(self, tmp_path):
        with pytest.raises(ValueError) as excinfo:
            journal_path(self._stage(tmp_path))
        message = str(excinfo.value)
        assert "\n" not in message
        assert "checkpoint.json" in message
        assert "6e5669f" in message

    def test_resume_refuses_instead_of_starting_fresh(self, tmp_path):
        from repro.dse import MemoryCampaign, ParameterSpace, run

        campaign_dir = self._stage(tmp_path)
        with pytest.raises(ValueError, match="6e5669f"):
            run(
                MemoryCampaign(ParameterSpace().add("subarray_rows", [256])),
                campaign_dir, resume=True,
            )
        assert not os.path.exists(os.path.join(campaign_dir, JOURNAL_NAME))

    def test_cli_refuses_with_one_line(self, tmp_path, capsys):
        from repro.dse.__main__ import main

        campaign_dir = self._stage(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"kind": "memory", "axes": {"subarray_rows": [256]}}
        ))
        for argv in (
            ["status", "--dir", campaign_dir],
            ["analyze", campaign_dir],
            ["resume", str(spec), "--dir", campaign_dir, "--quiet"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "6e5669f" in err, argv
        assert not os.path.exists(os.path.join(campaign_dir, JOURNAL_NAME))

    def test_other_journal_version_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text(json.dumps(
            {"event": "begin", "version": 99, "campaign_key": KEY}
        ) + "\n")
        with pytest.raises(ValueError, match="version 99"):
            CampaignState.load(str(path))

    def test_version_one_document_is_not_read(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text(json.dumps({"version": 1, "campaign_key": KEY}) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            CampaignState.load(str(path))


class TestOpenOptions:
    def test_resume_honours_durability_settings(self, tmp_path):
        _, _, path = _complete_campaign(tmp_path, n=3)
        resumed = CampaignState.open(
            path, KEY, total=3, resume=True,
            fsync_every=1, compact_threshold=2,
        )
        assert resumed._journal.fsync_every == 1
        assert resumed._journal.compact_threshold == 2
        resumed.close()
        with pytest.raises(ValueError, match="fsync_every"):
            CampaignState.open(path, KEY, total=3, resume=True, fsync_every=0)
