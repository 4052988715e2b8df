"""The chaos fault plane: unit coverage + seeded end-to-end schedules.

Three layers:

* unit tests for :class:`~repro.dse.chaos.FaultPlane` mechanics (arming
  order, skip/count accounting, torn-tail bounds) and the disk faults
  injected into :class:`~repro.dse.journal.JsonlJournal` /
  :class:`~repro.dse.cache.ResultCache` (a full disk surfaces a clear
  ``OSError`` and the campaign stays resumable);
* deadline semantics: the reused evaluation child (one per executor
  batch, reaped with it, fresh after a hang or exit), runner stamping,
  the refusal without ``os.fork``, the ``evaluate`` hook spent once per
  point either way, scheduling-knob purity (deadlines never move cache
  addresses) and the decorrelated reconnect jitter;
* ``pytest -m chaos``: twelve :func:`~repro.dse.chaos.seeded_schedule`
  scenarios (hangs, crashes, torn writes, ENOSPC, connection drops over
  serial and full network stacks) driven resume-until-complete, with
  :class:`~repro.dse.chaos.InvariantChecker` asserting the engine's
  conservation laws afterwards.  Every assertion message carries the
  seed — a failing CI run reproduces from that integer alone.
"""

import errno
import json
import logging
import os
import random
import subprocess
import threading
import time

import pytest

from repro.dse import (
    CHAOS_TARGET,
    JOURNAL_VERSION,
    MEMORY_TARGET,
    CampaignRunner,
    CampaignState,
    ChaosCrash,
    ChaosDrop,
    Fault,
    FaultPlane,
    InvariantChecker,
    Job,
    JsonlJournal,
    NetworkExecutor,
    ParameterSpace,
    ProcessPoolExecutor,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    campaign_key,
    explore_memory,
    is_timeout_error,
    read_events,
    run_network_worker,
    seeded_schedule,
)
from repro.dse import chaos
from repro.dse.net import CampaignServer, ServerThread
from repro.dse.net.server import WorkerStalled, task_id
from repro.dse.net.worker import _NetHeartbeat, reap_workers, reconnect_backoff
from repro.dse.executors import evaluate_chaos
from repro.dse.runner import NO_FORK_ERROR, _TARGETS, _execute, execute_task, register_target
from test_utils import run_closed


# -- FaultPlane mechanics ------------------------------------------------


class TestFaultPlane:
    def test_skip_then_fire_then_spent(self):
        plane = FaultPlane(seed=1, faults=[Fault("x", "crash", skip=1)])
        plane.fire("x", {})  # skipped
        with pytest.raises(ChaosCrash):
            plane.fire("x", {})
        plane.fire("x", {})  # count=1: spent
        assert [f["site"] for f in plane.fired] == ["x"]

    def test_site_prefix_and_match(self):
        fault = Fault("journal.", "crash", match="camp-a")
        assert fault.applies("journal.append", {"path": "/tmp/camp-a/j"})
        assert not fault.applies("journal.append", {"path": "/tmp/camp-b/j"})
        assert not fault.applies("cache.put", {"path": "/tmp/camp-a/j"})

    def test_one_fault_per_invocation(self):
        plane = FaultPlane(
            seed=0,
            faults=[Fault("x", "delay", delay_s=0.0), Fault("x", "crash")],
        )
        plane.fire("x", {})  # the delay wins; the crash must not stack
        assert [f["kind"] for f in plane.fired] == ["delay"]
        with pytest.raises(ChaosCrash):
            plane.fire("x", {})

    def test_probability_is_seeded_deterministic(self):
        def fires(seed):
            plane = FaultPlane(
                seed=seed,
                faults=[Fault("x", "crash", count=0, probability=0.5)],
            )
            hits = []
            for _ in range(8):
                try:
                    plane.fire("x", {})
                    hits.append(False)
                except ChaosCrash:
                    hits.append(True)
            return hits

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)  # distinct seeds decorrelate

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("x", "meteor")

    def test_disabled_fire_is_noop(self):
        assert chaos.active() is None
        chaos.fire("journal.append", path="/nope")

    def test_install_is_scoped(self):
        plane = FaultPlane(seed=0)
        with plane:
            assert chaos.active() is plane
        assert chaos.active() is None

    def test_torn_never_crosses_previous_newline(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = b'{"event":"one"}\n'
        path.write_bytes(first + b'{"event":"two"}\n')
        FaultPlane._tear(str(path), torn_bytes=1000)
        data = path.read_bytes()
        assert data.startswith(first)
        assert len(data) < len(first) + len(b'{"event":"two"}\n')


# -- disk faults at the journal/cache seams ------------------------------


class TestDiskFaults:
    def test_journal_append_enospc_is_clear_and_resumable(self, tmp_path):
        journal = JsonlJournal(str(tmp_path / "j.jsonl"))
        journal.append({"event": "begin", "n": 0})
        with FaultPlane(seed=0, faults=[Fault("journal.append", "enospc")]):
            with pytest.raises(OSError) as exc_info:
                journal.append({"event": "lost", "n": 1})
        assert exc_info.value.errno == errno.ENOSPC
        assert "no space left" in str(exc_info.value)
        # Nothing was written, nothing is corrupt, appends resume.
        events, torn = read_events(journal.path)
        assert ([e["event"] for e in events], torn) == (["begin"], 0)
        journal.append({"event": "after", "n": 2})
        journal.close()
        events, torn = read_events(journal.path)
        assert ([e["event"] for e in events], torn) == (["begin", "after"], 0)

    def test_journal_torn_tail_loses_only_final_line(self, tmp_path):
        journal = JsonlJournal(str(tmp_path / "j.jsonl"))
        journal.append({"event": "begin"})
        with FaultPlane(
            seed=0, faults=[Fault("journal.appended", "torn", torn_bytes=5)]
        ):
            with pytest.raises(ChaosCrash):
                journal.append({"event": "torn-away"})
        events, torn = read_events(journal.path)
        assert [e["event"] for e in events] == ["begin"]
        assert torn > 0  # the in-flight line, and only it, was torn
        journal.close()
        healed = JsonlJournal(journal.path)
        healed.append({"event": "healed"})
        healed.close()
        events, torn = read_events(journal.path)
        assert [e["event"] for e in events] == ["begin", "healed"]
        assert torn == 0  # the re-opened journal repaired the tail

    def test_cache_put_enospc_is_clear_and_resumable(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with FaultPlane(seed=0, faults=[Fault("cache.put", "enospc")]):
            with pytest.raises(OSError) as exc_info:
                cache.put("k" * 16, {"result": 1})
        assert exc_info.value.errno == errno.ENOSPC
        assert cache.get("k" * 16) is None  # no torn record
        cache.put("k" * 16, {"result": 1})
        assert cache.get("k" * 16) == {"result": 1}

    def test_campaign_survives_journal_enospc(self, tmp_path):
        """A full disk mid-campaign: clear error, resume finishes."""
        camp = str(tmp_path / "camp")
        key = campaign_key({"kind": "chaos-enospc"})
        jobs = [Job(CHAOS_TARGET, {"x": i}) for i in range(4)]

        def attempt(resume):
            runner = CampaignRunner(
                workers=1, cache=ResultCache(os.path.join(camp, "cache"))
            )
            state = CampaignState.open(
                os.path.join(camp, "journal.jsonl"), key,
                total=len(jobs), resume=resume,
            )
            return run_closed(jobs, runner, state)

        with FaultPlane(
            seed=0, faults=[Fault("journal.append", "enospc", skip=2)]
        ):
            with pytest.raises(OSError):
                attempt(resume=False)
        outcomes = attempt(resume=True)
        assert all(o.ok for o in outcomes)
        assert InvariantChecker(camp).check(expect_complete=True) == []


# -- deadline semantics --------------------------------------------------


class TestDeadline:
    def test_reaper_kills_hang_at_deadline(self):
        start = time.monotonic()
        ok, result, error, elapsed = _execute(
            (CHAOS_TARGET, {"x": 1, "chaos": "hang"}, 0, 0.3)
        )
        wall = time.monotonic() - start
        assert not ok and result is None
        assert is_timeout_error(error)
        assert wall < 0.3 + 1.0

    def test_reaper_passes_healthy_results_through(self):
        ok, result, error, elapsed = _execute(
            (CHAOS_TARGET, {"x": 3}, 9, 5.0)
        )
        assert ok and error is None
        assert result["value"] == 6 and result["seed"] == 9

    def test_reaper_reports_wrong_exit_as_crash(self):
        ok, result, error, elapsed = _execute(
            (CHAOS_TARGET, {"x": 1, "chaos": "exit", "chaos_code": 3}, 0, 5.0)
        )
        assert not ok
        assert "EvaluationCrashed" in error

    def test_deadline_outside_content_key(self):
        plain = Job(CHAOS_TARGET, {"x": 1})
        bounded = Job(CHAOS_TARGET, {"x": 1}, deadline=2.0)
        assert plain.key == bounded.key
        assert plain.seed == bounded.seed

    def test_runner_stamps_its_deadline_on_submitted_jobs(self):
        class Recording(SerialExecutor):
            def __init__(self):
                self.deadlines = []

            def imap(self, jobs):
                self.deadlines += [job.deadline for job in jobs]
                return super().imap(jobs)

        jobs = [Job(CHAOS_TARGET, {"x": 1}), Job(CHAOS_TARGET, {"x": 2}, deadline=1.0)]
        bounded = Recording()
        CampaignRunner(workers=1, executor=bounded, deadline=3.0).run(jobs)
        assert bounded.deadlines == [3.0, 3.0]
        bare = Recording()
        CampaignRunner(workers=1, executor=bare).run(jobs)
        assert bare.deadlines == [0.0, 0.0]

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=1, deadline=-1.0)

    def test_deadline_refused_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match=NO_FORK_ERROR):
            CampaignRunner(workers=1, deadline=1.0)
        CampaignRunner(workers=1)  # no deadline, nothing to refuse
        task = {"target": CHAOS_TARGET, "spec": {"x": 1}, "seed": 0}
        assert execute_task(dict(task))[0]
        with pytest.raises(ValueError, match=NO_FORK_ERROR):
            execute_task(dict(task, deadline=1.0))

    def test_heartbeat_stop_warns_on_failed_join(self, caplog):
        class Beats:
            def request(self, message):
                return {"ok": True}

        heartbeat = _NetHeartbeat(Beats(), "w-stuck", "task-9", ttl=30.0)

        class StuckThread:
            name = "hb-thread"

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        heartbeat._thread = StuckThread()
        with caplog.at_level(logging.WARNING, "repro.dse.net.worker"):
            heartbeat.stop()
        assert "did not stop within" in caplog.text
        assert "w-stuck" in caplog.text and "task-9" in caplog.text

    def test_reconnect_backoff_decorrelated_jitter(self):
        rng = random.Random(42)
        base, cap = 0.1, 30.0
        wait = base
        waits = []
        for _ in range(50):
            wait = reconnect_backoff(wait, base, cap, rng)
            waits.append(wait)
        assert all(base <= w <= cap for w in waits)
        assert max(waits) > 1.0  # grows well past the base...
        below_cap = [w for w in waits if w < cap]
        assert len(set(below_cap)) == len(below_cap)  # ...never in lockstep
        # Seeded determinism: the whole trajectory replays.
        rng2 = random.Random(42)
        wait2 = base
        replay = []
        for _ in range(50):
            wait2 = reconnect_backoff(wait2, base, cap, rng2)
            replay.append(wait2)
        assert replay == waits
        # Two workers with distinct RNGs desynchronise immediately.
        other = random.Random(43)
        assert reconnect_backoff(base, base, cap, other) != waits[0]

    def test_reaper_warns_on_unkillable_worker(self, caplog):
        procs = [_Unkillable()]
        with caplog.at_level(logging.WARNING, "repro.dse.net.worker"):
            reap_workers(procs, grace=0.0)
        assert "survived terminate and kill" in caplog.text
        assert "4242" in caplog.text
        assert procs == []

    def test_network_executor_close_is_bounded_by_an_unkillable_worker(
        self, tmp_path, caplog
    ):
        """Regression: ``close`` ended in an unbounded ``proc.wait()``
        after the kill, so one unkillable worker hung the coordinator."""
        executor = NetworkExecutor(str(tmp_path))
        executor.procs.append(_Unkillable())
        closer = threading.Thread(target=executor.close, daemon=True)
        with caplog.at_level(logging.WARNING, "repro.dse.net.worker"):
            closer.start()
            closer.join(timeout=60.0)
        assert not closer.is_alive()
        assert "4242" in caplog.text
        assert executor.procs == []


class _Unkillable:
    """A Popen stand-in that outlives terminate and kill."""

    pid = 4242

    def poll(self):
        return None

    def terminate(self):
        pass

    def kill(self):
        pass

    def wait(self, timeout=None):
        if timeout is None:
            threading.Event().wait()  # what a real unkillable process does
        raise subprocess.TimeoutExpired(cmd="worker", timeout=timeout)


#: Chaos twin that also reports the pid of the process that evaluated.
PID_TARGET = "dse-chaos-pid"


@pytest.fixture
def pid_target():
    register_target(
        PID_TARGET, lambda spec, seed: dict(evaluate_chaos(spec, seed), pid=os.getpid())
    )
    yield PID_TARGET
    _TARGETS.pop(PID_TARGET, None)


def _gone(pid, timeout=10.0):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    until = time.monotonic() + timeout
    while True:
        try:
            with open("/proc/%d/stat" % pid) as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        except OSError:  # no /proc: fall back to a signal probe
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
        if time.monotonic() >= until:
            return False
        time.sleep(0.02)


def _pids(outcomes):
    return [o.result["pid"] for o in outcomes if o.ok]


class TestEvaluationChild:
    """One reused child per executor batch enforces every deadline."""

    def test_one_child_per_serial_batch_reaped_at_its_end(self, pid_target):
        jobs = [Job(pid_target, {"x": i}) for i in range(4)]
        pids = _pids(CampaignRunner(workers=1, deadline=30.0).run(jobs))
        assert len(pids) == 4 and len(set(pids)) == 1
        assert pids[0] != os.getpid()
        assert _gone(pids[0], timeout=0.0)  # reaped before run() returned
        # Without a deadline the points run in this very process.
        assert set(_pids(CampaignRunner(workers=1).run(jobs))) == {os.getpid()}

    def test_no_child_left_after_a_pool_batch(self, pid_target):
        jobs = [Job(pid_target, {"x": i}) for i in range(6)]
        runner = CampaignRunner(
            workers=2, executor=ProcessPoolExecutor(workers=2), deadline=30.0
        )
        pids = set(_pids(runner.run(jobs)))
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids
        assert all(_gone(pid) for pid in pids)

    def test_no_child_left_after_a_network_worker_exits(self, pid_target, tmp_path):
        jobs = [Job(pid_target, {"x": i}, deadline=30.0) for i in range(3)]
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        server.submit(jobs)
        thread = ServerThread(server)
        thread.start()
        try:
            assert run_network_worker(
                ("127.0.0.1", server.port), worker_id="w", once=True
            ) == 3
        finally:
            thread.stop()
        outcomes = [server.take(task_id(job)) for job in jobs]
        pids = {result["pid"] for ok, result, _, _ in outcomes if ok}
        assert len(pids) == 1 and os.getpid() not in pids
        assert _gone(pids.pop(), timeout=0.0)

    def test_batch_sees_environment_and_targets_set_after_earlier_batch(
        self, tmp_path, monkeypatch
    ):
        """A child is forked per batch, never carried over from the last.

        One executor runs both batches, as a runner's executor does
        across retry rounds and campaigns; a child kept from the first
        batch would miss the variable and the target set after it.
        """
        executor = SerialExecutor()
        runner = CampaignRunner(workers=1, executor=executor, deadline=30.0)
        assert runner.run([Job(CHAOS_TARGET, {"x": 0})])[0].ok
        scratch = tmp_path / "invocations"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        late = "dse-chaos-late-target"
        register_target(late, lambda spec, seed: {"late": True})
        try:
            counted, fresh = runner.run(
                [Job(CHAOS_TARGET, {"x": 1, "count": True}), Job(late, {})]
            )
        finally:
            _TARGETS.pop(late, None)
        assert counted.ok, counted.error
        assert os.listdir(str(scratch)) == ["count-1"]
        assert fresh.ok and fresh.result == {"late": True}

    @pytest.mark.parametrize("fault", ["exit", "hang"])
    def test_next_point_runs_in_a_fresh_child(self, pid_target, fault):
        jobs = [
            Job(pid_target, {"x": 0}),
            Job(pid_target, {"x": 1, "chaos": fault}),
            Job(pid_target, {"x": 2}),
        ]
        before, faulted, after = CampaignRunner(workers=1, deadline=0.5).run(jobs)
        assert before.ok and after.ok and not faulted.ok
        if fault == "exit":
            assert faulted.error.startswith("EvaluationCrashed")
        else:
            assert is_timeout_error(faulted.error)
        assert before.result["pid"] != after.result["pid"]
        assert _gone(before.result["pid"], timeout=0.0)

    def test_sibling_grid_records_identical_with_deadline(self):
        space = (
            ParameterSpace()
            .add("subarray_rows", [128, 256])
            .add("wer_target", [1e-9, 1e-12])
        )
        effort = dict(num_words=200, error_population=10_000, workers=1)
        plain = explore_memory(space, **effort)
        bounded = explore_memory(space, deadline=60.0, **effort)
        assert [o.ok for o in bounded.outcomes] == [True] * 4
        assert bounded.records() == plain.records()


class TestEvaluateHookUnderDeadline:
    """The ``evaluate`` hook spends a fault once per point, deadline or not."""

    PLANE = [Fault("evaluate", "crash", count=1, skip=1)]

    @pytest.mark.parametrize("deadline", [None, 30.0])
    def test_serial(self, deadline):
        jobs = [Job(CHAOS_TARGET, {"x": i}) for i in range(4)]
        with FaultPlane(faults=list(self.PLANE)) as plane:
            outcomes = CampaignRunner(workers=1, deadline=deadline).run(jobs)
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert outcomes[1].error.startswith("ChaosCrash")
        assert [fired["site"] for fired in plane.fired] == ["evaluate"]

    @pytest.mark.parametrize("deadline", [0.0, 30.0])
    def test_network_worker(self, deadline, tmp_path):
        jobs = [Job(CHAOS_TARGET, {"x": i}, deadline=deadline) for i in range(4)]
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        server.submit(jobs)
        thread = ServerThread(server)
        thread.start()
        try:
            with FaultPlane(faults=list(self.PLANE)) as plane:
                assert run_network_worker(
                    ("127.0.0.1", server.port), worker_id="w", once=True
                ) == 4
        finally:
            thread.stop()
        failed = [not server.take(task_id(job))[0] for job in jobs]
        assert sum(failed) == 1
        assert [fired["site"] for fired in plane.fired] == ["evaluate"]


# -- the InvariantChecker ------------------------------------------------


def _small_campaign(camp, jobs, resume=False, deadline=None, retry=None):
    runner = CampaignRunner(
        workers=1,
        cache=ResultCache(os.path.join(camp, "cache")),
        deadline=deadline,
    )
    state = CampaignState.open(
        os.path.join(camp, "journal.jsonl"),
        campaign_key({"kind": "chaos-invariants"}),
        total=len(jobs),
        resume=resume,
    )
    return run_closed(jobs, runner, state, retry=retry)


class TestInvariantChecker:
    def test_clean_campaign_holds_all_laws(self, tmp_path):
        camp = str(tmp_path / "camp")
        _small_campaign(camp, [Job(CHAOS_TARGET, {"x": i}) for i in range(3)])
        assert InvariantChecker(camp).check(expect_complete=True) == []

    def test_missing_journal_is_a_violation(self, tmp_path):
        violations = InvariantChecker(str(tmp_path / "void")).check()
        assert violations and "no campaign journal" in violations[0]

    def test_detects_lost_result(self, tmp_path):
        camp = str(tmp_path / "camp")
        _small_campaign(camp, [Job(CHAOS_TARGET, {"x": i}) for i in range(3)])
        cache_dir = os.path.join(camp, "cache")
        victims = [
            os.path.join(directory, name)
            for directory, _, names in os.walk(cache_dir)
            for name in names
            if name.endswith(".json")
        ]
        os.unlink(victims[0])
        violations = InvariantChecker(camp).check(expect_complete=True)
        assert any("lost result" in v for v in violations)

    def test_detects_backward_clock_in_journal(self, tmp_path):
        """Stamps must be monotone non-decreasing per journal; the
        writer clamps them, so a regression can only mean damage (or a
        writer bug) and the checker flags it."""
        camp = tmp_path / "camp"
        camp.mkdir()
        lines = [
            {
                "event": "begin",
                "version": JOURNAL_VERSION,
                "campaign_key": campaign_key({"kind": "chaos-clock"}),
                "total": 2,
                "meta": {},
                "created": 100.0,
                "updated": 100.0,
            },
            {"event": "done", "key": "aa00", "elapsed": 1.0, "t": 100.0},
            {"event": "done", "key": "bb00", "elapsed": 1.0, "t": 50.0},
        ]
        with open(camp / "journal.jsonl", "w") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        violations = InvariantChecker(str(camp)).check()
        assert any("t decreased" in v for v in violations)

    def test_monotone_journal_passes_clock_law(self, tmp_path):
        """The same campaign with ordered stamps raises no clock
        violation (the lost-result law still fires: no cache)."""
        camp = tmp_path / "camp"
        camp.mkdir()
        lines = [
            {
                "event": "begin",
                "version": JOURNAL_VERSION,
                "campaign_key": campaign_key({"kind": "chaos-clock"}),
                "total": 2,
                "meta": {},
                "created": 100.0,
                "updated": 100.0,
            },
            {"event": "done", "key": "aa00", "elapsed": 1.0, "t": 100.0},
            {"event": "done", "key": "bb00", "elapsed": 1.0, "t": 100.0},
        ]
        with open(camp / "journal.jsonl", "w") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        violations = InvariantChecker(str(camp)).check()
        assert not any("t decreased" in v for v in violations)

    def test_incomplete_campaign_flagged_only_when_expected_complete(
        self, tmp_path
    ):
        camp = str(tmp_path / "camp")
        jobs = [Job(CHAOS_TARGET, {"x": i}) for i in range(3)]
        runner = CampaignRunner(
            workers=1, cache=ResultCache(os.path.join(camp, "cache"))
        )
        state = CampaignState.open(
            os.path.join(camp, "journal.jsonl"),
            campaign_key({"kind": "chaos-invariants"}),
            total=len(jobs) + 2,  # two points never ran
        )
        run_closed(jobs, runner, state)
        checker = InvariantChecker(camp)
        assert any("incomplete" in v for v in checker.check(expect_complete=True))
        assert checker.check(expect_complete=False) == []


class TestEvaluateHookOnPullWorkers:
    """Network workers evaluate through the same entry as the
    in-process executors, so the ``evaluate`` hook fires there too."""

    def test_evaluate_crash_reaches_the_published_outcome(self, tmp_path):
        from repro.nvsim.config import MemoryConfig
        from repro.vaet.explorer import DesignConstraints

        job = Job(MEMORY_TARGET, {
            "node_nm": 45,
            "config": MemoryConfig().to_dict(),
            "constraints": DesignConstraints().to_dict(),
            "num_words": 200,
            "error_population": 10_000,
            "seed": None,
        })
        plane = FaultPlane(
            faults=[Fault("evaluate", "crash", match="vaet-memory")]
        )
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        server.submit([job])
        thread = ServerThread(server)
        thread.start()
        try:
            with plane:
                assert run_network_worker(
                    ("127.0.0.1", server.port), worker_id="w", once=True
                ) == 1
        finally:
            thread.stop()
        assert [fired["site"] for fired in plane.fired] == ["evaluate"]
        ok, result, error, _ = server.take(task_id(job))
        assert not ok and result is None
        assert error.startswith("ChaosCrash")


# -- seeded end-to-end schedules (`pytest -m chaos`) ---------------------

CHAOS_SEEDS = list(range(12))

#: Retry budget generous enough that every *_first evaluation fault
#: recovers, yet finite so a real regression quarantines loudly.
CHAOS_RETRY = RetryPolicy(max_attempts=3, backoff=0.0)


def _schedule_jobs(schedule):
    jobs = []
    for index in range(schedule.points):
        spec = {"x": index}
        mode = schedule.evaluation_faults.get(index)
        if mode:
            spec["chaos"] = mode
            if mode == "slow":
                spec["chaos_s"] = 0.1
        jobs.append(Job(CHAOS_TARGET, spec))
    return jobs


def _drive_serial(schedule, camp, jobs, key, resume):
    runner = CampaignRunner(
        workers=1,
        cache=ResultCache(os.path.join(camp, "cache")),
        deadline=schedule.deadline,
    )
    state = CampaignState.open(
        os.path.join(camp, "journal.jsonl"), key,
        total=len(jobs), resume=resume,
    )
    return run_closed(jobs, runner, state, retry=CHAOS_RETRY)


class _WorkerFleet:
    """Respawn crashed network-worker threads until told to stop.

    An injected ``ChaosCrash`` in a worker models that worker being
    killed; ``worker --processes`` respawns a killed one, and this is the
    in-process equivalent (exceptions are swallowed — the protocol's
    lease expiry + reclaim owns recovery).
    """

    def __init__(self, address):
        self.address = address
        self.stop = threading.Event()
        self.spawned = 0
        self._supervisor = threading.Thread(target=self._supervise, daemon=True)
        self._supervisor.start()

    def _worker(self, name):
        try:
            run_network_worker(
                self.address,
                worker_id=name,
                poll=0.01,
                backoff=0.02,
                max_backoff=0.2,
                reconnect_timeout=5.0,
            )
        except Exception:
            pass  # injected death; the supervisor respawns

    def _supervise(self):
        while not self.stop.is_set():
            self.spawned += 1
            thread = threading.Thread(
                target=self._worker,
                args=("chaos-w%d" % self.spawned,),
                daemon=True,
            )
            thread.start()
            while thread.is_alive() and not self.stop.is_set():
                time.sleep(0.02)

    def close(self):
        self.stop.set()
        self._supervisor.join(timeout=10)


def _drive_network(schedule, camp, jobs, key, resume):
    executor = NetworkExecutor(
        camp, lease_ttl=1.0, poll=0.01, timeout=60
    )
    fleet = _WorkerFleet(executor.address)
    try:
        runner = CampaignRunner(
            workers=1,
            cache=ResultCache(os.path.join(camp, "cache")),
            executor=executor,
            deadline=schedule.deadline,
        )
        state = CampaignState.open(
            os.path.join(camp, "journal.jsonl"), key,
            total=len(jobs), resume=resume,
        )
        return run_closed(jobs, runner, state, retry=CHAOS_RETRY)
    finally:
        executor.close()
        fleet.close()


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_seeded_schedule_preserves_invariants(seed, tmp_path, monkeypatch):
    """One deterministic chaos scenario per seed, resumed to completion.

    Reproduce any failure with exactly this seed:
    ``seeded_schedule(seed)`` is a pure function of it.
    """
    schedule = seeded_schedule(seed)
    monkeypatch.setenv(
        "REPRO_DSE_SELFTEST_DIR", str(tmp_path / "invocations")
    )
    camp = str(tmp_path / "camp")
    jobs = _schedule_jobs(schedule)
    key = campaign_key({"kind": "chaos-schedule", "seed": seed})
    drive = _drive_network if schedule.mode == "network" else _drive_serial

    outcomes = None
    with schedule.plane() as plane:
        for attempt in range(25):
            resume = os.path.exists(os.path.join(camp, "journal.jsonl"))
            try:
                outcomes = drive(schedule, camp, jobs, key, resume)
                break
            except (ChaosCrash, ChaosDrop, OSError, WorkerStalled):
                continue  # the campaign died; resume, as an operator would
        else:
            pytest.fail(
                "chaos seed %d: campaign never converged (%s)"
                % (seed, schedule)
            )

    message = "chaos seed %d (%s, fired %s)" % (seed, schedule, plane.fired)
    assert outcomes is not None, message
    assert all(o.ok for o in outcomes), message + " outcomes: %s" % (
        [(o.ok, o.error) for o in outcomes],
    )
    violations = InvariantChecker(camp).check(expect_complete=True)
    assert violations == [], message + " violations: %s" % (violations,)


@pytest.mark.chaos
def test_seed_menu_covers_required_fault_classes():
    """The CI seed range exercises every acceptance fault class."""
    kinds = set()
    evaluation = set()
    modes = set()
    for seed in CHAOS_SEEDS:
        schedule = seeded_schedule(seed)
        modes.add(schedule.mode)
        kinds.update(fault.kind for fault in schedule.faults)
        evaluation.update(schedule.evaluation_faults.values())
    assert {"enospc", "torn", "crash", "drop"} <= kinds
    assert "hang_first" in evaluation and "crash_first" in evaluation
    assert modes == {"serial", "network"}


@pytest.mark.chaos
def test_schedules_are_pure_functions_of_the_seed():
    for seed in CHAOS_SEEDS:
        assert seeded_schedule(seed) == seeded_schedule(seed)
