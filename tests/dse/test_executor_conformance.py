"""Executor conformance suite: every backend, identical campaign semantics.

The same scenarios — full campaign, cached replay, kill/resume,
retry/quarantine, Pareto extraction — run against every
:class:`~repro.dse.executors.Executor` implementation and must produce
*identical* results, journals and status payloads.  The serial
reference for each scenario is computed in a separate campaign
directory with the plain historic runner, so an executor can only pass
by agreeing with the executor-free semantics byte for byte.

The network harness runs a real worker client (in a background thread,
so the lease/heartbeat/result protocol is exercised end to end over
loopback TCP); subprocess workers are covered by ``test_network.py``.
"""

import os
import shutil
import threading

import pytest

from repro.dse import (
    CHAOS_TARGET,
    SELFTEST_TARGET,
    CampaignRunner,
    CampaignState,
    Job,
    NetworkExecutor,
    ProcessPoolExecutor,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    campaign_key,
    is_timeout_error,
    pareto_front,
    run_network_worker,
)
from test_utils import CampaignKilled, CrashingRunner, run_closed

KEY = campaign_key({"kind": "executor-conformance"})

EXECUTORS = ("serial", "pool", "network")

#: Status fields that must match across executors (timestamps and meta
#: are run-specific by design).
STATUS_FIELDS = (
    "total", "done", "failed", "timeouts", "remaining",
    "retried", "retries", "quarantined", "quarantine",
)


def _jobs(points=6, **extra):
    return [Job(SELFTEST_TARGET, dict({"x": i}, **extra)) for i in range(points)]


def _status_view(state):
    status = state.status()
    return {field: status[field] for field in STATUS_FIELDS}


def _summary(outcomes):
    """The comparable essence of a campaign's outcomes, input-ordered."""
    return [
        (o.ok, o.result, (o.error or "").splitlines()[:1], o.attempts)
        for o in outcomes
    ]


def _records(outcomes):
    return [
        {"value": o.result["value"], "cost": o.result["cost"]}
        for o in outcomes
        if o.ok
    ]


class ExecutorHarness:
    """One campaign directory wired to one executor implementation.

    For ``network`` a single worker client runs in a background thread
    (one worker keeps lease ordering deterministic; multi-worker races
    are covered by the network suite).
    """

    def __init__(self, name, campaign_dir):
        self.name = name
        self.campaign_dir = str(campaign_dir)
        self.threads = []
        if name == "serial":
            self.executor = SerialExecutor()
        elif name == "pool":
            self.executor = ProcessPoolExecutor(workers=2)
        elif name == "network":
            self.executor = NetworkExecutor(
                self.campaign_dir, lease_ttl=10.0, poll=0.005, timeout=60
            )
            thread = threading.Thread(
                target=run_network_worker,
                args=(self.executor.address,),
                kwargs=dict(
                    worker_id="conformance", poll=0.005, backoff=0.05,
                    reconnect_timeout=20.0,
                ),
                daemon=True,
            )
            thread.start()
            self.threads.append(thread)
        else:  # pragma: no cover - parametrisation bug
            raise ValueError(name)

    def runner(self, deadline=None):
        cache = ResultCache(os.path.join(self.campaign_dir, "cache"))
        return CampaignRunner(
            workers=2, cache=cache, executor=self.executor, deadline=deadline
        )

    def state(self, total, resume=False):
        path = os.path.join(self.campaign_dir, "journal.jsonl")
        return CampaignState.open(path, KEY, total=total, resume=resume)

    def close(self):
        self.executor.close()
        for thread in self.threads:
            thread.join(timeout=30)
        assert all(not t.is_alive() for t in self.threads)


@pytest.fixture(params=EXECUTORS)
def harness(request, tmp_path):
    instance = ExecutorHarness(request.param, tmp_path / "camp")
    yield instance
    instance.close()


def _reference(tmp_path, jobs, deadline=None, **kwargs):
    """The executor-free serial semantics, in an isolated directory."""
    ref_dir = tmp_path / "reference"
    runner = CampaignRunner(
        workers=1, cache=ResultCache(str(ref_dir / "cache")),
        deadline=deadline,
    )
    state = CampaignState.open(
        str(ref_dir / "journal.jsonl"), KEY, total=len(jobs)
    )
    outcomes = run_closed(jobs, runner, state, **kwargs)
    return outcomes, state


class TestConformance:
    def test_campaign_matches_serial_reference(self, harness, tmp_path):
        """records(), Pareto front and status() identical per executor."""
        jobs = _jobs(6)
        reference, ref_state = _reference(tmp_path, jobs)

        outcomes = run_closed(jobs, harness.runner(), harness.state(len(jobs)))
        assert _summary(outcomes) == _summary(reference)
        assert _records(outcomes) == _records(reference)
        assert pareto_front(_records(outcomes), ("value", "cost")) == pareto_front(
            _records(reference), ("value", "cost")
        )
        reloaded = CampaignState.load(
            os.path.join(harness.campaign_dir, "journal.jsonl")
        )
        assert _status_view(reloaded) == _status_view(ref_state)

    def test_cached_replay_is_pure_lookup(self, harness):
        """A warm re-run serves every point from the cache, identically."""
        jobs = _jobs(5)
        runner = harness.runner()
        cold = run_closed(jobs, runner, harness.state(len(jobs)))
        warm = run_closed(
            jobs, harness.runner(), harness.state(len(jobs), resume=True)
        )
        assert all(o.from_cache for o in warm)
        assert [o.result for o in warm] == [o.result for o in cold]

    def test_kill_resume_loses_nothing_and_reevaluates_nothing(
        self, harness, tmp_path, monkeypatch
    ):
        """Kill after 3 of 6 points, resume: every point evaluated once."""
        scratch = tmp_path / "invocations"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        jobs = _jobs(6, count=True)
        reference, ref_state = _reference(tmp_path, jobs)
        for marker in scratch.iterdir():
            marker.unlink()  # reference consumed its own invocations

        state = harness.state(len(jobs))
        with pytest.raises(CampaignKilled):
            run_closed(
                jobs, CrashingRunner(harness.runner(), crash_after=3), state
            )
        journaled = CampaignState.load(
            os.path.join(harness.campaign_dir, "journal.jsonl")
        )
        assert 1 <= journaled.done <= 3
        finished = set(journaled.completed)

        outcomes = run_closed(
            jobs, harness.runner(), harness.state(len(jobs), resume=True)
        )
        assert _summary(outcomes) == _summary(reference)
        counts = {
            marker.name: marker.stat().st_size for marker in scratch.iterdir()
        }
        assert sorted(counts) == ["count-%d" % i for i in range(6)]
        for job in jobs:
            invocations = counts["count-%d" % job.spec["x"]]
            if harness.name == "pool" and job.key not in finished:
                # A killed pool loses its in-flight evaluations (they
                # were never journaled or cached), so an unfinished
                # point may legitimately evaluate a second time.
                assert invocations in (1, 2)
            else:
                # Serial evaluates lazily and network evaluations are
                # durable (the server caches them before counting
                # them), so a kill re-evaluates *nothing* — the
                # acceptance bar.
                assert invocations == 1
        reloaded = CampaignState.load(
            os.path.join(harness.campaign_dir, "journal.jsonl")
        )
        assert _status_view(reloaded) == _status_view(ref_state)

    def test_retry_failed_resume_reruns_failed_points(
        self, harness, tmp_path, monkeypatch
    ):
        """Regression: a resumed failed point reuses its task identity
        (``reseed=0``), so the network server must lease it afresh
        instead of treating it as done."""
        scratch = tmp_path / "heal"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        jobs = _jobs(2) + [Job(SELFTEST_TARGET, {"x": 77, "fail_first": 1})]
        first = run_closed(
            jobs, harness.runner(), harness.state(len(jobs))
        )
        assert [o.ok for o in first] == [True, True, False]
        resumed = run_closed(
            jobs,
            harness.runner(),
            harness.state(len(jobs), resume=True),
            retry_failed=True,
        )
        assert all(o.ok for o in resumed)
        assert resumed[2].result["value"] == 154
        assert not resumed[2].from_cache  # genuinely re-evaluated

    def test_retry_and_quarantine_identical(self, harness, tmp_path, monkeypatch):
        """Flaky points recover, hopeless points quarantine — everywhere."""
        scratch = tmp_path / "flaky"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        jobs = _jobs(3) + [
            Job(SELFTEST_TARGET, {"x": 90, "fail_first": 1}),
            Job(SELFTEST_TARGET, {"x": 91, "fail": "always"}),
        ]
        reference, ref_state = _reference(tmp_path, jobs, retry=retry)
        shutil.rmtree(str(scratch))

        outcomes = run_closed(
            jobs, harness.runner(), harness.state(len(jobs)), retry=retry
        )
        assert _summary(outcomes) == _summary(reference)
        flaky = outcomes[3]
        assert flaky.ok and flaky.attempts == 2
        hopeless = outcomes[4]
        assert not hopeless.ok and hopeless.attempts == 2

        reloaded = CampaignState.load(
            os.path.join(harness.campaign_dir, "journal.jsonl")
        )
        view = _status_view(reloaded)
        assert view == _status_view(ref_state)
        assert view["quarantined"] == 1
        assert view["quarantine"] == [jobs[4].key]
        assert view["retried"] == 2  # flaky + hopeless both took a retry

    def test_hung_evaluation_reaped_retried_and_identical(
        self, harness, tmp_path, monkeypatch
    ):
        """A hang is reaped at the deadline on every executor.

        One point hangs on its first invocation only (recovers on the
        reseeded retry), one hangs forever (spends its budget and
        quarantines as a timeout) — outcomes, journal and status
        (including the ``timeouts`` count) must match the serial
        reference exactly.
        """
        scratch = tmp_path / "hang"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        deadline = 0.5
        retry = RetryPolicy(max_attempts=2, backoff=0.0)
        jobs = [Job(CHAOS_TARGET, {"x": i}) for i in range(2)] + [
            Job(CHAOS_TARGET, {"x": 60, "chaos": "hang_first"}),
            Job(CHAOS_TARGET, {"x": 61, "chaos": "hang"}),
        ]
        reference, ref_state = _reference(
            tmp_path, jobs, deadline=deadline, retry=retry
        )
        shutil.rmtree(str(scratch))

        outcomes = run_closed(
            jobs,
            harness.runner(deadline=deadline),
            harness.state(len(jobs)),
            retry=retry,
        )
        assert _summary(outcomes) == _summary(reference)
        recovered = outcomes[2]
        assert recovered.ok and recovered.attempts == 2
        hopeless = outcomes[3]
        assert not hopeless.ok and hopeless.attempts == 2
        assert is_timeout_error(hopeless.error)
        # Reaped within deadline + epsilon, not at the hang's own length.
        assert hopeless.elapsed < deadline + 1.0

        reloaded = CampaignState.load(
            os.path.join(harness.campaign_dir, "journal.jsonl")
        )
        view = _status_view(reloaded)
        assert view == _status_view(ref_state)
        assert view["timeouts"] == 1
        assert view["quarantine"] == [jobs[3].key]
