"""Property-based tests for the campaign server's lease table.

Seeded-random schedules of worker lease / heartbeat / result / crash
events are applied both to an in-memory reference model and to a real
:class:`~repro.dse.net.CampaignServer` (through its synchronous table
methods, at explicit times).  Every reply must agree with the model,
and after every step the server's owners and completions must equal
the model's.  The lease log the server appended must be monotone and
must survive a torn final line.

The model is deliberately plain (dicts and a set, rules spelled out
longhand) so the protocol's meaning is stated twice independently:
once here, once in :mod:`repro.dse.net.server`.
"""

import json
import os
import random
import time

from repro.dse import SELFTEST_TARGET, CampaignServer, Job
from repro.dse.net.server import LEASES_DIR, read_lease_events, task_id

WORKERS = ["w0", "w1", "w2", "w3"]
TTL = 10.0


def _jobs(points):
    return [Job(SELFTEST_TARGET, {"x": i}) for i in range(points)]


class ReferenceLeases:
    """What the lease rules *mean*: oldest task first, one owner per
    task until expiry, one lease per worker, first result wins."""

    def __init__(self, tasks):
        self.order = list(tasks)
        self.owners = {}  # task -> (worker, lease expiry)
        self.holding = {}  # worker -> task it last leased
        self.done = set()

    def owner(self, task, now):
        entry = self.owners.get(task)
        if entry is None or now >= entry[1]:
            return None
        return entry[0]

    def lease(self, worker, now):
        held = self.holding.pop(worker, None)
        if held is not None and held not in self.done:
            if self.owners.get(held, (None,))[0] == worker:
                del self.owners[held]  # asking again releases it
        for task in self.order:
            if task in self.done or self.owner(task, now) is not None:
                continue
            self.owners[task] = (worker, now + TTL)
            self.holding[worker] = task
            return task
        return None

    def heartbeat(self, worker, task, now):
        if task in self.done or self.owners.get(task, (None,))[0] != worker:
            return False
        self.owners[task] = (worker, now + TTL)
        return True

    def result(self, task):
        if task in self.done:
            return False
        self.done.add(task)
        self.owners.pop(task, None)
        return True


def _check(server, model, now):
    """The server's table must agree with the model, task by task."""
    for tid in model.order:
        task = server._tasks[tid]
        live = task.worker if task.worker is not None and now < task.expires else None
        assert live == model.owner(tid, now), tid
        assert (task.outcome is not None) == (tid in model.done), tid


def _run_schedule(tmp_path, seed, steps=150):
    rng = random.Random(seed)
    jobs = {task_id(job): job for job in _jobs(8)}
    server = CampaignServer(str(tmp_path / ("camp-%d" % seed)), lease_ttl=TTL)
    server.submit(list(jobs.values()))
    model = ReferenceLeases(jobs)
    alive = set(WORKERS)
    now = 1000.0
    claims = 0
    for _ in range(steps):
        now += rng.uniform(0.01, TTL / 2.0)
        op = rng.choice(
            ["lease", "lease", "heartbeat", "result", "crash", "revive"]
        )
        if op == "crash" and len(alive) > 1:
            # A crashed worker simply goes quiet: its lease expires on
            # its own and others reclaim the task.
            alive.discard(rng.choice(sorted(alive)))
            continue
        if op == "revive":
            alive.add(rng.choice(WORKERS))
            continue
        worker = rng.choice(sorted(alive))
        tid = rng.choice(sorted(jobs))
        if op == "lease":
            granted = server.lease(worker, now)
            expected = model.lease(worker, now)
            assert (granted and granted["task"]) == expected
            claims += expected is not None
        elif op == "heartbeat":
            assert server.heartbeat(worker, tid, now) == model.heartbeat(
                worker, tid, now
            )
        elif op == "result":
            job = jobs[tid]
            record = {"key": job.key, "target": job.target, "spec": job.spec}
            accepted = server.record(
                worker, tid, record, (False, None, "boom", 0.0)
            )
            assert accepted == model.result(tid)
        _check(server, model, now)

    events = read_lease_events(server.log.path)
    assert sum(1 for e in events if e["event"] == "claim") == claims
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert all(a["t"] <= b["t"] for a, b in zip(events, events[1:]))

    # A torn final append (server killed mid-write) is skipped, losing
    # at most that one event — everything before it still reads.
    with open(server.log.path, "ab") as handle:
        handle.write(b'{"event":"claim","task":"t0","wor')
    assert read_lease_events(server.log.path) == events


def test_random_schedules_match_reference(tmp_path):
    for seed in range(8):
        _run_schedule(tmp_path, seed)


def test_long_schedule(tmp_path):
    _run_schedule(tmp_path, seed=4242, steps=500)


class TestLeaseTableRules:
    """Pointwise rules the random walk might only graze."""

    def _server(self, tmp_path, points=1):
        server = CampaignServer(str(tmp_path), lease_ttl=TTL)
        server.submit(_jobs(points))
        return server

    def test_claim_conflict_denied_until_expiry(self, tmp_path):
        server = self._server(tmp_path)
        assert server.lease("a", 0.0) is not None
        assert server.lease("b", 5.0) is None  # lease still live
        assert server.lease("b", 10.0) is not None  # expired: reclaimed

    def test_heartbeat_extends_only_holder(self, tmp_path):
        server = self._server(tmp_path)
        tid = server.lease("a", 0.0)["task"]
        assert not server.heartbeat("b", tid, 5.0)
        assert server.heartbeat("a", tid, 5.0)
        assert server.lease("b", 14.9) is None  # extended to 15.0
        assert server.lease("b", 15.0)["task"] == tid

    def test_dead_worker_lease_reclaimed(self, tmp_path):
        """The acceptance scenario in miniature: lease, crash, reclaim."""
        server = self._server(tmp_path)
        tid = server.lease("dead", 0.0)["task"]
        # No heartbeat ever arrives; the lease runs out.
        assert server.lease("survivor", 9.9) is None
        assert server.lease("survivor", 12.0)["task"] == tid
        assert not server.heartbeat("dead", tid, 12.5)  # no longer holder

    def test_done_blocks_claims_until_reopen(self, tmp_path):
        """A done task is never leased again; resubmitting it after
        ``imap`` took its outcome (a failed point re-run on resume
        reuses its task id) reopens it."""
        server = self._server(tmp_path)
        (job,) = _jobs(1)
        tid = server.lease("a", 0.0)["task"]
        record = {"key": job.key, "target": job.target, "spec": job.spec}
        assert server.record("a", tid, record, (False, None, "boom", 0.0))
        assert server.lease("b", 20.0) is None
        assert not server.heartbeat("a", tid, 20.0)
        assert server.take(tid)[0] is False
        server.submit([job])
        assert server.lease("b", 21.0)["task"] == tid

    def test_release_frees_immediately(self, tmp_path):
        """A worker holds one lease: asking again releases the old one."""
        server = self._server(tmp_path, points=2)
        first = server.lease("x", 0.0)["task"]
        second = server.lease("a", 5.0)["task"]
        # At 11 x's lease has expired; a asks again, releases ``second``
        # (live until 15) and takes over the expired ``first``.
        assert server.lease("a", 11.0)["task"] == first
        assert server.lease("b", 11.0)["task"] == second
        events = read_lease_events(server.log.path)
        assert [e["event"] for e in events] == [
            "claim", "claim", "release", "claim", "claim",
        ]

    def test_replay_sorts_by_time_not_arrival(self, tmp_path):
        """Leases inherited from earlier server lives fold every log by
        event time, not by file name: a later life's ``done`` undoes an
        earlier life's claim even when its log sorts first."""
        (job,) = _jobs(1)
        tid = task_id(job)
        leases = tmp_path / LEASES_DIR
        os.makedirs(str(leases))
        t = time.time()
        for name, event in (
            ("b-first-life.jsonl", {"event": "claim", "ttl": 60.0, "t": t}),
            ("a-second-life.jsonl", {"event": "done", "t": t + 1.0}),
        ):
            (leases / name).write_text(json.dumps(
                dict(event, task=tid, worker="w", seq=1)
            ) + "\n")
        server = CampaignServer(str(tmp_path), lease_ttl=TTL)
        server.submit([job])
        assert server.lease("other", time.time())["task"] == tid

    def test_inherits_unexpired_leases_of_an_earlier_life(self, tmp_path):
        """A worker still evaluating across a server restart keeps its
        point: the next life honours the lease until it expires."""
        (job,) = _jobs(1)
        record = {"key": job.key, "target": job.target, "spec": job.spec}
        first = self._server(tmp_path)
        tid = first.lease("busy", time.time())["task"]
        second = CampaignServer(str(tmp_path), lease_ttl=TTL)
        second.submit([job])
        assert second.lease("idle", time.time()) is None
        assert second.heartbeat("busy", tid, time.time())
        assert second.record("busy", tid, record, (False, None, "boom", 0.0))
        # Neither a finished nor an expired lease is inherited.
        third = CampaignServer(str(tmp_path), lease_ttl=TTL)
        third.submit([job])
        assert third.lease("idle", time.time())["task"] == tid
        short = CampaignServer(str(tmp_path / "short"), lease_ttl=0.05)
        short.submit([job])
        assert short.lease("gone", time.time()) is not None
        time.sleep(0.1)
        later = CampaignServer(str(tmp_path / "short"), lease_ttl=0.05)
        later.submit([job])
        assert later.lease("idle", time.time())["task"] == tid
