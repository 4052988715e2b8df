"""repro.dse.net tests: protocol, server core, faults, worker fleet.

The conformance suite proves :class:`NetworkExecutor`'s campaign
semantics match every other backend; this module proves the
*distributed* mechanics — the wire protocol, the server's synchronous
core (lease rules: ``test_lease_properties.py``), the executor's stall
guard and worker fleet, the worker client, a SIGKILLed server resuming
with zero re-evaluation (real subprocesses, real SIGKILL), a dropped
connection not losing an evaluated outcome, a killed worker's points
being reclaimed, and the ``worker --processes`` fleet's respawn rule.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.dse import (
    SELFTEST_TARGET,
    CampaignRunner,
    CampaignState,
    Fault,
    FaultPlane,
    Job,
    NetworkExecutor,
    ResultCache,
    SerialExecutor,
    WorkerStalled,
    campaign_key,
    make_executor,
    run_checkpointed,
    run_network_worker,
)
from repro.dse import chaos
from repro.dse.net import CampaignServer, ServerThread
from repro.dse.net.worker import keep_fleet, spawn_worker, worker_command
from repro.dse.net.server import task_id
from repro.dse.net.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    decode_message,
    encode_message,
    parse_connect,
    valid_worker_id,
)

KEY = campaign_key({"kind": "network-suite"})


def _jobs(points, **extra):
    return [Job(SELFTEST_TARGET, dict({"x": i}, **extra)) for i in range(points)]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _src_env():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestProtocol:
    def test_parse_connect_accepts_host_port(self):
        assert parse_connect("localhost:4000") == ("localhost", 4000)
        assert parse_connect("10.1.2.3:1") == ("10.1.2.3", 1)
        assert parse_connect("[::1]:8080") == ("::1", 8080)

    @pytest.mark.parametrize("bad", [
        "nohost", "host:", ":4000", "host:abc", "host:0", "host:65536", "",
    ])
    def test_parse_connect_rejects_malformed(self, bad):
        with pytest.raises(ProtocolError):
            parse_connect(bad)

    def test_message_roundtrip(self):
        message = {"op": "lease", "worker": "w-1", "n": [1, 2.5, None]}
        assert decode_message(encode_message(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{torn")
        with pytest.raises(ProtocolError):
            decode_message(b'"a string, not an object"')
        with pytest.raises(ProtocolError):
            decode_message(b"x" * (MAX_LINE_BYTES + 1))

    def test_worker_id_charset(self):
        assert valid_worker_id("host-1.example_0")
        assert not valid_worker_id("../escape")
        assert not valid_worker_id("")
        assert not valid_worker_id(None)
        assert not valid_worker_id("x" * 200)


def _result(task, outcome, worker="w1"):
    """A v4 ``result`` message for a leased task payload."""
    return {
        "op": "result", "worker": worker, "task": task["task"],
        "key": task["key"], "target": task["target"], "spec": task["spec"],
        "outcome": outcome,
    }


def _payload(job):
    """The task fields a worker echoes back for ``job``."""
    return {
        "task": task_id(job), "key": job.key, "target": job.target,
        "spec": dict(job.spec),
    }


class TestServerCore:
    """The synchronous protocol core, without sockets."""

    def _server(self, tmp_path, **kwargs):
        return CampaignServer(str(tmp_path), lease_ttl=10.0, **kwargs)

    def test_hello_checks_version_and_worker(self, tmp_path):
        server = self._server(tmp_path)
        reply = server.handle_message(
            {"op": "hello", "worker": "w1", "version": PROTOCOL_VERSION}
        )
        assert reply["ok"] and reply["version"] == PROTOCOL_VERSION
        for stale in (99, 3, 2):
            assert not server.handle_message(
                {"op": "hello", "worker": "w1", "version": stale}
            )["ok"]
        assert not server.handle_message(
            {"op": "hello", "worker": "../evil", "version": PROTOCOL_VERSION}
        )["ok"]

    def test_unknown_op_is_an_error_not_a_crash(self, tmp_path):
        reply = self._server(tmp_path).handle_message({"op": "explode"})
        assert not reply["ok"] and "unknown op" in reply["error"]

    def test_lease_result_cycle(self, tmp_path):
        server = self._server(tmp_path)
        server.submit(_jobs(2))
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "task"
        granted = server.handle_message({"op": "lease", "worker": "w2"})
        assert granted["op"] == "task"
        task = granted["task"]
        assert task["ttl"] == 10.0
        # A repeat lease from w2 releases and re-leases its own task (the
        # oldest free one); a third worker sees nothing — both are held.
        renewed = server.handle_message({"op": "lease", "worker": "w2"})
        assert renewed["op"] == "task" and renewed["task"]["task"] == task["task"]
        assert server.handle_message({"op": "lease", "worker": "w3"})["op"] == "idle"
        assert server.handle_message(
            {"op": "heartbeat", "worker": "w2", "task": task["task"]}
        )["ok"]
        reply = server.handle_message(
            _result(task, [True, {"value": 42, "cost": 1}, None, 0.25], "w2")
        )
        assert reply["ok"] and "stale" not in reply
        # The outcome is queued for imap and the durable record landed.
        assert server.completed.get_nowait() == task["task"]
        ok, result, _, elapsed = server.take(task["task"])
        assert ok and result["value"] == 42 and elapsed == 0.25
        assert server.cache.get(task["key"])["result"]["value"] == 42

    def test_result_for_consumed_task_is_stale_ack(self, tmp_path):
        server = self._server(tmp_path)
        (job,) = _jobs(1)
        server.submit([job])
        task = server.handle_message({"op": "lease", "worker": "w1"})["task"]
        outcome = [False, None, "RuntimeError: boom", 0.1]
        assert "stale" not in server.handle_message(_result(task, outcome))
        # A second result while the first is still unconsumed, and one
        # after imap took it: both are late duplicates.
        assert server.handle_message(_result(task, outcome))["stale"]
        assert server.take(task["task"])[0] is False
        assert server.handle_message(_result(task, outcome))["stale"]
        assert server.stats["results"] == 1

    def test_ok_result_for_unknown_task_is_cached_then_served(self, tmp_path):
        """A worker that outlived the previous server redelivers to one
        that never saw the task: the outcome lands in the cache, and the
        task's next lease is served from it without any worker."""
        server = self._server(tmp_path)
        job = _jobs(1, sleep_s=99.0)[0]  # would hang if ever evaluated
        reply = server.handle_message(
            _result(_payload(job), [True, {"value": 0, "cost": 100}, None, 0.5])
        )
        assert reply["ok"] and reply["stale"]
        assert server.cache.get(job.key)["result"]["value"] == 0
        server.submit([job])
        assert server.handle_message({"op": "lease", "worker": "w2"})["op"] == "idle"
        assert server.stats["cache_served"] == 1
        assert server.take(task_id(job)) == (True, {"value": 0, "cost": 100}, None, 0.5)

    def test_failed_result_for_unknown_task_is_dropped(self, tmp_path):
        server = self._server(tmp_path)
        (job,) = _jobs(1)
        reply = server.handle_message(
            _result(_payload(job), [False, None, "boom", 0.1])
        )
        assert reply["ok"] and reply["stale"]
        assert server.cache.get(job.key) is None

    def test_mismatched_key_is_rejected(self, tmp_path):
        server = self._server(tmp_path)
        job, other = _jobs(2)
        forged = dict(_payload(job), spec=dict(other.spec))
        reply = server.handle_message(
            _result(forged, [True, {"value": 2, "cost": 99}, None, 0.0])
        )
        assert not reply["ok"] and "does not match" in reply["error"]
        foreign = dict(_payload(job), task=task_id(other))
        reply = server.handle_message(
            _result(foreign, [True, {"value": 0, "cost": 100}, None, 0.0])
        )
        assert not reply["ok"] and "does not match" in reply["error"]
        assert server.cache.get(job.key) is None
        assert server.cache.get(other.key) is None

    def test_malformed_requests_are_one_line_errors(self, tmp_path):
        server = self._server(tmp_path)
        (job,) = _jobs(1)
        assert not server.handle_message({"op": "lease"})["ok"]
        assert not server.handle_message(
            {"op": "heartbeat", "worker": "w1"}
        )["ok"]
        assert not server.handle_message(
            {"op": "result", "worker": "w1", "task": "t", "outcome": [1]}
        )["ok"]
        reply = server.handle_message({
            "op": "result", "worker": "w1", "task": task_id(job),
            "outcome": [True, {}, None, 0.0],
        })
        assert not reply["ok"] and "key/target/spec" in reply["error"]

    def test_stopping_turns_leases_into_stop(self, tmp_path):
        server = self._server(tmp_path)
        server.submit(_jobs(1))
        server.stopping = True
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "stop"

    def test_result_roundtrip_is_taken_once(self, tmp_path):
        """An outcome reaches ``take`` exactly as the worker sent it,
        and taking it removes the task from the table."""
        server = self._server(tmp_path)
        job = Job(SELFTEST_TARGET, {"x": 3})
        server.submit([job])
        tid = task_id(job)
        assert server.take(tid) is None  # no result yet
        task = server.handle_message({"op": "lease", "worker": "w0"})["task"]
        server.handle_message(_result(task, [True, {"value": 6}, None, 0.5], "w0"))
        assert server.take(tid) == (True, {"value": 6}, None, 0.5)
        assert server.take(tid) is None
        status = server.handle_message({"op": "status"})
        assert status["pending"] == 0 and status["results"] == 0
        assert server.handle_message({"op": "lease", "worker": "w0"})["op"] == "idle"

    def test_stopping_is_reported_and_clearable(self, tmp_path):
        """``stopping`` shows in ``status`` and binds only lease replies:
        an in-flight result is still accepted, and clearing the flag
        hands out work again."""
        server = self._server(tmp_path)
        server.submit(_jobs(2))
        assert not server.handle_message({"op": "status"})["stopping"]
        task = server.handle_message({"op": "lease", "worker": "w1"})["task"]
        server.stopping = True
        assert server.handle_message({"op": "status"})["stopping"]
        assert server.handle_message({"op": "lease", "worker": "w2"})["op"] == "stop"
        reply = server.handle_message(
            _result(task, [True, {"value": 0, "cost": 100}, None, 0.0])
        )
        assert reply["ok"] and "stale" not in reply
        server.stopping = False
        assert not server.handle_message({"op": "status"})["stopping"]
        assert server.handle_message({"op": "lease", "worker": "w2"})["op"] == "task"

    def test_cache_short_circuit_serves_without_a_worker(self, tmp_path):
        """A task whose record is already in the durable cache (the
        previous server was killed after caching a result but before
        the journal counted it) is served directly at lease time."""
        server = self._server(tmp_path)
        job = _jobs(1, sleep_s=99.0)[0]  # would hang if ever evaluated
        server.submit([job])
        server.cache.put(job.key, {
            "target": job.target, "spec": dict(job.spec),
            "result": {"value": 7, "cost": 3}, "elapsed": 0.1,
        })
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "idle"
        assert server.stats["cache_served"] == 1
        ok, result, _, _ = server.take(task_id(job))
        assert ok and result["value"] == 7

    def test_cache_served_points_credit_no_worker(self, tmp_path):
        """``analyze``'s per-worker table counts only what workers
        evaluated: a cache-served point writes no claim/done for anyone,
        and nothing but a worker gets a row."""
        from repro.dse.analytics import _fold_workers
        from repro.dse.net.server import lease_log_paths

        server = self._server(tmp_path)
        jobs = _jobs(3)
        cached = jobs[1]
        server.cache.put(cached.key, {
            "target": cached.target, "spec": dict(cached.spec),
            "result": {"value": 2, "cost": 99}, "elapsed": 0.1,
        })
        server.submit(jobs)
        evaluated = 0
        while True:
            reply = server.handle_message({"op": "lease", "worker": "w1"})
            if reply["op"] != "task":
                break
            task = reply["task"]
            value = 2 * task["spec"]["x"]
            server.handle_message(
                _result(task, [True, {"value": value, "cost": 0}, None, 0.0])
            )
            evaluated += 1
        assert evaluated == 2 and server.stats["cache_served"] == 1
        folds = _fold_workers(lease_log_paths(str(tmp_path)))
        assert [fold.worker for fold in folds] == ["w1"]
        assert sum(fold.completed for fold in folds) == evaluated
        assert sum(fold.tasks for fold in folds) == evaluated

    def test_status_counts(self, tmp_path):
        server = self._server(tmp_path)
        server.submit(_jobs(3))
        reply = server.handle_message({"op": "status"})
        assert reply["ok"] and reply["pending"] == 3 and reply["leased"] == 0
        grant = server.handle_message({"op": "lease", "worker": "w1"})
        reply = server.handle_message({"op": "status"})
        assert reply["leased"] == 1 and reply["workers"] == 1
        server.handle_message(
            _result(grant["task"], [True, {"value": 0, "cost": 0}, None, 0.0])
        )
        reply = server.handle_message({"op": "status"})
        assert reply["pending"] == 2 and reply["leased"] == 0
        assert reply["results"] == 1

    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            CampaignServer(str(tmp_path), lease_ttl=0.0)

    def test_submit_is_idempotent_and_reseed_aware(self, tmp_path):
        server = self._server(tmp_path)
        job = Job(SELFTEST_TARGET, {"x": 1})
        assert list(server.submit([job])) == [task_id(job)]
        assert task_id(job) == "%s-0" % job.key
        server.submit([job])  # a second submit does not duplicate it
        retried = Job(job.target, job.spec, reseed=2)
        assert list(server.submit([retried])) == ["%s-2" % job.key]
        assert server.handle_message({"op": "status"})["pending"] == 2

    def test_lease_log_is_append_only_and_per_life(self, tmp_path):
        first = self._server(tmp_path)
        first.submit(_jobs(1))
        task = first.lease("w1", time.time())
        first.heartbeat("w1", task["task"], time.time())
        first.handle_message(_result(task, [True, {"value": 0, "cost": 100},
                                            None, 0.0]))
        second = self._server(tmp_path)
        assert first.log.path != second.log.path
        events = [
            json.loads(line)
            for line in open(first.log.path).read().splitlines()
        ]
        assert [e["event"] for e in events] == ["claim", "heartbeat", "done"]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert all(e["worker"] == "w1" for e in events)
        assert all(a["t"] <= b["t"] for a, b in zip(events, events[1:]))


class TestNetworkFaults:
    def test_dropped_connection_keeps_the_evaluated_outcome(
        self, tmp_path, monkeypatch
    ):
        """Drop the worker's connection while it evaluates (the fault
        plane's ``server.message`` drop aborts it at the next message,
        its result); the worker must reconnect with backoff and deliver
        the already computed outcome — one invocation, one result."""
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(tmp_path / "inv"))
        campaign_dir = str(tmp_path / "camp")
        executor = NetworkExecutor(
            campaign_dir, lease_ttl=10.0, poll=0.01, timeout=60
        )
        worker = threading.Thread(
            target=run_network_worker,
            args=(executor.address,),
            kwargs=dict(worker_id="dropper", poll=0.01, backoff=0.05,
                        reconnect_timeout=30.0),
            daemon=True,
        )
        worker.start()

        plane = FaultPlane(faults=[Fault("server.message", "drop")])

        def drop_mid_evaluation():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if executor.server.stats["leases"] >= 1:
                    time.sleep(0.1)  # mid-evaluation (sleep_s=0.5)
                    chaos.install(plane)
                    return
                time.sleep(0.005)

        saboteur = threading.Thread(target=drop_mid_evaluation, daemon=True)
        saboteur.start()
        jobs = _jobs(1, count=True, sleep_s=0.5)
        runner = CampaignRunner(
            workers=1,
            cache=ResultCache(os.path.join(campaign_dir, "cache")),
            executor=executor,
        )
        state = CampaignState.open(
            os.path.join(campaign_dir, "journal.jsonl"), KEY, total=1
        )
        try:
            outcomes = run_checkpointed(jobs, runner, state)
            saboteur.join(timeout=15)
        finally:
            chaos.uninstall()
        executor.close()
        state.close()
        worker.join(timeout=15)
        assert not worker.is_alive()
        assert [o.ok for o in outcomes] == [True]
        assert outcomes[0].result["value"] == 0
        # The drop really happened, and the point still ran exactly once.
        assert [(f["site"], f["kind"]) for f in plane.fired] == [
            ("server.message", "drop")
        ]
        assert executor.server.stats["results"] == 1
        marker = tmp_path / "inv" / "count-0"
        assert marker.stat().st_size == 1

    def test_sigkill_one_of_two_spawned_workers(self, tmp_path, monkeypatch):
        """A SIGKILLed worker's leased point is reclaimed after TTL and
        the campaign still completes correctly."""
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(tmp_path / "inv"))
        campaign_dir = str(tmp_path / "camp")
        executor = NetworkExecutor(
            campaign_dir, spawn_workers=2, lease_ttl=1.0, poll=0.02,
            timeout=120,
        )
        killed = {"pid": None}

        def assassin():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if executor.server.stats["leases"] >= 2 and executor.procs:
                    victim = executor.procs[0]
                    os.kill(victim.pid, signal.SIGKILL)
                    killed["pid"] = victim.pid
                    return
                time.sleep(0.01)

        saboteur = threading.Thread(target=assassin, daemon=True)
        saboteur.start()
        jobs = _jobs(8, count=True, sleep_s=0.2)
        runner = CampaignRunner(
            workers=2,
            cache=ResultCache(os.path.join(campaign_dir, "cache")),
            executor=executor,
        )
        state = CampaignState.open(
            os.path.join(campaign_dir, "journal.jsonl"), KEY, total=8
        )
        outcomes = run_checkpointed(jobs, runner, state)
        saboteur.join(timeout=30)
        executor.close()
        state.close()
        assert killed["pid"] is not None, "saboteur never saw 2 leases"
        assert [o.ok for o in outcomes] == [True] * 8
        assert sorted(o.result["value"] for o in outcomes) == [
            2 * i for i in range(8)
        ]
        # Everything ran at least once; only the killed worker's
        # in-flight point may have run twice (it died mid-evaluation,
        # before its outcome was durable anywhere).
        sizes = [
            (tmp_path / "inv" / ("count-%d" % i)).stat().st_size
            for i in range(8)
        ]
        assert all(size >= 1 for size in sizes)
        assert sum(size - 1 for size in sizes) <= 1

    def test_kill_one_of_two_workers_loses_no_points(self, tmp_path):
        """SIGKILL one spawned worker while the coordinator iterates
        outcomes; the survivor reclaims its leased point and every
        point lands, durable in the campaign cache."""
        campaign_dir = str(tmp_path / "camp")
        executor = NetworkExecutor(
            campaign_dir, spawn_workers=2, lease_ttl=2.0, poll=0.02,
            timeout=120,
        )
        cache = ResultCache(os.path.join(campaign_dir, "cache"))
        runner = CampaignRunner(workers=2, cache=cache, executor=executor)
        outcomes = []
        killed = False
        try:
            for outcome in runner.run_iter(_jobs(8, sleep_s=0.2)):
                outcomes.append(outcome)
                if not killed:
                    # Both workers are mid-task; this one dies hard.
                    os.kill(executor.procs[0].pid, signal.SIGKILL)
                    executor.procs[0].wait()
                    killed = True
        finally:
            executor.close()
        assert killed
        assert len(outcomes) == 8 and all(o.ok for o in outcomes)
        assert sorted(o.result["value"] for o in outcomes) == [
            2 * i for i in range(8)
        ]
        assert len(cache) == 8


#: Driver script for the SIGKILL-the-server test: a coordinator whose
#: server (and everything else) can be killed with one SIGKILL, then
#: relaunched with ``resume`` on the same directory and port.
DRIVER = textwrap.dedent(
    """
    import os, sys
    from repro.dse import (SELFTEST_TARGET, CampaignRunner, CampaignState,
                           Job, ResultCache, campaign_key, run_checkpointed)
    from repro.dse.net import NetworkExecutor

    campaign_dir, port, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    jobs = [Job(SELFTEST_TARGET, {"x": i, "count": True, "sleep_s": 0.3})
            for i in range(6)]
    executor = NetworkExecutor(campaign_dir, port=port, lease_ttl=10.0,
                               poll=0.02, timeout=120)
    runner = CampaignRunner(
        workers=2,
        cache=ResultCache(os.path.join(campaign_dir, "cache")),
        executor=executor,
    )
    state = CampaignState.open(
        os.path.join(campaign_dir, "journal.jsonl"),
        campaign_key({"kind": "net-kill"}),
        total=len(jobs), resume=(mode == "resume"),
    )
    try:
        outcomes = run_checkpointed(jobs, runner, state)
    finally:
        executor.close()
        state.close()
    assert all(o.ok for o in outcomes), outcomes
    print("COMPLETE %d" % len(outcomes))
    """
)


@pytest.mark.slow
class TestServerSigkillResume:
    def test_sigkill_server_resumes_with_zero_reevaluation(
        self, tmp_path, monkeypatch
    ):
        """The acceptance bar: SIGKILL the whole coordinator+server
        process mid-campaign; workers (separate processes, reconnecting
        with backoff) survive; a resumed server on the same port
        finishes the campaign and *no point evaluates twice* — an
        evaluated-but-unreported outcome is redelivered, not redone."""
        scratch = tmp_path / "inv"
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(scratch))
        campaign_dir = str(tmp_path / "camp")
        driver_path = tmp_path / "driver.py"
        driver_path.write_text(DRIVER)
        port = _free_port()
        env = _src_env()
        env["REPRO_DSE_SELFTEST_DIR"] = str(scratch)

        def launch(mode):
            return subprocess.Popen(
                [sys.executable, str(driver_path), campaign_dir,
                 str(port), mode],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )

        server = launch("fresh")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.dse", "worker",
                 "--connect", "127.0.0.1:%d" % port,
                 "--id", "nw%d" % i, "--poll", "0.05",
                 "--reconnect-backoff", "0.1",
                 "--reconnect-timeout", "60"],
                env=env, stdout=subprocess.DEVNULL,
            )
            for i in range(2)
        ]
        try:
            # Let both workers get busy (>= 3 evaluations started),
            # then SIGKILL the server process mid-flight.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if scratch.is_dir() and len(list(scratch.iterdir())) >= 3:
                    break
                if server.poll() is not None:
                    pytest.fail(
                        "server exited early:\n%s"
                        % server.stdout.read().decode()
                    )
                time.sleep(0.02)
            else:
                pytest.fail("workers never started evaluating")
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=10)

            resumed = launch("resume")
            out, _ = resumed.communicate(timeout=120)
            assert resumed.returncode == 0, out.decode()
            assert "COMPLETE 6" in out.decode()

            # The resumed coordinator told the workers to stop.
            for proc in workers:
                assert proc.wait(timeout=30) == 0

            # Zero re-evaluation across the server kill: each of the 6
            # points ran exactly once, even the ones in flight when the
            # server died (their outcomes were redelivered on
            # reconnect, under leases that had not expired).
            sizes = {
                marker.name: marker.stat().st_size
                for marker in scratch.iterdir()
            }
            assert sorted(sizes) == ["count-%d" % i for i in range(6)]
            assert all(size == 1 for size in sizes.values()), sizes
        finally:
            for proc in [server] + workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


class _ExitingProc:
    """A Popen stand-in that exits with ``code`` at its second poll."""

    pid = 0

    def __init__(self, code):
        self.code = code
        self.returncode = None
        self.polls = 0

    def poll(self):
        self.polls += 1
        if self.polls >= 2:
            self.returncode = self.code
        return self.returncode


class TestWorkerFleet:
    def test_respawns_only_signalled_children(self):
        """SIGKILLed children come back; children that exit on their
        own (stop, unreachable server, traceback) do not."""
        codes = iter([-9, 2, 1, 0])
        spawned = []

        def spawn():
            spawned.append(_ExitingProc(next(codes)))
            return spawned[-1]

        assert keep_fleet(spawn, 3) == (4, 1, 2)
        assert [proc.code for proc in spawned] == [-9, 2, 1, 0]

    def test_respawn_feeds_a_real_queue(self, tmp_path, monkeypatch):
        """Real server thread, real worker subprocesses: SIGKILL one
        child; the fleet replaces it and the queue still drains."""
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(tmp_path / "inv"))
        server = CampaignServer(str(tmp_path / "camp"), lease_ttl=2.0)
        thread = ServerThread(server)
        thread.start()
        jobs = _jobs(4, sleep_s=0.3)
        server.submit(jobs)
        cmd = worker_command(("127.0.0.1", server.port), 0.05)
        procs = []

        def spawn():
            procs.append(spawn_worker(cmd))
            return procs[-1]

        counts = []
        fleet = threading.Thread(
            target=lambda: counts.append(keep_fleet(spawn, 2)), daemon=True
        )
        fleet.start()
        killed = False
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                if not killed and server.stats["leases"] >= 1:
                    os.kill(procs[0].pid, signal.SIGKILL)
                    killed = True
                if server.handle_message({"op": "status"})["results"] == 4:
                    break
                time.sleep(0.1)
            assert server.handle_message({"op": "status"})["results"] == 4
            for job in jobs:
                ok, result, _, _ = server.take(task_id(job))
                assert ok and result["value"] == 2 * job.spec["x"]
            server.stopping = True
            fleet.join(timeout=60.0)
            assert not fleet.is_alive()
            started, respawned, worst = counts[0]
            assert killed and respawned >= 1 and worst == 0
            assert started == 2 + respawned == len(procs)
        finally:
            server.stopping = True
            fleet.join(timeout=30.0)
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            thread.stop()


class TestConnectionClient:
    def test_request_pairs_are_thread_safe(self, tmp_path):
        """Concurrent requests over one connection never interleave
        frames (the worker's heartbeat thread relies on this)."""
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        thread = ServerThread(server)
        thread.start()
        conn = Connection("127.0.0.1", server.port, timeout=10.0)
        conn.connect()
        errors = []

        def hammer(worker):
            try:
                for _ in range(50):
                    reply = conn.request({
                        "op": "hello", "worker": worker,
                        "version": PROTOCOL_VERSION,
                    })
                    assert reply["ok"], reply
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=("w%d" % i,))
            for i in range(4)
        ]
        for worker_thread in threads:
            worker_thread.start()
        for worker_thread in threads:
            worker_thread.join(timeout=30)
        conn.close()
        thread.stop()
        assert errors == []

    def test_connect_refused_raises_oserror(self):
        conn = Connection("127.0.0.1", _free_port(), timeout=1.0)
        with pytest.raises(OSError):
            conn.connect()


class TestNetworkExecutor:
    def test_stall_guard_raises_without_workers(self, tmp_path):
        executor = NetworkExecutor(str(tmp_path), timeout=0.15)
        runner = CampaignRunner(workers=2, executor=executor)
        with pytest.raises(WorkerStalled, match="still pending"):
            runner.run(_jobs(2))
        executor.close()

    def test_closed_executor_refuses_work(self, tmp_path):
        executor = NetworkExecutor(str(tmp_path))
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.imap(_jobs(1)))

    def test_context_manager_stops_workers_on_exit(self, tmp_path):
        with NetworkExecutor(str(tmp_path)) as executor:
            assert not executor.server.stopping
        assert executor.server.stopping
        assert executor.server.handle_message(
            {"op": "lease", "worker": "late"}
        )["op"] == "stop"
        executor.close()  # idempotent

    def test_make_executor_resolution(self, tmp_path):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert make_executor("pool", workers=2).workers == 2
        network = make_executor("network", campaign_dir=str(tmp_path))
        assert isinstance(network, NetworkExecutor)
        network.close()
        passthrough = SerialExecutor()
        assert make_executor(passthrough) is passthrough
        with pytest.raises(ValueError, match="campaign directory"):
            make_executor("network")
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("quantum")
        with pytest.raises(ValueError, match="spawn_workers"):
            NetworkExecutor(str(tmp_path), spawn_workers=-1)

    def test_make_executor_rejects_inapplicable_options(self, tmp_path):
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("pool", spawn_workers=2)
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("serial", lease_ttl=5.0)
        # Options alongside a ready-made instance would be silently
        # dropped (the caller would believe its lease_ttl applies).
        with pytest.raises(ValueError, match="executor instance"):
            make_executor(SerialExecutor(), lease_ttl=5.0)

    def test_crashing_spawned_workers_fail_fast(self, tmp_path, monkeypatch):
        """Nonzero worker exits abort the run instead of crash-looping."""
        executor = NetworkExecutor(
            str(tmp_path), spawn_workers=1, poll=0.01, timeout=10.0
        )
        monkeypatch.setattr(
            executor, "_spawn_command",
            lambda: [sys.executable, "-c", "import sys; sys.exit(7)"],
        )
        runner = CampaignRunner(workers=2, executor=executor)
        with pytest.raises(WorkerStalled, match="failed"):
            runner.run(_jobs(2))
        executor.close()

    def test_cleanly_exited_spawned_workers_are_respawned(
        self, tmp_path, monkeypatch
    ):
        """Spawned workers that idle-time out (exit 0) keep relaunching
        while tasks are pending (workers on other hosts may hold them);
        only the stall timeout ends the wait."""
        executor = NetworkExecutor(
            str(tmp_path), spawn_workers=1, poll=0.01, timeout=2.5
        )
        spawn_rounds = []
        monkeypatch.setattr(
            executor, "_spawn_command",
            lambda: spawn_rounds.append(1)
            or [sys.executable, "-c", "raise SystemExit(0)"],
        )
        runner = CampaignRunner(workers=2, executor=executor)
        with pytest.raises(WorkerStalled, match="no result"):
            runner.run(_jobs(1))
        # The initial launch plus >= 1 respawn round (rate-limited 1/s).
        assert len(spawn_rounds) >= 2
        executor.close()

    def test_spawned_workers_get_an_idle_timeout(self, tmp_path):
        """Orphan insurance: a coordinator SIGKILLed without close()
        must not leave spawned workers polling forever."""
        executor = NetworkExecutor(str(tmp_path), spawn_workers=2)
        cmd = executor._spawn_command()
        executor.close()
        assert "--idle-timeout" in cmd
        assert float(cmd[cmd.index("--idle-timeout") + 1]) > 0
        assert cmd[cmd.index("--connect") + 1] == "%s:%d" % executor.address

    def test_spawned_workers_run_a_campaign(self, tmp_path):
        executor = NetworkExecutor(
            str(tmp_path), spawn_workers=2, lease_ttl=5.0, poll=0.02,
            timeout=120,
        )
        cache = ResultCache(os.path.join(str(tmp_path), "cache"))
        runner = CampaignRunner(workers=2, cache=cache, executor=executor)
        try:
            results = runner.run(_jobs(6))
        finally:
            executor.close()
        assert [r.result["value"] for r in results] == [2 * i for i in range(6)]
        assert len(cache) == 6
        # The server persisted every record; the runner must not have
        # written the same bytes a second time.
        assert cache.writes == 0
        # Nothing but the lease log is left under work/.
        leases = os.path.join(str(tmp_path), "work", "leases")
        assert os.listdir(os.path.join(str(tmp_path), "work")) == ["leases"]
        assert os.listdir(leases) == [os.path.basename(executor.server.log.path)]

    def test_server_cache_records_are_valid_results(self, tmp_path):
        """Server-written cache records match the runner's own schema."""
        executor = NetworkExecutor(
            str(tmp_path), spawn_workers=1, lease_ttl=5.0, poll=0.02,
            timeout=120,
        )
        cache = ResultCache(os.path.join(str(tmp_path), "cache"))
        runner = CampaignRunner(workers=2, cache=cache, executor=executor)
        (job,) = _jobs(1)
        try:
            runner.run([job])
        finally:
            executor.close()
        with open(cache.path_for(job.key)) as handle:
            record = json.load(handle)
        assert record["target"] == SELFTEST_TARGET
        assert record["spec"] == {"x": 0}
        assert record["result"]["value"] == 0


class _Served:
    """A campaign server on a background thread, for worker-client tests."""

    def __init__(self, campaign_dir, lease_ttl=5.0):
        self.server = CampaignServer(str(campaign_dir), lease_ttl=lease_ttl)
        self.thread = ServerThread(self.server).start()
        self.address = ("127.0.0.1", self.server.port)

    def __enter__(self):
        return self.server

    def __exit__(self, *exc_info):
        self.thread.stop()


class TestWorkerClient:
    def test_once_drains_queue_and_exits(self, tmp_path):
        served = _Served(tmp_path)
        with served as server:
            jobs = _jobs(3)
            server.submit(jobs)
            assert run_network_worker(
                served.address, worker_id="solo", once=True
            ) == 3
        for job in jobs:
            ok, result, _, _ = server.take(task_id(job))
            assert ok and result["value"] == 2 * job.spec["x"]
        # Evaluations are durable: the campaign cache has them.
        assert all(job.key in server.cache for job in jobs)

    def test_max_tasks_bounds_the_worker(self, tmp_path):
        served = _Served(tmp_path)
        with served as server:
            server.submit(_jobs(4))
            assert run_network_worker(
                served.address, worker_id="w", once=True, max_tasks=2
            ) == 2
            assert server.handle_message({"op": "status"})["pending"] == 2

    def test_idle_timeout_expires(self, tmp_path):
        served = _Served(tmp_path)
        with served:
            start = time.monotonic()
            assert run_network_worker(
                served.address, worker_id="w", poll=0.01, idle_timeout=0.05
            ) == 0
            assert time.monotonic() - start < 5.0

    def test_stop_reply_ends_a_live_worker(self, tmp_path):
        """A stop that appears during the worker's lifetime ends it;
        work submitted afterwards stays unleased."""
        served = _Served(tmp_path)
        with served as server:
            worker = threading.Thread(
                target=run_network_worker, args=(served.address,),
                kwargs=dict(worker_id="w", poll=0.01), daemon=True,
            )
            worker.start()
            time.sleep(0.1)  # the worker is polling an empty server
            server.stopping = True
            worker.join(timeout=10)
            assert not worker.is_alive()
            server.submit(_jobs(1))
            assert server.handle_message({"op": "status"})["leased"] == 0

    def test_dead_worker_lease_reclaimed_by_survivor(self, tmp_path):
        """A leased-but-never-finished task re-runs after lease expiry."""
        served = _Served(tmp_path, lease_ttl=0.3)
        with served as server:
            job = Job(SELFTEST_TARGET, {"x": 7})
            server.submit([job])
            # The "dead" worker leases and vanishes: no heartbeat, no
            # result, exactly like a SIGKILL mid-task.
            assert server.handle_message(
                {"op": "lease", "worker": "dead"}
            )["op"] == "task"
            assert run_network_worker(
                served.address, worker_id="survivor", once=True
            ) == 0
            time.sleep(0.35)  # the dead worker's lease expires
            assert run_network_worker(
                served.address, worker_id="survivor", once=True
            ) == 1
        ok, result, _, _ = server.take(task_id(job))
        assert ok and result["value"] == 14

    def test_cached_task_served_without_evaluation(self, tmp_path, monkeypatch):
        """A point already evaluated durably (cache written, outcome
        lost to a kill) is served from the cache when a live worker
        asks for work, and never re-run through the evaluator."""
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(tmp_path / "inv"))
        served = _Served(tmp_path / "camp")
        with served as server:
            job = Job(SELFTEST_TARGET, {"x": 6, "count": True})
            server.cache.put(job.key, {
                "target": job.target, "spec": dict(job.spec),
                "result": {"value": 12, "cost": 94, "seed": job.seed},
                "elapsed": 1.5,
            })
            server.submit([job])
            assert run_network_worker(
                served.address, worker_id="w", once=True
            ) == 0
        ok, result, error, elapsed = server.take(task_id(job))
        assert ok and result["value"] == 12 and error is None
        assert elapsed == 1.5
        assert server.stats["cache_served"] == 1
        # No invocation marker: the evaluator never ran.
        assert not (tmp_path / "inv" / "count-6").exists()

    def test_heartbeat_extends_lease_during_evaluation(self, tmp_path):
        served = _Served(tmp_path, lease_ttl=0.3)
        with served as server:
            (job,) = _jobs(1, sleep_s=0.6)
            server.submit([job])
            worker = threading.Thread(
                target=run_network_worker, args=(served.address,),
                kwargs=dict(worker_id="beater", once=True), daemon=True,
            )
            worker.start()
            deadline = time.monotonic() + 10.0
            while not server.stats["leases"] and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.45)  # past the original TTL, mid-evaluation
            # The beats kept the lease alive: nobody else may take it.
            assert server.lease("thief", time.time()) is None
            worker.join(timeout=10)
        assert server.stats["heartbeats"] >= 1
        assert server.take(task_id(job))[0] is True

    def test_once_on_idle_server(self, tmp_path):
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        thread = ServerThread(server)
        thread.start()
        try:
            assert run_network_worker(
                ("127.0.0.1", server.port), worker_id="oneshot", once=True
            ) == 0
        finally:
            thread.stop()

    def test_reconnect_timeout_gives_up(self):
        port = _free_port()
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            run_network_worker(
                ("127.0.0.1", port), worker_id="patient",
                backoff=0.05, reconnect_timeout=0.4,
            )
        assert time.monotonic() - start < 10.0

    def test_batched_tasks_reply_is_an_unexpected_op(self):
        """A lease carries one task; a v2-style ``tasks`` reply is refused."""
        replies = {
            "hello": {"ok": True, "version": PROTOCOL_VERSION},
            "lease": {"ok": True, "op": "tasks", "tasks": []},
        }
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                for line in lines:
                    reply = replies[decode_message(line)["op"]]
                    conn.sendall(encode_message(reply))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="unexpected lease reply"):
                run_network_worker(
                    listener.getsockname()[:2], worker_id="w", once=True
                )
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_connect_string_form(self, tmp_path):
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        thread = ServerThread(server)
        thread.start()
        try:
            assert run_network_worker(
                "127.0.0.1:%d" % server.port, worker_id="stringy", once=True
            ) == 0
        finally:
            thread.stop()


class TestCliInProcess:
    """Fast-tier CLI coverage: serve and the worker fleet, no
    subprocesses beyond the spawned workers."""

    def test_serve_runs_a_one_point_campaign(self, tmp_path, capsys):
        from repro.dse.__main__ import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "memory",
            "axes": {"subarray_rows": [256], "wer_target": [1e-9]},
            "settings": {"num_words": 100, "error_population": 5000},
            "sampler": "grid",
        }))
        port = _free_port()
        assert main([
            "serve", str(spec), "--dir", str(tmp_path / "camp"), "--quiet",
            "--port", str(port), "--spawn-workers", "1",
            "--stall-timeout", "120",
        ]) == 0
        out = capsys.readouterr()
        assert "campaign finished" in out.out
        assert "serving campaign on" in out.err

    def _spy_spawns(self, monkeypatch):
        from repro.dse.net import worker

        procs = []

        def spawn(cmd):
            procs.append(spawn_worker(cmd))
            return procs[-1]

        monkeypatch.setattr(worker, "spawn_worker", spawn)
        return procs

    def test_worker_fleet_exits_cleanly_when_server_is_stopping(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.dse.__main__ import main

        procs = self._spy_spawns(monkeypatch)
        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        server.stopping = True
        thread = ServerThread(server)
        thread.start()
        try:
            assert main([
                "worker", "--connect", "127.0.0.1:%d" % server.port,
                "--poll", "0.05", "--processes", "1",
            ]) == 0
        finally:
            thread.stop()
        assert "worker fleet done: 1 started, 0 respawned" in capsys.readouterr().out
        assert len(procs) == 1 and procs[0].returncode == 0

    def test_worker_fleet_gives_up_on_unreachable_server(
        self, monkeypatch, capsys
    ):
        """Children that exit 2 (no server) are not respawned: the
        fleet ends after its first two spawns with their exit code."""
        from repro.dse.__main__ import main

        procs = self._spy_spawns(monkeypatch)
        start = time.monotonic()
        assert main([
            "worker", "--connect", "127.0.0.1:%d" % _free_port(),
            "--reconnect-timeout", "0.2", "--processes", "2",
        ]) == 2
        assert time.monotonic() - start < 60.0
        assert "2 started, 0 respawned" in capsys.readouterr().out
        assert [proc.returncode for proc in procs] == [2, 2]


@pytest.mark.slow
class TestCliEndToEnd:
    def test_serve_with_spawned_workers_and_status_json(self, tmp_path):
        """`serve` + `--spawn-workers 2` + `status --json`: the CLI
        surface of the subsystem, end to end over real TCP."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "memory",
            "axes": {"subarray_rows": [128, 256], "wer_target": [1e-9]},
            "settings": {"num_words": 100, "error_population": 5000},
            "sampler": "grid",
        }))
        campaign_dir = str(tmp_path / "camp")
        port = _free_port()
        env = _src_env()
        serve = subprocess.run(
            [sys.executable, "-m", "repro.dse", "serve", str(spec_path),
             "--dir", campaign_dir, "--quiet", "--port", str(port),
             "--spawn-workers", "2", "--stall-timeout", "120"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert serve.returncode == 0, serve.stderr + serve.stdout
        assert "campaign finished" in serve.stdout
        assert "points:   2" in serve.stdout
        status = subprocess.run(
            [sys.executable, "-m", "repro.dse", "status",
             "--dir", campaign_dir, "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert status.returncode == 0, status.stderr
        payload = json.loads(status.stdout)
        assert payload["done"] == 2 and payload["failed"] == 0
        assert "leased" not in payload  # only a live server knows leases
        assert payload["cache_entries"] == 2
        # Nothing but this life's lease log is left under work/.
        work = os.path.join(campaign_dir, "work")
        (leases,) = os.listdir(work)
        assert leases == "leases"
        (log,) = os.listdir(os.path.join(work, leases))
        assert log.startswith("coordinator-") and log.endswith(".jsonl")
