"""repro.dse.net tests: protocol, server core, faults, supervisor.

The conformance suite proves :class:`NetworkExecutor`'s campaign
semantics match every other backend; this module proves the
*distributed* mechanics the issue demands — the wire protocol, the
server's synchronous claim core, a SIGKILLed server resuming with zero
re-evaluation (real subprocesses, real SIGKILL), a dropped connection
not losing an evaluated outcome, a killed worker's points being
reclaimed, and the supervisor's respawn/autoscale policy.
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
    Job,
    NetworkExecutor,
    ResultCache,
    campaign_key,
    run_checkpointed,
    run_network_worker,
)
from repro.dse.executors import task_id
from repro.dse.net import CampaignServer, ServerThread, Supervisor
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
        for stale in (99, 2):
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
        jobs = _jobs(2)
        for job in jobs:
            server.queue.publish(job)
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "task"
        granted = server.handle_message({"op": "lease", "worker": "w2"})
        assert granted["op"] == "task"
        task = granted["task"]
        assert task["ttl"] == 10.0
        # A repeat lease from w2 renews its own claim (same task); a
        # third worker sees nothing — both points are held.
        renewed = server.handle_message({"op": "lease", "worker": "w2"})
        assert renewed["op"] == "task" and renewed["task"]["task"] == task["task"]
        assert server.handle_message({"op": "lease", "worker": "w3"})["op"] == "idle"
        assert server.handle_message(
            {"op": "heartbeat", "worker": "w2", "task": task["task"]}
        )["ok"]
        reply = server.handle_message({
            "op": "result", "worker": "w2", "task": task["task"],
            "outcome": [True, {"value": 42, "cost": 1}, None, 0.25],
        })
        assert reply["ok"] and "stale" not in reply
        # Result file + durable cache record both landed.
        ok, result, _, elapsed = server.queue.read_result(task["task"])
        assert ok and result["value"] == 42 and elapsed == 0.25
        assert server.cache.get(task["key"])["result"]["value"] == 42

    def test_result_for_consumed_task_is_stale_ack(self, tmp_path):
        server = self._server(tmp_path)
        reply = server.handle_message({
            "op": "result", "worker": "w1", "task": "ghost-0",
            "outcome": [True, {}, None, 0.0],
        })
        assert reply["ok"] and reply["stale"]
        assert not os.path.exists(server.queue.result_path("ghost-0"))

    def test_malformed_requests_are_one_line_errors(self, tmp_path):
        server = self._server(tmp_path)
        assert not server.handle_message({"op": "lease"})["ok"]
        assert not server.handle_message(
            {"op": "heartbeat", "worker": "w1"}
        )["ok"]
        assert not server.handle_message(
            {"op": "result", "worker": "w1", "task": "t", "outcome": [1]}
        )["ok"]

    def test_stopping_turns_leases_into_stop(self, tmp_path):
        server = self._server(tmp_path)
        server.queue.publish(_jobs(1)[0])
        server.stopping = True
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "stop"

    def test_cache_short_circuit_serves_without_a_worker(self, tmp_path):
        """A durable cache record with no result file (the server was
        killed between a result upload's cache write and ... nothing:
        the cache IS written first — this is the crashed-server resume
        window) is served directly at lease time."""
        server = self._server(tmp_path)
        job = _jobs(1, sleep_s=99.0)[0]  # would hang if ever evaluated
        server.queue.publish(job)
        server.cache.put(job.key, {
            "target": job.target, "spec": dict(job.spec),
            "result": {"value": 7, "cost": 3}, "elapsed": 0.1,
        })
        assert server.handle_message({"op": "lease", "worker": "w1"})["op"] == "idle"
        assert server.stats["cache_served"] == 1
        ok, result, _, _ = server.queue.read_result(task_id(job))
        assert ok and result["value"] == 7

    def test_status_counts(self, tmp_path):
        server = self._server(tmp_path)
        for job in _jobs(3):
            server.queue.publish(job)
        reply = server.handle_message({"op": "status"})
        assert reply["ok"] and reply["pending"] == 3 and reply["leased"] == 0
        grant = server.handle_message({"op": "lease", "worker": "w1"})
        reply = server.handle_message({"op": "status"})
        assert reply["leased"] == 1 and reply["workers"] == 1
        server.handle_message({
            "op": "result", "worker": "w1", "task": grant["task"]["task"],
            "outcome": [True, {"value": 0, "cost": 0}, None, 0.0],
        })
        reply = server.handle_message({"op": "status"})
        assert reply["pending"] == 2 and reply["leased"] == 0
        assert reply["results"] == 1


class TestNetworkFaults:
    def test_dropped_connection_keeps_the_evaluated_outcome(
        self, tmp_path, monkeypatch
    ):
        """Satellite: drop every connection *while* a worker evaluates;
        the worker must reconnect with backoff and deliver the already
        computed outcome — one invocation, one result."""
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

        def chaos():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if executor.server.stats["leases"] >= 1:
                    time.sleep(0.1)  # mid-evaluation (sleep_s=0.5)
                    executor.drop_connections()
                    return
                time.sleep(0.005)

        saboteur = threading.Thread(target=chaos, daemon=True)
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
        outcomes = run_checkpointed(jobs, runner, state)
        saboteur.join(timeout=15)
        executor.close()
        state.close()
        worker.join(timeout=15)
        assert not worker.is_alive()
        assert [o.ok for o in outcomes] == [True]
        assert outcomes[0].result["value"] == 0
        # The drop really happened, and the point still ran exactly once.
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


class _FakeProc:
    """A Popen stand-in the supervisor can poll/terminate."""

    def __init__(self):
        self.dead = False
        self.terminated = False

    def poll(self):
        return 0 if (self.dead or self.terminated) else None

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.terminated = True

    def wait(self, timeout=None):
        return 0


class TestSupervisorPolicy:
    """The autoscaling/respawn policy, with fakes (no processes)."""

    def _supervisor(self, status, **kwargs):
        kwargs.setdefault("min_workers", 1)
        kwargs.setdefault("max_workers", 3)
        return Supervisor(
            ("127.0.0.1", 1), spawn=_FakeProc,
            probe=lambda: dict(status), **kwargs
        )

    def test_scales_to_pending_clamped_to_bounds(self):
        status = {"ok": True, "pending": 10, "stopping": False}
        sup = self._supervisor(status)
        assert sup.step()["started"] == 3  # ceiling
        status["pending"] = 2
        assert sup.step()["stopped"] == 1  # down to depth
        status["pending"] = 0
        assert sup.step()["stopped"] == 1  # floor keeps one warm
        assert len(sup.procs) == 1

    def test_respawns_dead_workers(self):
        status = {"ok": True, "pending": 2, "stopping": False}
        sup = self._supervisor(status)
        assert sup.step()["started"] == 2
        sup.procs[0].dead = True
        info = sup.step()
        assert info["died"] == 1 and info["started"] == 1
        assert sup.respawned == 1

    def test_stopping_server_winds_the_fleet_down(self):
        status = {"ok": True, "pending": 5, "stopping": False}
        sup = self._supervisor(status)
        sup.step()
        status["stopping"] = True
        info = sup.step()
        assert info["stopped"] == 3 and not sup.procs

    def test_unreachable_server_respects_grace(self):
        sup = Supervisor(
            ("127.0.0.1", 1), min_workers=1, max_workers=3, grace=3,
            spawn=_FakeProc, probe=lambda: {"ok": True, "pending": 2},
        )
        sup.step()
        assert len(sup.procs) == 2

        def boom():
            raise OSError("connection refused")

        sup._probe = boom
        for _ in range(2):
            assert sup.step()["alive"] == 2  # kept through the grace window
        assert sup.step()["alive"] == 0  # grace exhausted: wind down

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Supervisor(("h", 1), min_workers=3, max_workers=1)

    def test_run_winds_down_cleanly_on_stopping(self):
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            return {"ok": True, "pending": 2, "stopping": calls["n"] > 1}

        sup = Supervisor(
            ("127.0.0.1", 1), min_workers=1, max_workers=3, interval=0.01,
            spawn=_FakeProc, probe=probe,
        )
        lines = []
        assert sup.run(log=lines.append) == 0
        assert not sup.procs
        assert any("fleet" in line for line in lines)

    def test_run_gives_up_after_grace_misses(self):
        def boom():
            raise OSError("refused")

        sup = Supervisor(
            ("127.0.0.1", 1), min_workers=1, max_workers=2, interval=0.01,
            grace=2, spawn=_FakeProc, probe=boom,
        )
        assert sup.run() == 1


class TestSupervisorIntegration:
    def test_respawn_feeds_a_real_queue(self, tmp_path, monkeypatch):
        """Real server thread, real worker subprocesses: SIGKILL one
        worker; the supervisor replaces it and the queue still drains."""
        monkeypatch.setenv("REPRO_DSE_SELFTEST_DIR", str(tmp_path / "inv"))
        server = CampaignServer(str(tmp_path / "camp"), lease_ttl=2.0)
        thread = ServerThread(server)
        thread.start()
        jobs = _jobs(4, sleep_s=0.3)
        for job in jobs:
            server.queue.publish(job)
        sup = Supervisor(
            ("127.0.0.1", server.port), min_workers=1, max_workers=2,
            interval=0.1, worker_poll=0.05,
        )
        killed = False
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                sup.step()
                if (
                    not killed
                    and sup.procs
                    and server.stats["leases"] >= 1
                ):
                    os.kill(sup.procs[0].pid, signal.SIGKILL)
                    killed = True
                if len(server.queue.available_results()) == 4:
                    break
                time.sleep(0.1)
            results = server.queue.available_results()
            assert len(results) == 4
            assert killed and sup.respawned >= 1
            for job in jobs:
                ok, result, _, _ = server.queue.read_result(task_id(job))
                assert ok and result["value"] == 2 * job.spec["x"]
        finally:
            sup.shutdown()
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


class TestWorkerClient:
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
    """Fast-tier CLI coverage: serve and supervise, no subprocesses
    beyond the one spawned worker."""

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

    def test_supervise_exits_cleanly_when_server_is_stopping(self, tmp_path):
        from repro.dse.__main__ import main

        server = CampaignServer(str(tmp_path), lease_ttl=5.0)
        server.stopping = True
        thread = ServerThread(server)
        thread.start()
        try:
            assert main([
                "supervise", "--connect", "127.0.0.1:%d" % server.port,
                "--min", "0", "--max", "1", "--interval", "0.05", "--quiet",
            ]) == 0
        finally:
            thread.stop()


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
        assert payload["leased"] == 0
        assert payload["cache_entries"] == 2
