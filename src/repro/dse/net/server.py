"""The campaign server: the worker-pull coordinator, served over TCP.

:class:`CampaignServer` owns the campaign's
:class:`~repro.dse.executors.WorkQueue` and performs the claim protocol
*on behalf of* network workers: a ``lease`` request folds the lease
journals, picks a claimable task, appends the claim to that worker's
journal (the server is the journal's single writer — network workers
never touch the filesystem) and returns the task payload.  Heartbeats
and results flow back the same way.  Because every decision lands in
the same claim/outcome journals and result files the filesystem path
uses, a SIGKILLed server restarted on the same campaign directory
resumes exactly — and filesystem workers can drain the same queue
alongside network ones.

The message loop is deliberately synchronous inside one asyncio task
per connection: all queue mutations happen on the event-loop thread,
so two network workers can never race each other's claims (the
fold/claim/confirm dance still guards against *filesystem* workers
racing from other processes).
"""

import asyncio
import sys
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.dse import chaos
from repro.dse.cache import ResultCache
from repro.dse.executors import (
    LeaseJournal,
    WorkerPullExecutor,
    WorkQueue,
    _claim_one,
)
from repro.dse.net.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    valid_worker_id,
)


class CampaignServer:
    """Serve leases, heartbeats and results for one campaign directory.

    The synchronous core (:meth:`handle_message`) is the authoritative
    protocol implementation and is unit-testable without sockets; the
    asyncio half (:meth:`start` / :class:`ServerThread`) only frames
    messages in and replies out.
    """

    def __init__(
        self,
        campaign_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 30.0,
    ):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.queue = WorkQueue(campaign_dir)
        self.queue.ensure()
        self.cache = ResultCache(self.queue.cache_dir)
        self.host = str(host)
        self.port = int(port)  # 0 = ephemeral; rewritten once bound
        self.lease_ttl = float(lease_ttl)
        #: When true, every ``lease`` reply is ``stop``: workers wind
        #: down instead of idling (set by the executor at close()).
        self.stopping = False
        self.stats = {
            "leases": 0, "heartbeats": 0, "results": 0, "cache_served": 0,
        }
        self._journals: Dict[str, LeaseJournal] = {}
        self._writers: Set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- synchronous protocol core --------------------------------------

    def _journal(self, worker: str) -> LeaseJournal:
        journal = self._journals.get(worker)
        if journal is None:
            journal = self._journals[worker] = LeaseJournal(
                self.queue.lease_path(worker), worker
            )
        return journal

    def handle_message(self, message: Dict) -> Dict:
        """Dispatch one request to its op handler; never raises."""
        op = message.get("op")
        handler = {
            "hello": self._op_hello,
            "lease": self._op_lease,
            "heartbeat": self._op_heartbeat,
            "result": self._op_result,
            "status": self._op_status,
        }.get(op)
        if handler is None:
            return {"ok": False, "error": "unknown op %r" % (op,)}
        try:
            return handler(message)
        except ProtocolError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # a bad request must not kill the server
            return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}

    def _worker(self, message: Dict) -> str:
        worker = message.get("worker")
        if not valid_worker_id(worker):
            raise ProtocolError("invalid worker id %r" % (worker,))
        return worker

    def _op_hello(self, message: Dict) -> Dict:
        self._worker(message)
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": "protocol version %r != server's %d"
                % (version, PROTOCOL_VERSION),
            }
        return {"ok": True, "server": "repro.dse", "version": PROTOCOL_VERSION}

    def _claim_next(self, journal: LeaseJournal, worker: str) -> Optional[Dict]:
        """Claim one task needing evaluation, serving cache hits inline."""
        while True:
            task = _claim_one(self.queue, journal, worker, self.lease_ttl)
            if task is None:
                return None
            cached = self.cache.get(task["key"])
            if cached is not None and "result" in cached:
                # The point was evaluated durably in a previous life
                # (e.g. this server was SIGKILLed between a worker's
                # result upload landing in the cache and its result
                # file) — serve the record instead of burning a worker
                # on it, and keep looking for real work.
                outcome = (True, cached["result"], None,
                           float(cached.get("elapsed", 0.0)))
                self.queue.publish_result(task["task"], outcome, worker)
                journal.done(task["task"])
                self.stats["cache_served"] += 1
                continue
            return task

    def _op_lease(self, message: Dict) -> Dict:
        worker = self._worker(message)
        if self.stopping:
            return {"ok": True, "op": "stop"}
        journal = self._journal(worker)
        task = self._claim_next(journal, worker)
        if task is None:
            return {"ok": True, "op": "idle"}
        self.stats["leases"] += 1
        return {"ok": True, "op": "task", "task": dict(task, ttl=self.lease_ttl)}

    def _op_heartbeat(self, message: Dict) -> Dict:
        worker = self._worker(message)
        tid = message.get("task")
        if not isinstance(tid, str) or not tid:
            raise ProtocolError("heartbeat without a task id")
        self._journal(worker).heartbeat(tid, self.lease_ttl)
        self.stats["heartbeats"] += 1
        return {"ok": True}

    def _op_result(self, message: Dict) -> Dict:
        worker = self._worker(message)
        tid = message.get("task")
        outcome = message.get("outcome")
        if not isinstance(tid, str) or not tid:
            raise ProtocolError("result without a task id")
        if not isinstance(outcome, (list, tuple)) or len(outcome) != 4:
            raise ProtocolError("outcome must be [ok, result, error, elapsed]")
        ok, result, error, elapsed = outcome
        task = self.queue.read_task(tid)
        if task is None:
            # Already consumed by the coordinator (a duplicate upload
            # after a reconnect, or a lease that expired and was served
            # by someone else) — ack so the worker drops it.
            return {"ok": True, "stale": True}
        if ok:
            # Durable store of record first, result file second — the
            # same ordering workers use, so a crash between the two
            # never loses an evaluation.
            self.cache.put(
                task["key"],
                {
                    "target": task["target"],
                    "spec": task["spec"],
                    "result": result,
                    "elapsed": float(elapsed),
                },
            )
        self.queue.publish_result(
            tid, (bool(ok), result, error, float(elapsed)), worker
        )
        self._journal(worker).done(tid)
        self.stats["results"] += 1
        return {"ok": True}

    def _op_status(self, message: Dict) -> Dict:
        pending = self.queue.pending_tasks()
        table = self.queue.lease_table()
        now = time.time()
        leased = sum(1 for tid in pending if table.owner(tid, now))
        return {
            "ok": True,
            "pending": len(pending),
            "leased": leased,
            "results": len(self.queue.available_results()),
            "workers": len(self._journals),
            "stopping": self.stopping,
        }

    # -- asyncio plumbing ------------------------------------------------

    @property
    def connection_count(self) -> int:
        return len(self._writers)

    async def _handle_client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_message(
                        {"ok": False, "error": "message too long"}
                    ))
                    await writer.drain()
                    break
                except (ConnectionError, OSError):
                    break
                if not line or not line.endswith(b"\n"):
                    break  # peer closed (mid-line counts as closed)
                try:
                    # Chaos seam: a "drop" fault aborts this connection
                    # before the message is processed (the worker's
                    # reconnect/redeliver path owns recovery); a
                    # "delay" fault models a paused/slow server.
                    chaos.fire("server.message", path=self.queue.root)
                    reply = self.handle_message(decode_message(line))
                except chaos.ChaosDrop:
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    break
                except ProtocolError as exc:
                    reply = {"ok": False, "error": str(exc)}
                try:
                    writer.write(encode_message(reply))
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES + 2,
            reuse_address=True,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.abort_connections()

    def abort_connections(self) -> None:
        """Hard-drop every live connection (fault injection for tests)."""
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()


class ServerThread:
    """Run a :class:`CampaignServer`'s event loop in a daemon thread.

    Lets synchronous code (the executor, tests) host the server without
    owning an event loop; ``start()`` returns once the port is bound.
    """

    def __init__(self, server: CampaignServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="dse-net-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server thread failed to start in 30 s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()

    def drop_connections(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.abort_connections)

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)


class NetworkExecutor(WorkerPullExecutor):
    """Worker-pull aggregation with an embedded campaign server.

    Identical coordinator semantics to
    :class:`~repro.dse.executors.WorkerPullExecutor` — publish task
    files, reopen stale dones, aggregate result files — plus a
    :class:`CampaignServer` thread so workers participate over TCP
    from hosts with *no* shared mount.  ``spawn_workers=N`` launches
    local network workers connected over loopback (the CI/e2e path);
    remote workers connect with
    ``python -m repro.dse worker --connect host:port``.
    """

    def __init__(
        self,
        campaign_dir: str,
        spawn_workers: int = 0,
        lease_ttl: float = 30.0,
        poll: float = 0.05,
        timeout: Optional[float] = None,
        spawn_idle_timeout: float = 300.0,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(
            campaign_dir,
            spawn_workers=spawn_workers,
            lease_ttl=lease_ttl,
            poll=poll,
            timeout=timeout,
            spawn_idle_timeout=spawn_idle_timeout,
        )
        self.server = CampaignServer(
            campaign_dir, host=host, port=port, lease_ttl=lease_ttl
        )
        self.server_thread = ServerThread(self.server)
        self.server_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return (self.server.host, self.server.port)

    def drop_connections(self) -> None:
        """Abort every worker connection (fault injection for tests)."""
        self.server_thread.drop_connections()

    def _spawn_command(self) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.dse", "worker",
            "--connect", "%s:%d" % self.address,
            "--poll", str(max(self.poll, 0.01)),
        ]
        if self.spawn_idle_timeout is not None:
            cmd += [
                "--idle-timeout", str(self.spawn_idle_timeout),
                "--reconnect-timeout", str(self.spawn_idle_timeout),
            ]
        return cmd

    def close(self) -> None:
        if self._closed:
            return
        # Flip lease replies to ``stop`` and give connected workers one
        # poll interval to see it, so they exit via the protocol rather
        # than by their reconnect timeout once the server is gone.
        self.server.stopping = True
        deadline = time.monotonic() + 5.0
        while self.server.connection_count and time.monotonic() < deadline:
            time.sleep(0.02)
        try:
            super().close()
        finally:
            self.server_thread.stop()
