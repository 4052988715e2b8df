"""The campaign server: the single owner of a distributed campaign's leases.

:class:`CampaignServer` holds the campaign's task table in memory.
Tasks are kept in submission order; each is *pending*, *leased* to
``(worker, expiry)``, or *done*:

* ``lease`` hands a worker the oldest pending task, or one whose lease
  expired (a dead worker's point is reclaimed ``lease_ttl`` after its
  last heartbeat).  A worker holds at most one lease: asking again
  releases the one it held.  A task whose result is already in the
  campaign cache is completed inline instead of leased;
* ``heartbeat`` extends only the holder's lease;
* ``result`` completes the task — the first result wins and a late
  duplicate gets the ``stale`` ack.  An ``ok`` outcome lands in the
  :class:`~repro.dse.cache.ResultCache` *before* the table changes, so
  a SIGKILLed coordinator loses no evaluation: the resumed campaign
  finds it in the cache.  A result for a task this server does not
  hold (a worker that outlived the previous server redelivering it) is
  still cached when it is ``ok``, after its ``key`` is checked against
  ``content_key(target, spec)``.

One lock guards the table: the server thread mutates it and
:meth:`NetworkExecutor.imap` registers jobs and takes outcomes under
the same lock.  Completed task ids reach ``imap`` through a
thread-safe queue.

Every grant, heartbeat, result and release is appended to one lease
log per server life (``work/leases/coordinator-<host>-<pid>.jsonl``)
before the table changes, so a failed append leaves the table as it
was.  ``analyze`` and the chaos audit read the logs; the server reads
them once at start-up, to honour leases an earlier life granted that
have not expired yet — a worker that is still evaluating its point
across a coordinator restart must not have that point handed to a
second worker.
"""

import asyncio
import glob
import itertools
import json
import os
import queue
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dse import chaos
from repro.dse.cache import ResultCache
from repro.dse.executors import CACHE_DIR_NAME, Executor, Outcome
from repro.dse.jobs import Job, content_key
from repro.dse.net.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    default_worker_id,
    encode_message,
    valid_worker_id,
)
from repro.dse.net.worker import reap_workers, spawn_worker, worker_command

#: Lease logs live here, relative to the campaign directory.
LEASES_DIR = os.path.join("work", "leases")

#: Seconds ``imap`` waits for a result before checking its stall
#: timeout and the spawned workers.
_TICK = 0.05


class WorkerStalled(RuntimeError):
    """No result arrived within the network executor's timeout."""


def task_id(job: Job) -> str:
    """The task identity of one submission: content key + retry generation.

    Retries reuse the job's content key (same cache address) but carry a
    bumped ``reseed``, so each retry round is a distinct task.
    """
    return "%s-%d" % (job.key, job.reseed)


def lease_log_paths(campaign_dir: str) -> List[str]:
    """Sorted lease-log paths of a campaign directory (empty if none)."""
    return sorted(glob.glob(os.path.join(str(campaign_dir), LEASES_DIR, "*.jsonl")))


def read_lease_events(path: str) -> List[Dict]:
    """Parse one lease log, skipping torn/unparseable lines."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except OSError:
        return []
    events: List[Dict] = []
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue  # blank, or a torn append: at worst a lost heartbeat
        if isinstance(event, dict):
            events.append(event)
    return events


def _unexpired_leases(paths: Sequence[str], now: float) -> Dict:
    """task -> (worker, expiry) for leases earlier logs left running."""
    events = [event for path in paths for event in read_lease_events(path)]
    leases: Dict[str, Tuple[str, float]] = {}
    for event in sorted(events, key=lambda e: float(e.get("t", 0.0))):
        kind, task = event.get("event"), event.get("task")
        worker = event.get("worker")
        if kind == "claim" or (
            kind == "heartbeat" and leases.get(task, ("",))[0] == worker
        ):
            expiry = float(event.get("t", 0.0)) + float(event.get("ttl", 0.0))
            leases[task] = (worker, expiry)
        elif kind in ("done", "release"):
            leases.pop(task, None)
    return {task: lease for task, lease in leases.items() if lease[1] > now}


class LeaseLog:
    """Append-only event log of one server life, created exclusively.

    Events carry ``event``/``task``/``worker``, a strictly increasing
    ``seq`` and a non-decreasing wall-clock ``t``.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, "coordinator-" + default_worker_id())
        self.path = base + ".jsonl"
        for suffix in itertools.count(2):
            try:
                open(self.path, "x").close()
                break
            except FileExistsError:
                self.path = "%s-%d.jsonl" % (base, suffix)
        self._seq = 0
        self._last_t = 0.0
        self._clean = True  # False while an append may have torn the tail

    def append(self, event: str, worker: str, task: str, **fields) -> None:
        self._seq += 1
        self._last_t = max(time.time(), self._last_t)
        line = json.dumps(
            dict(fields, event=event, task=task, worker=worker,
                 seq=self._seq, t=self._last_t),
            separators=(",", ":"),
        ) + "\n"
        chaos.fire("lease.append", path=self.path, worker=worker)
        if not self._clean:
            line = "\n" + line  # terminate a torn previous line
        self._clean = False
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
        chaos.fire("lease.appended", path=self.path, worker=worker)
        self._clean = True


@dataclass
class _Task:
    """One submitted task: pending, leased to ``(worker, expires)``, or done."""

    job: Job
    worker: Optional[str] = None
    expires: float = 0.0
    outcome: Optional[Outcome] = None


class CampaignServer:
    """Serve leases, heartbeats and results for one campaign directory.

    The synchronous core (:meth:`handle_message` over the table methods)
    is the protocol and is unit-testable without sockets; the asyncio
    half (:meth:`start` / :class:`ServerThread`) only frames messages.
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
        self.campaign_dir = str(campaign_dir)
        self.cache = ResultCache(os.path.join(self.campaign_dir, CACHE_DIR_NAME))
        # Folded before this life's log exists: only earlier lives count.
        self._inherited = _unexpired_leases(
            lease_log_paths(self.campaign_dir), time.time()
        )
        self.log = LeaseLog(os.path.join(self.campaign_dir, LEASES_DIR))
        self.host = str(host)
        self.port = int(port)  # 0 = ephemeral; rewritten once bound
        self.lease_ttl = float(lease_ttl)
        #: When true, every ``lease`` reply is ``stop``: workers wind
        #: down instead of idling (set by the executor at close()).
        self.stopping = False
        self.stats = {
            "leases": 0, "heartbeats": 0, "results": 0, "cache_served": 0,
        }
        #: Ids of completed tasks, in completion order (see imap).
        self.completed: "queue.Queue[str]" = queue.Queue()
        self._lock = threading.Lock()
        self._tasks: Dict[str, _Task] = {}
        self._holding: Dict[str, str] = {}  # worker -> task it leased
        self._workers: Set[str] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- the task table --------------------------------------------------

    def submit(self, jobs: Sequence[Job]) -> Dict[str, Job]:
        """Register jobs as tasks; return them by task id.

        A task already in the table keeps its state: a pending or
        leased one is not handed out twice, and a done one is announced
        again on :attr:`completed` for this submission to take.
        """
        batch: Dict[str, Job] = {}
        with self._lock:
            for job in jobs:
                tid = task_id(job)
                batch[tid] = job
                task = self._tasks.get(tid)
                if task is None:
                    task = self._tasks[tid] = _Task(job)
                    lease = self._inherited.pop(tid, None)
                    if lease is not None:
                        task.worker, task.expires = lease
                        self._holding[lease[0]] = tid
                elif task.outcome is not None:
                    self.completed.put(tid)
        return batch

    def take(self, tid: str) -> Optional[Outcome]:
        """Remove a done task from the table and return its outcome."""
        with self._lock:
            task = self._tasks.get(tid)
            if task is None or task.outcome is None:
                return None
            del self._tasks[tid]
            return task.outcome

    def _complete(self, tid: str, task: _Task, outcome: Outcome) -> None:
        task.outcome = outcome
        task.worker = None
        self.completed.put(tid)

    def lease(self, worker: str, now: float) -> Optional[Dict]:
        """Lease the oldest leasable task to ``worker``; None when idle."""
        with self._lock:
            held = self._holding.get(worker)
            task = self._tasks.get(held)
            if task is not None and task.worker == worker:
                self.log.append("release", worker, held)
                task.worker = None
            self._holding.pop(worker, None)
            for tid, task in self._tasks.items():
                if task.outcome is not None or (
                    task.worker is not None and now < task.expires
                ):
                    continue
                cached = self.cache.get(task.job.key)
                if cached is not None and "result" in cached:
                    # Evaluated already (by a worker that outlived an
                    # earlier server, say): serve the record instead of
                    # burning a worker on it.
                    self._complete(tid, task, (
                        True, cached["result"], None,
                        float(cached.get("elapsed", 0.0)),
                    ))
                    self.stats["cache_served"] += 1
                    continue
                self.log.append("claim", worker, tid, ttl=self.lease_ttl)
                task.worker, task.expires = worker, now + self.lease_ttl
                self._holding[worker] = tid
                self.stats["leases"] += 1
                job = task.job
                payload = {
                    "task": tid, "key": job.key, "target": job.target,
                    "spec": dict(job.spec), "seed": job.seed,
                    "ttl": self.lease_ttl,
                }
                if job.deadline:
                    payload["deadline"] = float(job.deadline)
                return payload
            return None

    def heartbeat(self, worker: str, tid: str, now: float) -> bool:
        """Extend ``worker``'s lease on ``tid``; False if it is not the holder."""
        with self._lock:
            task = self._tasks.get(tid)
            if task is None or task.worker != worker:
                return False
            self.log.append("heartbeat", worker, tid, ttl=self.lease_ttl)
            task.expires = now + self.lease_ttl
            self.stats["heartbeats"] += 1
            return True

    def record(self, worker: str, tid: str, record: Dict, outcome: Outcome) -> bool:
        """Record a worker's outcome; False for a stale (unneeded) one.

        ``record`` is the task's ``key``/``target``/``spec``, already
        checked against each other.
        """
        ok = outcome[0]
        with self._lock:
            task = self._tasks.get(tid)
            if (task is None and not ok) or (
                task is not None and task.outcome is not None
            ):
                return False
            if ok:
                self.cache.put(record["key"], {
                    "target": record["target"], "spec": record["spec"],
                    "result": outcome[1], "elapsed": outcome[3],
                })
            chaos.fire("queue.result", task=tid, worker=worker)
            self.log.append("done", worker, tid)
            self.stats["results"] += 1
            if task is None:
                self._inherited.pop(tid, None)
                return False
            self._complete(tid, task, outcome)
            return True

    # -- synchronous protocol core --------------------------------------

    def handle_message(self, message: Dict) -> Dict:
        """Dispatch one request to its op handler; never raises."""
        op = message.get("op")
        try:
            if op == "status":
                return self._status()
            if op not in ("hello", "lease", "heartbeat", "result"):
                return {"ok": False, "error": "unknown op %r" % (op,)}
            worker = message.get("worker")
            if not valid_worker_id(worker):
                raise ProtocolError("invalid worker id %r" % (worker,))
            self._workers.add(worker)
            if op == "hello":
                version = message.get("version")
                if version != PROTOCOL_VERSION:
                    return {
                        "ok": False,
                        "error": "protocol version %r != server's %d"
                        % (version, PROTOCOL_VERSION),
                    }
                return {"ok": True, "server": "repro.dse", "version": PROTOCOL_VERSION}
            if op == "lease":
                if self.stopping:
                    return {"ok": True, "op": "stop"}
                task = self.lease(worker, time.time())
                if task is None:
                    return {"ok": True, "op": "idle"}
                return {"ok": True, "op": "task", "task": task}
            tid = message.get("task")
            if not isinstance(tid, str) or not tid:
                raise ProtocolError("%s without a task id" % op)
            if op == "heartbeat":
                self.heartbeat(worker, tid, time.time())
                return {"ok": True}
            return self._result(worker, tid, message)
        except ProtocolError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # a bad request must not kill the server
            return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}

    def _result(self, worker: str, tid: str, message: Dict) -> Dict:
        outcome = message.get("outcome")
        if not isinstance(outcome, (list, tuple)) or len(outcome) != 4:
            raise ProtocolError("outcome must be [ok, result, error, elapsed]")
        key, target, spec = (message.get(f) for f in ("key", "target", "spec"))
        if not (isinstance(key, str) and isinstance(target, str)
                and isinstance(spec, dict)):
            raise ProtocolError("result without the task's key/target/spec")
        if content_key(target, spec) != key or tid.rpartition("-")[0] != key:
            raise ProtocolError("result key %r does not match its task" % (key,))
        ok, result, error, elapsed = outcome
        accepted = self.record(
            worker, tid, {"key": key, "target": target, "spec": spec},
            (bool(ok), result, error, float(elapsed)),
        )
        return {"ok": True} if accepted else {"ok": True, "stale": True}

    def _status(self) -> Dict:
        now = time.time()
        with self._lock:
            tasks = list(self._tasks.values())
        pending = [task for task in tasks if task.outcome is None]
        leased = [t for t in pending if t.worker is not None and now < t.expires]
        return {
            "ok": True, "pending": len(pending), "leased": len(leased),
            "results": len(tasks) - len(pending),
            "workers": len(self._workers), "stopping": self.stopping,
        }

    # -- asyncio plumbing ------------------------------------------------

    @property
    def connection_count(self) -> int:
        return len(self._writers)

    def _connected(self, reader, writer) -> None:
        """``start_server``'s callback: the connection's handler task.

        A plain callback, so that the task is this server's own.  For a
        coroutine callback, Python 3.11's stream protocol adds a done
        callback that calls ``exception()`` on the task and logs the
        ``CancelledError`` of every handler :class:`ServerThread`
        cancels at shutdown.
        """
        task = asyncio.get_running_loop().create_task(
            self._handle_client(reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

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
                    chaos.fire("server.message", path=self.campaign_dir)
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
            self._connected,
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
        """Hard-drop every live connection."""
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
            # As asyncio.run does.  A connection accepted just before the
            # stop leaves a handler task that never ran, and an aborted
            # one a handler still unwinding: cancel and await them, or
            # closing the loop destroys them pending.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)


class NetworkExecutor(Executor):
    """Run a campaign's points on workers leasing them from a server.

    ``imap`` registers each job with an embedded :class:`CampaignServer`
    and yields outcomes as workers report them — it never evaluates
    anything itself.  Workers connect over TCP from any host
    (``python -m repro.dse worker --connect host:port``) or are
    spawned locally with ``spawn_workers=N``.

    Args:
        campaign_dir: Campaign directory (cache and lease logs).
        spawn_workers: Launch this many local worker subprocesses on
            first use (0 = workers are managed externally).  Workers
            that exited cleanly (idle timeout) are relaunched while
            tasks are pending; a nonzero exit of every spawned worker
            fails the run.
        lease_ttl: Seconds a lease lives without a heartbeat.
        poll: Idle lease-poll interval of spawned workers.
        timeout: Raise :class:`WorkerStalled` after this many seconds
            without a single new result (None = wait forever).
        spawn_idle_timeout: ``--idle-timeout`` handed to spawned
            workers, so a coordinator that dies without ``close()``
            (SIGKILL, OOM) leaves no orphans polling forever.  Must
            exceed any legitimate idle gap inside one campaign (retry
            backoffs, surrogate scoring between rounds).
        host / port: Server bind address (port 0 = ephemeral; see
            :attr:`address`).
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
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        self.spawn_workers = int(spawn_workers)
        self.poll = float(poll)
        self.timeout = timeout
        self.spawn_idle_timeout = spawn_idle_timeout
        self.procs: List[subprocess.Popen] = []
        self._closed = False
        self._last_spawn: Optional[float] = None
        self.server = CampaignServer(
            campaign_dir, host=host, port=port, lease_ttl=lease_ttl
        )
        self.server_thread = ServerThread(self.server).start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return (self.server.host, self.server.port)

    @property
    def persist_root(self) -> str:
        """Cache root the server writes ``ok`` results to before
        :meth:`imap` yields them (a runner there skips its write-back)."""
        return self.server.cache.root

    def _spawn_command(self) -> List[str]:
        """The worker command line spawned locally (also the cheat
        sheet for starting one by hand on another host).  Its idle and
        reconnect timeouts are orphan insurance: if this coordinator
        dies without close(), the workers wind down on their own."""
        return worker_command(
            self.address, max(self.poll, 0.01), self.spawn_idle_timeout
        )

    def _spawn(self) -> None:
        """Top the local worker fleet back up to ``spawn_workers``.

        Rate-limited to one relaunch round per second so a worker that
        exits immediately cannot be respawned in a tight loop.
        """
        if not self.spawn_workers:
            return
        self.procs = [proc for proc in self.procs if proc.poll() is None]
        missing = self.spawn_workers - len(self.procs)
        now = time.monotonic()
        if missing <= 0 or (
            self._last_spawn is not None and now - self._last_spawn < 1.0
        ):
            return
        self._last_spawn = now
        cmd = self._spawn_command()
        self.procs.extend(spawn_worker(cmd) for _ in range(missing))

    def imap(self, jobs: Sequence[Job]) -> Iterator[Tuple[Job, Outcome]]:
        jobs = list(jobs)
        if not jobs:
            return
        if self._closed:
            raise RuntimeError("executor is closed")
        batch = self.server.submit(jobs)
        self._spawn()
        pending = set(batch)
        last_progress = time.monotonic()
        while pending:
            try:
                tid = self.server.completed.get(timeout=_TICK)
            except queue.Empty:
                tid = None
            if tid in pending:
                outcome = self.server.take(tid)
                if outcome is not None:
                    pending.discard(tid)
                    last_progress = time.monotonic()
                    yield batch[tid], outcome
                    continue
            if self.timeout is not None and (
                time.monotonic() - last_progress > self.timeout
            ):
                raise WorkerStalled(
                    "no result for %.1f s; %d task(s) still pending "
                    "(are any workers connected to %s:%d?)"
                    % ((self.timeout, len(pending)) + self.address)
                )
            if self.spawn_workers and not any(
                proc.poll() is None for proc in self.procs
            ):
                # No spawned worker left alive: fail fast on a crash;
                # relaunch after clean (idle-timeout) exits, since
                # workers on other hosts may still hold the leases.
                if any(proc.returncode != 0 for proc in self.procs):
                    raise WorkerStalled(
                        "spawned worker(s) failed (exit codes %s) with "
                        "%d task(s) pending"
                        % ([proc.returncode for proc in self.procs],
                           len(pending))
                    )
                self._spawn()

    def close(self) -> None:
        """Tell the workers to stop, reap spawned ones, stop the server."""
        if self._closed:
            return
        self._closed = True
        # Flip lease replies to ``stop`` and give connected workers a
        # moment to see it, so they exit via the protocol rather than
        # by their reconnect timeout once the server is gone.
        self.server.stopping = True
        deadline = time.monotonic() + 5.0
        while self.server.connection_count and time.monotonic() < deadline:
            time.sleep(0.02)
        try:
            reap_workers(self.procs)
        finally:
            self.server_thread.stop()
