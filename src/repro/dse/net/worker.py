"""The network worker client: lease over TCP, evaluate, stream back.

A worker leases one task at a time from the campaign server, evaluates
it through :func:`repro.dse.runner.execute_task` while a background
thread heartbeats the lease (deadline tasks run in the worker's one
:class:`~repro.dse.runner.EvaluationChild`), and reports the outcome
together with the task's ``key``/``target``/``spec`` (protocol v4).
It winds down on the server's ``stop`` reply, ``idle_timeout``,
``once`` or ``max_tasks``.  Every interaction is a request/reply to
the server, so the worker host needs no shared mount.

Disconnect handling: the connection is retried with decorrelated-jitter
exponential backoff (a SIGKILLed server restarted on the same port is
picked up transparently, and a whole fleet that lost it at the same
instant fans its retries out instead of thundering back in lockstep),
and an evaluated-but-unreported outcome survives the reconnect and is
delivered first — an evaluation is minutes of Monte Carlo; a dropped
socket must not discard it.

Local fleets: :func:`keep_fleet` runs ``worker --processes N`` as N
children and respawns only those a signal killed;
:func:`reap_workers` is the one bounded shutdown of every spawned
fleet, this one and :class:`~repro.dse.net.NetworkExecutor`'s.
"""

import logging
import os
import random
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional, Tuple, Union

from repro.dse.net.protocol import (
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    default_worker_id,
    parse_connect,
)
from repro.dse.runner import EvaluationChild, execute_task

logger = logging.getLogger(__name__)


def reconnect_backoff(
    wait: float, base: float, max_backoff: float, rng: "random.Random"
) -> float:
    """Next reconnect delay under decorrelated jitter.

    ``min(max_backoff, uniform(base, wait * 3))``: grows roughly
    exponentially in expectation but never in lockstep — a worker
    fleet that lost its server at the same instant would otherwise
    retry in synchronised waves (a thundering herd on the restarted
    server).  Always returns a value in ``[base, max_backoff]``.
    """
    return min(float(max_backoff), rng.uniform(base, max(base, wait * 3.0)))


def worker_command(
    address: Tuple[str, int], poll: float, idle_timeout: Optional[float] = None
) -> List[str]:
    """The ``python -m repro.dse worker --connect`` command line."""
    cmd = [
        sys.executable, "-m", "repro.dse", "worker",
        "--connect", "%s:%d" % tuple(address), "--poll", str(poll),
    ]
    if idle_timeout is not None:
        cmd += [
            "--idle-timeout", str(idle_timeout),
            "--reconnect-timeout", str(idle_timeout),
        ]
    return cmd


def spawn_worker(cmd: List[str]) -> "subprocess.Popen":
    """Start a local worker process that imports this very checkout."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


def reap_workers(procs: List["subprocess.Popen"], grace: float = 10.0) -> None:
    """Reap spawned workers and empty ``procs``: the one shutdown path.

    Waits up to ``grace`` seconds for them to exit on their own, then
    terminates, then kills the rest (5 s each).  A worker that survives
    the kill (stuck in uninterruptible I/O, or ptrace-frozen) is logged
    with its pid and leaked: an operator must know the host still
    carries it.
    """
    for signal_step, wait in ((None, grace), ("terminate", 5.0), ("kill", 5.0)):
        if signal_step is not None:
            for proc in procs:
                getattr(proc, signal_step)()
        deadline = time.monotonic() + wait
        alive = []
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                alive.append(proc)
        procs[:] = alive
    for proc in procs:
        logger.warning(
            "worker pid %d survived terminate and kill; leaking it", proc.pid
        )
    del procs[:]


def keep_fleet(
    spawn: Callable[[], "subprocess.Popen"], processes: int
) -> Tuple[int, int, int]:
    """Run ``processes`` local workers until none is left.

    The rule reads only each child's exit status.  A child killed by a
    signal (SIGKILL, OOM, segfault: ``returncode < 0``) is respawned, at
    most one relaunch round per second.  A child that exits on its own
    (0 on the server's ``stop`` or its idle timeout, 2 for an
    unreachable server, 1 for a traceback) is not replaced.  Children
    still running when this raises (Ctrl-C) are reaped.

    Returns:
        ``(started, respawned, worst exit code)``.
    """
    procs = [spawn() for _ in range(processes)]
    started, respawned, worst, owed = processes, 0, 0, 0
    last_round = time.monotonic()
    try:
        while procs or owed:
            time.sleep(0.1)
            for proc in [proc for proc in procs if proc.poll() is not None]:
                procs.remove(proc)
                if proc.returncode < 0:
                    owed += 1
                else:
                    worst = max(worst, proc.returncode)
            if owed and time.monotonic() - last_round >= 1.0:
                last_round = time.monotonic()
                procs.extend(spawn() for _ in range(owed))
                started += owed
                respawned += owed
                owed = 0
    finally:
        reap_workers(procs)
    return started, respawned, worst


class _NetHeartbeat:
    """Beat a leased task over the shared connection while evaluating.

    Requests are lock-paired on the connection, so beats interleave
    safely with nothing (the main thread is busy evaluating).  A beat
    that fails is swallowed: the main loop notices the dead connection
    when it reports the result, and at worst the lease expires — which
    only risks a benign duplicate evaluation, never a lost one.
    """

    def __init__(self, conn: Connection, worker: str, task: str, ttl: float):
        self._conn = conn
        self._message = {"op": "heartbeat", "worker": worker, "task": task}
        self._ttl = float(ttl)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._ttl / 3.0):
            try:
                self._conn.request(self._message)
            except (OSError, ProtocolError):
                pass

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            logger.warning(
                "network heartbeat thread %r (worker %s, task %s) did "
                "not stop within 5s; leaking it daemonised",
                self._thread.name,
                self._message["worker"],
                self._message["task"],
            )


def run_network_worker(
    connect: Union[str, Tuple[str, int]],
    worker_id: Optional[str] = None,
    poll: float = 0.5,
    idle_timeout: Optional[float] = None,
    once: bool = False,
    max_tasks: Optional[int] = None,
    backoff: float = 0.5,
    max_backoff: float = 30.0,
    reconnect_timeout: Optional[float] = None,
) -> int:
    """One network worker: lease, evaluate, report, repeat.

    Args:
        connect: ``"host:port"`` or an ``(host, port)`` pair.
        worker_id: Stable identity in the server's lease log; default
            ``<hostname>-<pid>``.
        poll: Seconds between lease requests while the server is idle.
        idle_timeout: Exit after this long without work (None = wait
            for the server's ``stop``).
        once: Exit at the first ``idle`` reply.
        max_tasks: Exit after evaluating this many tasks.
        backoff: Initial reconnect delay; doubles per failed attempt up
            to ``max_backoff``.
        reconnect_timeout: Give up after this many seconds of
            *continuous* disconnection (None = retry forever).

    Returns:
        Number of tasks this worker evaluated.

    Raises:
        ValueError: At the first task with a deadline where ``os.fork``
            is missing (see :data:`~repro.dse.runner.NO_FORK_ERROR`).
    """
    host, port = parse_connect(connect)
    worker = worker_id if worker_id is not None else default_worker_id()
    conn = Connection(host, port)
    evaluated = 0
    idle_since = time.monotonic()
    unreported = None  # (task, outcome) held across reconnects
    disconnected_since: Optional[float] = None
    rng = random.Random()  # per-worker stream: jitter must differ per worker
    wait = backoff
    child = EvaluationChild()
    try:
        while True:
            if not conn.connected:
                try:
                    conn.connect()
                    hello = conn.request({
                        "op": "hello",
                        "worker": worker,
                        "version": PROTOCOL_VERSION,
                    })
                    if not hello.get("ok"):
                        # A version/identity rejection is permanent;
                        # retrying would loop forever.
                        raise ProtocolError(str(hello.get("error")))
                except (OSError, ConnectionError) as exc:
                    conn.close()
                    now = time.monotonic()
                    if disconnected_since is None:
                        disconnected_since = now
                    if (
                        reconnect_timeout is not None
                        and now - disconnected_since >= reconnect_timeout
                    ):
                        raise ConnectionError(
                            "no server at %s:%d for %.0f s: %s"
                            % (host, port, reconnect_timeout, exc)
                        )
                    time.sleep(min(wait, max_backoff))
                    wait = reconnect_backoff(wait, backoff, max_backoff, rng)
                    continue
                disconnected_since = None
                wait = backoff
            try:
                if unreported is not None:
                    # A drop mid-delivery keeps the outcome for the next
                    # (re)connection.
                    task, outcome = unreported
                    conn.request({
                        "op": "result",
                        "worker": worker,
                        "task": task["task"],
                        "key": task["key"],
                        "target": task["target"],
                        "spec": task["spec"],
                        "outcome": list(outcome),
                    })
                    unreported = None
                    continue
                if max_tasks is not None and evaluated >= max_tasks:
                    break
                reply = conn.request({"op": "lease", "worker": worker})
            except (OSError, ConnectionError):
                conn.close()
                continue
            if not reply.get("ok"):
                raise ProtocolError(str(reply.get("error")))
            op = reply.get("op")
            if op == "stop":
                break
            if op == "idle":
                if once:
                    break
                if (
                    idle_timeout is not None
                    and time.monotonic() - idle_since > idle_timeout
                ):
                    break
                time.sleep(poll)
                continue
            if op != "task":
                raise ProtocolError("unexpected lease reply op %r" % (op,))
            task = reply["task"]
            idle_since = time.monotonic()
            heartbeat = _NetHeartbeat(
                conn, worker, task["task"], float(task.get("ttl", 30.0))
            )
            try:
                outcome = execute_task(task, child)
            finally:
                heartbeat.stop()
            evaluated += 1
            unreported = (task, outcome)
    finally:
        child.close()
        conn.close()
    return evaluated
