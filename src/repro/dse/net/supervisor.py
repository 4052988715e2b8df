"""The worker fleet supervisor: spawn, respawn, autoscale.

Polls the campaign server's ``status`` op and keeps a fleet of local
``worker --connect`` subprocesses sized to the queue:

    target = clamp(pending, min_workers, max_workers)

where ``pending`` counts unfinished tasks (leased or not) — a queue
with 3 points left should not hold 16 idle workers, and an empty poll
drops back to ``min_workers`` so the fleet is warm for the next batch.
A worker that died (crash, OOM, operator SIGKILL) is detected by
``poll()`` and replaced on the next tick; scale-down terminates the
newest workers first (their expired leases are reclaimed by the
survivors).  When the server reports ``stopping`` — or stops answering
for ``grace`` consecutive ticks after having been reachable — the
supervisor winds the fleet down and exits.
"""

import logging
import subprocess
import time
from typing import Callable, Dict, Optional, Tuple, Union

from repro.dse.net.protocol import Connection, ProtocolError, parse_connect
from repro.dse.net.worker import spawn_worker, worker_command

logger = logging.getLogger(__name__)


def probe_status(
    connect: Union[str, Tuple[str, int]], timeout: float = 5.0
) -> Dict:
    """One ``status`` round-trip on a fresh connection.

    Raises ``OSError``/:class:`ProtocolError` when the server is
    unreachable or answers garbage — the caller decides how many
    misses to forgive.
    """
    host, port = parse_connect(connect)
    conn = Connection(host, port, timeout=timeout)
    conn.connect()
    try:
        reply = conn.request({"op": "status"})
    finally:
        conn.close()
    if not reply.get("ok"):
        raise ProtocolError(str(reply.get("error")))
    return reply


class Supervisor:
    """Keep a local fleet of network workers alive and right-sized.

    ``spawn`` and ``probe`` are injectable so the scaling policy is
    unit-testable with fakes; one :meth:`step` is one supervision tick
    (prune dead, probe, resize), and :meth:`run` loops steps at
    ``interval`` until the campaign ends or the server disappears.
    """

    def __init__(
        self,
        connect: Union[str, Tuple[str, int]],
        min_workers: int = 1,
        max_workers: int = 4,
        interval: float = 1.0,
        worker_poll: float = 0.5,
        grace: int = 5,
        spawn: Optional[Callable[[], "subprocess.Popen"]] = None,
        probe: Optional[Callable[[], Dict]] = None,
    ):
        if min_workers < 0:
            raise ValueError("min_workers must be >= 0")
        if max_workers < max(min_workers, 1):
            raise ValueError("max_workers must be >= max(min_workers, 1)")
        self.address = parse_connect(connect)
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.interval = float(interval)
        self.worker_poll = float(worker_poll)
        self.grace = int(grace)
        self._spawn = spawn if spawn is not None else (
            lambda: spawn_worker(worker_command(self.address, self.worker_poll))
        )
        self._probe = (
            probe if probe is not None else lambda: probe_status(self.address)
        )
        self.procs = []
        self.spawned = 0
        self.respawned = 0
        self._misses = 0

    def target_for(self, status: Optional[Dict]) -> int:
        """The fleet size one status observation asks for."""
        if status is None:
            # Server unreachable: keep the current fleet through the
            # grace window (workers may be mid-evaluation and will
            # reconnect on their own), then wind down.
            return len(self.procs) if self._misses < self.grace else 0
        if status.get("stopping"):
            return 0
        return max(self.min_workers, min(self.max_workers,
                                         int(status.get("pending", 0))))

    def step(self) -> Dict:
        """One supervision tick; returns what happened for logging."""
        alive = [proc for proc in self.procs if proc.poll() is None]
        died = len(self.procs) - len(alive)
        self.procs = alive
        try:
            status = self._probe()
            self._misses = 0
        except (OSError, ProtocolError):
            self._misses += 1
            status = None
        target = self.target_for(status)
        started = 0
        while len(self.procs) < target:
            self.procs.append(self._spawn())
            self.spawned += 1
            started += 1
        stopped = 0
        while len(self.procs) > target:
            proc = self.procs.pop()
            proc.terminate()
            stopped += 1
        if died and started:
            self.respawned += min(died, started)
        return {
            "alive": len(self.procs),
            "started": started,
            "stopped": stopped,
            "died": died,
            "server": status is not None,
            "pending": None if status is None else status.get("pending"),
            "stopping": bool(status and status.get("stopping")),
        }

    def run(self, log: Optional[Callable[[str], None]] = None) -> int:
        """Supervise until the campaign stops or the server vanishes.

        Returns 0 after a clean campaign wind-down, 1 if the server
        was never reachable (or vanished without saying ``stopping``).
        """
        clean = False
        try:
            while True:
                info = self.step()
                if log is not None and (
                    info["started"] or info["stopped"] or info["died"]
                ):
                    log(
                        "fleet %d (+%d/-%d, %d died), pending=%s"
                        % (
                            info["alive"], info["started"], info["stopped"],
                            info["died"], info["pending"],
                        )
                    )
                if info["stopping"] and not self.procs:
                    clean = True
                    break
                if self._misses >= self.grace and not self.procs:
                    break
                time.sleep(self.interval)
        finally:
            self.shutdown()
        return 0 if clean else 1

    def shutdown(self, timeout: float = 10.0) -> None:
        """Terminate (then kill) whatever is left of the fleet.

        A worker that survives both the terminate grace window and the
        follow-up SIGKILL (unkillable: stuck in uninterruptible I/O, or
        a ptrace-frozen process) is logged with its pid instead of
        silently leaked — an operator must know the host still carries
        it.
        """
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self.procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    logger.warning(
                        "worker pid %d survived terminate and kill during "
                        "supervisor shutdown; leaking it",
                        proc.pid,
                    )
        del self.procs[:]
