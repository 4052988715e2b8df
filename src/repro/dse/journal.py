"""Append-only JSONL event log with snapshot compaction.

The persistence layer under :class:`~repro.dse.checkpoint.CampaignState`.
A journal is a plain-text file holding one JSON object per line — one
*event* per completed/retried point — plus an optional sidecar snapshot
(``<journal>.snapshot``) produced by compaction.  An annotated excerpt::

    {"event": "begin", "version": 2, "campaign_key": "3f2a...", ...}
    {"event": "started", "key": "9bd1...", "t": 1753862400.1}
    {"event": "done", "key": "9bd1...", "elapsed": 3.2, "attempts": 1, ...}
    {"event": "retry", "key": "77c0...", "attempt": 1, "backoff": 0.5, ...}
    {"event": "failed", "key": "77c0...", "error": "...", "attempts": 3, ...}
    {"event": "quarantine", "key": "77c0...", "attempts": 3, "t": ...}

* ``begin`` — always the first line; names the campaign (signature
  hash), schema version, planned total and metadata.
* ``started`` — a point was submitted for evaluation (crash forensics:
  a ``started`` without a matching completion was in flight).
* ``done`` / ``failed`` — terminal completion of a point; ``attempts``
  counts evaluator invocations including retries.
* ``cached`` — a completion served from the result cache that had no
  journal entry yet (pre-warmed caches).
* ``retry`` — invocation ``attempt`` failed and the point will re-run
  with a reseeded RNG after ``backoff`` seconds.
* ``quarantine`` / ``release`` — the point exhausted its retry budget
  (flaky), or an operator re-released it (``python -m repro.dse retry``).
* ``total`` — surrogate and ladder campaigns grow the planned point count.

Three properties make this safe to write from a long campaign:

* **O(1) appends** — one line per event, never a rewrite of history
  (the legacy format re-dumped the whole journal per point: O(n^2)).
* **Crash tolerance** — a kill mid-append leaves at most one torn final
  line; :func:`read_events` drops it and every fully-written event
  before it survives.  Every event is a last-writer-wins state
  transition, so replaying a journal over a snapshot that already
  includes a prefix of it is idempotent.
* **Bounded replay** — once the log exceeds ``compact_threshold``
  lines, and its tail has grown to ``COMPACT_TAIL_SHARE`` of the
  snapshot's size in bytes, :meth:`JsonlJournal.compact` folds it into
  an atomic snapshot plus a fresh one-line tail.  Resume replays at
  most that share of the history line by line, and the snapshot
  rewrites, each at most ``1 / COMPACT_TAIL_SHARE`` times the bytes
  appended since the last, cost O(1) per event however long the
  campaign runs.

Appends are flushed to the OS per event and ``fsync``-batched (every
``fsync_every`` events, plus on compaction and close) so a power loss
costs at most one fsync window of events — a kill of the process costs
at most the torn final line.
"""

import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.dse import chaos

#: JSONL journal schema version (the legacy atomic-JSON format was 1).
JOURNAL_VERSION = 2

#: A compaction waits until the tail holds at least this share of the
#: snapshot's bytes, so each snapshot rewrite is paid for by the events
#: appended since the last one.  A rewrite per fixed number of lines
#: made a 10^5-point journal (one ``started`` + one ``done`` line per
#: point) 2.8x slower to write than with compaction off.
COMPACT_TAIL_SHARE = 0.25

#: Events a journal line may carry (see the module docstring).
EVENT_KINDS = (
    "begin", "started", "done", "failed", "cached",
    "retry", "quarantine", "release", "total",
)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file is removed in a ``finally`` if it still exists,
    so an error mid-write never litters the directory.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    chaos.fire("journal.atomic", path=path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + rename)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def encode_event(event: Dict) -> str:
    """One journal line (newline-terminated) for an event dict."""
    line = json.dumps(event, separators=(",", ":"), allow_nan=False)
    if "\n" in line:  # json.dumps never emits raw newlines, but be safe
        raise ValueError("journal events must serialise to one line")
    return line + "\n"


def read_events(path: str) -> Tuple[List[Dict], int]:
    """Parse a JSONL journal, tolerating a torn final line.

    Returns:
        ``(events, torn_bytes)`` — every fully-written event in file
        order, and the byte length of a torn (unparseable, typically
        unterminated) final line that was dropped, 0 if none.

    Raises:
        FileNotFoundError: No journal at ``path``.
        ValueError: A *non-final* line is unparseable, or the first
            line is not a ``begin`` event — that is corruption, not a
            torn append, and silently dropping interior history would
            fake completions away.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    events: List[Dict] = []
    lines = raw.split(b"\n")
    # A trailing newline yields one empty final chunk; real content in
    # the final chunk means the last append had no terminator.
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8", errors="replace"))
            if not isinstance(event, dict) or "event" not in event:
                raise ValueError("not an event object")
        except ValueError:
            if position == len(lines) - 1:
                return events, len(line)  # torn final append: drop it
            raise ValueError(
                "corrupt campaign journal: %s (unparseable line %d)"
                % (path, position + 1)
            )
        events.append(event)
    if events and events[0].get("event") != "begin":
        raise ValueError(
            "corrupt campaign journal: %s (first event is %r, not 'begin')"
            % (path, events[0].get("event"))
        )
    return events, 0


def snapshot_path(path: str) -> str:
    """The sidecar snapshot file for a journal at ``path``."""
    return str(path) + ".snapshot"


class JsonlJournal:
    """Append-only JSONL file with fsync batching and compaction.

    Pure mechanics — line encoding, torn-tail truncation, fsync
    cadence, atomic snapshot+tail rewrite.  What the events *mean* is
    the business of :class:`~repro.dse.checkpoint.CampaignState`, which
    also supplies the snapshot payload at compaction time.

    Args:
        path: Journal file path.
        fsync_every: Batch ``fsync`` once per this many appends (1 =
            sync every event; appends are always flushed to the OS).
        compact_threshold: :attr:`wants_compaction` turns true once
            this many lines accumulate and the tail has reached
            ``COMPACT_TAIL_SHARE`` of the snapshot's bytes (0 disables).
    """

    def __init__(
        self,
        path: str,
        fsync_every: int = 32,
        compact_threshold: int = 4096,
    ):
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        self.compact_threshold = int(compact_threshold)
        self._handle = None
        self._unsynced = 0
        self.lines = 0  # lines in the file (maintained by callers on load)
        self.tail_bytes = 0  # bytes in the file (likewise)
        self.snapshot_bytes = 0  # bytes in the snapshot, 0 if none

    # -- appending ------------------------------------------------------

    def _open_for_append(self):
        """Open the file for appending, repairing any torn tail first.

        A previous crash may have left a final line without its
        terminator; appending after it would corrupt the *next* event.
        An unparseable torn tail is cut; a complete-but-unterminated
        final event (only its newline was lost) keeps its data and gets
        the terminator restored.
        """
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(self.path) and os.path.getsize(self.path):
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                terminated = handle.read(1) == b"\n"
            if not terminated:
                _, torn = read_events(self.path)
                with open(self.path, "ab") as handle:
                    if torn:
                        handle.truncate(os.path.getsize(self.path) - torn)
                    else:
                        handle.write(b"\n")
        return open(self.path, "a", encoding="utf-8")

    def append(self, event: Dict) -> None:
        """Write one event line; flush always, fsync on the batch cadence.

        Chaos hook sites: ``journal.append`` fires *before* the line is
        written (an ENOSPC there leaves the file untouched — a clean,
        resumable error, never a corrupt journal); ``journal.appended``
        fires after the flush (a torn fault there tears exactly the
        flushed tail, the state a power cut mid-append leaves).
        """
        chaos.fire("journal.append", path=self.path)
        if self._handle is None:
            self._handle = self._open_for_append()
        line = encode_event(event)
        self._handle.write(line)
        self._handle.flush()
        chaos.fire("journal.appended", path=self.path)
        self.lines += 1
        self.tail_bytes += len(line)
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Force buffered events to stable storage."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Sync and release the file handle (reopened lazily on append)."""
        if self._handle is not None:
            try:
                self.sync()
            finally:
                self._handle.close()
                self._handle = None

    # -- rewriting ------------------------------------------------------

    @property
    def wants_compaction(self) -> bool:
        return (
            bool(self.compact_threshold)
            and self.lines >= self.compact_threshold
            and self.tail_bytes >= COMPACT_TAIL_SHARE * self.snapshot_bytes
        )

    def compact(self, begin_event: Dict, snapshot: Dict) -> None:
        """Fold the log into ``<path>.snapshot`` + a one-line tail.

        The snapshot lands first (atomically), then the journal is
        atomically replaced by just the ``begin`` line.  A crash
        between the two leaves snapshot *and* full log — replay is
        idempotent, so loading that state is still exact.  The snapshot
        is serialised before any file is opened, so an unserialisable
        one raises without touching disk.
        """
        text = json.dumps(snapshot)
        atomic_write_text(snapshot_path(self.path), text)
        self.snapshot_bytes = len(text)
        self.close()
        self._rewrite(begin_event)

    def reset(self, begin_event: Dict) -> None:
        """Start a fresh journal: drop any snapshot, write the begin line."""
        self.close()
        try:
            os.unlink(snapshot_path(self.path))
        except OSError:
            pass
        self.snapshot_bytes = 0
        self._rewrite(begin_event)

    def _rewrite(self, begin_event: Dict) -> None:
        """Replace the journal by its ``begin`` line alone."""
        line = encode_event(begin_event)
        atomic_write_text(self.path, line)
        self.lines, self.tail_bytes = 1, len(line)

    def load_snapshot(self) -> Optional[Dict]:
        """Parse the sidecar snapshot; None if absent or unparseable.

        An unparseable snapshot is ignored rather than fatal: the
        journal rewrite only happens *after* a successful snapshot
        write, so a corrupt snapshot implies the full log still exists.
        """
        try:
            with open(snapshot_path(self.path)) as handle:
                text = handle.read()
            payload = json.loads(text)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        self.snapshot_bytes = len(text)
        return payload
