"""Wire protocol of `repro.dse.net`: line-delimited JSON over TCP.

Every message — request or reply — is one JSON object on one
``\\n``-terminated line, UTF-8 encoded.  Requests carry an ``op`` field;
replies carry ``ok`` (and ``error`` when ``ok`` is false).  The
protocol is strictly request/reply on one connection, so a plain
blocking socket client with a lock is a complete implementation.

Ops (see ``CampaignServer.handle_message`` for the authoritative
dispatch):

==========  =========================================  ======================
op          request fields                             reply fields
==========  =========================================  ======================
hello       worker, version                            ok, server, version
lease       worker                                     ok, task {task,key,
                                                       target,spec,seed,ttl}
                                                       | idle | stop
heartbeat   worker, task                               ok
result      worker, task, key, target, spec,           ok [, stale]
            outcome [ok, result, error, elapsed]
status      —                                          ok, pending, leased,
                                                       results, workers,
                                                       stopping
==========  =========================================  ======================

A lease carries exactly one task.  Version 4 added the task's ``key``,
``target`` and ``spec`` to ``result``, so a server that never held the
task (a restarted one) can still cache an ``ok`` outcome once ``key``
matches ``content_key(target, spec)``.
"""

import json
import os
import re
import socket
import threading
from typing import Dict, Optional, Tuple

PROTOCOL_VERSION = 4

#: Hard cap on one message line.  A result payload is one evaluated
#: point's record — megabytes would already be pathological; the cap
#: only exists so a corrupt peer cannot balloon server memory.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Worker ids are written into the server's lease log; restrict them to
#: a filesystem- and protocol-safe charset.
_WORKER_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


class ProtocolError(ValueError):
    """A malformed message, oversized line, or closed-mid-line peer."""


def default_worker_id() -> str:
    """Host- and process-unique worker identity."""
    return "%s-%d" % (socket.gethostname(), os.getpid())


def valid_worker_id(worker) -> bool:
    return isinstance(worker, str) and bool(_WORKER_ID.match(worker))


def encode_message(message: Dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("message exceeds %d bytes" % MAX_LINE_BYTES)
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("malformed message: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError("message is not an object")
    return message


def parse_connect(value) -> Tuple[str, int]:
    """Parse a ``host:port`` endpoint, with one-line errors.

    A ``(host, port)`` pair passes through unchanged.

    Raises:
        ProtocolError: Empty host, missing/non-numeric/out-of-range
            port.  (``[v6::addr]:port`` bracket syntax is accepted.)
    """
    if not isinstance(value, str):
        return tuple(value)
    text = str(value).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or not port_text:
        raise ProtocolError(
            "invalid --connect %r: expected host:port" % (value,)
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            "invalid --connect %r: port %r is not a number" % (value, port_text)
        )
    if not 1 <= port <= 65535:
        raise ProtocolError(
            "invalid --connect %r: port must be in 1..65535" % (value,)
        )
    return host, port


class Connection:
    """Blocking request/reply client for one server connection.

    Request and reply are paired under a lock, so several threads (the
    worker's main loop and its heartbeat thread) can share one
    connection without interleaving frames.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._lock = threading.Lock()

    def connect(self) -> None:
        self.close()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rb")

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def request(self, message: Dict) -> Dict:
        """Send one message, block for its reply.

        Raises:
            ConnectionError: Not connected, or the peer closed before
                replying (a torn reply line counts: a half-received
                reply cannot be acted on).
            ProtocolError: The reply was not a JSON object.
        """
        with self._lock:
            if self._sock is None or self._file is None:
                raise ConnectionError("not connected")
            self._sock.sendall(encode_message(message))
            line = self._file.readline(MAX_LINE_BYTES + 1)
            if not line.endswith(b"\n"):
                raise ConnectionError("server closed the connection")
            return decode_message(line)

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None
