"""Campaign-as-a-service: lease server and network workers.

The one distributed executor.  A campaign server (`server.py`) owns
the campaign's lease state in memory and serves leases over
line-delimited JSON on TCP; network worker clients (`worker.py`)
lease, evaluate and stream results back from hosts with no shared
mount.  ``worker --processes N`` keeps a fixed local fleet of them,
respawning a child only when a signal killed it.

Durability rests on the campaign cache and journal, not on the server:
``ok`` results are cached before they are counted, so a SIGKILLed
server's campaign resumes with zero re-evaluation, and a worker that
outlived it redelivers its outcome to the resumed server.
"""

from repro.dse.net.protocol import (
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    parse_connect,
)
from repro.dse.net.server import (
    CampaignServer,
    NetworkExecutor,
    ServerThread,
    WorkerStalled,
)
from repro.dse.net.worker import run_network_worker

__all__ = [
    "CampaignServer",
    "Connection",
    "NetworkExecutor",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "ServerThread",
    "WorkerStalled",
    "parse_connect",
    "run_network_worker",
]
