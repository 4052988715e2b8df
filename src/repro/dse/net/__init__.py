"""Campaign-as-a-service: lease server, network workers, supervisor.

The one distributed executor.  A campaign server (`server.py`) owns
the campaign's lease state in memory and serves leases over
line-delimited JSON on TCP; network worker clients (`worker.py`)
lease, evaluate and stream results back from hosts with no shared
mount; a supervisor (`supervisor.py`) keeps a local fleet of worker
processes alive and sized to the queue depth.

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
from repro.dse.net.supervisor import Supervisor, probe_status
from repro.dse.net.worker import run_network_worker

__all__ = [
    "CampaignServer",
    "Connection",
    "NetworkExecutor",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "ServerThread",
    "Supervisor",
    "WorkerStalled",
    "parse_connect",
    "probe_status",
    "run_network_worker",
]
