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

from repro._lazy import lazy_exports

#: Each exported name and the submodule that defines it, imported on
#: first access (PEP 562).
_EXPORTS = {
    "CampaignServer": ".server",
    "Connection": ".protocol",
    "NetworkExecutor": ".server",
    "ProtocolError": ".protocol",
    "PROTOCOL_VERSION": ".protocol",
    "ServerThread": ".server",
    "WorkerStalled": ".server",
    "parse_connect": ".protocol",
    "run_network_worker": ".worker",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
