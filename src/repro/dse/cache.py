"""On-disk JSON result store keyed by job content hash.

Re-running an identical design point becomes a file read instead of a
Monte-Carlo campaign — the idiom OpenNVRAM's characterizer uses for its
NVSim/Cadence comparison JSONs, promoted to a first-class store.  One
file per key (two-level fan-out to keep directories small), per-record
atomic writes via rename.

The store is **multi-writer safe without locks**: concurrent ``put``s
of the same key write byte-identical records (keys are content hashes
of the full evaluation spec), so the atomic rename makes collisions
last-writer-wins *identical* — unobservable.  Many campaign processes
on one host, or on hosts mounting one share, may use one cache
directory.  Workers on other hosts never write it: they report to the
campaign server (:mod:`repro.dse.net`), which stores their results
here.

A record that fails to parse (a torn write on an exotic filesystem, a
disk fault, a manual edit) is **quarantined on first contact**: the bad
file is renamed to ``*.corrupt`` so the slot reads as a plain miss, the
next ``put`` repairs it, and the evidence survives for forensics.
"""

import json
import os
import tempfile
from typing import Dict, List, Optional

from repro.dse import chaos


class ResultCache:
    """Directory-backed map from job key to result record.

    Args:
        root: Cache directory (created on first write).

    Attributes:
        hits / misses / writes / corrupt: Session counters (reset per
            instance; lock-free plain integers — cross-process
            consistency comes from the files, not the counters).
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def path_for(self, key: str) -> str:
        """The record file a key lives at (two-level fan-out)."""
        return os.path.join(self.root, key[:2], key + ".json")

    # Historic private spelling, kept for callers/tests that used it.
    _path = path_for

    def _read(self, key: str) -> Optional[Dict]:
        """Parse one record off disk; None if absent or corrupt.

        An unparseable file is quarantined (renamed to ``*.corrupt``)
        so the slot becomes a plain miss that the next ``put`` repairs —
        without this, a torn record would shadow its key forever: every
        lookup would re-parse the same bad bytes and miss.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                return json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
        """Move a corrupt record aside (racing quarantines are benign).

        Re-checks the slot first: between our failed parse and this
        call another writer may have *repaired* the record with a valid
        ``put``, and renaming that away would throw a fresh result out.
        The re-check narrows the window to microseconds; the residual
        race costs at most one redundant (deterministic, content-keyed)
        re-evaluation, never a wrong result.
        """
        try:
            with open(path) as handle:
                json.load(handle)
            return  # concurrently repaired: leave the valid record be
        except OSError:
            return  # concurrently quarantined or purged
        except ValueError:
            pass  # still the corrupt bytes
        try:
            os.replace(path, path + ".corrupt")
            self.corrupt += 1
        except OSError:
            pass  # another process already moved or repaired it

    def get(self, key: str) -> Optional[Dict]:
        """Look one record up; None (and a miss) if absent or corrupt."""
        record = self._read(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Dict) -> None:
        """Store one record atomically (write + rename).

        The ``cache.put`` chaos hook fires before any file is touched,
        so an injected ENOSPC/crash surfaces cleanly: no temp litter,
        no half-written record, the slot still a plain miss.
        """
        chaos.fire("cache.put", path=self.path_for(key), key=key)
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    def __contains__(self, key: str) -> bool:
        """Membership consistent with :meth:`get`.

        A corrupt or truncated file (a crash mid-rename on exotic
        filesystems, manual edits) is *not* a member — ``get`` would
        miss on it, so ``in`` must agree (and the bad file is
        quarantined either way).  Does not touch the hit/miss counters.
        """
        return self._read(key) is not None

    def purge_corrupt(self) -> List[str]:
        """Delete unparseable cache files and quarantined ``*.corrupt``
        leftovers; return the affected keys.

        Lets an operator reclaim a cache after a crash or disk fault
        instead of carrying dead files alongside the live records.
        """
        removed = []
        if not os.path.isdir(self.root):
            return removed
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".corrupt"):
                    try:
                        os.unlink(os.path.join(shard_dir, name))
                    except OSError:
                        continue
                    removed.append(name[: -len(".json.corrupt")])
                    continue
                if not name.endswith(".json"):
                    continue
                key = name[: -len(".json")]
                if self._read(key) is None:
                    # Parse failures were quarantined by _read (drop
                    # the quarantine file); OSError reads (disk fault,
                    # lost permission) left the dead file in place —
                    # delete it directly, as this method always has.
                    gone = False
                    path = os.path.join(shard_dir, name)
                    for victim in (path + ".corrupt", path):
                        try:
                            os.unlink(victim)
                            gone = True
                        except OSError:
                            continue
                    if gone:
                        removed.append(key)
        return removed

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                count += sum(
                    1 for name in os.listdir(shard_dir) if name.endswith(".json")
                )
        return count

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk this session."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Session counters as a JSON-ready dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
            "entries": len(self),
        }
