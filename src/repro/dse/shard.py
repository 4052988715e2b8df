"""Crash-safe merge of cache directories.

Scaling a campaign across processes and hosts turns the
:class:`~repro.dse.cache.ResultCache` into a *multi-writer* store.  Two
properties make that safe without any locking:

* **per-record atomic renames** — every record lands via write-to-tmp +
  ``os.replace``, so a reader sees the old record or the new one, never
  a torn mix;
* **content-hash keys** — two writers racing on the same key are
  writing byte-identical records, so last-writer-wins is *identical*:
  the collision is unobservable.

On top of that, :func:`merge_caches` folds any number of cache
directories (workers that could not reach the campaign's own cache)
into one: each record copies atomically, a crash mid-merge leaves a
valid partial store, and re-running converges (records already present
and parseable are skipped).
"""

import json
import os
from typing import Dict, Iterable, Iterator, Tuple

from repro.dse.cache import ResultCache
from repro.dse.journal import atomic_write_bytes


def iter_records(root: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(key, path)`` for every record file under a cache root.

    Walks any layout (flat, two-level fan-out, nested directories);
    ``*.tmp`` droppings and ``*.corrupt`` quarantine files are skipped.
    """
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".json"):
                yield name[: -len(".json")], os.path.join(dirpath, name)


def merge_caches(dest, sources: Iterable) -> Dict[str, int]:
    """Merge cache directories into one store, crash-safely.

    Every source record is copied byte-for-byte into the destination's
    slot for its key via an atomic rename, so:

    * a crash mid-merge leaves a valid store holding a prefix of the
      records — re-running the merge completes it (idempotent);
    * merging directories that were written *concurrently* (several
      workers, several hosts) is safe: colliding keys carry identical
      content, so any write order converges to the same store;
    * corrupt source records are skipped (and counted), never copied.

    Args:
        dest: A :class:`ResultCache`, or a path string (treated as a
            ``ResultCache`` root).
        sources: Cache objects or root paths to drain records from.

    Returns:
        ``{"merged": n, "skipped": n, "corrupt": n}`` — records copied,
        records already present (and parseable) in the destination, and
        unparseable source records left behind.
    """
    if isinstance(dest, (str, os.PathLike)):
        dest = ResultCache(str(dest))
    counts = {"merged": 0, "skipped": 0, "corrupt": 0}
    for source in sources:
        root = source if isinstance(source, (str, os.PathLike)) else source.root
        root = str(root)
        if not os.path.isdir(root):
            continue
        for key, path in iter_records(root):
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
                json.loads(raw.decode("utf-8"))
            except (OSError, ValueError):
                counts["corrupt"] += 1
                continue
            target = dest.path_for(key)
            if os.path.abspath(target) == os.path.abspath(path):
                counts["skipped"] += 1
                continue
            if _parseable(target):
                counts["skipped"] += 1  # idempotent fast path
                continue
            atomic_write_bytes(target, raw)
            counts["merged"] += 1
    return counts


def _parseable(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            json.loads(handle.read().decode("utf-8"))
        return True
    except (OSError, ValueError):
        return False
