"""Multi-writer cache stress: 8 processes, overlapping keys, torn writes.

The multi-host claim of the worker-pull executor rests on the cache
being multi-writer safe with zero locks.  These tests hammer one store
from 8 concurrent processes, inject torn writes
afterwards, and prove the three invariants the design promises:

* no reader ever observes a torn or missing record (read-your-writes
  under concurrent replacement);
* membership, ``get`` and the session counters stay mutually
  consistent, with corrupt files quarantined on first contact;
* merging cache directories that were written concurrently is
  idempotent and converges to the union.
"""

import json
import os
import random

from repro.dse import ResultCache, content_key, merge_caches
from test_utils import spawn_hammers, torn_write

KEYS = [content_key("stress", {"i": i}) for i in range(32)]


def _assert_store_sane(cache, keys):
    """get/contains/counters agree for every key; no unparseable member."""
    present = 0
    for key in keys:
        record = cache.get(key)
        member = key in cache
        assert member == (record is not None)
        if record is not None:
            present += 1
            assert record["key"] == key
    assert cache.hits == present
    assert cache.misses == len(keys) - present
    return present


class TestConcurrentWriters:
    def test_eight_processes_one_plain_cache(self, tmp_path):
        root = str(tmp_path / "plain")
        exitcodes = spawn_hammers(root, KEYS, processes=8, rounds=8)
        assert exitcodes == [0] * 8  # no hammer saw a torn/missing read
        cache = ResultCache(root)
        assert _assert_store_sane(cache, KEYS) == len(KEYS)
        # Every surviving record is one whole, parseable JSON document.
        for key in KEYS:
            with open(cache.path_for(key)) as handle:
                assert json.load(handle)["key"] == key

    def test_torn_writes_quarantined_after_the_stampede(self, tmp_path):
        """Records torn post-hoc read as misses, exactly once, forever."""
        root = str(tmp_path / "torn")
        assert spawn_hammers(root, KEYS, processes=4, rounds=4) == [0] * 4
        cache = ResultCache(root)
        rng = random.Random(2018)
        torn_keys = sorted(rng.sample(KEYS, 8))
        for key in torn_keys:
            path = cache.path_for(key)
            torn_write(path, rng.randrange(1, os.path.getsize(path)))
        present = _assert_store_sane(cache, KEYS)
        assert present == len(KEYS) - len(torn_keys)
        assert cache.corrupt == len(torn_keys)
        # Quarantine means the bad bytes moved aside: a re-read is a
        # plain miss (no re-parse), and a re-put repairs the slot.
        for key in torn_keys:
            assert os.path.exists(cache.path_for(key) + ".corrupt")
            assert not os.path.exists(cache.path_for(key))
            cache.put(key, {"key": key, "repaired": True})
            assert cache.get(key)["repaired"] is True

    def test_concurrent_shard_merge_is_idempotent(self, tmp_path):
        """Caches written by racing processes merge to one clean union."""
        roots = [str(tmp_path / ("worker-%d" % i)) for i in range(2)]
        # Overlapping key sets: both worker dirs hold half the keys in
        # common, simulating two workers that both evaluated them.
        assert spawn_hammers(roots[0], KEYS[:24], processes=4, rounds=4) == [0] * 4
        assert spawn_hammers(roots[1], KEYS[8:], processes=4, rounds=4) == [0] * 4
        dest = ResultCache(str(tmp_path / "merged"))
        first = merge_caches(dest, roots)
        # 24 + 24 source records with 16 keys in common: the union is
        # copied once, the second copy of the overlap skips.
        assert first["merged"] == len(KEYS)
        assert first["skipped"] == 16
        assert first["corrupt"] == 0
        assert len(dest) == len(KEYS)
        again = merge_caches(dest, roots)
        assert again["merged"] == 0
        assert again["skipped"] == 48
        assert len(dest) == len(KEYS)
        for key in KEYS:
            record = dest.get(key)
            assert record is not None and record["key"] == key
