"""Multi-writer cache stress: 8 processes, overlapping keys, torn writes.

Campaign processes sharing one directory rely on the cache being
multi-writer safe with zero locks.  These tests hammer one store from
8 concurrent processes, inject torn writes afterwards, and prove the
two invariants the design promises:

* no reader ever observes a torn or missing record (read-your-writes
  under concurrent replacement);
* membership, ``get`` and the session counters stay mutually
  consistent, with corrupt files quarantined on first contact.
"""

import json
import os
import random

from repro.dse import ResultCache, content_key
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
