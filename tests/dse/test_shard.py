"""Tests for crash-safe cache merging."""

import json
import os

from repro.dse import ResultCache, content_key, merge_caches
from repro.dse.shard import iter_records


def _keys(count, salt="shard"):
    return [content_key(salt, {"i": i}) for i in range(count)]


class TestMergeCaches:
    def test_merge_plain_and_sharded_sources(self, tmp_path):
        """A source nested one level deeper (an old per-shard directory
        layout) merges like a plain one: records are found by walking."""
        plain = ResultCache(str(tmp_path / "plain"))
        keys = _keys(12)
        for key in keys[:6]:
            plain.put(key, {"from": "plain"})
        for position, key in enumerate(keys[6:]):
            shard = tmp_path / "sharded" / ("shard-%02x" % (position % 4))
            ResultCache(str(shard)).put(key, {"from": "sharded"})
        dest = ResultCache(str(tmp_path / "dest"))
        counts = merge_caches(dest, [plain, str(tmp_path / "sharded")])
        assert counts == {"merged": 12, "skipped": 0, "corrupt": 0}
        assert len(dest) == 12
        for key in keys:
            assert dest.get(key) is not None

    def test_merge_accepts_paths_and_is_idempotent(self, tmp_path):
        source = ResultCache(str(tmp_path / "src"))
        for key in _keys(5):
            source.put(key, {"v": 1})
        dest_root = str(tmp_path / "dest")
        first = merge_caches(dest_root, [str(tmp_path / "src")])
        second = merge_caches(dest_root, [str(tmp_path / "src")])
        assert first["merged"] == 5
        assert second == {"merged": 0, "skipped": 5, "corrupt": 0}
        assert len(ResultCache(dest_root)) == 5

    def test_merge_skips_corrupt_sources(self, tmp_path):
        source = ResultCache(str(tmp_path / "src"))
        keys = _keys(4)
        for key in keys:
            source.put(key, {"v": 1})
        with open(source.path_for(keys[0]), "w") as handle:
            handle.write("{nope")
        dest = ResultCache(str(tmp_path / "dest"))
        counts = merge_caches(dest, [source])
        assert counts["merged"] == 3 and counts["corrupt"] == 1
        assert keys[0] not in dest

    def test_merge_repairs_corrupt_destination_records(self, tmp_path):
        """Last-writer-wins: a torn destination record is overwritten."""
        source = ResultCache(str(tmp_path / "src"))
        key = _keys(1)[0]
        source.put(key, {"v": "good"})
        dest = ResultCache(str(tmp_path / "dest"))
        dest.put(key, {"v": "doomed"})
        with open(dest.path_for(key), "w") as handle:
            handle.write("{torn")
        counts = merge_caches(dest, [source])
        assert counts["merged"] == 1
        assert dest.get(key) == {"v": "good"}

    def test_missing_source_is_a_noop(self, tmp_path):
        dest = ResultCache(str(tmp_path / "dest"))
        assert merge_caches(dest, [str(tmp_path / "ghost")]) == {
            "merged": 0, "skipped": 0, "corrupt": 0,
        }

    def test_self_merge_is_a_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for key in _keys(3):
            cache.put(key, {"v": 1})
        counts = merge_caches(cache, [cache])
        assert counts["merged"] == 0 and counts["skipped"] == 3
        assert len(cache) == 3

    def test_iter_records_skips_droppings(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = _keys(1)[0]
        cache.put(key, {"v": 1})
        fan_out_dir = os.path.dirname(cache.path_for(key))
        open(os.path.join(fan_out_dir, "stale.tmp"), "w").close()
        open(os.path.join(fan_out_dir, "old.json.corrupt"), "w").close()
        records = list(iter_records(str(tmp_path)))
        assert records == [(key, cache.path_for(key))]
        with open(records[0][1]) as handle:
            assert json.load(handle) == {"v": 1}
