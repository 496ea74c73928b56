"""Bloom filter: no false negatives, bounded false positives, wire format."""

import pytest
from hypothesis import given, strategies as st

from repro.kvstore import bloom
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.lsm import LSMStore


class TestConstruction:
    def test_rejects_nonpositive_items(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    @pytest.mark.parametrize("fp", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_bad_fp_rate(self, fp):
        with pytest.raises(ValueError):
            BloomFilter(100, fp)

    def test_sizing_grows_with_items(self):
        assert BloomFilter(10_000).nbits > BloomFilter(100).nbits

    def test_sizing_grows_with_precision(self):
        assert BloomFilter(1000, 0.001).nbits > BloomFilter(1000, 0.1).nbits


class TestMembership:
    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(100)
        assert b"anything" not in bf

    @given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
    def test_no_false_negatives(self, keys):
        bf = BloomFilter(max(len(keys), 1))
        for key in keys:
            bf.add(key)
        assert all(key in bf for key in keys)

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter(5000, fp_rate=0.01)
        for i in range(5000):
            bf.add(f"member-{i}".encode())
        hits = sum(1 for i in range(20_000) if f"absent-{i}".encode() in bf)
        assert hits / 20_000 < 0.03  # 3x headroom over the 1% target

    def test_count_tracks_adds(self):
        bf = BloomFilter(10)
        bf.add(b"a")
        bf.add(b"b")
        assert bf.count == 2


class TestSerialisation:
    def test_roundtrip_preserves_membership(self):
        bf = BloomFilter(500, 0.02)
        keys = [f"key-{i}".encode() for i in range(500)]
        for key in keys:
            bf.add(key)
        restored = BloomFilter.from_bytes(bf.to_bytes())
        assert restored.nbits == bf.nbits
        assert restored.nhashes == bf.nhashes
        assert restored.count == bf.count
        assert all(key in restored for key in keys)

    def test_corrupt_length_detected(self):
        blob = BloomFilter(100).to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob + b"\x00\x00")


class TestOneHashPerOperation:
    """A store hashes a key once per operation and probes every run's
    filter with the two base hashes (count: ``fnv1a_64`` runs)."""

    @pytest.fixture
    def four_runs(self):
        store = LSMStore(compaction_fanout=4)
        for run in range(4):
            for i in range(50):
                store.put(b"/run%d/f%03d" % (run, i), b"v")
            store.flush()
        assert store.num_runs == 4
        yield store
        store.close()

    @pytest.fixture
    def hash_runs(self, monkeypatch):
        calls = []
        real = bloom.fnv1a_64

        def counted(data, *args, **kwargs):
            calls.append(data)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(bloom, "fnv1a_64", counted)
        return calls

    def _rejected_by_every_run(self, store):
        for i in range(1000):
            key = b"/missing/%d" % i
            if all(key not in table.bloom for table in store._tables):
                return key
        raise AssertionError("no key every filter rejects")

    def test_a_get_miss_hashes_once(self, four_runs, hash_runs):
        key = self._rejected_by_every_run(four_runs)
        hash_runs.clear()
        assert four_runs.get(key) is None
        assert len(hash_runs) == 2  # was 2 per run: 8
        assert four_runs.stats.bloom_negative == 4

    def test_a_hit_in_the_oldest_run_hashes_once(self, four_runs, hash_runs):
        assert four_runs.get(b"/run0/f007") == b"v"
        assert len(hash_runs) == 2

    def test_a_delete_and_a_merge_hash_once(self, four_runs, hash_runs):
        four_runs.delete(b"/run1/f003")
        assert len(hash_runs) == 2
        hash_runs.clear()
        four_runs.merge(b"/run2/f004", lambda old: old + b"!")
        assert len(hash_runs) == 2

    def test_a_memtable_hit_hashes_nothing(self, four_runs, hash_runs):
        four_runs.put(b"/fresh", b"v")
        assert four_runs.get(b"/fresh") == b"v"
        assert hash_runs == []
