"""Memtable: sorted semantics, tombstones, size accounting."""

from hypothesis import given, strategies as st

from repro.kvstore.memtable import Memtable, TOMBSTONE


class TestBasics:
    def test_get_absent_is_none(self):
        assert Memtable().get(b"missing") is None

    def test_put_then_get(self):
        mt = Memtable()
        mt.put(b"k", b"v")
        assert mt.get(b"k") == b"v"
        assert b"k" in mt

    def test_overwrite_keeps_single_entry(self):
        mt = Memtable()
        mt.put(b"k", b"v1")
        mt.put(b"k", b"v2")
        assert mt.get(b"k") == b"v2"
        assert len(mt) == 1

    def test_delete_records_tombstone(self):
        mt = Memtable()
        mt.put(b"k", b"v")
        mt.delete(b"k")
        assert mt.get(b"k") is TOMBSTONE
        assert len(mt) == 1  # tombstone occupies the slot

    def test_delete_of_absent_key_still_tombstones(self):
        # The key may exist in an older SSTable; the tombstone must shadow it.
        mt = Memtable()
        mt.delete(b"ghost")
        assert mt.get(b"ghost") is TOMBSTONE

    def test_put_after_delete_resurrects(self):
        mt = Memtable()
        mt.put(b"k", b"v")
        mt.delete(b"k")
        mt.put(b"k", b"v2")
        assert mt.get(b"k") == b"v2"


class TestOrderingAndRanges:
    def test_items_sorted(self):
        mt = Memtable()
        for key in [b"c", b"a", b"b"]:
            mt.put(key, b"x")
        assert [k for k, _ in mt.items()] == [b"a", b"b", b"c"]

    def test_range_bounds_half_open(self):
        mt = Memtable()
        for key in [b"a", b"b", b"c", b"d"]:
            mt.put(key, key)
        assert [k for k, _ in mt.range_items(b"b", b"d")] == [b"b", b"c"]

    def test_range_open_ends(self):
        mt = Memtable()
        for key in [b"a", b"b", b"c"]:
            mt.put(key, key)
        assert [k for k, _ in mt.range_items(None, b"b")] == [b"a"]
        assert [k for k, _ in mt.range_items(b"b", None)] == [b"b", b"c"]

    def test_range_includes_tombstones(self):
        mt = Memtable()
        mt.put(b"a", b"x")
        mt.delete(b"b")
        items = dict(mt.range_items())
        assert items[b"b"] is TOMBSTONE

    @given(st.dictionaries(st.binary(min_size=1, max_size=8), st.binary(max_size=8), max_size=50))
    def test_matches_dict_model(self, model):
        mt = Memtable()
        for key, value in model.items():
            mt.put(key, value)
        assert [k for k, _ in mt.items()] == sorted(model)
        for key, value in model.items():
            assert mt.get(key) == value


class TestSizeAccounting:
    def test_grows_with_payload(self):
        mt = Memtable()
        before = mt.approximate_bytes
        mt.put(b"key", b"x" * 100)
        assert mt.approximate_bytes >= before + 103

    def test_overwrite_reflects_new_value_size(self):
        mt = Memtable()
        mt.put(b"k", b"x" * 100)
        big = mt.approximate_bytes
        mt.put(b"k", b"x")
        assert mt.approximate_bytes < big


class TestRemove:
    """``remove`` drops a key outright: no tombstone, no bytes charged."""

    def test_remove_leaves_nothing(self):
        mt = Memtable()
        mt.put(b"a", b"1")
        mt.delete(b"b")
        mt.remove(b"a")
        mt.remove(b"b")
        mt.remove(b"never")
        assert (len(mt), list(mt.items()), mt.approximate_bytes) == (0, [], 0)
        assert mt.get(b"a") is None and b"b" not in mt

    @given(st.lists(st.tuples(st.sampled_from("prd"),
                              st.sampled_from([b"\x10", b"\x50", b"\x50\x01", b"\x90", b"\xd0"])),
                    max_size=200))
    def test_any_mix_matches_dict_model(self, ops):
        """Removed keys may linger in the sorted list; nothing shows them."""
        mt, model = Memtable(), {}
        for op, key in ops:
            if op == "p":
                mt.put(key, key * 2)
                model[key] = key * 2
            elif op == "d":
                mt.delete(key)
                model[key] = TOMBSTONE
            else:
                mt.remove(key)
                model.pop(key, None)
            assert len(mt) == len(model)
        assert list(mt.items()) == sorted(model.items())
        assert mt.tombstones() == sum(v is TOMBSTONE for v in model.values())
        assert mt.approximate_bytes == sum(
            len(k) + (0 if v is TOMBSTONE else len(v)) for k, v in model.items()
        )
        lo, hi = b"\x40", b"\xc0"
        assert list(mt.range_items(lo, hi)) == [
            (k, v) for k, v in sorted(model.items()) if lo <= k < hi
        ]
