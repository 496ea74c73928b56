"""Property-based tests: the LSM store behaves like a sorted dict.

A stateful Hypothesis machine drives random put/delete/flush/compact/
crash-and-recover sequences on a disk-backed store and checks every read
path (point, range, prefix, len) against a plain dict model, and that the
memtable keeps a tombstone only where a run may still hold the key —
including after a close/reopen cycle on disk.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kvstore.lsm import LSMStore
from repro.kvstore.memtable import TOMBSTONE

KEYS = st.binary(min_size=1, max_size=12)
VALUES = st.binary(max_size=32)


class LSMComparedToDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.path = tempfile.mkdtemp(prefix="lsmprop-")
        self.store = self._open()
        self.model: dict[bytes, bytes] = {}

    def _open(self):
        return LSMStore(self.path, memtable_flush_bytes=512, compaction_fanout=3)

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_live(self, data):
        """Delete a key that is there — perhaps in a sealed run."""
        key = data.draw(st.sampled_from(sorted(self.model)))
        self.store.delete(key)
        del self.model[key]

    @rule()
    def flush(self):
        self.store.flush()

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def crash_and_recover(self):
        """Kill the store (no flush, WAL left as is) and replay it."""
        self.store.crash()
        self.store = self._open()

    @rule(key=KEYS)
    def point_read_matches(self, key):
        assert self.store.get(key) == self.model.get(key)

    @invariant()
    def full_scan_matches(self):
        assert list(self.store.range_iter()) == sorted(self.model.items())

    @invariant()
    def length_matches(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def tombstones_only_where_a_run_may_hold_the_key(self):
        tables = self.store._tables
        for key, value in self.store._memtable.items():
            if value is TOMBSTONE:
                assert any(key in table.bloom for table in tables)

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.path, ignore_errors=True)


TestLSMComparedToDict = LSMComparedToDict.TestCase
TestLSMComparedToDict.settings = settings(max_examples=25, stateful_step_count=30)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["put", "delete"]), KEYS, VALUES),
        max_size=120,
    )
)
@settings(max_examples=30)
def test_reopen_preserves_state(tmp_path_factory, ops):
    """Any mutation sequence survives close + recovery identically."""
    path = str(tmp_path_factory.mktemp("lsmprop") / "db")
    model: dict[bytes, bytes] = {}
    with LSMStore(path, memtable_flush_bytes=256) as store:
        for op, key, value in ops:
            if op == "put":
                store.put(key, value)
                model[key] = value
            else:
                store.delete(key)
                model.pop(key, None)
    with LSMStore(path) as reopened:
        assert list(reopened.range_iter()) == sorted(model.items())


@given(
    entries=st.dictionaries(KEYS, VALUES, max_size=60),
    lo=st.one_of(st.none(), KEYS),
    hi=st.one_of(st.none(), KEYS),
)
@settings(max_examples=60)
def test_range_iter_matches_sorted_dict_slice(entries, lo, hi):
    with LSMStore(memtable_flush_bytes=256) as store:
        for key, value in entries.items():
            store.put(key, value)
        expected = sorted(
            (k, v)
            for k, v in entries.items()
            if (lo is None or k >= lo) and (hi is None or k < hi)
        )
        assert list(store.range_iter(lo, hi)) == expected
