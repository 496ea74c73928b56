"""The chunk store's handle table: a chunk the daemon is working on stays open.

What is pinned here is counts and identities, never time: system calls per
operation on a resident chunk (through an ``os`` shim), what a first touch
and an eviction cost, that the table and the process's descriptors are
bounded however many chunks or absent paths go by, that nothing stays open
on an unlinked inode, that a resident handle sees what happens to its file
behind its back, and that ``close()`` / ``shutdown()`` / ``crash()`` /
cluster teardown give every descriptor back.
"""

import gc
import os
import sys
import threading

import pytest

from repro.common.errors import IntegrityError
from repro.core import FSConfig, GekkoFSCluster
from repro.storage import LocalFSChunkStorage, localfs

CHUNK, BLOCK, IO = 64 * 1024, 16 * 1024, 8192
COUNTED = ("open", "close", "fstat", "pread", "pwrite", "ftruncate")


def payload(n, seed=1):
    return bytes((seed * 131 + i * 7) % 251 for i in range(n))


def make(tmp_path, integrity=True, name="store"):
    return LocalFSChunkStorage(
        CHUNK, str(tmp_path / name), integrity=integrity, integrity_block_size=BLOCK
    )


def open_fds(root=None):
    """The process's open descriptors, or only those on files under ``root``
    (a test's own store: the collector may close another test's descriptors
    in between)."""
    if root is None:
        return len(os.listdir("/proc/self/fd"))
    held = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:
            continue  # the listing's own descriptor
        held += target.startswith(f"{root}{os.sep}")
    return held


def fds_on_deleted_files():
    """Chunk files and sidecars still open after their unlink."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:
            continue  # the listing's own descriptor
        if "chunk_" in target and target.endswith("(deleted)"):
            held.append(target)
    return held


def resident(st):
    return sorted((h.path, h.chunk_id) for h in st._recent)


@pytest.fixture
def syscalls(monkeypatch):
    """Calls made through ``os`` by name, and the flags of every ``os.open``.
    Earlier tests' garbage is collected first: a store the collector drops
    closes its descriptors, and those closes are not this test's."""
    gc.collect()
    seen = {name: 0 for name in COUNTED}
    seen["flags"] = []

    def counting(name):
        real = getattr(os, name)

        def call(*args, **kwargs):
            seen[name] += 1
            if name == "open":
                seen["flags"].append((os.path.basename(args[0]), args[1]))
            return real(*args, **kwargs)

        return call

    for name in COUNTED:
        monkeypatch.setattr(os, name, counting(name))

    def reset():
        for name in COUNTED:
            seen[name] = 0
        del seen["flags"][:]

    seen["reset"] = reset
    return seen


def counts(seen):
    return {name: seen[name] for name in COUNTED if seen[name]}


@pytest.fixture
def capacity(monkeypatch):
    def set_to(n):
        monkeypatch.setattr(localfs, "HANDLE_CAPACITY", n)

    return set_to


class TestSyscallsPerOperation:
    def test_resident_chunk_with_integrity(self, tmp_path, syscalls):
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        syscalls["reset"]()
        st.write_chunk("/f", 0, 3 * IO, payload(IO, seed=2))
        # the pre-image of the patched digest block, the payload, the record
        assert counts(syscalls) == {"pread": 1, "pwrite": 2}
        syscalls["reset"]()
        data, _proofs = st.read_chunk_verified("/f", 0, 3 * IO, IO)
        assert data == payload(IO, seed=2)
        assert counts(syscalls) == {"pread": 1}

    @pytest.mark.parametrize("resident", [True, False], ids=["resident", "first-touch"])
    def test_a_verified_read_resolves_its_chunk_once(self, tmp_path, resident):
        make(tmp_path).write_chunk("/f", 0, 0, payload(CHUNK))
        st = make(tmp_path)  # as after a restart: record not loaded yet
        if resident:
            st.read_chunk_verified("/f", 0, 0, IO)
        lookups = []
        real = st._handle
        st._handle = lambda *args, **kwargs: lookups.append(args) or real(*args, **kwargs)
        data, _proofs = st.read_chunk_verified("/f", 0, 3 * IO, IO)
        assert data == payload(CHUNK)[3 * IO : 4 * IO]
        assert lookups == [("/f", 0)]
        del lookups[:]
        assert st.verified_payload("/f", 0) == payload(CHUNK)
        assert lookups == [("/f", 0)]

    def test_resident_chunk_without_integrity(self, tmp_path, syscalls):
        st = make(tmp_path, integrity=False)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        syscalls["reset"]()
        st.write_chunk("/f", 0, 3 * IO, payload(IO, seed=2))
        assert counts(syscalls) == {"pwrite": 1}
        syscalls["reset"]()
        assert st.read_chunk("/f", 0, 3 * IO, IO) == payload(IO, seed=2)
        assert st.read_chunk_verified("/f", 0, 3 * IO, IO) == (payload(IO, seed=2), ())
        assert counts(syscalls) == {"pread": 2}

    @pytest.mark.parametrize("integrity", [False, True])
    def test_first_touch_opens_each_file_once(
        self, tmp_path, syscalls, integrity
    ):
        make(tmp_path, integrity).write_chunk("/f", 0, 0, payload(CHUNK))
        st = make(tmp_path, integrity)  # as after a restart
        syscalls["reset"]()
        st.read_chunk_verified("/f", 0, IO, IO)
        st.write_chunk("/f", 0, IO, payload(IO))
        names = [name for name, _flags in syscalls["flags"]]
        assert names == (["chunk_00000000", "chunk_00000000.sum"] if integrity
                         else ["chunk_00000000"])
        assert syscalls["fstat"] == (1 if integrity else 0)
        assert syscalls["close"] == 0
        assert not any(flags & os.O_TRUNC for _name, flags in syscalls["flags"])

    def test_creating_a_chunk_never_truncates(self, tmp_path, syscalls):
        st = make(tmp_path)
        st.write_chunk("/f", 0, 100, payload(10))
        st.write_chunk("/f", 0, 0, payload(10))
        assert not any(flags & os.O_TRUNC for _name, flags in syscalls["flags"])
        assert syscalls["close"] == 0
        assert st.read_chunk("/f", 0, 0, CHUNK) == payload(10) + bytes(90) + payload(10)


class TestBounded:
    def test_eviction_closes_two_descriptors_and_the_chunk_reloads(
        self, tmp_path, syscalls, capacity
    ):
        capacity(2)
        st = make(tmp_path)
        for chunk_id in (0, 1):
            st.write_chunk("/f", chunk_id, 0, payload(CHUNK, seed=chunk_id))
        st.read_chunk_verified("/f", 0, 0, IO)  # chunk 1 is now the older one
        syscalls["reset"]()
        st.write_chunk("/f", 2, 0, payload(CHUNK, seed=2))
        assert syscalls["close"] == 2
        assert resident(st) == [("/f", 0), ("/f", 2)]
        assert st.verify_chunk("/f", 1)  # reloaded from its sidecar
        assert st.read_chunk_verified("/f", 1, 0, CHUNK)[0] == payload(CHUNK, seed=1)
        assert resident(st) == [("/f", 1), ("/f", 2)]

    def test_table_and_descriptors_stay_bounded(self, tmp_path):
        st = make(tmp_path)
        before = open_fds()
        for i in range(10_000):
            assert st.read_chunk_verified(f"/nope{i}", 0, 0, 100) == (b"", ())
        assert st._sums == {} and not st._recent  # an absent chunk leaves nothing
        assert os.listdir(st.root) == []
        for i in range(10_000):
            st.write_chunk(f"/f{i % 100}", i // 100, 0, b"x" * 10)
        cap = localfs.HANDLE_CAPACITY
        assert len(st._recent) == sum(map(len, st._sums.values())) == min(cap, 10_000)
        assert open_fds() <= before + 2 * cap + 4
        st.close()
        assert open_fds() <= before

    def test_the_daemon_gauge_follows_the_chunks_touched_up_to_capacity(
        self, tmp_path, capacity
    ):
        capacity(4)
        config = FSConfig(chunk_size=4096, data_dir=str(tmp_path / "data"))
        with GekkoFSCluster(1, config=config) as fs:
            daemon = fs.daemons[0]

            def gauge():
                return daemon.metrics.snapshot()["gauges"]["storage.open_handles"]

            assert gauge() == 0
            client = fs.client(0)
            for chunks in range(1, 9):
                client.write_bytes("/gkfs/f", b"x" * 4096 * chunks)
                assert gauge() == len(daemon.storage._recent) == min(chunks, 4)
            client.unlink("/gkfs/f")
            assert gauge() == 0
        assert daemon.storage.open_handles == 0  # shutdown gave them back

    def test_capacity_comes_from_the_descriptor_limit(self):
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        assert localfs.HANDLE_CAPACITY == localfs._handle_capacity()
        if soft != resource.RLIM_INFINITY:
            # sixteen in-process daemons with full tables leave a fifth of the limit
            assert 16 * 2 * localfs.HANDLE_CAPACITY <= max(64, soft * 4 // 5)


class TestNothingHeldOnAnUnlinkedInode:
    @pytest.mark.parametrize("integrity", [False, True])
    def test_every_removal_closes_first(self, tmp_path, integrity):
        st = make(tmp_path, integrity)
        before = open_fds(tmp_path)

        def fill():
            for path in ("/f", "/g"):
                for chunk_id in range(3):
                    st.write_chunk(path, chunk_id, 0, payload(CHUNK))

        fill()
        st.remove_chunks("/f")
        st.truncate_chunk("/g", 0, 0)
        st.replace_chunk("/g", 1, payload(100))
        st.remove_chunks_from("/g", 2)
        assert fds_on_deleted_files() == []
        assert resident(st) == [("/g", 1)]
        assert open_fds(tmp_path) == before + (2 if integrity else 1)
        st.remove_chunks("/g")
        assert open_fds(tmp_path) == before and os.listdir(st.root) == []
        fill()
        st.close()
        assert open_fds(tmp_path) == before

    def test_eviction_then_unlink(self, tmp_path, capacity):
        capacity(2)
        st = make(tmp_path)
        for chunk_id in range(5):
            st.write_chunk("/f", chunk_id, 0, payload(100))
        assert st.remove_chunks("/f") == 5
        assert fds_on_deleted_files() == [] and not st._recent


class TestEmptiedDirectoryGoes:
    def test_truncate_to_zero_and_tail_removal(self, tmp_path):
        st = make(tmp_path)
        st.write_chunk("/g", 0, 0, payload(10))
        st.truncate_chunk("/g", 0, 0)
        assert os.listdir(st.root) == []
        for chunk_id in range(3):
            st.write_chunk("/g", chunk_id, 0, payload(10))
        assert st.remove_chunks_from("/g", 1) == 2
        assert (list(st.paths()), list(st.chunk_ids("/g"))) == (["/g"], [0])
        assert st.remove_chunks_from("/g", 0) == 1
        assert os.listdir(st.root) == []
        assert (list(st.paths()), list(st.chunk_ids("/g"))) == ([], [])
        assert st.remove_chunks_from("/g", 0) == 0 and st.remove_chunks("/g") == 0
        assert st.stats.chunks_removed == 4

    def test_a_directory_with_foreign_sidecars_stays(self, tmp_path):
        # Integrity was on when the chunk was written, off now: its sidecar
        # is not this store's to remove, and the path still lists as empty.
        make(tmp_path).write_chunk("/g", 0, 0, payload(10))
        st = make(tmp_path, integrity=False)
        st.truncate_chunk("/g", 0, 0)
        assert os.listdir(os.path.join(st.root, "%2Fg")) == ["chunk_00000000.sum"]
        assert (list(st.paths()), list(st.chunk_ids("/g"))) == ([], [])


class TestAResidentHandleSeesItsFile:
    """The cases of ``test_storage_integrity.TestLocalFSCrashEdges`` that
    reopen the store first, on a *warm* store: same inode, same answer."""

    def warm(self, tmp_path):
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        assert resident(st) == [("/f", 0)]
        return st

    def test_fault_injectors(self, tmp_path):
        st = self.warm(tmp_path)
        assert st.corrupt_chunk("/f", 0, 50) and not st.corrupt_chunk("/f", 0, CHUNK)
        assert not st.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError, match="mismatch"):
            st.read_chunk_verified("/f", 0, 40, 20)
        assert st.corrupt_chunk("/f", 0, 50) and st.verify_chunk("/f", 0)
        assert st.tear_chunk("/f", 0, 333) and not st.tear_chunk("/f", 0, 333)
        with pytest.raises(IntegrityError, match="torn"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert os.path.getsize(st._chunk_file("/f", 0)) == 333
        assert not st.corrupt_chunk("/nope", 0, 0) and not st.tear_chunk("/nope", 0, 0)
        assert resident(st) == [("/f", 0)]

    def test_rot_behind_its_back(self, tmp_path):
        st = self.warm(tmp_path)
        with open(st._chunk_file("/f", 0), "r+b") as fh:
            fh.seek(50)
            fh.write(bytes([payload(CHUNK)[50] ^ 0xFF]))
        assert not st.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError):
            st.read_chunk_verified("/f", 0, 40, 20)

    @pytest.mark.parametrize("keep", [333, 0])
    def test_chunk_truncated_behind_its_back(self, tmp_path, keep):
        st = self.warm(tmp_path)
        os.truncate(st._chunk_file("/f", 0), keep)
        with pytest.raises(IntegrityError, match="torn"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert not st.verify_chunk("/f", 0)
        assert st.read_chunk("/f", 0, 0, CHUNK) == payload(CHUNK)[:keep]

    @pytest.mark.parametrize("garbage", [False, True])
    def test_sidecar_damaged_behind_its_back(self, tmp_path, garbage):
        # The record in memory stays the authority while the chunk is
        # resident (as the cached record always was); the damage shows
        # when the record is next loaded, and the next write heals it.
        st = self.warm(tmp_path)
        sidecar = st._sidecar_file("/f", 0)
        size = os.path.getsize(sidecar)
        if garbage:
            with open(sidecar, "wb") as fh:
                fh.write(b"not a sidecar at all" * 3)
        else:
            os.truncate(sidecar, size - 3)
        assert st.read_chunk_verified("/f", 0, 0, CHUNK)[0] == payload(CHUNK)
        st.close()
        with pytest.raises(IntegrityError, match="checksum record"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)
        st.write_chunk("/f", 0, 0, payload(CHUNK, seed=3))
        assert os.path.getsize(sidecar) == size
        assert make(tmp_path).read_chunk_verified("/f", 0, 0, CHUNK)[0] == payload(CHUNK, seed=3)


class TestShrinkRuleOnTheTrackedLength:
    def sidecar_of(self, st):
        with open(st._sidecar_file("/f", 0), "rb") as fh:
            return fh.read()

    def test_a_resident_record_that_gets_shorter_is_cut(self, tmp_path, syscalls):
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        long = self.sidecar_of(st)
        syscalls["reset"]()
        st.truncate_chunk("/f", 0, 100)
        assert syscalls["ftruncate"] == 2  # the payload, the record
        assert len(self.sidecar_of(st)) == len(long) - 3 * 8
        syscalls["reset"]()
        st.write_chunk("/f", 0, 0, payload(50))  # same length: no cut, no fstat
        assert counts(syscalls) == {"pread": 1, "pwrite": 2}
        assert make(tmp_path).verify_chunk("/f", 0)

    def test_the_tracked_length_does_not_outlive_the_residency(self, tmp_path):
        # Crash between the pwrite of a shorter record and its ftruncate,
        # seen by the same store object once its handle is gone: the next
        # residency takes the length from its own fstat, so the rewrite
        # over the longer unreadable record still cuts the tail.
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        long = self.sidecar_of(st)
        st.truncate_chunk("/f", 0, 100)
        short = self.sidecar_of(st)
        st.close()
        with open(st._sidecar_file("/f", 0), "wb") as fh:
            fh.write(short + long[len(short):])
        with pytest.raises(IntegrityError, match="checksum record"):
            st.read_chunk_verified("/f", 0, 0, 100)
        st.write_chunk("/f", 0, 0, payload(100))
        assert len(self.sidecar_of(st)) == len(short)
        assert make(tmp_path).verify_chunk("/f", 0)

    def test_a_new_chunk_beside_a_stale_longer_sidecar(self, tmp_path):
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        long = self.sidecar_of(st)
        st.remove_chunks("/f")
        os.makedirs(os.path.dirname(st._sidecar_file("/f", 0)))
        with open(st._sidecar_file("/f", 0), "wb") as fh:
            fh.write(long)  # what a crash between the two unlinks leaves
        st.write_chunk("/f", 0, 0, payload(100))
        assert len(self.sidecar_of(st)) < len(long)
        assert make(tmp_path).read_chunk_verified("/f", 0, 0, CHUNK)[0] == payload(100)


class TestLifecycle:
    def test_close_is_idempotent_and_the_store_reopens_lazily(self, tmp_path):
        st = make(tmp_path)
        before = open_fds(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        assert open_fds(tmp_path) == before + 2
        st.close()
        st.close()
        assert open_fds(tmp_path) == before and st._sums == {} and not st._recent
        assert st.read_chunk_verified("/f", 0, 0, CHUNK)[0] == payload(CHUNK)
        assert open_fds(tmp_path) == before + 2
        st.close()
        assert open_fds(tmp_path) == before

    def test_a_dropped_store_gives_its_descriptors_back(self, tmp_path):
        before = open_fds(tmp_path)
        st = make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        assert open_fds(tmp_path) == before + 2
        del st
        gc.collect()
        assert open_fds(tmp_path) == before

    @staticmethod
    def disk_config(tmp_path, **kw):
        return FSConfig(chunk_size=4096, kv_dir=str(tmp_path / "kv"),
                        data_dir=str(tmp_path / "data"), **kw)

    def test_shutdown_and_crash_close_the_store(self, tmp_path):
        fs = GekkoFSCluster(2, config=self.disk_config(tmp_path, integrity_enabled=True))
        client = fs.client(0)
        client.write_bytes("/gkfs/f", payload(20_000))
        assert all(d.storage._recent for d in fs.daemons)
        fs.daemons[0].crash()
        assert not fs.daemons[0].storage._recent
        fs.shutdown()
        assert not fs.daemons[1].storage._recent

    def test_crash_and_restart_on_the_same_root_verifies_every_chunk(self, tmp_path):
        config = self.disk_config(tmp_path, integrity_enabled=True)
        with GekkoFSCluster(2, config=config) as fs:
            client = fs.client(0)
            data = payload(40_000)
            client.write_bytes("/gkfs/f", data)
            old = fs.daemons[1].storage
            assert old._recent
            fs.crash_daemon(1)
            assert not old._recent  # one store at a time holds the root open
            fs.restart_daemon(1)
            assert fs.daemons[1].storage is not old
            client.write_bytes("/gkfs/g", data[:5000])
            for daemon in fs.daemons:
                for path in daemon.storage.paths():
                    for chunk_id in daemon.storage.chunk_ids(path):
                        assert daemon.storage.verify_chunk(path, chunk_id)
            assert fs.client(1).read_bytes("/gkfs/f") == data
            assert fds_on_deleted_files() == []

    def test_two_hundred_clusters_leave_no_descriptor_behind(self, tmp_path):
        gc.collect()
        before = open_fds()
        for i in range(200):
            config = self.disk_config(tmp_path / f"c{i}", integrity_enabled=bool(i % 2))
            with GekkoFSCluster(2, config=config) as fs:
                client = fs.client(0)
                client.write_bytes("/gkfs/f", b"x" * 10_000)
                if i % 50 == 0:
                    fs.crash_daemon(1)
                    fs.restart_daemon(1)
                assert client.read_bytes("/gkfs/f") == b"x" * 10_000
        assert open_fds() <= before
        assert fds_on_deleted_files() == []


def test_two_handler_threads_on_one_store(tmp_path, capacity):
    """Writers, a reader and a remover on one store with a two-handle
    table: the storage lock makes touch / evict / close atomic, so no
    operation ever meets a closed descriptor or another chunk's bytes."""
    capacity(2)
    st = make(tmp_path)
    errors, done = [], threading.Event()

    def writer(path):
        try:
            for i in range(300):
                chunk_id = i % 5
                st.write_chunk(path, chunk_id, 0, payload(IO, seed=chunk_id))
                data, _ = st.read_chunk_verified(path, chunk_id, 0, IO)
                assert data == payload(IO, seed=chunk_id)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    def churn():
        try:
            while not done.is_set():
                for chunk_id in range(5):
                    data, _ = st.read_chunk_verified("/a", chunk_id, 0, IO)
                    assert data in (b"", payload(IO, seed=chunk_id))
                st.write_chunk("/c", 0, 0, payload(100))
                st.remove_chunks("/c")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in ("/a", "/b")]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join(60)
        done.set()
        threads[2].join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(st._recent) <= 2 and fds_on_deleted_files() == []
    for path in ("/a", "/b"):
        assert all(st.verify_chunk(path, chunk_id) for chunk_id in range(5))
