"""Edge cases across subsystems not covered by the focused suites."""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.kvstore.lsm import LSMStore


class TestLSMOptions:
    def test_flush_threshold_validation(self):
        with pytest.raises(ValueError):
            LSMStore(memtable_flush_bytes=0)

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            LSMStore(compaction_fanout=1)

    def test_sync_wal_mode(self, tmp_path):
        with LSMStore(str(tmp_path / "db"), sync_wal=True) as store:
            store.put(b"durable", b"now")
            assert store.get(b"durable") == b"now"

    def test_flush_of_empty_memtable_is_noop(self):
        with LSMStore() as store:
            store.flush()
            assert store.num_runs == 0

    def test_compact_single_run_is_noop(self):
        with LSMStore() as store:
            store.put(b"k", b"v")
            store.flush()
            store.compact()
            assert store.num_runs == 1

    def test_double_close(self):
        store = LSMStore()
        store.close()
        store.close()


class TestClientCornerCases:
    def test_zero_byte_write(self, client):
        fd = client.open("/gkfs/z", os.O_CREAT | os.O_RDWR)
        assert client.pwrite(fd, b"", 0) == 0
        assert client.stat("/gkfs/z").size == 0
        client.close(fd)

    def test_read_zero_count(self, client):
        fd = client.open("/gkfs/z2", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"abc")
        assert client.pread(fd, 0, 1) == b""
        client.close(fd)

    def test_write_exactly_one_chunk(self, small_chunk_cluster):
        client = small_chunk_cluster.client(0)
        fd = client.open("/gkfs/exact", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"c" * 64)  # chunk size is 64
        assert client.stat("/gkfs/exact").size == 64
        assert client.pread(fd, 64, 0) == b"c" * 64
        client.close(fd)

    def test_mountpoint_trailing_slash_normalised(self, client):
        md = client.stat("/gkfs/")
        assert md.is_dir

    def test_many_open_descriptors_same_file(self, client):
        client.close(client.creat("/gkfs/multi"))
        fds = [client.open("/gkfs/multi") for _ in range(50)]
        assert len(set(fds)) == 50
        for fd in fds:
            client.close(fd)
        assert len(client.filemap) == 0

    def test_positions_are_per_descriptor(self, client):
        fd1 = client.open("/gkfs/pos", os.O_CREAT | os.O_RDWR)
        client.write(fd1, b"0123456789")
        fd2 = client.open("/gkfs/pos", os.O_RDONLY)
        client.lseek(fd1, 2)
        assert client.read(fd2, 3) == b"012"  # fd2 unaffected by fd1's seek
        assert client.read(fd1, 3) == b"234"
        client.close(fd1)
        client.close(fd2)

    def test_deep_paths(self, client):
        deep = "/gkfs/" + "/".join(f"level{i}" for i in range(20))
        fd = client.open(deep, os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"bottom")
        client.close(fd)
        assert client.stat(deep).size == 6

    def test_long_file_names(self, client):
        name = "/gkfs/" + "n" * 200
        client.close(client.creat(name))
        assert client.exists(name)

    def test_unicode_paths(self, client):
        path = "/gkfs/数据_файл_δεδομένα.dat"
        client.write_bytes(path, b"unicode-named")
        assert client.read_bytes(path) == b"unicode-named"
        assert ("数据_файл_δεδομένα.dat", False) in client.listdir("/gkfs")


class TestConfigEdges:
    def test_with_helper(self):
        base = FSConfig()
        changed = base.with_(chunk_size=1024)
        assert changed.chunk_size == 1024
        assert base.chunk_size != 1024

    def test_string_chunk_size_parsed(self):
        assert FSConfig(chunk_size="64k").chunk_size == 65536

    @pytest.mark.parametrize("bad", ["relative", "/", "/trailing/"])
    def test_bad_mountpoints(self, bad):
        with pytest.raises(ValueError):
            FSConfig(mountpoint=bad)

    def test_single_node_deployment(self):
        """Degenerate but legal: every op is daemon-local."""
        with GekkoFSCluster(num_nodes=1) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/solo", b"x" * 2_000_000)  # multi-chunk
            assert client.read_bytes("/gkfs/solo") == b"x" * 2_000_000


class TestDataCacheWriteNoAllocate:
    def test_writes_do_not_populate_the_cache(self):
        """The chunk cache is a *read* cache (write-no-allocate): a pure
        writer caches nothing — streaming checkpoints must not evict a
        reader's hot set."""
        config = FSConfig(
            chunk_size=4096, data_cache_enabled=True, data_cache_bytes=1 << 20
        )
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/streamed", b"w" * (16 * 4096))
            assert len(client.data.cache) == 0  # nothing allocated by writes
            client.read_bytes("/gkfs/streamed")
            assert len(client.data.cache) == 16  # reads populate
            assert client.data.cache.stats.misses == 16
            client.read_bytes("/gkfs/streamed")
            assert client.data.cache.stats.hits == 16  # re-read is free


class TestDistributorPaths:
    def test_rendezvous_end_to_end_with_stress(self):
        from repro.workloads.stress import StressSpec, run_stress

        with GekkoFSCluster(
            num_nodes=5,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(5),
        ) as fs:
            run_stress(fs, StressSpec(operations=200, seed=77))

    def test_resize_with_disk_backends(self, tmp_path):
        config = FSConfig(
            chunk_size=512,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/persisted", b"d" * 5000)
            fs.resize_live(4)
            fresh = fs.client(3)
            assert fresh.read_bytes("/gkfs/persisted") == b"d" * 5000
            # New daemons got their own on-disk directories.
            assert (tmp_path / "kv" / "node_0003").exists()
