"""Size-update cache wired into the client (the §IV-B extension)."""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster


@pytest.fixture
def cached_cluster():
    config = FSConfig(size_cache_enabled=True, size_cache_flush_every=8)
    with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
        yield fs


class TestRpcSavings:
    def test_fewer_update_size_rpcs(self, cached_cluster):
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        for i in range(32):
            c.pwrite(fd, b"x" * 10, i * 10)
        c.close(fd)
        updates = cached_cluster.transport.rpcs_by_handler["gkfs_update_size"]
        assert updates == 4  # 32 writes / flush_every 8

    def test_uncached_sends_one_update_per_write(self, size_spies):
        """One size publication per write, all at the owner: a
        ``gkfs_update_size`` RPC, or the write itself when the owner holds
        its only chunk group (chunk 0 here)."""
        with GekkoFSCluster(num_nodes=4, instrument=True) as fs:
            c = fs.client(0)
            fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
            for i in range(16):
                c.pwrite(fd, b"x" * 10, i * 10)
            c.close(fd)
            owner = fs.distributor.locate_metadata("/f")
            updates = fs.transport.rpcs_by_handler["gkfs_update_size"]
            assert updates + size_spies["folded"][owner] == 16
            assert size_spies["published"] == {owner: 16}


class TestCorrectnessUnderCaching:
    def test_close_publishes_pending_size(self, cached_cluster):
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        c.pwrite(fd, b"abc", 0)  # buffered: below flush threshold
        c.close(fd)
        assert cached_cluster.client(1).stat("/gkfs/f").size == 3

    def test_fsync_publishes_pending_size(self, cached_cluster):
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        c.pwrite(fd, b"abcd", 0)
        c.fsync(fd)
        assert cached_cluster.client(1).stat("/gkfs/f").size == 4
        c.close(fd)

    def test_own_stat_flushes_first(self, cached_cluster):
        """Read-your-writes: the writer's stat must include its own
        buffered size even before any flush trigger."""
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        c.pwrite(fd, b"pending", 0)
        assert c.stat("/gkfs/f").size == 7
        c.close(fd)

    def test_own_read_sees_buffered_size(self, cached_cluster):
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        c.pwrite(fd, b"visible", 0)
        assert c.pread(fd, 7, 0) == b"visible"
        c.close(fd)

    def test_other_client_may_lag_until_flush(self, cached_cluster):
        """The documented trade-off: remote size visibility is delayed
        while updates sit in the writer's cache."""
        writer, other = cached_cluster.client(0), cached_cluster.client(1)
        fd = writer.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        writer.pwrite(fd, b"hidden", 0)
        assert other.stat("/gkfs/f").size == 0  # not yet published
        writer.close(fd)
        assert other.stat("/gkfs/f").size == 6

    def test_creat_truncates_a_file_with_a_buffered_size(self, cached_cluster):
        """A buffered size is published before an open reads or truncates
        the size — or ``O_TRUNC`` sees 0, skips the truncate, and close
        publishes the stale size over the new contents."""
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        c.pwrite(fd, b"A" * 3000, 0)  # buffered: below flush threshold
        fd2 = c.creat("/gkfs/f")
        c.pwrite(fd2, b"B" * 10, 0)
        c.close(fd)
        c.close(fd2)
        assert c.stat("/gkfs/f").size == 10
        assert c.read_bytes("/gkfs/f") == b"B" * 10

    def test_unlink_discards_stale_buffer(self, cached_cluster):
        c = cached_cluster.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        c.pwrite(fd, b"data", 0)
        c.close(fd)  # publishes 4
        c.unlink("/gkfs/f")
        c.close(c.creat("/gkfs/f"))
        assert c.stat("/gkfs/f").size == 0


class TestBufferedSizeStillCoversItsChunks:
    """A size this client buffered and never published still has chunks
    behind it: dropping the buffer (unlink, truncate) must not shrink the
    chunk multicast to what the published record covers (size 0 → no
    daemon → every chunk leaked)."""

    @pytest.fixture(params=["memory", "localfs"])
    def fs(self, request, tmp_path):
        dirs = {}
        if request.param == "localfs":
            dirs = {"data_dir": str(tmp_path / "data"), "kv_dir": str(tmp_path / "kv")}
        config = FSConfig(size_cache_enabled=True, chunk_size=4096, **dirs)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            yield fs

    def _write_unpublished(self, fs):
        c = fs.client(0)
        fd = c.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        for i in range(8):
            c.pwrite(fd, b"x" * 4096, i * 4096)
        assert fs.client(1).stat("/gkfs/f").size == 0  # nothing published yet
        assert fs.used_bytes() == 8 * 4096
        return c, fd

    @staticmethod
    def _chunk_files(fs):
        """Files under the localfs data directory (none on memory)."""
        if fs.config.data_dir is None:
            return []
        return [name for _, _, names in os.walk(fs.config.data_dir) for name in names]

    def test_unlink_before_close_leaves_no_chunk(self, fs):
        c, fd = self._write_unpublished(fs)
        c.unlink("/gkfs/f")
        assert c.statfs()["used_bytes"] == 0
        assert self._chunk_files(fs) == []
        c.close(fd)
        assert not c.exists("/gkfs/f")

    def test_ftruncate_before_close_drops_the_tail(self, fs):
        c, fd = self._write_unpublished(fs)
        c.ftruncate(fd, 4096)
        assert c.statfs()["used_bytes"] == 4096
        on_disk = [] if fs.config.data_dir is None else ["chunk_00000000"]
        assert self._chunk_files(fs) == on_disk
        c.close(fd)
        assert c.stat("/gkfs/f").size == 4096
