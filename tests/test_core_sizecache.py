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

    def test_uncached_sends_one_update_per_write(self):
        with GekkoFSCluster(num_nodes=4, instrument=True) as fs:
            c = fs.client(0)
            fd = c.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
            for i in range(16):
                c.pwrite(fd, b"x" * 10, i * 10)
            c.close(fd)
            assert fs.transport.rpcs_by_handler["gkfs_update_size"] == 16


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
