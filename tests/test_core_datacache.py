"""Client chunk cache: unit behaviour and client integration."""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core.datacache import ChunkCache


class TestChunkCacheUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkCache(0, 1)
        with pytest.raises(ValueError):
            ChunkCache(100, 0)
        with pytest.raises(ValueError):
            ChunkCache(100, 200)  # chunk bigger than capacity

    def test_miss_then_hit(self):
        cache = ChunkCache(1024, 128)
        assert cache.get("/f", 0) is None
        cache.put("/f", 0, b"data")
        assert cache.get("/f", 0) == b"data"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_oversized_entry_rejected(self):
        cache = ChunkCache(1024, 128)
        with pytest.raises(ValueError):
            cache.put("/f", 0, b"x" * 129)

    def test_lru_eviction(self):
        cache = ChunkCache(256, 128)
        cache.put("/f", 0, b"a" * 128)
        cache.put("/f", 1, b"b" * 128)
        cache.get("/f", 0)  # refresh 0; 1 is now LRU
        cache.put("/f", 2, b"c" * 128)
        assert cache.get("/f", 0) is not None
        assert cache.get("/f", 1) is None  # evicted
        assert cache.stats.evictions == 1

    def test_used_bytes_tracks(self):
        cache = ChunkCache(1024, 128)
        cache.put("/f", 0, b"x" * 100)
        assert cache.used_bytes == 100
        cache.put("/f", 0, b"y" * 20)  # replacement
        assert cache.used_bytes == 20

    def test_update_in_place(self):
        cache = ChunkCache(1024, 128)
        cache.put("/f", 0, b"aaaaaa")
        cache.update("/f", 0, 2, b"BB")
        assert cache.get("/f", 0) == b"aaBBaa"

    def test_update_extends_entry(self):
        cache = ChunkCache(1024, 128)
        cache.put("/f", 0, b"ab")
        cache.update("/f", 0, 5, b"z")
        assert cache.get("/f", 0) == b"ab\x00\x00\x00z"

    def test_update_uncached_is_noop(self):
        cache = ChunkCache(1024, 128)
        cache.update("/f", 0, 0, b"x")
        assert len(cache) == 0

    def test_update_beyond_chunk_rejected(self):
        cache = ChunkCache(1024, 128)
        with pytest.raises(ValueError):
            cache.update("/f", 0, 127, b"ab")

    def test_invalidate_path(self):
        cache = ChunkCache(1024, 128)
        cache.put("/f", 0, b"a")
        cache.put("/f", 1, b"b")
        cache.put("/g", 0, b"c")
        assert cache.invalidate_path("/f") == 2
        assert cache.get("/g", 0) == b"c"

    def test_clear(self):
        cache = ChunkCache(1024, 128)
        cache.put("/f", 0, b"a")
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_hit_rate(self):
        cache = ChunkCache(1024, 128)
        cache.get("/f", 0)
        cache.put("/f", 0, b"x")
        cache.get("/f", 0)
        assert cache.stats.hit_rate == 0.5


@pytest.fixture
def cached_fs():
    config = FSConfig(
        chunk_size=256, data_cache_enabled=True, data_cache_bytes=16 * 1024
    )
    with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
        yield fs


class TestClientIntegration:
    def test_repeat_reads_cost_no_rpcs(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"q" * 1024)  # 4 chunks
        client.pread(fd, 1024, 0)  # warm (writes already populated nothing: read-miss fetch)
        cached_fs.transport.reset()
        for _ in range(5):
            assert client.pread(fd, 1024, 0) == b"q" * 1024
        reads = cached_fs.transport.rpcs_by_handler.get("gkfs_read_chunks", 0)
        assert reads == 0  # every span served from cache
        client.close(fd)

    def test_read_your_own_writes_through_cache(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f2", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"original" * 32)
        client.pread(fd, 256, 0)  # cache chunk 0
        client.pwrite(fd, b"PATCH", 3)
        assert client.pread(fd, 10, 0) == b"oriPATCHor"  # bytes 8-9 resume the pattern
        client.close(fd)

    def test_readahead_within_chunk(self, cached_fs):
        """Reading 8 bytes fetches the whole chunk once; the rest of the
        chunk then reads for free."""
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f3", os.O_CREAT | os.O_RDWR)
        client.write(fd, bytes(range(256)))
        cached_fs.transport.reset()
        client.pread(fd, 8, 0)
        client.pread(fd, 8, 100)
        client.pread(fd, 8, 200)
        assert cached_fs.transport.rpcs_by_handler.get("gkfs_read_chunks", 0) == 1
        client.close(fd)

    def test_unlink_invalidates(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f4", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"bye" * 10)
        client.pread(fd, 30, 0)
        client.close(fd)
        client.unlink("/gkfs/f4")
        assert client.data.cache is not None
        assert len(client.data.cache) == 0

    def test_truncate_invalidates(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f5", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"0123456789")
        client.pread(fd, 10, 0)
        client.truncate("/gkfs/f5", 4)
        assert client.pread(fd, 10, 0) == b"0123"  # fresh fetch, not stale
        client.close(fd)

    def test_correctness_matches_uncached(self, cached_fs):
        """Same op sequence, cached vs uncached deployments: identical bytes."""
        import random

        rng = random.Random(7)
        ops = [(rng.randrange(0, 900), rng.randbytes(rng.randrange(1, 300))) for _ in range(30)]
        with GekkoFSCluster(num_nodes=4, config=FSConfig(chunk_size=256)) as plain_fs:
            results = []
            for fs in (cached_fs, plain_fs):
                client = fs.client(0)
                fd = client.open("/gkfs/same", os.O_CREAT | os.O_RDWR)
                for offset, data in ops:
                    client.pwrite(fd, data, offset)
                    client.pread(fd, 128, max(0, offset - 64))
                results.append(client.pread(fd, 2000, 0))
                client.close(fd)
            assert results[0] == results[1]

    def test_config_requires_cache_at_least_one_chunk(self):
        with pytest.raises(ValueError):
            FSConfig(chunk_size=1024, data_cache_enabled=True, data_cache_bytes=512)


class TestRenameInvalidation:
    """Regression: rename must drop the *destination* path's cached chunks.

    The staleness hole: client A holds cached chunks of ``dst``; other
    clients unlink ``dst`` and create a fresh ``src``; A renames
    ``src -> dst``.  The copy creates ``dst`` at size 0, so the O_TRUNC
    invalidation never fires, and A's stale chunk-1-range bytes would
    survive.  A later write leaving a hole then reads garbage from the
    cache where the daemons hold zeros — unless rename invalidates
    ``dst`` explicitly.
    """

    def test_rename_drops_stale_destination_chunks(self):
        config = FSConfig(
            chunk_size=256,
            data_cache_enabled=True,
            data_cache_bytes=16 * 1024,
            rename_emulation=True,
        )
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            a, b = fs.client(0), fs.client(1)
            # A caches both chunks of /gkfs/dst
            fd = a.open("/gkfs/dst", os.O_CREAT | os.O_RDWR)
            a.write(fd, b"A" * 512)
            assert a.pread(fd, 512, 0) == b"A" * 512
            a.close(fd)
            # other clients replace the file out from under A's cache
            b.unlink("/gkfs/dst")
            fd = b.open("/gkfs/src", os.O_CREAT | os.O_WRONLY)
            b.write(fd, b"B" * 100)
            b.close(fd)
            # A renames src over the dead dst, then writes past a hole
            a.rename("/gkfs/src", "/gkfs/dst")
            fd = a.open("/gkfs/dst", os.O_RDWR)
            a.pwrite(fd, b"P", 200)
            got = a.pread(fd, 201, 0)
            a.close(fd)
            # bytes 100..200 are a hole: zeros from the daemons, never
            # stale 'A's from the pre-rename cache entry
            assert got == b"B" * 100 + b"\x00" * 100 + b"P"

    def test_rename_source_chunks_dropped_too(self):
        config = FSConfig(
            chunk_size=256,
            data_cache_enabled=True,
            data_cache_bytes=16 * 1024,
            rename_emulation=True,
        )
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/s", os.O_CREAT | os.O_RDWR)
            client.write(fd, b"S" * 300)
            client.pread(fd, 300, 0)  # cache source chunks
            client.close(fd)
            client.rename("/gkfs/s", "/gkfs/t")
            assert all(key[0] != "/s" for key in client.data.cache._entries)
            fd = client.open("/gkfs/t", os.O_RDONLY)
            assert client.pread(fd, 300, 0) == b"S" * 300
            client.close(fd)
