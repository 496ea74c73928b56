"""Client metadata cache + daemon hot plane: units, integration, elasticity.

Covers the two planes of :mod:`repro.metacache` — the per-client TTL
lease cache (read-your-writes, invalidation-on-mutation, conditional
revalidation) and the daemon-side hot-key tracker with client-assisted
replica seeding — plus their interaction with the size-update cache,
elastic membership (a lease surviving a live resize revalidates against
the new epoch's owner), and the socket transport.
"""

import os
import time

import pytest

from repro.common.errors import NotFoundError, UnsupportedError
from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.metacache import (
    ClientMetaCache,
    HotKeyTracker,
    HotMetaPlane,
    HotReplicaStore,
    hot_replica_targets,
    meta_version,
)


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- placement + versions ----------------------------------------------------


class TestPlacement:
    def test_meta_version_deterministic_and_content_sensitive(self):
        assert meta_version(b"record-a") == meta_version(b"record-a")
        assert meta_version(b"record-a") != meta_version(b"record-b")

    def test_targets_exclude_owner_and_stay_in_range(self):
        targets = hot_replica_targets("/hot", owner=3, num_daemons=8, k=5)
        assert len(targets) == 5
        assert 3 not in targets
        assert all(0 <= t < 8 for t in targets)
        assert len(set(targets)) == 5

    def test_targets_deterministic_across_clients(self):
        a = hot_replica_targets("/hot", 0, 16, 4)
        b = hot_replica_targets("/hot", 0, 16, 4)
        assert a == b

    def test_targets_clamped_to_cluster(self):
        assert len(hot_replica_targets("/hot", 0, 3, 5)) == 2
        assert hot_replica_targets("/hot", 0, 1, 5) == []

    def test_targets_spread_across_paths(self):
        firsts = {hot_replica_targets(f"/f{i}", 0, 16, 1)[0] for i in range(64)}
        assert len(firsts) > 4  # rendezvous, not a fixed successor set


# -- client cache unit -------------------------------------------------------


class TestClientMetaCacheUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClientMetaCache(0, 10)
        with pytest.raises(ValueError):
            ClientMetaCache(1.0, 0)

    def test_miss_then_fresh_hit(self):
        clock = FakeClock()
        cache = ClientMetaCache(1.0, 8, clock=clock)
        entry, fresh = cache.lookup_attr("/f")
        assert entry is None and not fresh
        cache.put_attr("/f", b"rec", 7)
        entry, fresh = cache.lookup_attr("/f")
        assert fresh and entry.record == b"rec" and entry.version == 7
        assert cache.stats.attr_hits == 1 and cache.stats.attr_misses == 1

    def test_expiry_returns_stale_entry_for_revalidation(self):
        clock = FakeClock()
        cache = ClientMetaCache(1.0, 8, clock=clock)
        cache.put_attr("/f", b"rec", 7)
        clock.advance(1.5)
        entry, fresh = cache.lookup_attr("/f")
        assert entry is not None and not fresh
        assert cache.stats.expirations == 1

    def test_renew_extends_lease(self):
        clock = FakeClock()
        cache = ClientMetaCache(1.0, 8, clock=clock)
        cache.put_attr("/f", b"rec", 7)
        clock.advance(1.5)
        cache.renew_attr("/f", hot_k=3)
        entry, fresh = cache.lookup_attr("/f")
        assert fresh and entry.hot_k == 3

    def test_put_preserves_rotation_cursor(self):
        cache = ClientMetaCache(1.0, 8, clock=FakeClock())
        entry = cache.put_attr("/f", b"a", 1)
        entry.rotation = 5
        entry2 = cache.put_attr("/f", b"b", 2)
        assert entry2.rotation == 5

    def test_lru_eviction(self):
        cache = ClientMetaCache(1.0, 2, clock=FakeClock())
        cache.put_attr("/a", b"a", 1)
        cache.put_attr("/b", b"b", 2)
        cache.lookup_attr("/a")  # refresh; /b is LRU
        cache.put_attr("/c", b"c", 3)
        assert cache.lookup_attr("/a")[0] is not None
        assert cache.lookup_attr("/b")[0] is None
        assert cache.stats.evictions == 1

    def test_invalidate_attr_returns_popped_entry(self):
        cache = ClientMetaCache(1.0, 8, clock=FakeClock())
        cache.put_attr("/f", b"rec", 7, hot_k=3)
        entry = cache.invalidate_attr("/f")
        assert entry is not None and entry.hot_k == 3
        assert cache.invalidate_attr("/f") is None
        assert cache.stats.invalidations == 1

    def test_pages_ttl_and_invalidation(self):
        clock = FakeClock()
        cache = ClientMetaCache(1.0, 8, clock=clock)
        assert cache.lookup_page("readdir", "/d") is None
        cache.put_page("readdir", "/d", [("x", False)])
        assert cache.lookup_page("readdir", "/d") == [("x", False)]
        clock.advance(1.5)
        assert cache.lookup_page("readdir", "/d") is None  # expired
        cache.put_page("readdir", "/d", [("y", False)])
        cache.invalidate_pages("/d")
        assert cache.lookup_page("readdir", "/d") is None
        assert cache.stats.readdir_hits == 1
        assert cache.stats.expirations == 1

    def test_hit_rate(self):
        cache = ClientMetaCache(1.0, 8, clock=FakeClock())
        assert cache.stats.hit_rate == 0.0
        cache.put_attr("/f", b"r", 1)
        cache.lookup_attr("/f")
        cache.lookup_attr("/f")
        cache.lookup_attr("/missing")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


# -- hot plane unit ----------------------------------------------------------


class TestHotKeyTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotKeyTracker(0, 1.0, 1)
        with pytest.raises(ValueError):
            HotKeyTracker(1, 0.0, 1)
        with pytest.raises(ValueError):
            HotKeyTracker(1, 1.0, 0)

    def test_promotion_at_threshold_with_one_shot_seed(self):
        tracker = HotKeyTracker(3, 10.0, 2, clock=FakeClock())
        assert tracker.note_read("/f") == (0, False)
        assert tracker.note_read("/f") == (0, False)
        assert tracker.note_read("/f") == (2, True)  # promoted, seeds once
        assert tracker.note_read("/f") == (2, False)
        assert tracker.is_hot("/f")
        assert tracker.stats.promotions == 1
        assert tracker.stats.seeds_issued == 1

    def test_window_rotation_demotes_cooled_keys(self):
        clock = FakeClock()
        tracker = HotKeyTracker(2, 1.0, 2, clock=clock)
        tracker.note_read("/f")
        tracker.note_read("/f")
        assert tracker.is_hot("/f")
        clock.advance(1.5)
        assert tracker.is_hot("/f")  # rotation 1: promotion-window counts clear
        clock.advance(1.5)  # /f saw 0 reads in the completed window
        assert not tracker.is_hot("/f")
        assert tracker.stats.demotions == 1

    def test_window_rearm_reseeds_survivors(self):
        clock = FakeClock()
        tracker = HotKeyTracker(2, 1.0, 2, clock=clock)
        tracker.note_read("/f")
        tracker.note_read("/f")  # promoted + seeded
        tracker.note_read("/f")
        tracker.note_read("/f")  # stays hot into the next window
        clock.advance(1.1)
        hot_k, seed = tracker.note_read("/f")
        assert hot_k == 2 and seed  # re-armed: replicas heal each window
        assert tracker.stats.seeds_issued == 2

    def test_mutation_demotes_immediately(self):
        tracker = HotKeyTracker(1, 10.0, 2, clock=FakeClock())
        tracker.note_read("/f")
        assert tracker.is_hot("/f")
        assert tracker.note_mutation("/f") is True
        assert not tracker.is_hot("/f")
        assert tracker.note_mutation("/f") is False

    def test_replica_store_ttl_backstop(self):
        clock = FakeClock()
        store = HotReplicaStore(1.0, clock=clock)
        store.put("/f", b"rec")
        assert store.get("/f") == b"rec"
        clock.advance(1.5)
        assert store.get("/f") is None  # aged out: bounded staleness
        assert store.stats.expirations == 1
        store.put("/f", b"rec2")
        assert store.drop("/f") is True
        assert store.drop("/f") is False
        assert len(store) == 0

    def test_plane_from_config_gating(self):
        assert HotMetaPlane.from_config(FSConfig()) is None
        assert HotMetaPlane.from_config(FSConfig(metacache_enabled=True)) is None
        plane = HotMetaPlane.from_config(
            FSConfig(metacache_enabled=True, metacache_hot_enabled=True)
        )
        assert plane is not None
        assert plane.tracker.k == FSConfig().metacache_hot_k


# -- client integration (lease plane only) -----------------------------------

TTL = 0.08


@pytest.fixture
def cached_fs():
    config = FSConfig(
        chunk_size=256,
        metacache_enabled=True,
        metacache_ttl=TTL,
        metacache_capacity=512,
    )
    with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
        yield fs


def _stat_rpcs(fs) -> int:
    by = fs.transport.rpcs_by_handler
    return sum(
        by.get(h, 0)
        for h in ("gkfs_stat", "gkfs_stat_lease", "gkfs_stat_if_changed")
    )


class TestLeaseIntegration:
    def test_repeat_stats_cost_no_rpcs_inside_lease(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"x" * 100)
        client.close(fd)
        client.stat("/gkfs/f")  # warm
        cached_fs.transport.reset()
        for _ in range(10):
            assert client.stat("/gkfs/f").size == 100
        assert _stat_rpcs(cached_fs) == 0
        assert client.meta.leases.stats.attr_hits >= 10

    def test_create_gives_zero_rpc_read_your_writes(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/ryw", os.O_CREAT | os.O_WRONLY)
        client.close(fd)
        cached_fs.transport.reset()
        md = client.stat("/gkfs/ryw")  # served from the create's record
        assert md.size == 0 and not md.is_dir
        assert _stat_rpcs(cached_fs) == 0

    def test_lease_expiry_costs_exactly_one_conditional_rpc(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/reval", os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"y" * 64)
        client.close(fd)
        client.stat("/gkfs/reval")
        time.sleep(TTL * 1.5)
        cached_fs.transport.reset()
        client.stat("/gkfs/reval")
        by = cached_fs.transport.rpcs_by_handler
        assert by.get("gkfs_stat_if_changed", 0) == 1
        assert by.get("gkfs_stat_lease", 0) == 0  # version matched: no record moved
        assert client.meta.leases.stats.revalidated_unchanged >= 1
        # and the renewed lease serves locally again
        cached_fs.transport.reset()
        client.stat("/gkfs/reval")
        assert _stat_rpcs(cached_fs) == 0

    def test_cross_client_staleness_bounded_by_ttl_plus_one_rtt(self, cached_fs):
        writer, reader = cached_fs.client(0), cached_fs.client(1)
        fd = writer.open("/gkfs/shared", os.O_CREAT | os.O_WRONLY)
        writer.write(fd, b"a" * 100)
        writer.close(fd)
        assert reader.stat("/gkfs/shared").size == 100  # cached under lease
        writer.truncate("/gkfs/shared", 40)  # remote mutation
        # Inside the lease the reader may serve the old size (the documented
        # window); after expiry the very next stat must see the truth.
        time.sleep(TTL * 1.5)
        assert reader.stat("/gkfs/shared").size == 40

    def test_own_mutations_invalidate_immediately(self, cached_fs):
        client = cached_fs.client(0)
        fd = client.open("/gkfs/mut", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"z" * 100)
        client.close(fd)
        assert client.stat("/gkfs/mut").size == 100
        client.truncate("/gkfs/mut", 10)
        assert client.stat("/gkfs/mut").size == 10  # no lease wait needed
        fd = client.open("/gkfs/mut", os.O_RDWR)
        client.pwrite(fd, b"w" * 50, 0)  # write past size = metadata mutation
        client.close(fd)
        assert client.stat("/gkfs/mut").size == 50
        client.unlink("/gkfs/mut")
        with pytest.raises(NotFoundError):
            client.stat("/gkfs/mut")

    def test_readdir_pages_cached_and_invalidated_on_namespace_change(
        self, cached_fs
    ):
        client = cached_fs.client(0)
        client.mkdir("/gkfs/dir")
        fd = client.open("/gkfs/dir/a", os.O_CREAT | os.O_WRONLY)
        client.close(fd)
        first = client.listdir("/gkfs/dir")
        cached_fs.transport.reset()
        assert client.listdir("/gkfs/dir") == first
        assert cached_fs.transport.rpcs_by_handler.get("gkfs_readdir", 0) == 0
        # creating an entry in the directory drops the page
        fd = client.open("/gkfs/dir/b", os.O_CREAT | os.O_WRONLY)
        client.close(fd)
        names = [n for n, _ in client.listdir("/gkfs/dir")]
        assert names == ["a", "b"]

    def test_size_cache_never_reads_stale_through_lease(self):
        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            metacache_ttl=5.0,  # lease far outlives the test
            size_cache_enabled=True,
            size_cache_flush_every=1000,
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/sz", os.O_CREAT | os.O_RDWR)
            client.write(fd, b"q" * 100)
            client.stat("/gkfs/sz")  # would cache a pre-flush record
            client.pwrite(fd, b"q" * 300, 0)  # buffered size update
            assert client.stat("/gkfs/sz").size == 300
            client.close(fd)
            assert client.stat("/gkfs/sz").size == 300

    def test_cache_off_is_structurally_absent(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=256)) as fs:
            client = fs.client(0)
            assert client.meta.leases is None
            for daemon in fs.daemons:
                assert daemon.hotmeta is None

    def test_cache_metrics_registered(self):
        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            size_cache_enabled=True,
            data_cache_enabled=True,
            data_cache_bytes=4096,
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/m", os.O_CREAT | os.O_WRONLY)
            client.close(fd)
            client.stat("/gkfs/m")
            gauges = client.metrics_registry.snapshot()["gauges"]
            for name in (
                "cache.size_updates_buffered",
                "cache.size_flushes",
                "cache.size_rpcs_saved",
                "cache.data_hits",
                "cache.data_hit_rate",
                "metacache.attr_hits",
                "metacache.hit_rate",
                "metacache.entries",
            ):
                assert name in gauges, name
            assert gauges["metacache.attr_hits"] >= 1
            assert gauges["metacache.entries"] >= 1


# -- hot plane integration ---------------------------------------------------


@pytest.fixture
def hot_fs():
    config = FSConfig(
        chunk_size=256,
        metacache_enabled=True,
        metacache_ttl=0.03,
        metacache_hot_enabled=True,
        metacache_hot_threshold=3,
        metacache_hot_window=5.0,
        metacache_hot_k=2,
        metacache_replica_ttl=5.0,
    )
    with GekkoFSCluster(
        num_nodes=4,
        config=config,
        distributor=RendezvousDistributor(4),
        instrument=True,
    ) as fs:
        yield fs


def _storm(client, path, rounds=12, ttl=0.03):
    for _ in range(rounds):
        client.stat(path)
        time.sleep(ttl * 1.2)  # force a revalidation every round


class TestHotPlane:
    def test_promotion_seeding_and_replica_serving(self, hot_fs):
        client = hot_fs.client(0)
        fd = client.open("/gkfs/hot", os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"h" * 64)
        client.close(fd)
        owner = hot_fs.view.locate_metadata("/hot")
        _storm(client, "/gkfs/hot")
        tracker = hot_fs.daemons[owner].hotmeta.tracker
        assert tracker.is_hot("/hot")
        targets = hot_replica_targets("/hot", owner, 4, 2)
        seeded = [t for t in targets if len(hot_fs.daemons[t].hotmeta.replicas)]
        assert seeded, "no replica daemon holds the hot record"
        assert client.meta.leases.stats.replica_seeds >= 1
        # keep revalidating: the rotation must reach a replica
        _storm(client, "/gkfs/hot")
        assert client.meta.leases.stats.replica_reads >= 1
        replica_hits = sum(
            hot_fs.daemons[t].hotmeta.replicas.stats.hits for t in targets
        )
        assert replica_hits >= 1

    def test_write_through_demotes_and_drops_replicas(self, hot_fs):
        client = hot_fs.client(0)
        fd = client.open("/gkfs/wt", os.O_CREAT | os.O_WRONLY)
        client.write(fd, b"1" * 64)
        client.close(fd)
        owner = hot_fs.view.locate_metadata("/wt")
        _storm(client, "/gkfs/wt")
        assert hot_fs.daemons[owner].hotmeta.tracker.is_hot("/wt")
        client.truncate("/gkfs/wt", 8)  # write-through to the owner
        assert not hot_fs.daemons[owner].hotmeta.tracker.is_hot("/wt")
        for t in hot_replica_targets("/wt", owner, 4, 2):
            assert hot_fs.daemons[t].hotmeta.replicas.get("/wt") is None
        assert client.stat("/gkfs/wt").size == 8

    def test_unlink_of_hot_key_never_resurrects_from_replicas(self, hot_fs):
        client = hot_fs.client(0)
        fd = client.open("/gkfs/gone", os.O_CREAT | os.O_WRONLY)
        client.close(fd)
        _storm(client, "/gkfs/gone")
        client.unlink("/gkfs/gone")
        with pytest.raises(NotFoundError):
            client.stat("/gkfs/gone")
        time.sleep(0.05)  # a later lease-expired client must also miss
        with pytest.raises(NotFoundError):
            client.stat("/gkfs/gone")

    def test_replica_ttl_bounds_staleness_for_unaware_mutators(self):
        """A mutation by a client that never saw the key as hot reaches
        replica holders at latest when their copies age out."""
        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            metacache_ttl=0.02,
            metacache_hot_enabled=True,
            metacache_hot_threshold=2,
            metacache_hot_window=10.0,
            metacache_hot_k=2,
            metacache_replica_ttl=0.1,
        )
        with GekkoFSCluster(
            num_nodes=4, config=config, distributor=RendezvousDistributor(4)
        ) as fs:
            reader = fs.client(0)
            fd = reader.open("/gkfs/b", os.O_CREAT | os.O_WRONLY)
            reader.write(fd, b"o" * 90)
            reader.close(fd)
            _storm(reader, "/gkfs/b", rounds=8, ttl=0.02)
            owner = fs.view.locate_metadata("/b")
            targets = hot_replica_targets("/b", owner, 4, 2)
            assert any(
                fs.daemons[t].hotmeta.replicas.stats.puts for t in targets
            ), "hot record was never seeded"
            # an unaware client mutates straight at the owner
            plain = fs.client(1)
            plain.meta.leases.clear()
            plain.truncate("/gkfs/b", 5)
            time.sleep(0.12)  # > replica_ttl: every stale copy has aged out
            for t in targets:
                assert fs.daemons[t].hotmeta.replicas.get("/b") is None
            time.sleep(0.03)
            assert reader.stat("/gkfs/b").size == 5

    def _drop_with(self, fs, exc):
        """Drop a hot record's replicas with ``exc`` raised by every call."""

        class Raising:
            def __init__(self, inner):
                self.inner = inner

            def call(self, target, handler, *args, **kwargs):
                if handler == "gkfs_drop_hot_replica":
                    raise exc
                return self.inner.call(target, handler, *args, **kwargs)

        client = fs.client(0)
        client.network = Raising(client.network)  # the path reads it per call
        client.meta._drop_hot_replicas("/x", 2)

    def test_replica_drop_tolerates_an_unreachable_replica(self, hot_fs):
        self._drop_with(hot_fs, ConnectionError("down"))  # TTL is the backstop

    def test_replica_drop_propagates_a_bug(self, hot_fs):
        with pytest.raises(TypeError):
            self._drop_with(hot_fs, TypeError("a bug, not an outage"))


# -- elastic membership ------------------------------------------------------


class TestMetaCacheAcrossResize:
    def _moved_path(self, old_nodes: int, new_nodes: int) -> str:
        """A path whose metadata owner changes across the resize."""
        old = RendezvousDistributor(old_nodes)
        new = RendezvousDistributor(new_nodes)
        for i in range(512):
            rel = f"/moved{i}"
            if old.locate_metadata(rel) != new.locate_metadata(rel):
                return rel
        raise AssertionError("no path changed owners?")

    def test_cached_entry_revalidates_against_new_epoch_owner(self):
        """Satellite: a lease cached before a live resize must revalidate
        against the *new* owner after the flip — the hot ring and the
        conditional read both resolve through the live view."""
        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            metacache_ttl=0.2,
        )
        with GekkoFSCluster(
            num_nodes=4, config=config, distributor=RendezvousDistributor(4)
        ) as fs:
            rel = self._moved_path(4, 5)
            path = "/gkfs" + rel
            client = fs.client(0)
            fd = client.open(path, os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"e" * 77)
            client.close(fd)
            assert client.stat(path).size == 77  # lease cached, epoch 0
            report = fs.resize_live(5)
            assert report.epoch == 1
            new_owner = fs.view.locate_metadata(rel)
            assert new_owner == RendezvousDistributor(5).locate_metadata(rel)
            before = fs.daemons[new_owner].engine.calls_served["gkfs_stat_if_changed"]
            time.sleep(0.25)  # lease expires across the membership change
            assert client.stat(path).size == 77
            after = fs.daemons[new_owner].engine.calls_served["gkfs_stat_if_changed"]
            assert after == before + 1  # revalidated at the new epoch's owner
            # and a post-resize mutation is observed after the next expiry
            other = fs.client(1)
            other.truncate(path, 7)
            time.sleep(0.25)
            assert client.stat(path).size == 7

    def test_hot_plane_survives_resize(self):
        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            metacache_ttl=0.03,
            metacache_hot_enabled=True,
            metacache_hot_threshold=3,
            metacache_hot_window=5.0,
            metacache_hot_k=2,
        )
        with GekkoFSCluster(
            num_nodes=4, config=config, distributor=RendezvousDistributor(4)
        ) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/hotgrow", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"g" * 50)
            client.close(fd)
            _storm(client, "/gkfs/hotgrow", rounds=8)
            fs.resize_live(6)
            # leases, rings, and revalidation all resolve via the new view
            _storm(client, "/gkfs/hotgrow", rounds=8)
            assert client.stat("/gkfs/hotgrow").size == 50
            client.truncate("/gkfs/hotgrow", 3)
            assert client.stat("/gkfs/hotgrow").size == 3


# -- rename emulation (opt-in) -----------------------------------------------


class TestRenameEmulation:
    def test_rename_unsupported_by_default(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=256)) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/r", os.O_CREAT | os.O_WRONLY)
            client.close(fd)
            with pytest.raises(UnsupportedError):
                client.rename("/gkfs/r", "/gkfs/r2")

    def test_rename_emulation_moves_data_and_invalidates_meta(self):
        config = FSConfig(
            chunk_size=256, metacache_enabled=True, metacache_ttl=5.0,
            rename_emulation=True,
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/old", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"m" * 300)
            client.close(fd)
            client.stat("/gkfs/old")  # cache the source lease
            client.rename("/gkfs/old", "/gkfs/new")
            with pytest.raises(NotFoundError):
                client.stat("/gkfs/old")  # lease dropped, not served stale
            assert client.stat("/gkfs/new").size == 300
            fd = client.open("/gkfs/new", os.O_RDONLY)
            assert client.pread(fd, 300, 0) == b"m" * 300
            client.close(fd)


# -- socket transport --------------------------------------------------------


class TestMetaCacheOverSockets:
    def test_lease_and_hot_plane_over_sockets(self):
        from repro.net import LocalSocketCluster

        config = FSConfig(
            chunk_size=256,
            metacache_enabled=True,
            metacache_ttl=0.03,
            metacache_hot_enabled=True,
            metacache_hot_threshold=3,
            metacache_hot_window=5.0,
            metacache_hot_k=2,
            metacache_replica_ttl=5.0,
        )
        with LocalSocketCluster(3, config) as cluster:
            for served in cluster.served:
                assert served.daemon.hotmeta is not None
            client = cluster.client(0)
            fd = client.open("/gkfs/sock", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"s" * 128)
            client.close(fd)
            # warm + hammer: version stamps (unsigned 64-bit) cross the
            # wire codec on every conditional read
            for _ in range(10):
                assert client.stat("/gkfs/sock").size == 128
                time.sleep(0.04)
            stats = client.meta.leases.stats
            assert stats.revalidations >= 1
            assert stats.revalidated_unchanged >= 1
            client.truncate("/gkfs/sock", 9)
            assert client.stat("/gkfs/sock").size == 9
            client.unlink("/gkfs/sock")
            with pytest.raises(NotFoundError):
                client.stat("/gkfs/sock")
