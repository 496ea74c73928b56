"""Elastic membership: live resize, crash-replace, and the epoch plane.

The scenarios ISSUE-7 demands: online grow under concurrent client load,
crash mid-migration (abort leaves the old placement authoritative, retry
succeeds), a partition between mover and target, bitrot on a source
chunk falling over to the surviving replica, and crash-replace restoring
full redundancy — plus unit coverage of the MembershipView state machine
and the server-side ``min_epoch`` stale-epoch defence.
"""

import os
import threading
import time

import pytest

from repro.common.errors import (
    GekkoError,
    IntegrityError,
    NotFoundError,
    StaleEpochError,
)
from repro.core import (
    FSConfig,
    GekkoFSCluster,
    RendezvousDistributor,
    SimpleHashDistributor,
)
from repro.core.distributor import replica_set
from repro.core.fsck import check as fsck_check
from repro.core.metadata import record_head
from repro.core.membership import (
    MembershipView,
    MIGRATING,
    RELEASING,
    STABLE,
)
from repro.core.resize import (
    MIGRATION_CLIENT_ID,
    Migrator,
    MigrationReport,
    live_migrate,
)
from repro.faults.chaos import ChaosController
from repro.faults.scrub import Scrubber
from repro.net.cluster import LocalSocketCluster
from repro.qos.pool import MIGRATION_WEIGHT

#: Everything a failed mover call may legitimately surface as, depending
#: on which transport layer (partition, crash, breaker) broke first.
_MOVE_FAILURES = (GekkoError, ConnectionError, LookupError, OSError)


def populate(fs, files=20, file_bytes=600, prefix="/gkfs/data"):
    client = fs.client(0)
    if not client.exists(prefix):
        client.mkdir(prefix)
    contents = {}
    for i in range(files):
        path = f"{prefix}/f{i:03d}"
        payload = bytes([(i + 1) & 0xFF]) * file_bytes
        fd = client.open(path, os.O_CREAT | os.O_WRONLY)
        client.write(fd, payload)
        client.close(fd)
        contents[path] = payload
    return contents


def verify(fs, contents):
    client = fs.client(0)
    for path, payload in contents.items():
        fd = client.open(path)
        assert client.read(fd, len(payload) + 1) == payload
        client.close(fd)


class TestMembershipView:
    def test_initial_state(self):
        view = MembershipView(SimpleHashDistributor(4))
        assert view.state == STABLE
        assert view.epoch == 0
        assert view.num_daemons == 4
        assert view.old_metadata_targets("/x", 2) == []
        assert view.old_chunk_targets("/x", 0, 2) == []

    def test_change_protocol_walk(self):
        old = SimpleHashDistributor(2)
        new = SimpleHashDistributor(4)
        view = MembershipView(old)
        epoch = view.begin_change(new)
        assert epoch == 1
        assert view.state == MIGRATING
        # Old placement stays authoritative while MIGRATING.
        assert view.num_daemons == 2
        assert view.distributor is old
        view.commit_change()
        assert view.state == RELEASING
        assert view.distributor is new
        # Dual-epoch fallback targets resolve against the retiring map.
        assert view.old_metadata_targets("/x", 1) == [old.locate_metadata("/x")]
        view.seal()
        assert view.state == STABLE
        assert view.old_metadata_targets("/x", 1) == []

    def test_abort_restores_stable(self):
        view = MembershipView(SimpleHashDistributor(2))
        view.begin_change(SimpleHashDistributor(4))
        view.abort_change()
        assert view.state == STABLE
        assert view.num_daemons == 2
        # The epoch bump is not rolled back — epochs only move forward.
        assert view.epoch == 1

    def test_invalid_transitions_rejected(self):
        view = MembershipView(SimpleHashDistributor(2))
        with pytest.raises(RuntimeError):
            view.commit_change()
        with pytest.raises(RuntimeError):
            view.abort_change()
        with pytest.raises(RuntimeError):
            view.seal()
        view.begin_change(SimpleHashDistributor(3))
        with pytest.raises(RuntimeError):
            view.begin_change(SimpleHashDistributor(4))

    def test_write_freeze_blocks_then_releases(self):
        view = MembershipView(SimpleHashDistributor(2))
        view.freeze_writes()
        waited = []

        def writer():
            view.wait_writable()
            waited.append(True)

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.02)
        assert not waited  # parked at the gate
        view.unfreeze_writes()
        thread.join(timeout=5)
        assert waited


class TestStaleClients:
    def test_daemons_reject_retired_epoch_server_side(self):
        """A duck-typed client that bypasses the view is still rejected
        by the daemon's min_epoch watermark once the resize seals."""
        with GekkoFSCluster(num_nodes=2) as fs:
            fs.client(0).mkdir("/gkfs/d")
            fs.resize_live(3)
            # Daemons key by mount-relative paths: "/gkfs/d" is "/d".
            with pytest.raises(StaleEpochError):
                fs.network.call(0, "gkfs_stat", "/d", epoch=0)
            # Unstamped legacy calls and current-epoch calls still serve.
            owner = fs.view.locate_metadata("/d")
            fs.network.call(owner, "gkfs_stat", "/d")
            fs.network.call(owner, "gkfs_stat", "/d", epoch=fs.view.epoch)


class TestLiveResize:
    def test_live_grow_preserves_everything(self):
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs)
            client = fs.client(0)  # built before the change
            report = fs.resize_live(5)
            assert fs.num_nodes == 5
            assert report.mode == "live"
            assert report.epoch == 1
            assert fs.view.state == STABLE
            assert fs.view.epoch == 1
            # The pre-resize client follows the flip without a rebuild.
            for path, payload in contents.items():
                fd = client.open(path)
                assert client.read(fd, len(payload) + 1) == payload
                client.close(fd)
            client.close(client.creat("/gkfs/data/after"))
            verify(fs, contents)

    def test_live_shrink_preserves_everything(self):
        with GekkoFSCluster(
            num_nodes=5,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(5),
        ) as fs:
            contents = populate(fs)
            report = fs.resize_live(2)
            assert fs.num_nodes == 2
            assert len(fs.daemons) == 2
            assert report.released > 0  # drained sources gave up copies
            verify(fs, contents)

    def test_live_grow_moves_about_one_nth(self):
        with GekkoFSCluster(
            num_nodes=4,
            config=FSConfig(chunk_size=64),
            distributor=RendezvousDistributor(4),
        ) as fs:
            populate(fs, files=40, file_bytes=640)  # 400 chunks
            report = fs.resize_live(5)
            # Ideal: 1/5 of chunks move.  Slack for hash variance.
            assert 0 < report.chunks_moved_fraction < 0.4
            assert report.verified >= report.chunks_moved
            assert report.verify_failures == 0

    def test_throttled_migration_converges(self):
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=256),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs, files=8, file_bytes=512)
            report = fs.resize_live(3, rate=512 * 1024)
            assert report.bytes_moved > 0
            assert report.duration > 0
            verify(fs, contents)

    def test_report_accounting(self):
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            populate(fs, files=12)
            report = fs.resize_live(4)
            d = report.as_dict()
            for key in (
                "bytes_moved",
                "duration",
                "passes",
                "verified",
                "released",
                "per_daemon",
                "epoch",
                "mode",
            ):
                assert key in d
            assert d["mode"] == "live"
            # Traffic in == traffic out, byte for byte.
            bytes_in = sum(e["bytes_in"] for e in report.per_daemon.values())
            bytes_out = sum(e["bytes_out"] for e in report.per_daemon.values())
            assert bytes_in == report.bytes_moved
            assert bytes_out == report.bytes_moved
            assert "live" in str(report)

    def test_live_grow_installs_largest_replica_size(self):
        """The old primary missed each file's last size update: the new
        owners get the largest size the authoritative holders have, not
        the primary's understated one."""
        config = FSConfig(chunk_size=128, replication=2)
        with GekkoFSCluster(
            num_nodes=3, config=config, distributor=RendezvousDistributor(3)
        ) as fs:
            contents = populate(fs, files=12)
            for path in contents:
                rel = path[len("/gkfs") :]
                primary = fs.view.distributor.locate_metadata(rel)
                fs.daemons[primary].truncate_metadata(rel, 128)
            fs.resize_live(6)
            dist = fs.view.distributor
            client = fs.client(0)
            for path, payload in contents.items():
                rel = path[len("/gkfs") :]
                for owner in replica_set(dist.locate_metadata(rel), 2, 6):
                    record = fs.daemons[owner].kv.get(rel.encode("utf-8"))
                    assert record_head(record)[1] == len(payload), (path, owner)
                assert client.stat(path).size == len(payload)
            verify(fs, contents)

    def test_live_grow_under_concurrent_writes(self):
        """Clients keep writing through the change; every acknowledged
        byte is present and correct afterwards."""
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
            threaded=True,
        ) as fs:
            contents = populate(fs, files=10)
            client = fs.client(0)
            client.mkdir("/gkfs/hot")
            acked = {}
            errors = []
            stop = threading.Event()

            def writer():
                i = 0
                while not stop.is_set():
                    path = f"/gkfs/hot/w{i:04d}"
                    payload = bytes([(i % 251) + 1]) * 300
                    try:
                        fd = client.open(path, os.O_CREAT | os.O_WRONLY)
                        client.write(fd, payload)
                        client.close(fd)
                    except Exception as exc:  # pragma: no cover - fatal
                        errors.append(exc)
                        return
                    acked[path] = payload
                    i += 1

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                time.sleep(0.05)
                report = fs.resize_live(4)
                time.sleep(0.05)
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not errors, f"writer failed during live resize: {errors[0]!r}"
            assert report.epoch == 1
            # Writes kept flowing while the migrator ran.
            assert len(acked) > 0
            reader = fs.client(0)
            for path, payload in {**contents, **acked}.items():
                fd = reader.open(path)
                assert reader.read(fd, len(payload) + 1) == payload, path
                reader.close(fd)

    def test_unlink_during_migration_does_not_resurrect(self, monkeypatch):
        """A file unlinked *after* a pre-copy pass streamed it to its new
        owners must stay deleted: the frozen delta pass propagates the
        absence, so the stale target copies cannot resurrect an
        acknowledged deletion after the flip."""
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs)
            # Pick a victim whose record or chunks actually land on the
            # joining daemons — otherwise nothing would be pre-copied and
            # the resurrection path would not be exercised.
            new_dist = RendezvousDistributor(4)
            victim = None
            for path in contents:
                rel = path[len("/gkfs") :]
                if new_dist.locate_metadata(rel) >= 2 and any(
                    new_dist.locate_chunk(rel, cid) >= 2 for cid in range(5)
                ):
                    victim = path
                    break
            assert victim is not None
            victim_rel = victim[len("/gkfs") :]
            client = fs.client(0)
            original = Migrator.copy_pass
            deleted = {"done": False}

            def hooked(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                if not deleted["done"]:
                    deleted["done"] = True
                    client.unlink(victim)  # mutation between pre-copy rounds
                return result

            monkeypatch.setattr(Migrator, "copy_pass", hooked)
            fs.resize_live(4)
            assert deleted["done"]
            reader = fs.client(0)
            assert not reader.exists(victim)
            # No daemon still holds the record or any chunk copy.
            for daemon in fs.live_daemons():
                assert daemon.kv.get(victim_rel.encode("utf-8")) is None
                assert victim_rel not in set(daemon.storage.paths())
            del contents[victim]
            verify(fs, contents)
            assert fsck_check(fs).clean

    def test_frozen_delta_pass_runs_unthrottled(self, monkeypatch):
        """live_migrate's final pass must bypass the token bucket (and
        propagate deletions): a low migration_rate throttles pre-copy
        only, never the write freeze."""
        calls = []
        original = Migrator.copy_pass

        def recording(self, *args, **kwargs):
            calls.append(dict(kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Migrator, "copy_pass", recording)
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs, files=6)
            fs.resize_live(4, rate=1024 * 1024)
            verify(fs, contents)
        frozen = calls[-1]
        assert frozen.get("throttle") is False
        assert frozen.get("propagate_deletes") is True
        assert all(k.get("throttle", True) for k in calls[:-1])

    def test_unthrottled_pass_bypasses_token_bucket(self):
        """``throttle=False`` ignores the rate cap entirely — the
        guarantee that keeps the write freeze shorter than the client
        gate's timeout regardless of ``migration_rate``."""
        with GekkoFSCluster(
            num_nodes=4,
            config=FSConfig(chunk_size=128),
            distributor=SimpleHashDistributor(4),
        ) as fs:
            populate(fs, files=6, file_bytes=600)
            report = MigrationReport(old_nodes=4, new_nodes=4)
            # 16 B/s: a throttled pass over kilobytes would take minutes.
            migrator = Migrator(fs, report, rate=16.0)
            started = time.monotonic()
            moved = migrator.copy_pass(
                RendezvousDistributor(4),
                source_dist=fs.view.distributor,
                throttle=False,
            )
            assert moved > 0
            assert time.monotonic() - started < 5.0

    def test_records_only_pass_reports_nonzero(self):
        """A pass that moves only KV records returns a nonzero cost, so
        convergence loops (live pre-copy) see metadata churn instead of declaring convergence early."""
        config = FSConfig(chunk_size=128, replication=2)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            client = fs.client(0)
            client.mkdir("/gkfs/dir")  # one record, zero chunks
            primary = fs.distributor.locate_metadata("/dir")
            secondary = (primary + 1) % 3
            assert fs.daemons[secondary].kv.get(b"/dir") is not None
            fs.daemons[secondary].kv.delete(b"/dir")
            migrator = Migrator(fs, MigrationReport(old_nodes=3, new_nodes=3))
            moved = migrator.copy_pass(
                fs.view.distributor, source_dist=fs.view.distributor
            )
            assert moved > 0  # key+value bytes of the healed record
            assert fs.daemons[secondary].kv.get(b"/dir") is not None

    def test_dual_epoch_outage_is_not_enoent(self):
        """During RELEASING, a transient failure on the current-epoch
        owner plus NotFound from the retiring owner must surface the
        outage: ENOENT is authoritative only when every target answered."""
        with GekkoFSCluster(num_nodes=4, config=FSConfig(chunk_size=128)) as fs:
            old_dist = fs.view.distributor
            new_dist = RendezvousDistributor(4)
            rel = next(
                (
                    f"/nope{i}"
                    for i in range(64)
                    if new_dist.locate_metadata(f"/nope{i}")
                    != old_dist.locate_metadata(f"/nope{i}")
                ),
                None,
            )
            assert rel is not None
            client = fs.client(0)
            fs.view.begin_change(new_dist)
            fs.view.commit_change()  # RELEASING: dual-epoch reads active
            try:
                fs.crash_daemon(new_dist.locate_metadata(rel))
                with pytest.raises(Exception) as excinfo:
                    client.stat("/gkfs" + rel)
                # The unreachable authoritative replica may hold the
                # record; reporting ENOENT would be a phantom deletion.
                assert not isinstance(excinfo.value, NotFoundError)
            finally:
                fs.view.seal()

    def test_migration_yields_in_qos_lane(self):
        """With QoS on, mover traffic is accounted to the reserved
        low-weight migration client, not to any foreground identity."""
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128, qos_enabled=True),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs, files=10)
            fs.resize_live(4)
            shares = fs.client_shares()
            assert MIGRATION_CLIENT_ID in shares
            assert shares[MIGRATION_CLIENT_ID]["ops"] > 0
            verify(fs, contents)


    def test_migration_yields_in_qos_lane_over_sockets(self):
        """The same holds when every daemon assembles its own pool behind
        a socket: the migrator arrives under its reserved identity, and
        each pool schedules that identity at the migration weight."""
        config = FSConfig(chunk_size=128, qos_enabled=True)
        with LocalSocketCluster(2, config=config) as fs:
            contents = populate(fs, files=10)
            live_migrate(fs, RendezvousDistributor(2))
            for address, served in enumerate(fs.served):
                pool = served._dispatch._pool_for(address)
                assert MIGRATION_CLIENT_ID in pool.client_shares()
                for lane in pool.lanes.values():
                    assert lane.wfq.weight_of(MIGRATION_CLIENT_ID) == MIGRATION_WEIGHT
                    assert lane.wfq.weight_of(0) == 1.0  # a foreground client
            verify(fs, contents)


class TestChaosMidMigration:
    def test_crash_mid_migration_aborts_then_retries(self):
        """Crash the target of the very first chunk copy: the change
        aborts with the old placement authoritative, the cluster heals,
        and a retried resize completes."""
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs)
            chaos = ChaosController(fs, seed=101)
            chaos.crash_on("gkfs_replace_chunk")
            with pytest.raises(_MOVE_FAILURES):
                fs.resize_live(4)
            # Old placement never stopped being authoritative.
            assert fs.view.state == STABLE
            assert fs.view.num_daemons == 2
            verify(fs, contents)
            crashed = fs.crashed_daemons
            assert len(crashed) == 1
            for address in crashed:
                fs.restart_daemon(address, recover=False)
            report = fs.resize_live(4)
            assert report.epoch == 2  # aborted epoch is not reused
            assert fs.view.num_daemons == 4
            verify(fs, contents)

    def test_partition_between_mover_and_target(self):
        """Cut the joining daemons off mid-copy: abort, heal, retry."""
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=128),
            distributor=RendezvousDistributor(2),
        ) as fs:
            contents = populate(fs)
            chaos = ChaosController(fs, seed=202)
            # Pre-build the joining daemons' addresses in the partition
            # set: they are cut off from the first mover RPC onwards.
            chaos.partition([2, 3])
            with pytest.raises(_MOVE_FAILURES):
                fs.resize_live(4)
            assert fs.view.state == STABLE
            assert fs.view.num_daemons == 2
            verify(fs, contents)
            chaos.heal()
            report = fs.resize_live(4)
            assert fs.view.num_daemons == 4
            assert report.verify_failures == 0
            verify(fs, contents)

    def test_bitrot_on_source_falls_to_surviving_replica(self):
        """A rotted source copy fails its verified read; the mover falls
        over to the surviving replica and installs a clean copy."""
        config = FSConfig(chunk_size=128, replication=2, integrity_enabled=True)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            client = fs.client(0)
            payload = b"\xa5" * 128
            fd = client.open("/gkfs/victim", os.O_CREAT | os.O_WRONLY)
            client.write(fd, payload)
            client.close(fd)
            # Daemons key by mount-relative paths: "/gkfs/victim" is "/victim".
            primary = fs.distributor.locate_chunk("/victim", 0)
            secondary = (primary + 1) % 3
            spare = (primary + 2) % 3
            # Rot the primary's copy below the file system.
            assert fs.daemons[primary].storage.corrupt_chunk("/victim", 0, 5)
            report = MigrationReport(old_nodes=3, new_nodes=3)
            migrator = Migrator(fs, report)
            seen = fs.network.call(spare, "gkfs_chunk_digest", "/victim", 0)
            copied = migrator._copy_chunk([primary, secondary], "/victim", 0, spare, seen)
            assert copied == 128  # served by the survivor
            assert report.per_daemon[secondary]["chunks_out"] == 1
            assert (
                fs.daemons[spare].storage.read_chunk("/victim", 0, 0, 128) == payload
            )
            assert report.verified == 1
            assert report.verify_failures == 0
            # Out-traffic is charged to the replica that actually served
            # the payload, not the corrupt preferred source.
            assert report.per_daemon[secondary]["bytes_out"] == 128
            assert report.per_daemon.get(primary, {}).get("bytes_out", 0) == 0

    def test_rotted_copy_that_stays_put_is_restored(self):
        """Replication 2, 3 -> 4 daemons: a chunk held on [2, 0] wants
        [2, 3].  Daemon 2's copy rotted; the pass restores it from daemon
        0 before the release drops that copy, so both desired owners end
        up healthy instead of one."""
        config = FSConfig(chunk_size=128, replication=2, integrity_enabled=True)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            contents = populate(fs)
            grown = type(fs.distributor)(4)
            rel, cid = next(
                (rel, cid)
                for rel in (path[len("/gkfs"):] for path in contents)
                for cid in range(5)
                if fs.distributor.locate_chunk(rel, cid) == 2 == grown.locate_chunk(rel, cid)
            )
            assert fs.daemons[2].storage.corrupt_chunk(rel, cid, 5)
            fs.resize_live(4)
            assert fs.daemons[2].storage.verify_chunk(rel, cid)
            assert fs.daemons[3].storage.verify_chunk(rel, cid)
            assert cid not in fs.daemons[0].storage.chunk_ids(rel)
            assert Scrubber(fs).run().corrupt_found == 0
            verify(fs, contents)

    def test_bitrot_on_sole_source_is_fatal(self):
        """With no surviving replica the mover surfaces the corruption
        instead of propagating a bad copy."""
        config = FSConfig(chunk_size=128, integrity_enabled=True)
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/victim", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"\x5a" * 128)
            client.close(fd)
            owner = fs.distributor.locate_chunk("/victim", 0)
            other = 1 - owner
            assert fs.daemons[owner].storage.corrupt_chunk("/victim", 0, 3)
            migrator = Migrator(fs, MigrationReport(old_nodes=2, new_nodes=2))
            seen = fs.network.call(other, "gkfs_chunk_digest", "/victim", 0)
            with pytest.raises(IntegrityError):
                migrator._copy_chunk([owner], "/victim", 0, other, seen)
            assert fs.daemons[other].storage.chunk_ids("/victim") == []


class TestCrashReplace:
    def _chunk_holders(self, fs):
        holders = {}
        for daemon in fs.live_daemons():
            for path in daemon.storage.paths():
                for chunk_id in daemon.storage.chunk_ids(path):
                    holders.setdefault((path, chunk_id), set()).add(daemon.address)
        return holders

    def test_replace_restores_full_redundancy(self):
        config = FSConfig(chunk_size=128, replication=2, integrity_enabled=True)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            contents = populate(fs, files=16)
            victim = 2
            fs.crash_daemon(victim)
            report = fs.replace_daemon(victim)
            assert report.records_restored > 0
            assert report.chunks_restored > 0
            assert report.bytes_restored > 0
            assert report.unreachable == []
            assert victim not in fs.crashed_daemons
            self._assert_full_replica_sets(fs)
            # fsck + a scrub pass agree nothing is lost or corrupt.
            fsck = fsck_check(fs)
            assert fsck.clean
            scrub = Scrubber(fs).run()
            assert scrub.corrupt_found == 0
            verify(fs, contents)

    CFG = dict(chunk_size=4096, replication=3)

    def test_replace_keeps_the_largest_record_size(self):
        """The primary missed the last size update (4096 of 10000): the
        replace restores the acknowledged size everywhere instead of
        rolling the other replicas back to the primary's."""
        with GekkoFSCluster(num_nodes=4, config=FSConfig(**self.CFG)) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
            client.pwrite(fd, b"s" * 10000, 0)
            client.close(fd)
            owners = replica_set(fs.distributor.locate_metadata("/f"), 3, 4)
            fs.daemons[owners[0]].truncate_metadata("/f", 4096)
            victim = owners[-1]
            fs.crash_daemon(victim)
            report = fs.replace_daemon(victim)
            assert report.records_restored >= 1
            for owner in owners:
                assert record_head(fs.daemons[owner].kv.get(b"/f"))[1] == 10000
            assert client.stat("/gkfs/f").size == 10000
            self._assert_full_replica_sets(fs)

    def test_replace_never_overwrites_a_survivors_chunk(self):
        """The primary holds an older same-length payload: the newer one
        on the other survivor is kept byte for byte, and the blank
        replacement gets a whole copy."""
        with GekkoFSCluster(num_nodes=4, config=FSConfig(**self.CFG)) as fs:
            client = fs.client(0)
            old, new = b"o" * 4096, b"n" * 4096
            fd = client.open("/gkfs/c", os.O_CREAT | os.O_WRONLY)
            client.pwrite(fd, new, 0)
            client.close(fd)
            owners = replica_set(fs.distributor.locate_chunk("/c", 0), 3, 4)
            fs.daemons[owners[0]].storage.write_chunk("/c", 0, 0, old)
            victim = owners[-1]
            before = {
                owner: fs.daemons[owner].storage.read_chunk("/c", 0, 0, 4096)
                for owner in owners[:-1]
            }
            fs.crash_daemon(victim)
            fs.replace_daemon(victim)
            for owner, data in before.items():
                assert fs.daemons[owner].storage.read_chunk("/c", 0, 0, 4096) == data
            assert before[owners[1]] == new
            assert len(fs.daemons[victim].storage.read_chunk("/c", 0, 0, 4096)) == 4096
            assert client.stat("/gkfs/c").size == 4096
            self._assert_full_replica_sets(fs)

    def _assert_full_replica_sets(self, fs):
        """Every chunk is back on its full replica set."""
        for (path, chunk_id), holders in self._chunk_holders(fs).items():
            primary = fs.distributor.locate_chunk(path, chunk_id)
            desired = set(replica_set(primary, fs.config.replication, fs.num_nodes))
            assert desired <= holders, (path, chunk_id)

    def test_replace_requires_replication(self):
        with GekkoFSCluster(num_nodes=2) as fs:
            fs.crash_daemon(1)
            with pytest.raises(ValueError):
                fs.replace_daemon(1)

    def test_replace_requires_crashed_daemon(self):
        config = FSConfig(replication=2)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            with pytest.raises(RuntimeError):
                fs.replace_daemon(1)


class TestMigrationTelemetry:
    def test_live_resize_emits_instants_and_metrics(self):
        """The migration timeline (begin/pass/freeze/flip/seal) lands in
        the trace stream, and mover traffic shows up per daemon in the
        report."""
        config = FSConfig(chunk_size=128, telemetry_enabled=True)
        with GekkoFSCluster(
            num_nodes=2, config=config, distributor=RendezvousDistributor(2)
        ) as fs:
            populate(fs, files=8)
            report = fs.resize_live(4)
            assert report.chunks_moved > 0

            names = [e.name for e in fs.trace_collector.events]
            for expected in (
                "migration.begin",
                "migration.pass",
                "migration.freeze",
                "migration.flip",
                "migration.seal",
            ):
                assert expected in names, expected
            seal = next(
                e for e in fs.trace_collector.events if e.name == "migration.seal"
            )
            assert seal.args["bytes_moved"] == report.bytes_moved

            # Mover traffic is accounted once, per address, in the report
            # (the daemons keep no ``migration.*`` copy of it).
            traffic = report.per_daemon.values()
            assert sum(entry["bytes_in"] for entry in traffic) == report.bytes_moved
            assert sum(entry["chunks_in"] for entry in traffic) >= report.chunks_moved
            assert sum(entry["chunks_out"] for entry in traffic) >= report.released > 0
