"""Self-healing: read-repair, background scrubbing, quarantine, fsck.

End-to-end contract of EXT-INTEGRITY: with ``replication >= 2`` every
client read is verified-correct under injected bit-rot (transparent
failover plus read-repair), and one scrub pass converges the deployment
back to zero corrupt replicas.  With ``replication == 1`` corruption is
loud — ``EIO`` to the reader, quarantine by the scrubber, and a damage
report from fsck.
"""

import contextlib
import os
import time

import pytest

from repro.common.errors import IntegrityError
from repro.core import FSConfig, GekkoFSCluster
from repro.core import fsck
from repro.core.chunking import INLINE_THRESHOLD
from repro.faults import splice_faults
from repro.faults.chaos import ChaosController
from repro.faults.scrub import Scrubber
from repro.net import LocalSocketCluster, ProcessCluster
from repro.selfheal import WireRepairer

CHUNK = 4096
NODES = 4
DATA = bytes(range(256)) * (CHUNK * 6 // 256)  # 6 chunks


def make_cluster(replication=2, **kw):
    return GekkoFSCluster(
        num_nodes=NODES,
        config=FSConfig(chunk_size=CHUNK, integrity_enabled=True,
                        replication=replication, **kw),
    )


def corrupt_on(cluster, rel_path, chunk_id, daemon=None):
    """Rot one replica of a chunk in place; returns the daemon address."""
    address = (
        cluster.distributor.locate_chunk(rel_path, chunk_id)
        if daemon is None
        else daemon
    )
    assert cluster.daemons[address].storage.corrupt_chunk(rel_path, chunk_id, 17)
    return address


class TestReadRepair:
    def test_failover_returns_correct_data_and_repairs(self):
        with make_cluster() as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", DATA)
            address = corrupt_on(fs, "/f", 2)
            assert not fs.daemons[address].storage.verify_chunk("/f", 2)
            assert client.read_bytes("/gkfs/f") == DATA
            assert client.stats.integrity_failovers >= 1
            assert client.stats.read_repairs >= 1
            # read-repair rewrote the rotten replica in place
            assert fs.daemons[address].storage.verify_chunk("/f", 2)

    def test_repairs_a_chunk_above_the_inline_threshold(self):
        """The replacement of a chunk too large to ride inline travels as a
        bulk exposure, and must still land in the handler's bulk slot."""
        big = 2 * INLINE_THRESHOLD
        config = FSConfig(chunk_size=big, integrity_enabled=True, replication=2)
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            client = fs.client(0)
            data = DATA * (big // len(DATA) + 1)
            client.write_bytes("/gkfs/f", data)
            address = corrupt_on(fs, "/f", 0)
            assert client.read_bytes("/gkfs/f") == data
            assert client.stats.read_repairs == 1
            assert fs.daemons[address].storage.verify_chunk("/f", 0)

    @pytest.mark.parametrize("offset, count", [(10, 100), (1024, 1024)],
                             ids=["daemon-detects", "client-detects"])
    def test_a_small_read_heals_with_the_whole_chunk_not_its_span(self, offset, count):
        """A small direct read rides the reply as a *span*; read-repair
        installs what it is handed as the whole chunk, so the span must not
        reach it — the bad replica is rewritten from a re-fetched, re-verified
        whole chunk and ends byte-identical to it."""
        import os
        with make_cluster(integrity_block_size=1024) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", DATA)
            chunk = DATA[2 * CHUNK : 3 * CHUNK]
            primary, other = client.data._targets("/f", 2)
            assert fs.daemons[primary].storage.corrupt_chunk("/f", 2, offset + 7)
            fd = client.open("/gkfs/f", os.O_RDONLY)
            assert client.pread(fd, count, 2 * CHUNK + offset) == chunk[offset : offset + count]
            client.close(fd)
            assert client.stats.integrity_failovers == client.stats.read_repairs == 1
            for address in (primary, other):
                storage = fs.daemons[address].storage
                assert storage.read_chunk("/f", 2, 0, CHUNK) == chunk
                assert storage.verify_chunk("/f", 2)

    def test_single_chunk_read_path_fails_over(self):
        with make_cluster() as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", DATA)
            corrupt_on(fs, "/f", 0)
            import os
            fd = client.open("/gkfs/f", os.O_RDONLY)
            assert client.pread(fd, 100, 10) == DATA[10:110]
            client.close(fd)
            assert client.stats.integrity_failovers >= 1

    def test_every_read_verified_under_quarter_bitrot(self):
        # The EXT-INTEGRITY acceptance shape, in miniature.
        with make_cluster() as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", DATA)
            ChaosController(fs, seed=101).bitrot(1, fraction=0.25)
            assert client.read_bytes("/gkfs/f") == DATA

    def test_replication_one_read_raises_eio(self):
        with make_cluster(replication=1) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", DATA)
            corrupt_on(fs, "/f", 1)
            with pytest.raises(IntegrityError):
                client.read_bytes("/gkfs/f")

    def test_verify_writes_roundtrip(self):
        with make_cluster(integrity_verify_writes=True) as fs:
            client = fs.client(0)
            assert client.data._verify_writes is True
            client.write_bytes("/gkfs/f", DATA)
            assert client.read_bytes("/gkfs/f") == DATA


@pytest.fixture
def deploy(request):
    """``deploy(replication, **config)`` starts a 4-daemon deployment of the
    test class's ``KIND`` with integrity on; each is stopped after the test."""
    with contextlib.ExitStack() as stack:
        def start(replication=2, **kw):
            config = FSConfig(chunk_size=CHUNK, integrity_enabled=True,
                              replication=replication, **kw)
            return stack.enter_context(request.cls.KIND(NODES, config))

        yield start


def daemons(fs) -> list:
    if isinstance(fs, LocalSocketCluster):
        return [served.daemon for served in fs.served]
    return fs.daemons


def rot(fs, rel_path, chunk_id, replica=0):
    """Rot one replica of a chunk in place; returns the daemon address."""
    address = WireRepairer(fs)._chunk_owners(rel_path, chunk_id)[replica]
    assert daemons(fs)[address].storage.corrupt_chunk(rel_path, chunk_id, 17)
    return address


class TestScrubber:
    KIND = GekkoFSCluster

    def test_pass_repairs_all_with_replicas(self, deploy):
        fs = deploy()
        client = fs.client(0)
        client.write_bytes("/gkfs/f", DATA)
        rotted = [rot(fs, "/f", 0), rot(fs, "/f", 3, replica=1), rot(fs, "/f", 5)]
        scrubber = Scrubber(fs)
        report = scrubber.run()
        assert report.chunks_scanned > 0
        assert report.corrupt_found == len(rotted)
        assert report.repaired == report.corrupt_found
        assert report.unrepairable == 0
        assert report.converged
        # second pass: nothing left to find
        assert scrubber.run().corrupt_found == 0
        assert client.read_bytes("/gkfs/f") == DATA

    def test_unrepairable_is_quarantined_and_fsck_reports_it(self, deploy):
        fs = deploy(replication=1)
        client = fs.client(0)
        client.write_bytes("/gkfs/f", DATA)
        address = rot(fs, "/f", 3)
        report = Scrubber(fs).run()
        assert report.corrupt_found == 1
        assert report.repaired == 0
        assert report.unrepairable == 1
        assert not report.converged
        assert report.quarantined == [(address, "/f", 3)]
        assert daemons(fs)[address].storage.is_quarantined("/f", 3)
        damage = fsck.check(fs)
        assert not damage.clean
        assert ("/f", address, 3) in damage.quarantined_chunks
        assert ("/f", address, 3) in damage.corrupt_chunks
        with pytest.raises(IntegrityError):
            client.read_bytes("/gkfs/f")

    def test_report_as_dict_is_json_shaped(self, deploy):
        fs = deploy(replication=1)
        fs.client(0).write_bytes("/gkfs/f", DATA)
        rot(fs, "/f", 0)
        d = Scrubber(fs).run().as_dict()
        assert d["corrupt_found"] == 1 and d["unrepairable"] == 1
        assert d["quarantined"] and isinstance(d["quarantined"][0], list)
        assert all(isinstance(k, str) for k in d["per_daemon"])

    def test_rate_limit_paces_each_chunk(self, deploy):
        fs = deploy()
        fs.client(0).write_bytes("/gkfs/f", DATA)
        naps = []
        scrubber = Scrubber(fs, rate_limit=100.0, sleep=naps.append)
        report = scrubber.run()
        assert len(naps) == report.chunks_scanned == 12  # 6 chunks, 2 copies
        assert all(nap == pytest.approx(0.01) for nap in naps)

    def test_rate_limit_validation(self, deploy):
        fs = deploy()
        with pytest.raises(ValueError):
            Scrubber(fs, rate_limit=0)

    def test_background_loop_runs_passes(self, deploy):
        fs = deploy()
        fs.client(0).write_bytes("/gkfs/f", DATA)
        scrubber = Scrubber(fs)
        scrubber.start(interval=0.005)
        with pytest.raises(RuntimeError):
            scrubber.start(interval=0.005)
        deadline = time.time() + 5.0
        while scrubber.passes < 2 and time.time() < deadline:
            time.sleep(0.005)
        scrubber.stop()
        assert scrubber.passes >= 2
        assert scrubber.last_report is not None
        scrubber.stop()  # idempotent

    def test_metrics_count_scrub_activity(self, deploy):
        """What the scrubber found and restored on a daemon is that daemon's
        own ``integrity.*`` metrics."""
        fs = deploy()
        fs.client(0).write_bytes("/gkfs/f", DATA)
        address = rot(fs, "/f", 1)
        report = Scrubber(fs).run()
        gauges = daemons(fs)[address].metrics.snapshot()["gauges"]
        assert gauges["integrity.checksum_failures"] >= 1
        assert gauges["integrity.chunks_replaced"] == 1
        assert report.per_daemon[address]["scanned"] > 0

    def test_a_crashed_daemon_is_skipped(self, deploy):
        fs = deploy()
        fs.client(0).write_bytes("/gkfs/f", DATA)
        address = rot(fs, "/f", 2)
        owners = WireRepairer(fs)._chunk_owners("/f", 2)
        down = next(a for a in range(NODES) if a not in owners)
        fs.crash_daemon(down)
        report = Scrubber(fs).run()
        assert down not in report.per_daemon and address in report.per_daemon
        assert report.repaired == report.corrupt_found == 1


class TestScrubberOverSockets(TestScrubber):
    KIND = LocalSocketCluster


class TestScrubberRaces:
    """The scrubber decides over the wire, so a foreground write can land
    between any two of its calls; it must never undo one."""

    KIND = GekkoFSCluster

    def test_a_chunk_healed_before_its_fence_is_not_fenced(self, deploy):
        fs = deploy(replication=1)
        client = fs.client(0)
        client.write_bytes("/gkfs/f", DATA)
        address = rot(fs, "/f", 3)
        fresh = bytes(reversed(DATA[3 * CHUNK : 4 * CHUNK]))

        def overwrite(_request) -> None:
            fd = client.open("/gkfs/f", os.O_WRONLY)
            client.pwrite(fd, fresh, 3 * CHUNK)
            client.close(fd)

        splice_faults(fs.network).arm(
            lambda request: request.handler == "gkfs_quarantine_chunk",
            overwrite,
            exc_factory=lambda _request: None,
        )
        report = Scrubber(fs).run()
        assert (report.corrupt_found, report.repaired, report.unrepairable) == (1, 0, 0)
        assert report.quarantined == []
        assert not daemons(fs)[address].storage.is_quarantined("/f", 3)
        want = DATA[: 3 * CHUNK] + fresh + DATA[4 * CHUNK :]
        assert client.read_bytes("/gkfs/f") == want

    def test_a_write_between_source_read_and_guard_is_kept(self, deploy):
        fs = deploy()
        client = fs.client(0)
        client.write_bytes("/gkfs/f", DATA)
        address = rot(fs, "/f", 2)
        fresh = bytes(reversed(DATA[2 * CHUNK : 3 * CHUNK]))

        def guard(request) -> bool:
            """The restore's replace, which carries its guard."""
            return (request.handler, request.target, tuple(request.args[:2])) == (
                "gkfs_replace_chunk", address, ("/f", 2)
            )

        def overwrite(_request) -> None:
            fd = client.open("/gkfs/f", os.O_WRONLY)
            client.pwrite(fd, fresh, 2 * CHUNK)
            client.close(fd)

        splice_faults(fs.network).arm(guard, overwrite, exc_factory=lambda _request: None)
        report = Scrubber(fs).run()
        assert (report.corrupt_found, report.repaired, report.unrepairable) == (1, 0, 0)
        want = DATA[: 2 * CHUNK] + fresh + DATA[3 * CHUNK :]
        assert client.read_bytes("/gkfs/f") == want
        for owner in WireRepairer(fs)._chunk_owners("/f", 2):
            assert daemons(fs)[owner].storage.read_chunk("/f", 2, 0, CHUNK) == fresh
            assert daemons(fs)[owner].storage.verify_chunk("/f", 2)


class TestScrubberRacesOverSockets(TestScrubberRaces):
    KIND = LocalSocketCluster


def assert_verified_reads_fail(fs, address, damaged):
    """A verified read of each damaged chunk, over the wire, is refused."""
    assert damaged
    for path, chunk_id in damaged:
        with pytest.raises(IntegrityError):
            fs.network.call(address, "gkfs_chunk_digest", path, chunk_id)


class TestChaosInjectors:
    """Chaos lists a daemon's chunks over the wire and damages them through
    the deployment's hook, so the same seed hits the same chunks on every
    substrate."""

    KIND = GekkoFSCluster

    def test_bitrot_is_seed_deterministic(self, deploy):
        picks = []
        for _ in range(2):
            fs = deploy()
            fs.client(0).write_bytes("/gkfs/f", DATA)
            picks.append(ChaosController(fs, seed=303).bitrot(0, fraction=0.5))
            assert_verified_reads_fail(fs, 0, picks[-1])
        assert picks[0] == picks[1]

    def test_torn_write_leaves_short_payload(self, deploy):
        fs = deploy()
        fs.client(0).write_bytes("/gkfs/f", DATA)
        torn = ChaosController(fs, seed=9).torn_write(1, fraction=0.5)
        storage = daemons(fs)[1].storage
        assert torn
        for path, chunk_id in torn:
            assert not storage.verify_chunk(path, chunk_id)
            with pytest.raises(IntegrityError, match="torn"):
                storage.read_chunk_verified(path, chunk_id, 0, CHUNK)
        # Each torn chunk is detected twice: by the whole-chunk check
        # and by the verified read.
        assert storage.integrity_stats.torn_chunks == 2 * len(torn)
        assert_verified_reads_fail(fs, 1, torn)


class TestChaosInjectorsOverSockets(TestChaosInjectors):
    KIND = LocalSocketCluster


class TestChaosInjectorsOnProcesses:
    """Out of process the damage is an edit of the chunk file on the node's
    disk; the seeded picks are the in-process ones."""

    @pytest.fixture(scope="class")
    def fs(self, tmp_path_factory):
        config = FSConfig(chunk_size=CHUNK, integrity_enabled=True, replication=2,
                          data_dir=str(tmp_path_factory.mktemp("chaos") / "data"))
        with ProcessCluster(NODES, config) as fs:
            fs.client(0).write_bytes("/gkfs/f", DATA)
            yield fs

    @pytest.mark.parametrize("verb, address", [("bitrot", 0), ("torn_write", 1)])
    def test_damage_is_seeded_and_fails_verified_reads(self, fs, verb, address):
        damaged = getattr(ChaosController(fs, seed=303), verb)(address, fraction=0.5)
        assert_verified_reads_fail(fs, address, damaged)
        with make_cluster() as twin:
            twin.client(0).write_bytes("/gkfs/f", DATA)
            assert getattr(ChaosController(twin, seed=303), verb)(address, 0.5) == damaged
