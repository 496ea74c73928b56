"""One chunk copy: every replica restore is one guarded replace.

Read-repair, the wire repairer (repair, resync, scrub) and the rebalance
migrator restore a copy through :func:`repro.core.chunking.copy_chunk`:
one ``gkfs_replace_chunk`` carries the digest the copier saw, and the
daemon compares it, replaces and reads back under one store lock hold.
Here a second client's whole-chunk write lands on the target just before
its daemon runs the replace; the acked write must survive on every
replica.  Each case runs in process and over sockets.
"""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core.resize import MigrationReport, Migrator
from repro.faults.scrub import Scrubber
from repro.net import LocalSocketCluster
from repro.selfheal import RepairReport, WireRepairer

CHUNK = 4096
KINDS = {"in-process": GekkoFSCluster, "sockets": LocalSocketCluster}
CONFIG = FSConfig(chunk_size=CHUNK, replication=2, integrity_enabled=True)
OLD = bytes(range(256)) * (CHUNK // 256)
FRESH = bytes(reversed(OLD))


@pytest.fixture(params=list(KINDS))
def fs(request):
    """Three daemons at replication 2 holding ``/f``: one chunk, ``OLD``."""
    with KINDS[request.param](3, CONFIG) as deployment:
        deployment.client(0).write_bytes("/gkfs/f", OLD)
        yield deployment


def daemons(fs) -> list:
    if isinstance(fs, LocalSocketCluster):
        return [served.daemon for served in fs.served]
    return fs.daemons


def owners(fs) -> list:
    return WireRepairer(fs)._chunk_owners("/f", 0)


def served(fs) -> int:
    return sum(sum(daemon.engine.calls_served.values()) for daemon in daemons(fs))


def write_before_replace(fs, address: int) -> None:
    """A second client writes ``FRESH`` over the whole chunk (both
    replicas, acked) just before ``address``'s daemon runs its next
    ``gkfs_replace_chunk``."""
    daemon = daemons(fs)[address]
    writer = fs.client(1)

    def replace(*args):
        daemon.engine.deregister("gkfs_replace_chunk")
        daemon.engine.register("gkfs_replace_chunk", daemon.replace_chunk)
        fd = writer.open("/gkfs/f", os.O_WRONLY)
        writer.pwrite(fd, FRESH, 0)
        writer.close(fd)
        return daemon.replace_chunk(*args)

    daemon.engine.deregister("gkfs_replace_chunk")
    daemon.engine.register("gkfs_replace_chunk", replace)


def assert_fresh_everywhere(fs) -> None:
    for owner in owners(fs):
        store = daemons(fs)[owner].storage
        assert store.read_chunk("/f", 0, 0, CHUNK) == FRESH, owner
        assert store.verify_chunk("/f", 0), owner
    assert fs.client(0).read_bytes("/gkfs/f") == FRESH


def test_a_restore_never_rolls_back_a_write_that_beat_its_replace(fs):
    lagging = owners(fs)[1]
    fs.network.call(lagging, "gkfs_replace_chunk", "/f", 0, OLD[:100], None)
    seen = fs.network.call(lagging, "gkfs_chunk_digest", "/f", 0)
    write_before_replace(fs, lagging)
    report = RepairReport()
    assert WireRepairer(fs).restore_copy("/f", 0, lagging, seen, report) == "racing"
    assert (report.chunks_skipped_racing, report.chunks_restored) == (1, 0)
    assert_fresh_everywhere(fs)


def test_a_scrub_never_rolls_back_a_write_that_beat_its_replace(fs):
    rotted = owners(fs)[0]
    assert daemons(fs)[rotted].storage.corrupt_chunk("/f", 0, 17)
    write_before_replace(fs, rotted)
    report = Scrubber(fs).run()
    assert (report.corrupt_found, report.repaired, report.unrepairable) == (1, 0, 0)
    assert_fresh_everywhere(fs)


def test_a_restored_copy_is_two_rpcs_and_a_read_repair_one(fs):
    """Repair and scrub fetch the source's copy and send one guarded
    replace, as the migrator does; read-repair of a copy the reader
    already holds is the replace alone."""
    primary, lagging = owners(fs)
    net = fs.network
    repairer = WireRepairer(fs)
    net.call(lagging, "gkfs_replace_chunk", "/f", 0, b"", None)
    digests = repairer._digests("/f", 0, [primary, lagging], RepairReport())
    before = served(fs)
    assert repairer.restore_copy(
        "/f", 0, lagging, digests[lagging], RepairReport(), digests
    ) == "restored"
    assert served(fs) - before == 2

    net.call(lagging, "gkfs_replace_chunk", "/f", 0, b"", None)
    seen = net.call(lagging, "gkfs_chunk_digest", "/f", 0)
    report = MigrationReport(old_nodes=3, new_nodes=3)
    before = served(fs)
    assert Migrator(fs, report)._copy_chunk([primary, lagging], "/f", 0, lagging, seen) == CHUNK
    assert served(fs) - before == 2
    assert (report.verified, report.verify_failures) == (1, 0)

    assert daemons(fs)[lagging].storage.corrupt_chunk("/f", 0, 17)
    client = fs.client(0)
    before = served(fs)
    client.data._read_repair("/f", 0, [lagging], primary, OLD)
    assert served(fs) - before == 1
    assert client.stats.read_repairs == 1
    assert daemons(fs)[lagging].storage.verify_chunk("/f", 0)
