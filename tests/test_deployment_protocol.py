"""One deployment protocol: every lifecycle verb means the same on every
node substrate (in-process engines, in-process socket servers, child
processes).

Each check drives a deployment only through its verbs and the wire:
crash then recovering restart, crash-replace, a live resize with a writer
running, and a supervisor condemning and repairing a crashed daemon.
"""

import functools
import os
import threading

import pytest

from repro.common.errors import StaleEpochError
from repro.core import FSConfig, GekkoFSCluster, RendezvousDistributor
from repro.core.daemon import read_chunks, read_records
from repro.core.distributor import replica_set
from repro.faults import splice_faults
from repro.net.cluster import LocalSocketCluster, ProcessCluster
from repro.selfheal import PhiAccrualDetector, Supervisor, WireRepairer

SUBSTRATES = {
    "in-process": GekkoFSCluster,
    "sockets": LocalSocketCluster,
    "processes": ProcessCluster,
}
CONFIG = FSConfig(chunk_size=256, replication=2)


@pytest.fixture(params=list(SUBSTRATES))
def substrate(request):
    return SUBSTRATES[request.param]


def populate(fs, files=8, size=700):
    client = fs.client(0)
    contents = {}
    for i in range(files):
        path = f"/gkfs/p/f{i:02d}"
        contents[path] = bytes([i + 1]) * size
        client.write_bytes(path, contents[path])
    return contents


def verify(fs, contents):
    client = fs.client(0)
    for path, data in contents.items():
        assert client.read_bytes(path) == data, path


def holdings(fs):
    """``{address: (records, chunks)}`` as each daemon lists them."""
    held = {}
    for address in fs.live_addresses():
        fetch = functools.partial(fs.network.call, address, "gkfs_inventory")
        records = {path for path, _record in read_records(fetch)}
        chunks = {(path, cid) for path, cid, length, _q in read_chunks(fetch) if length}
        held[address] = records, chunks
    return held


def test_crash_then_recovering_restart(substrate):
    with substrate(3, CONFIG, distributor=RendezvousDistributor(3)) as fs:
        contents = populate(fs)
        fs.resize_live(3)  # an epoch to re-apply
        epoch = fs.view.epoch
        assert epoch == 1
        fs.crash_daemon(1)
        assert not fs.daemon_alive(1)
        report = fs.restart_daemon(1, recover=True)
        assert report.fsck.clean, report
        assert report.records_resynced > 0 and report.chunks_resynced > 0
        verify(fs, contents)
        assert fs.network.call(1, "gkfs_ping")["min_epoch"] == epoch
        with pytest.raises(StaleEpochError):
            fs.network.call(1, "gkfs_stat", "/", epoch=epoch - 1)


def test_replace_restores_full_redundancy_in_one_pass(substrate, monkeypatch):
    passes = []
    real_repair = WireRepairer.repair

    def counting(self):
        passes.append(self)
        return real_repair(self)

    monkeypatch.setattr(WireRepairer, "repair", counting)
    with substrate(3, CONFIG) as fs:
        contents = populate(fs)
        fs.crash_daemon(2)
        report = fs.replace_daemon(2)
        assert len(passes) == 1
        assert report.records_restored > 0 and report.chunks_restored > 0
        assert report.unreachable == []
        again = WireRepairer(fs).repair()
        assert (again.records_restored, again.sizes_raised, again.chunks_restored) == (0, 0, 0)
        held = holdings(fs)
        for path in contents:
            rel = path[len("/gkfs"):]
            for owner in replica_set(fs.view.locate_metadata(rel), 2, 3):
                assert rel in held[owner][0], (rel, owner)
            for cid in range(3):
                for owner in replica_set(fs.view.locate_chunk(rel, cid), 2, 3):
                    assert (rel, cid) in held[owner][1], (rel, cid, owner)
        verify(fs, contents)


def test_resize_with_a_writer_running(substrate):
    with substrate(2, CONFIG, distributor=RendezvousDistributor(2)) as fs:
        contents = populate(fs)
        acked, errors = {}, []
        stop = threading.Event()
        writer_client = fs.client(1)

        def writer():
            i = 0
            while not stop.is_set() and i < 400:
                path = f"/gkfs/w/f{i % 20:02d}"
                data = bytes([i % 251]) * (300 + i % 500)
                try:
                    writer_client.write_bytes(path, data)
                except Exception as exc:  # reported below
                    errors.append(exc)
                    return
                acked[path] = data
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            report = fs.resize_live(3)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not errors, errors
        assert acked and report.verify_failures == 0
        assert fs.num_nodes == fs.view.num_daemons == 3
        verify(fs, {**contents, **acked})
        # Sources released: every daemon holds only what it owns now.
        for address, (records, chunks) in holdings(fs).items():
            for rel in records:
                assert address in replica_set(fs.view.locate_metadata(rel), 2, 3), rel
            for rel, cid in chunks:
                assert address in replica_set(fs.view.locate_chunk(rel, cid), 2, 3), rel


def test_a_live_pass_leaves_an_old_owners_copy_to_the_frozen_pass(substrate):
    """An old owner takes every foreground write while the resize runs, so a
    pre-copy pass must not replace its copy: a write landing there between
    the replace and the digest echo would read as a failed copy (and the
    replace itself could roll an acked write back).  Here one old owner's
    copy differs from the other's, the shape of a replicated write that has
    reached one leg, and the echo of any live replace onto it is preceded by
    a client write of that chunk.  The frozen delta pass reconciles it."""
    with substrate(2, CONFIG, distributor=RendezvousDistributor(2)) as fs:
        contents = populate(fs)
        grown = RendezvousDistributor(3)
        path, rel, cid, primary, lagging = next(
            (path, path[len("/gkfs"):], cid, *owners)
            for path in contents
            for cid in range(3)
            for owners in [replica_set(fs.view.locate_chunk(path[len("/gkfs"):], cid), 2, 2)]
            if owners[1] in replica_set(grown.locate_chunk(path[len("/gkfs"):], cid), 2, 3)
        )
        stale = b"\x00" * CONFIG.chunk_size
        fs.network.call(lagging, "gkfs_replace_chunk", rel, cid, stale, None)
        writer = fs.client(1)
        live_replaces = []

        def replaced(request) -> bool:
            if (request.handler, request.target, tuple(request.args[:2])) != (
                "gkfs_replace_chunk", lagging, (rel, cid)
            ) or fs.view.frozen:
                return False
            live_replaces.append(request)
            return False

        def echo(request) -> bool:
            return bool(live_replaces) and not fs.view.frozen and (
                request.handler, request.target, tuple(request.args[:2])
            ) == ("gkfs_chunk_digest", lagging, (rel, cid))

        def write_first(_request) -> None:
            fd = writer.open(path, os.O_WRONLY)
            writer.pwrite(fd, b"\x7f" * 10, cid * CONFIG.chunk_size)
            writer.close(fd)

        faults = splice_faults(fs.network)
        faults.arm(replaced)
        faults.arm(echo, write_first, exc_factory=lambda _request: None)
        report = fs.resize_live(3)
        assert live_replaces == [] and faults.fired == 0
        assert report.verify_failures == 0
        verify(fs, contents)
        owners = replica_set(fs.view.locate_chunk(rel, cid), 2, 3)
        digests = {
            fs.network.call(owner, "gkfs_chunk_digest", rel, cid)["digest"] for owner in owners
        }
        assert len(digests) == 1


def test_supervisor_repairs_an_in_process_threaded_deployment():
    with GekkoFSCluster(3, CONFIG, threaded=True) as fs:
        contents = populate(fs)
        detector = PhiAccrualDetector(fs, fallback_failures=2)
        supervisor = Supervisor(fs, detector)
        fs.crash_daemon(0)
        for _ in range(4):
            supervisor.step()
        repairs = supervisor.repairs()
        assert [r["address"] for r in repairs] == [0], supervisor.journal
        assert repairs[0]["action"] == "restart"
        assert repairs[0]["restored"]["chunks_restored"] > 0
        assert fs.daemon_alive(0)
        verify(fs, contents)
        assert WireRepairer(fs).repair().chunks_restored == 0
