"""T-SHARED — shared-file writes and the size-update cache (§IV-B).

"No more than approximately 150K write operations per second were
achieved ... due to network contention on the daemon which maintains the
shared file's metadata ... we added a rudimentary client cache ... As a
result, shared file I/O throughput for sequential and random access were
similar to file-per-process performances."
"""

import collections

import pytest

from repro.analysis.report import render_table
from repro.common.units import KiB, format_throughput
from repro.core import FSConfig, GekkoFSCluster
from repro.core.daemon import GekkoDaemon
from repro.models import GekkoFSModel
from repro.workloads.ior import IorSpec, run_ior

T = 8 * KiB


def _shared_table():
    model = GekkoFSModel()
    fpp = model.data_iops(512, T, write=True)
    no_cache = model.data_iops(512, T, write=True, shared_file=True)
    cached = model.data_iops(512, T, write=True, shared_file=True, size_cache=True)
    rows = [
        ["file-per-process", f"{fpp / 1e6:.2f} M ops/s"],
        ["shared file, no cache", f"{no_cache / 1e3:.0f} K ops/s"],
        ["shared file, size cache", f"{cached / 1e6:.2f} M ops/s"],
    ]
    print()
    print(render_table(["configuration", "8 KiB write throughput"], rows,
                       title="T-SHARED: shared-file writes at 512 nodes"))
    return fpp, no_cache, cached


def test_shared_file_ceiling_and_cache(benchmark):
    fpp, no_cache, cached = benchmark(_shared_table)
    assert no_cache == pytest.approx(150e3, rel=0.06)  # the paper's ~150K cap
    assert cached / fpp > 0.99  # cache restores file-per-process parity
    assert fpp / no_cache > 50  # the hotspot costs orders of magnitude


def test_shared_file_functional_rpc_hotspot(benchmark, monkeypatch):
    """Functional evidence for the mechanism: without the cache, every
    shared-file write publishes its size on the single metadata owner —
    by a size-update RPC, or inside the write when the owner stores its
    only chunk group; with the cache, that traffic collapses by
    ~flush_every."""
    published = collections.Counter()  # size merges, by daemon
    update_size = GekkoDaemon.update_size

    def spy(self, path, new_size, append=False):
        published[self.address] += 1
        return update_size(self, path, new_size, append)

    monkeypatch.setattr(GekkoDaemon, "update_size", spy)  # before any daemon registers it

    def measure(size_cache: bool) -> tuple:
        published.clear()
        config = FSConfig(size_cache_enabled=size_cache, size_cache_flush_every=32)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            run_ior(
                fs,
                IorSpec(procs=4, transfer_size=2048, block_size=32 * 2048,
                        file_per_process=False),
                phases=("write",),
            )
            owner = fs.distributor.locate_metadata("/ior/shared.dat")
            updates = fs.transport.rpcs_by_handler["gkfs_update_size"]
            return updates, owner, dict(published)

    (_updates_nc, owner, published_nc) = benchmark.pedantic(
        lambda: measure(False), rounds=1, iterations=1
    )
    (updates_c, _owner, published_c) = measure(True)
    assert published_nc == {owner: 4 * 32}  # one per write, all on the owner
    assert updates_c == 4 and published_c == {owner: 4}  # one per 32 writes
