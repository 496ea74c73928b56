"""ABL-RESIZE — elastic membership cost under different placement hashes.

GekkoFS targets jobs *and campaigns* (§I); campaigns resize between
jobs.  This bench measures migration volume when one daemon joins an
8-node deployment: rendezvous placement moves ~1/9 of the data, the
paper's modulo hash reshuffles most of it — the quantitative case for a
consistent-hashing distributor in an elastic deployment.
"""

import os

import pytest

from repro.analysis.report import render_table
from repro.core import (
    FSConfig,
    GekkoFSCluster,
    RendezvousDistributor,
    SimpleHashDistributor,
)

FILES = 50
FILE_BYTES = 640
CHUNK = 64


def _measure(distributor_cls):
    with GekkoFSCluster(
        num_nodes=8, config=FSConfig(chunk_size=CHUNK), distributor=distributor_cls(8)
    ) as fs:
        client = fs.client(0)
        client.mkdir("/gkfs/d")
        for i in range(FILES):
            fd = client.open(f"/gkfs/d/f{i:03d}", os.O_CREAT | os.O_WRONLY)
            client.write(fd, b"m" * FILE_BYTES)
            client.close(fd)
        report = fs.resize_live(9, distributor_factory=distributor_cls)
        # Integrity after migration: every byte still readable.
        check = fs.client(8)
        fd = check.open("/gkfs/d/f000")
        assert check.read(fd, FILE_BYTES) == b"m" * FILE_BYTES
        check.close(fd)
        return report


def _ablation():
    rows = []
    reports = {}
    for name, cls in (
        ("rendezvous (HRW)", RendezvousDistributor),
        ("modulo (paper default)", SimpleHashDistributor),
    ):
        report = _measure(cls)
        reports[name] = report
        rows.append(
            [
                name,
                f"{report.chunks_moved}/{report.chunks_total}",
                f"{report.chunks_moved_fraction:.0%}",
                f"{report.metadata_moved_fraction:.0%}",
                f"{report.bytes_moved:,} B",
            ]
        )
    print()
    print(
        render_table(
            ["placement", "chunks moved", "chunk fraction", "metadata fraction", "bytes"],
            rows,
            title="ABL-RESIZE: migration volume growing 8 -> 9 daemons",
        )
    )
    return reports


def test_ablation_resize_migration_volume(benchmark):
    reports = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    hrw = reports["rendezvous (HRW)"]
    modulo = reports["modulo (paper default)"]
    assert hrw.chunks_moved_fraction < 0.25  # ~1/9 ideal
    assert modulo.chunks_moved_fraction > 0.5  # near-total reshuffle
    assert modulo.chunks_moved > 3 * hrw.chunks_moved
