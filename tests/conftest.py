"""Shared fixtures: functional clusters in memory and on disk."""

from __future__ import annotations

import collections

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core.daemon import GekkoDaemon


@pytest.fixture
def cluster():
    """Four-node in-memory deployment with default (paper) configuration."""
    with GekkoFSCluster(num_nodes=4) as fs:
        yield fs


@pytest.fixture
def client(cluster):
    return cluster.client(0)


@pytest.fixture
def instrumented_cluster():
    """Deployment whose transport records RPC traffic."""
    with GekkoFSCluster(num_nodes=4, instrument=True) as fs:
        yield fs


@pytest.fixture
def small_chunk_cluster():
    """Tiny 64-byte chunks so multi-chunk paths trigger with small data."""
    with GekkoFSCluster(num_nodes=3, config=FSConfig(chunk_size=64)) as fs:
        yield fs


@pytest.fixture
def disk_cluster(tmp_path):
    """Deployment persisting KV stores and chunk files to real directories."""
    config = FSConfig(
        chunk_size=4096,
        kv_dir=str(tmp_path / "kv"),
        data_dir=str(tmp_path / "data"),
    )
    with GekkoFSCluster(num_nodes=2, config=config) as fs:
        yield fs


@pytest.fixture
def size_spies(monkeypatch):
    """Per daemon address, what writes published: ``published`` counts every
    size merge (``update_size``, as its own RPC or inside a write) and
    ``folded`` the ``gkfs_write_chunks`` that carried their size.  Patched
    before any daemon registers its handlers, so build the cluster after."""
    seen = {"published": collections.Counter(), "folded": collections.Counter()}
    write_chunks, update_size = GekkoDaemon.write_chunks, GekkoDaemon.update_size

    def spy_write(self, path, spans, data=None, crcs=None, size=None, bulk=None):
        if size is not None:
            seen["folded"][self.address] += 1
        return write_chunks(self, path, spans, data, crcs, size, bulk)

    def spy_update(self, path, new_size, append=False):
        seen["published"][self.address] += 1
        return update_size(self, path, new_size, append)

    monkeypatch.setattr(GekkoDaemon, "write_chunks", spy_write)
    monkeypatch.setattr(GekkoDaemon, "update_size", spy_update)
    return seen
