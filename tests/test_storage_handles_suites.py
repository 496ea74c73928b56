"""The property, scrub, fsck and resize suites once more, on disk, with a
two-handle table.

Those suites build in-memory clusters, and the tier-1 run's disk-backed
tests touch a handful of chunks each: on their own they never evict.  Here
every cluster built without a ``data_dir`` gets one, and
``localfs.HANDLE_CAPACITY`` is 2, so nearly every chunk operation of the
byte-model state machine, of read-repair and scrubbing, of fsck and of
migration opens a handle and closes another (and reloads a digest record
from its sidecar).  The tests are the other modules' own, imported; only
the store under them differs.
"""

import dataclasses
import itertools

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.storage import LocalFSChunkStorage, localfs

from test_core_properties import *  # noqa: F401,F403  (its tests)
from test_faults_scrub import *  # noqa: F401,F403
from test_core_fsck import *  # noqa: F401,F403  (its fixture too)
from test_core_resize import *  # noqa: F401,F403


@pytest.fixture(autouse=True, scope="module")
def every_cluster_on_disk_with_two_handles(tmp_path_factory):
    base = tmp_path_factory.mktemp("two-handles")
    serial = itertools.count()
    real_init = GekkoFSCluster.__init__

    def init(self, num_nodes, config=None, *args, **kwargs):
        config = config or FSConfig()
        if config.data_dir is None:
            config = dataclasses.replace(config, data_dir=str(base / f"c{next(serial)}"))
        real_init(self, num_nodes, config, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GekkoFSCluster, "__init__", init)
        patch.setattr(localfs, "HANDLE_CAPACITY", 2)
        yield


def test_the_store_is_on_disk_and_evicts():
    """The switch works: a cluster built the plain way is disk-backed here,
    and no store holds more than two chunks open."""
    with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=64)) as fs:
        data = bytes(range(256)) * 8
        fs.client(0).write_bytes("/gkfs/f", data)
        assert fs.client(1).read_bytes("/gkfs/f") == data
        for daemon in fs.daemons:
            assert isinstance(daemon.storage, LocalFSChunkStorage)
            assert len(list(daemon.storage.chunk_ids("/f"))) > 2
            assert 0 < len(daemon.storage._recent) <= 2
