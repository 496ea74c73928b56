"""The ledgered workload: populate, then verify every acked byte.

:class:`~repro.faults.soak.LedgeredWorkload` is the one populate-then-verify
of the fault scenarios (the soak, EXT-SELFHEAL, EXT-INTEGRITY, EXT-ELASTIC
and the ``scrub`` / ``resize`` commands).  Its read-back asks for one byte
more than each body, so a file that grew past what was acked is a
mismatch, not a pass.  Every case runs in process and over sockets.
"""

import contextlib
import os

import pytest

from repro.common.errors import DaemonUnavailableError
from repro.core import FSConfig, GekkoFSCluster
from repro.faults.soak import LedgeredWorkload
from repro.net import LocalSocketCluster

CHUNK = 4096
KINDS = {"in-process": GekkoFSCluster, "sockets": LocalSocketCluster}


@pytest.fixture(params=list(KINDS))
def fs(request):
    with contextlib.ExitStack() as stack:
        yield stack.enter_context(
            KINDS[request.param](2, FSConfig(chunk_size=CHUNK))
        )


def workload(files=5, file_size=3 * CHUNK + 100):
    return LedgeredWorkload("ledger:7", 7, files, file_size, prefix="/gkfs/ledger")


def test_populate_then_verify_round_trip(fs):
    load = workload()
    load.populate(fs.client())
    assert load.ledger == {index: 1 for index in range(5)}
    unreadable, mismatched, verified = load.verify(fs.client())
    assert (unreadable, mismatched, verified) == ([], [], 5)


def test_a_file_grown_past_its_body_is_mismatched(fs):
    load = workload()
    client = fs.client()
    load.populate(client)
    client.truncate(load.path(2), load.file_size + 10)
    unreadable, mismatched, verified = load.verify(fs.client())
    assert unreadable == []
    assert len(mismatched) == 1 and load.path(2) in mismatched[0]
    assert verified == 4


def test_an_overwrite_at_another_version_is_mismatched(fs):
    load = workload(files=2)
    client = fs.client()
    load.populate(client)
    fd = client.open(load.path(0), os.O_RDWR)
    client.pwrite(fd, load.payload(0, 2), 0)
    client.close(fd)
    unreadable, mismatched, verified = load.verify(client)
    assert len(mismatched) == 1 and verified == 1


def test_populate_raises_and_ledgers_only_what_was_acked():
    class GoneAfterTwo:
        def __init__(self):
            self.writes = 0

        def open(self, path, flags):
            return 3

        def pwrite(self, fd, data, offset):
            self.writes += 1
            if self.writes > 2:
                raise DaemonUnavailableError("daemon 1 is gone")
            return len(data)

        def close(self, fd):
            pass

    load = workload()
    with pytest.raises(DaemonUnavailableError):
        load.populate(GoneAfterTwo())
    assert load.ledger == {0: 1, 1: 1}
