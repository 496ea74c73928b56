"""The data-path suites once more, with every transfer through a bulk exposure.

A transfer of at most ``chunking.INLINE_THRESHOLD`` bytes per daemon rides
inside its RPC, and with the tiny chunks these suites use that is nearly
all of them: on its own the tier-1 run would leave the exposure route — a
pushed read landing in the caller's buffer, a pulled write — to the few
tests that move whole large chunks.  So the suites that pin what a read or
a write *means* (PR 20's two-client cases: short span, hole, EOF clamp,
truncate elsewhere; the byte-model state machine; fail-over and
read-repair) are collected here a second time with the threshold at zero.
The tests are the other modules' own, imported; only the route differs.
"""

import pytest

from repro.core import chunking

from test_core_read_size import *  # noqa: F401,F403  (its fixtures and its tests)
from test_core_client import TestLseek, TestReadWrite  # noqa: F401
from test_core_async_io import TestCoalescedWrites, TestReplicaFailover  # noqa: F401
from test_core_properties import (  # noqa: F401
    TestFileVsBytearray,
    test_overlapping_writes_last_wins,
)
from test_faults_scrub import TestReadRepair  # noqa: F401


@pytest.fixture(autouse=True, scope="module")
def every_transfer_takes_the_bulk_route():
    inline = chunking.INLINE_THRESHOLD
    chunking.INLINE_THRESHOLD = 0
    yield
    chunking.INLINE_THRESHOLD = inline


def test_the_route_is_the_bulk_one(instrumented_cluster):
    """The switch works: nothing here rides inline, everything does by default."""
    import os

    client = instrumented_cluster.client(0)
    fd = client.open("/gkfs/route", os.O_CREAT | os.O_RDWR)
    client.pwrite(fd, b"r" * 100, 0)
    assert client.pread(fd, 100, 0) == b"r" * 100
    assert instrumented_cluster.transport.bulk_bytes == 200
    chunking.INLINE_THRESHOLD = 32 * 1024
    try:
        client.pwrite(fd, b"r" * 100, 0)
        assert client.pread(fd, 100, 0) == b"r" * 100
    finally:
        chunking.INLINE_THRESHOLD = 0
    assert instrumented_cluster.transport.bulk_bytes == 200
