"""What a metadata RPC pays for its fixed-layout parts, by count.

The request envelope, the reply status and the 45-byte metadata record have
fixed layouts: the wire packs the first two with one ``struct`` call each,
and the daemon reads and patches the record as bytes.  So the tagged codec
visits an RPC's variable values only, and no daemon thread builds a
:class:`~repro.core.metadata.Metadata`.  This gate counts both over a warm
batch on :class:`~repro.net.LocalSocketCluster` with the paper planes
(``FSConfig()``).  A *visit* is one ``_encode`` or ``_decode`` call, on
either side of the wire.  No timing.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.config import FSConfig
from repro.core.metadata import Metadata
from repro.net import LocalSocketCluster, codec

BLOCK = b"x" * 8192
BATCH = 20

#: Tagged-codec visits allowed per operation (the 7-tuple envelope and the
#: ``(status, value)`` reply made them 24, 68 and 52; span tables as lists of
#: tuples and the dict-shaped read reply 6, 32 and 34; a visit per value, not
#: per container, 6, 22 and 16, with 10 for create and 8 for unlink).  Now
#: one visit per container: a request's args and its reply are one each.
VISIT_BOUND = {"stat": 4, "pwrite 8 KiB": 8, "pread 8 KiB": 6, "create": 4, "unlink": 4}


def _ops(client, fd):
    return {
        "stat": lambda i: client.stat("/gkfs/file"),
        "pwrite 8 KiB": lambda i: client.pwrite(fd, BLOCK, 8192),
        "pread 8 KiB": lambda i: client.pread(fd, 8192, 8192),
        "create": lambda i: client.close(client.open(f"/gkfs/f{i}", os.O_CREAT | os.O_WRONLY)),
        "unlink": lambda i: client.unlink(f"/gkfs/f{i}"),
    }


@pytest.fixture(scope="module")
def counted():
    """Per operation: (codec visits per op, Metadata builds in daemon threads).
    Each operation runs one warm batch, then one counted batch."""
    visits: list = []
    daemon_builds: list = []
    issuer = threading.get_ident()
    encode, decode = codec._encode, codec._decode
    init, from_bytes = Metadata.__init__, Metadata.decode.__func__

    def counting_encode(*args):
        visits.append(1)
        return encode(*args)

    def counting_decode(*args):
        visits.append(1)
        return decode(*args)

    def note_build():
        if threading.get_ident() != issuer:
            daemon_builds.append(1)

    def counting_init(self, *args, **kwargs):
        note_build()
        init(self, *args, **kwargs)

    def counting_from_bytes(cls, data):
        note_build()
        return from_bytes(cls, data)

    result = {}
    with pytest.MonkeyPatch.context() as patch, \
            LocalSocketCluster(2, FSConfig()) as cluster:
        client = cluster.client(0)
        client.write_bytes("/gkfs/file", BLOCK * 4)
        fd = client.open("/gkfs/file", os.O_RDWR)
        patch.setattr(codec, "_encode", counting_encode)
        patch.setattr(codec, "_decode", counting_decode)
        patch.setattr(Metadata, "__init__", counting_init)
        patch.setattr(Metadata, "decode", classmethod(counting_from_bytes))
        for name, op in _ops(client, fd).items():
            for i in range(BATCH):  # warm: connections, caches
                op(i)
            visits.clear()
            daemon_builds.clear()
            for i in range(BATCH, 2 * BATCH):
                op(i)
            result[name] = (len(visits) / BATCH, len(daemon_builds))
    return result


@pytest.mark.parametrize("op", list(VISIT_BOUND))
def test_codec_visits_per_op(counted, op):
    visits, _ = counted[op]
    assert visits <= VISIT_BOUND[op], (op, visits)


@pytest.mark.parametrize("op", ["create", "unlink", "pwrite 8 KiB"])
def test_no_metadata_record_built_on_a_daemon(counted, op):
    _, builds = counted[op]
    assert builds == 0, (op, builds)
