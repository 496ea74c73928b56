"""``RpcFuture`` budget of a POSIX call with every plane on, by count.

Beside ``test_core_rpc_budget.py`` (which RPCs a call may put on the wire):
how many futures those RPCs may cost.  Under the ``full`` config on a socket
deployment — retry + breaker, QoS window, WFQ pool, checksums — the delivery
transport's future is the only one a call gets on the client, whichever of
``call`` / ``call_async`` issued it, and a daemon answers a pooled request
through its reply sink with none at all.  A wrapper that goes back to
wrapping the inner future in an outer one fails here by name.
"""

import os
import threading

import pytest

from repro.core.config import FSConfig
from repro.net import LocalSocketCluster
from repro.rpc.future import RpcFuture

FULL = dict(rpc_retries=2, breaker_enabled=True, qos_enabled=True, integrity_enabled=True)
BLOCK = b"x" * 8192


@pytest.fixture(scope="module")
def fs(tmp_path_factory):
    root = tmp_path_factory.mktemp("future-budget")
    config = FSConfig(kv_dir=str(root / "kv"), data_dir=str(root / "data"), **FULL)
    with LocalSocketCluster(2, config, instrument=True) as cluster:
        client = cluster.client(0)
        client.write_bytes("/gkfs/file", BLOCK * 4)
        cluster.fd = client.open("/gkfs/file", os.O_RDWR)
        cluster.c = client
        yield cluster


def _create(fs):
    fs.c.close(fs.c.open("/gkfs/new", os.O_CREAT | os.O_EXCL | os.O_WRONLY))


CALLS = [
    ("stat", lambda fs: fs.c.stat("/gkfs/file")),
    ("create", _create),
    ("unlink", lambda fs: fs.c.unlink("/gkfs/new")),
    ("pwrite 8 KiB", lambda fs: fs.c.pwrite(fs.fd, BLOCK, 8192)),
    ("pread 8 KiB", lambda fs: fs.c.pread(fs.fd, 8192, 8192)),
]


@pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
def test_one_future_per_rpc_on_the_client_none_on_a_daemon(fs, monkeypatch, name, call):
    made = []
    construct = RpcFuture.__init__

    def counted(self, request=None):
        made.append(threading.current_thread().name)
        construct(self, request)

    monkeypatch.setattr(RpcFuture, "__init__", counted)
    rpcs_before = fs.transport.total_rpcs
    call(fs)
    rpcs = fs.transport.total_rpcs - rpcs_before
    assert rpcs >= 1, name
    here = threading.current_thread().name
    assert made.count(here) == rpcs, (name, made)
    assert [thread for thread in made if thread != here] == [], name
