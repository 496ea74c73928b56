"""Over sockets an RPC is priced by its frame, not by a walk of its values.

The socket server stamps each request it decodes with the size of the
control frame it read (header plus body) and prices the reply by the frame
it encodes; the engine's ``bytes_in``/``bytes_out``, the QoS cost model and
the share ledger read those stamps.  Counted here over
``LocalSocketCluster(2)`` under ``paper`` and ``full``:

* no ``estimate_wire_size`` call anywhere — client or daemon;
* each daemon's ``engine.bytes_in``/``bytes_out`` equal the control-frame
  bytes its server read and wrote;
* with QoS on, the share ledger's bytes equal request frames plus reply
  frames plus the bulk bytes the replies report.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.config import FSConfig
from repro.net import LocalSocketCluster
from repro.net.codec import HEADER_SIZE, KIND_RESPONSE, unpack_header
from repro.net.server import RpcServer, _Connection
from repro.rpc import message

CONFIGS = {
    "paper": {},
    "full": dict(rpc_retries=2, breaker_enabled=True, qos_enabled=True,
                 integrity_enabled=True),
}


@pytest.fixture
def meters(monkeypatch):
    """Frame bytes each daemon's server read and wrote, bulk bytes its
    replies reported, and every ``estimate_wire_size`` call."""
    counts = {"read": Counter(), "written": Counter(), "bulk": Counter(), "estimates": 0}
    owner: dict = {}  # connection -> daemon address
    real_estimate = message.estimate_wire_size
    real_dispatch = RpcServer._dispatch_request
    real_send = _Connection.send

    def estimate(obj):
        counts["estimates"] += 1
        return real_estimate(obj)

    def dispatch(self, conn, seq, body, bulk):
        owner[conn] = self.engine.address
        counts["read"][self.engine.address] += HEADER_SIZE + len(body)
        return real_dispatch(self, conn, seq, body, bulk)

    def send(self, head, *rest):
        kind, _flags, _seq, body_len, aux1, aux2 = unpack_header(head)
        if kind == KIND_RESPONSE:
            counts["written"][owner[self]] += HEADER_SIZE + body_len
            counts["bulk"][owner[self]] += aux1 + aux2
        return real_send(self, head, *rest)

    monkeypatch.setattr(message, "estimate_wire_size", estimate)
    monkeypatch.setattr(RpcServer, "_dispatch_request", dispatch)
    monkeypatch.setattr(_Connection, "send", send)
    return counts


def _workload(client) -> None:
    small, large = os.urandom(8192), os.urandom(1 << 20)
    for i in range(4):
        path = f"/gkfs/priced-{i}"
        fd = client.open(path, os.O_CREAT | os.O_RDWR)
        client.stat(path)
        client.pwrite(fd, small, 0)
        assert client.pread(fd, 8192, 0) == small
        client.pwrite(fd, large, 0)
        assert client.pread(fd, 1 << 20, 0) == large
        client.close(fd)
        client.unlink(path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_socket_rpcs_are_priced_by_their_frames(meters, tmp_path, name):
    config = FSConfig(kv_dir=str(tmp_path / "kv"), data_dir=str(tmp_path / "data"),
                      **CONFIGS[name])
    with LocalSocketCluster(2, config) as cluster:
        _workload(cluster.client(0))
        assert meters["estimates"] == 0
        for served in cluster.served:
            address, engine = served.daemon.address, served.daemon.engine
            # Counted before the reply frame is sent, so settled by now.
            assert meters["read"][address] > 0 and meters["bulk"][address] > 0
            assert engine.bytes_in == meters["read"][address]
            assert engine.bytes_out == meters["written"][address]
            if config.qos_enabled:
                ledger = served.server._dispatch.client_shares(address)
                assert sum(share["bytes"] for share in ledger.values()) == (
                    meters["read"][address] + meters["written"][address]
                    + meters["bulk"][address]
                )
