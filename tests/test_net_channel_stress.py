"""The receive-role hand-off of one socket channel, under a tiny switch interval.

Three threads wait on futures of one ``_Channel`` while a fourth submits,
round after round, with ``sys.setswitchinterval(1e-5)`` so the threads are
preempted inside every short critical section.  The daemon is a plain
socket loop (no ``RpcServer``) so a round can end with the connection
killed in the middle of a frame.  Checked every round: each future resolves
exactly once, no follower is left parked and the role is free once the
three waiters are back, and a killed connection fails its mutations and
resubmits its idempotent call once over a fresh one.
"""

from __future__ import annotations

import queue
import socket
import sys
import threading

import pytest

from repro.net import SocketTransport
from repro.net.codec import (
    HEADER_SIZE,
    KIND_RESPONSE,
    STATUS_OK,
    decode_request_body,
    encode_response_body,
    pack_header,
    recv_full,
    unpack_header,
)
from repro.rpc.message import RpcRequest

ROUNDS = 2000
KILL_EVERY = 10  # every tenth round ends with the connection cut mid-frame
WAITERS = 3
WAIT = 20.0
#: Waiter 0's call may be resubmitted (a read); the others may not (mutations).
HANDLERS = ("gkfs_stat", "gkfs_create", "gkfs_remove")


class _Daemon:
    """Answers every request with its args; in a kill round it holds the
    round's three requests, writes part of one reply frame and hangs up."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()  # (host, port)
        self.killed: set[int] = set()
        self.threads: list[threading.Thread] = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _peer = self.listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, sock) -> None:
        head = memoryview(bytearray(HEADER_SIZE))
        held = []
        with sock:
            while True:
                try:
                    recv_full(sock, head)
                except ConnectionError:
                    return
                _kind, _flags, seq, body_len, _aux1, _aux2 = unpack_header(head)
                body = memoryview(bytearray(body_len))
                recv_full(sock, body)
                args = decode_request_body(body, None).args
                rnd, _waiter, kill = args
                if kill and rnd not in self.killed:
                    held.append(seq)
                    if len(held) == WAITERS:
                        self.killed.add(rnd)
                        torn = pack_header(KIND_RESPONSE, held[0], 100)
                        # Alternately inside the header and inside the body.
                        sock.sendall(torn[:20] if rnd % 2 else torn + b"x" * 10)
                        sock.shutdown(socket.SHUT_RDWR)
                        return
                    continue
                reply = encode_response_body(STATUS_OK, args)
                sock.sendall(pack_header(KIND_RESPONSE, seq, len(reply)) + reply)

    def close(self) -> None:
        self.listener.close()


@pytest.fixture
def fast_switching():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def test_three_waiters_and_a_submitter_share_one_channel(fast_switching):
    daemon = _Daemon()
    inboxes = [queue.Queue() for _ in range(WAITERS)]
    outcomes: queue.Queue = queue.Queue()

    def waiter(index: int) -> None:
        while (future := inboxes[index].get()) is not None:
            try:
                outcomes.put((index, future.result(WAIT).value))
            except BaseException as exc:  # every outcome is checked below
                outcomes.put((index, exc))

    threads = [threading.Thread(target=waiter, args=(i,), daemon=True) for i in range(WAITERS)]
    for thread in threads:
        thread.start()
    transport = SocketTransport({0: daemon.address})
    try:
        for rnd in range(ROUNDS):
            kill = rnd % KILL_EVERY == KILL_EVERY - 1
            resolved = [0] * WAITERS
            futures = []
            for i in range(WAITERS):
                future = transport.send_async(
                    RpcRequest(0, HANDLERS[i], (rnd, i, kill)))
                future.add_done_callback(
                    lambda _f, i=i: resolved.__setitem__(i, resolved[i] + 1))
                futures.append(future)
            channel = transport._channels[0]
            for i, future in enumerate(futures):
                inboxes[i].put(future)
            got = dict(outcomes.get(timeout=2 * WAIT) for _ in range(WAITERS))
            assert resolved == [1] * WAITERS, (rnd, resolved, got)
            for i in range(WAITERS):
                if kill and i:
                    assert isinstance(got[i], ConnectionError), (rnd, i, got[i])
                else:
                    assert got[i] == (rnd, i, kill), (rnd, i, got[i])
            for live in {channel, transport._channels[0]}:
                assert live.followers == 0, (rnd, live.followers)
                assert not live.role.locked(), rnd
            assert channel.dead is kill, rnd
        assert transport.reconnects == ROUNDS // KILL_EVERY
        assert daemon.killed == {r for r in range(ROUNDS) if r % KILL_EVERY == KILL_EVERY - 1}
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for thread in threads:
            thread.join(WAIT)
        transport.shutdown()
        daemon.close()
    assert not any(thread.is_alive() for thread in threads)
