"""What the sandbox under the file system can do, measured in the same run.

These are the ceilings the workload rates are printed against, the way the
paper's Figure 3 plots against the SSD peak: a raw loopback TCP round trip
and stream, raw chunk-sized file writes and reads in the same scratch
directory, a memory copy, and the two digest algorithms.  Diagnostics only.
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile
import threading
from statistics import median
from time import perf_counter

from repro.storage.integrity import DEFAULT_BLOCK_SIZE, block_checksums

MIB = 1024 * 1024
CHUNK = 512 * 1024

PINGPONGS = 2000
STREAM_BYTES = 64 * MIB
FILE_BYTES = 64 * MIB
COPY_BYTES = 16 * MIB
GXH64_BYTES = 16 * MIB
CRC32C_BYTES = MIB  # table-driven pure Python: 16 MiB would take seconds


def _loopback_pair() -> tuple[socket.socket, socket.socket]:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname())
        server, _peer = listener.accept()
    finally:
        listener.close()
    for sock in (client, server):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client, server


def _pingpong_us() -> float:
    client, server = _loopback_pair()

    def echo():
        while True:
            byte = server.recv(1)
            if not byte:
                return
            server.sendall(byte)

    thread = threading.Thread(target=echo, name="bench-echo")
    thread.start()
    try:
        trips = []
        for _ in range(PINGPONGS):
            start = perf_counter()
            client.sendall(b"x")
            client.recv(1)
            trips.append(perf_counter() - start)
    finally:
        client.close()
        thread.join()
        server.close()
    return 1e6 * median(trips)


def _stream_mib_s() -> float:
    client, server = _loopback_pair()
    piece = bytes(256 * 1024)

    def send():
        for _ in range(STREAM_BYTES // len(piece)):
            client.sendall(piece)

    thread = threading.Thread(target=send, name="bench-stream")
    buffer = bytearray(256 * 1024)
    received = 0
    start = perf_counter()
    thread.start()
    try:
        while received < STREAM_BYTES:
            received += server.recv_into(buffer)
        elapsed = perf_counter() - start
    finally:
        thread.join()
        client.close()
        server.close()
    return STREAM_BYTES / MIB / elapsed


def _file_mib_s(scratch: str) -> tuple[float, float]:
    directory = tempfile.mkdtemp(prefix="substrate-", dir=scratch)
    data = os.urandom(CHUNK)
    names = [os.path.join(directory, f"chunk_{i:08d}") for i in range(FILE_BYTES // CHUNK)]
    try:
        start = perf_counter()
        for name in names:
            with open(name, "wb") as fh:
                fh.write(data)
        write_s = perf_counter() - start
        start = perf_counter()
        for name in names:
            with open(name, "rb") as fh:
                fh.read(CHUNK)
        read_s = perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return FILE_BYTES / MIB / write_s, FILE_BYTES / MIB / read_s


def _rate_mib_s(fn, nbytes: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return nbytes / MIB / best


def probe(scratch: str) -> dict:
    """Every ``substrate.*`` metric, by name."""
    write_mib_s, read_mib_s = _file_mib_s(scratch)
    source = bytearray(os.urandom(COPY_BYTES))
    digest_input = bytes(source[:GXH64_BYTES])
    return {
        "substrate.sock_pingpong_us": _pingpong_us(),
        "substrate.sock_stream_mib_s": _stream_mib_s(),
        "substrate.file_write_mib_s": write_mib_s,
        "substrate.file_read_mib_s": read_mib_s,
        "substrate.memcpy_mib_s": _rate_mib_s(lambda: bytes(source), COPY_BYTES),
        "substrate.gxh64_mib_s": _rate_mib_s(
            lambda: block_checksums(digest_input, DEFAULT_BLOCK_SIZE, "gxh64"),
            GXH64_BYTES),
        "substrate.crc32c_mib_s": _rate_mib_s(
            lambda: block_checksums(digest_input[:CRC32C_BYTES], DEFAULT_BLOCK_SIZE,
                                    "crc32c"),
            CRC32C_BYTES, repeats=1),
    }
