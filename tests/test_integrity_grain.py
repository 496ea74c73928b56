"""Integrity at the 8 KiB grain, under the default config with the plane on.

The paper's small-I/O point is 8 KiB (§IV-B).  With one digest per 8 KiB
block an aligned 8 KiB read reads and digests only what it returns, and
the client re-checks the block's stored digest over the bytes it received:
corruption anywhere between the chunk file and the client's buffer is
caught end to end.  An aligned 8 KiB overwrite digests its payload alone.
A run of blocks costs per byte (one batched kernel pass), and a sidecar
records the grain its digests were taken at.
"""

from __future__ import annotations

import os
import random
import struct
import threading
import zlib

import pytest

from repro import FSConfig, GekkoFSCluster
from repro.common.errors import IntegrityError
from repro.core import chunking
from repro.net import LocalSocketCluster
from repro.storage import LocalFSChunkStorage
from repro.storage import integrity as integ
from repro.storage.integrity import block_checksums, chunk_checksum

IO = 8 * 1024
CHUNK = 512 * 1024


def payload(n, seed=7):
    return random.Random(seed).randbytes(n)


def as_ints(digests) -> list:
    """Per-block digests as ints, whatever container holds them."""
    if isinstance(digests, (bytes, bytearray)):
        return list(struct.unpack(f"<{len(digests) // 8}Q", digests))
    return list(digests)


@pytest.fixture
def preads(monkeypatch):
    """Lengths of every ``os.pread``."""
    seen = []
    real = os.pread

    def pread(fd, length, offset):
        seen.append(length)
        return real(fd, length, offset)

    monkeypatch.setattr(os, "pread", pread)
    return seen


def default_store(tmp_path, **opts):
    """A disk store as a default-config daemon builds it, integrity on."""
    return LocalFSChunkStorage(CHUNK, str(tmp_path / "store"), integrity=True, **opts)


class TestBatchedKernel:
    """A run of blocks in one pass equals each block digested alone."""

    @pytest.mark.parametrize("pure", [False, True], ids=["numpy", "pure"])
    def test_equals_the_scalar_path(self, pure, monkeypatch):
        monkeypatch.setattr(integ, "_FORCE_PURE", pure)
        rng = random.Random(33)
        for _ in range(60):
            block = rng.choice([8, 64, 1000, 4096, 8192, 8200])
            data = rng.randbytes(rng.randrange(0, 9 * block + 17))
            base = block * rng.randrange(0, 50)
            want = [
                chunk_checksum(data[at : at + block], base + at)
                for at in range(0, len(data), block)
            ]
            assert as_ints(block_checksums(data, block, "gxh64", base)) == want

    def test_numpy_and_pure_agree_on_large_runs(self, monkeypatch):
        data = payload(CHUNK - 3)
        fast = block_checksums(data, IO, "gxh64", 0)
        monkeypatch.setattr(integ, "_FORCE_PURE", True)
        assert block_checksums(data, IO, "gxh64", 0) == fast


class TestAlignedSmallIO:
    def test_an_aligned_read_reads_8k_and_returns_its_proof(self, tmp_path, preads):
        st = default_store(tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        del preads[:]
        got, proofs = st.read_chunk_verified("/f", 0, 3 * IO, IO)
        assert got == data[3 * IO : 4 * IO]
        assert preads == [IO]
        ((offset, length, digests),) = proofs
        assert (offset, length) == (3 * IO, IO)
        assert as_ints(digests) == [chunk_checksum(got, 3 * IO)]

    def test_an_aligned_overwrite_reads_no_pre_image(self, tmp_path, preads):
        st = default_store(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        del preads[:]
        st.write_chunk("/f", 0, 5 * IO, payload(IO, seed=9))
        assert preads == []
        assert st.verify_chunk("/f", 0)

    def test_a_flipped_reply_byte_is_caught_by_the_client(self):
        # Below the client, above the daemon: the daemon's own checks all
        # passed, so only the client's end-to-end check can see it.
        config = FSConfig(integrity_enabled=True)
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
            data = payload(4 * IO)
            client.pwrite(fd, data, 0)
            flipped = []
            for daemon in fs.daemons:
                def handle(request, real=daemon.engine.handle):
                    response = real(request)
                    if request.handler == "gkfs_read_chunks" and response.error is None:
                        value = response.value
                        chunk = bytearray(value[3])
                        chunk[100] ^= 0x01
                        response.value = (*value[:3], bytes(chunk), *value[4:])
                        flipped.append(request.target)
                    return response

                daemon.engine.handle = handle
            with pytest.raises(IntegrityError):
                client.pread(fd, IO, IO)
            assert flipped

    def test_a_flipped_reply_byte_fails_over_to_a_replica(self):
        config = FSConfig(integrity_enabled=True, replication=2)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
            data = payload(4 * IO)
            client.pwrite(fd, data, 0)
            first = client.data._read_targets("/f", 0)[0]
            daemon = fs.daemons[first]

            def handle(request, real=daemon.engine.handle):
                response = real(request)
                if request.handler == "gkfs_read_chunks" and response.error is None:
                    value = response.value
                    chunk = bytearray(value[3])
                    chunk[0] ^= 0x80
                    response.value = (*value[:3], bytes(chunk), *value[4:])
                return response

            daemon.engine.handle = handle
            assert client.pread(fd, IO, 2 * IO) == data[2 * IO : 3 * IO]
            assert client.stats.integrity_failovers == 1


class TestSidecarGrain:
    def _v1_sidecar(self, sidecar: str, length: int, digests: list) -> None:
        body = struct.pack("<4sBBQI", b"GKCS", 1, 0, length, len(digests))
        body += struct.pack(f"<{len(digests)}Q", *digests)
        with open(sidecar, "wb") as fh:
            fh.write(body + struct.pack("<I", zlib.crc32(body)))

    def test_a_version_1_sidecar_reads_as_unverifiable(self, tmp_path):
        st = default_store(tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        sidecar = st._sidecar_file("/f", 0)
        st.close()
        # well-formed, CRC intact, digests right for this grain: but version 1
        self._v1_sidecar(sidecar, len(data), as_ints(block_checksums(data, st.block_size)))
        reopened = default_store(tmp_path)
        with pytest.raises(IntegrityError, match="no readable checksum record"):
            reopened.read_chunk_verified("/f", 0, 0, IO)
        assert not reopened.verify_chunk("/f", 0)

    def test_a_sidecar_of_another_grain_reads_as_unverifiable(self, tmp_path):
        coarse = default_store(tmp_path, integrity_block_size=128 * 1024)
        coarse.write_chunk("/f", 0, 0, payload(CHUNK))
        coarse.close()
        reopened = default_store(tmp_path, integrity_block_size=IO)
        with pytest.raises(IntegrityError, match="no readable checksum record"):
            reopened.read_chunk_verified("/f", 0, 0, IO)
        assert not reopened.verify_chunk("/f", 0)


class TestWhereSmallTransfersRun:
    def test_8k_chunk_rpcs_are_served_on_the_connection_thread(self):
        with LocalSocketCluster(2, FSConfig(integrity_enabled=True)) as cluster:
            seen = []
            for served in cluster.served:
                engine = served.daemon.engine

                def handle(request, real=engine.handle):
                    seen.append((request.handler, threading.current_thread().name))
                    return real(request)

                engine.handle = handle
            client = cluster.client(0)
            fd = client.open("/gkfs/small", os.O_CREAT | os.O_RDWR)
            data = payload(IO)
            client.pwrite(fd, data, 0)
            assert client.pread(fd, IO, 0) == data
            client.close(fd)
        names = {handler: name for handler, name in seen
                 if handler in ("gkfs_write_chunks", "gkfs_read_chunks")}
        assert set(names) == {"gkfs_write_chunks", "gkfs_read_chunks"}
        for handler, name in names.items():
            assert name.startswith("gkfs-net-d"), (handler, name)


class TestReadRepairNamesWhatItTolerates:
    def test_a_bug_in_proof_checking_during_repair_propagates(self, monkeypatch):
        config = FSConfig(integrity_enabled=True, replication=2)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
            data = payload(4 * IO)
            client.pwrite(fd, data, 0)
            first = client.data._read_targets("/f", 0)[0]
            assert fs.daemons[first].storage.corrupt_chunk("/f", 0, IO + 5)

            def broken(*args, **kwargs):
                raise TypeError("proof decoding bug")

            # fetch_chunk, which read-repair restores from, checks through
            # the module's name; the read itself does not.
            monkeypatch.setattr(chunking, "check_proofs", broken)
            with pytest.raises(TypeError, match="proof decoding bug"):
                client.pread(fd, IO, IO)
