"""Integrity plane at the storage layer: digests, sidecars, quarantine.

Covers the GXH64/CRC32C algorithms themselves (pure/numpy parity, golden
values — these digests are a *persisted* format, so an accidental
algorithm change must fail loudly), the shared verified-read/quarantine
logic on both backends, and the localfs crash edges the sidecar design
exists for: torn payloads, zero-length chunk files, torn sidecars, and
restart reloads.
"""

import builtins
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st_

from repro import FSConfig, GekkoFSCluster
from repro.common.errors import IntegrityError
from repro.storage import LocalFSChunkStorage, MemoryChunkStorage
from repro.storage import integrity as integ
from repro.storage.integrity import (
    block_checksums,
    block_span,
    chunk_checksum,
    crc32c,
    patch_checksum,
)

CHUNK = 4096
BLOCK = 1024


def unpacked(digests: bytes) -> list:
    """A packed digest array as a list of ints."""
    return list(struct.unpack(f"<{len(digests) // 8}Q", digests))


def one(digest: int) -> bytes:
    return integ.DIGEST.pack(digest)


def make_storage(kind, tmp_path, **opts):
    opts.setdefault("integrity", True)
    opts.setdefault("integrity_block_size", BLOCK)
    if kind == "memory":
        return MemoryChunkStorage(CHUNK, **opts)
    return LocalFSChunkStorage(CHUNK, str(tmp_path / "store"), **opts)


def payload(n, seed=7):
    return bytes(random.Random(seed).randbytes(n))


class TestGxh64:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000, 4101])
    def test_pure_numpy_parity(self, n, monkeypatch):
        data = payload(n)
        fast = chunk_checksum(data, 12345)
        monkeypatch.setattr(integ, "_FORCE_PURE", True)
        assert chunk_checksum(data, 12345) == fast

    def test_golden_values_pinned(self):
        # Digests are persisted in sidecars — a silent algorithm change
        # would invalidate every deployed checksum record.
        assert chunk_checksum(b"GekkoFS stores one file per chunk", 0) == 0xDC0B65638FDBB5A8
        assert chunk_checksum(b"", 0) == 0
        assert crc32c(b"123456789") == 0xE3069283

    def test_single_byte_flips_detected(self):
        data = bytearray(payload(512))
        base = chunk_checksum(bytes(data), 0)
        for pos in (0, 1, 7, 8, 255, 504, 511):
            data[pos] ^= 0x01
            assert chunk_checksum(bytes(data), 0) != base
            data[pos] ^= 0x01

    def test_salt_and_length_sensitivity(self):
        assert chunk_checksum(b"x" * 64, 0) != chunk_checksum(b"x" * 64, BLOCK)
        assert chunk_checksum(b"x" * 64, 0) != chunk_checksum(b"x" * 65, 0)
        # zero salt is the hot-path default and must equal the explicit form
        assert chunk_checksum(b"abc") == chunk_checksum(b"abc", 0)

    def test_accepts_buffer_views(self):
        data = payload(200)
        assert chunk_checksum(memoryview(data), 3) == chunk_checksum(data, 3)
        assert chunk_checksum(bytearray(data), 3) == chunk_checksum(data, 3)

    def test_crc32c_selectable_and_chainable(self):
        assert chunk_checksum(b"123456789", 0, "crc32c") == 0xE3069283
        assert crc32c(b"6789", crc32c(b"12345")) == 0xE3069283

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            chunk_checksum(b"x", 0, "md5")


def test_numpy_is_loaded_when_integrity_is_built_not_at_import():
    """A ``paper``-config client and daemon never digest a byte and never
    pay the import; with integrity on it is part of set-up."""
    import subprocess
    import sys

    script = (
        "import sys, repro\n"
        "from repro import FSConfig, GekkoFSCluster\n"
        "with GekkoFSCluster(2) as fs:\n"
        "    fs.client(0).write_bytes('/gkfs/f', b'x' * 10)\n"
        "    assert 'numpy' not in sys.modules\n"
        "with GekkoFSCluster(2, config=FSConfig(integrity_enabled=True)) as fs:\n"
        "    print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(integ.load_accelerator() is not None)


class TestGxh64IsLinear:
    """What lets a partial-block write leave the rest of its block alone."""

    @pytest.mark.parametrize("pure", [False, True], ids=["numpy", "pure"])
    def test_a_patched_digest_is_the_digest_of_the_patched_block(self, pure, monkeypatch):
        monkeypatch.setattr(integ, "_FORCE_PURE", pure)
        rng = random.Random(23)
        for _ in range(60):
            old = bytearray(rng.randbytes(rng.randrange(1, 400)))
            at = rng.randrange(0, len(old) + 24)
            new = bytearray(old.ljust(at, b"\x00"))
            piece = rng.randbytes(rng.randrange(0, 90))
            new[at : at + len(piece)] = piece
            lo, hi = at - at % 8, -(-(at + len(piece)) // 8) * 8
            salt = rng.choice([0, 1024, 3 * 1024])
            assert patch_checksum(
                chunk_checksum(old, salt), len(old), salt, lo, old[lo:hi], new[lo:hi], len(new)
            ) == chunk_checksum(new, salt)

    def test_a_cut_and_a_block_from_nothing(self):
        data = payload(333)
        digest = chunk_checksum(data, 1024)
        assert patch_checksum(digest, 333, 1024, 96, data[96:], data[96:101], 101) == (
            chunk_checksum(data[:101], 1024))
        assert patch_checksum(None, 0, 1024, 0, b"", data, 333) == digest

    def test_bytes_outside_the_range_are_not_vouched_for(self):
        data = bytearray(payload(512))
        digest = chunk_checksum(data, 0)
        data[400] ^= 0x5A  # rot the patch never looks at
        patched = patch_checksum(digest, 512, 0, 0, data[:64], bytes(64), 512)
        data[:64] = bytes(64)
        assert patched != chunk_checksum(data, 0)
        data[400] ^= 0x5A
        assert patched == chunk_checksum(data, 0)


class TestBlockGrid:
    def test_block_span(self):
        assert list(block_span(0, 0, BLOCK)) == []
        assert list(block_span(0, 1, BLOCK)) == [0]
        assert list(block_span(BLOCK - 1, 2, BLOCK)) == [0, 1]
        assert list(block_span(2 * BLOCK, BLOCK, BLOCK)) == [2]

    def test_empty_data_has_no_blocks(self):
        assert block_checksums(b"", BLOCK) == b""

    def test_misaligned_base_offset_rejected(self):
        with pytest.raises(ValueError):
            block_checksums(b"x" * 10, BLOCK, base_offset=100)

    def test_single_block_fast_path_matches_slicing(self):
        data = payload(BLOCK)
        assert block_checksums(data, BLOCK, base_offset=BLOCK) == one(
            chunk_checksum(data, BLOCK)
        )

    def test_multi_block_salted_by_absolute_offset(self):
        data = payload(2 * BLOCK + 100)
        sums = unpacked(block_checksums(data, BLOCK))
        assert sums == [
            chunk_checksum(data[:BLOCK], 0),
            chunk_checksum(data[BLOCK : 2 * BLOCK], BLOCK),
            chunk_checksum(data[2 * BLOCK :], 2 * BLOCK),
        ]


@pytest.mark.parametrize("kind", ["memory", "localfs"])
class TestVerifiedStorage:
    def test_roundtrip_with_proofs(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        got, proofs = st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert got == data
        # one run over every block, its digests a slice of the packed record
        ((offset, length, digests),) = proofs
        assert (offset, length) == (0, CHUNK)
        assert unpacked(digests) == [
            chunk_checksum(data[boff : boff + BLOCK], boff)
            for boff in range(0, CHUNK, BLOCK)
        ]
        assert st.integrity_stats.verified_reads == 1

    def test_partial_read_returns_only_covered_proofs(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        got, proofs = st.read_chunk_verified("/f", 0, BLOCK - 100, BLOCK + 200)
        assert len(got) == BLOCK + 200
        # only block 1 lies fully inside; edge blocks verified server-side
        assert [(b, l) for b, l, _ in proofs] == [(BLOCK, BLOCK)]

    def test_unaligned_overwrite_keeps_digests_fresh(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = bytearray(payload(CHUNK))
        st.write_chunk("/f", 0, 0, bytes(data))
        data[700:900] = b"Z" * 200
        st.write_chunk("/f", 0, 700, b"Z" * 200)
        got, _ = st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert got == bytes(data)

    def test_a_partial_write_reads_only_what_it_replaces(self, kind, tmp_path):
        # gxh64 is linear in its words; crc32c re-checks the whole block instead.
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        reads = []
        real = st._edge_digest

        def spy(read, *args):
            return real(lambda offset, length: reads.append(length) or read(offset, length),
                        *args)

        st._edge_digest = spy
        st.write_chunk("/f", 0, 2 * BLOCK + 64, b"p" * 128)
        assert reads == [128]  # the pre-image of the written words, nothing else
        assert st.verify_chunk("/f", 0)

    def test_short_chunk_proof_covers_stored_length(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = payload(600)
        st.write_chunk("/f", 3, 0, data)
        got, proofs = st.read_chunk_verified("/f", 3, 0, CHUNK)
        assert got == data
        assert proofs == ((0, 600, one(chunk_checksum(data, 0))),)

    def test_truncate_recomputes_tail_digest(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        st.truncate_chunk("/f", 0, 1500)
        got, _ = st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert len(got) == 1500

    def test_truncate_above_payload_keeps_record_and_payload(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = payload(100)
        st.write_chunk("/f", 0, 0, data)
        st.truncate_chunk("/f", 0, 1000)  # shrink-only: nothing to do
        assert st.read_chunk_verified("/f", 0, 0, CHUNK) == (
            data, ((0, 100, one(chunk_checksum(data, 0))),)
        )
        assert st.verify_chunk("/f", 0)
        assert st.used_bytes() == 100

    def test_partial_edge_blocks_sliced_from_one_covering_read(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = payload(CHUNK - 300)
        st.write_chunk("/f", 0, 0, data)
        st.stats.read_ops = st.stats.bytes_read = 0
        # head and tail blocks partly covered, the short last block included
        got, proofs = st.read_chunk_verified("/f", 0, 700, 2996)
        assert got == data[700:3696]
        assert [(b, l) for b, l, _ in proofs] == [(BLOCK, 2 * BLOCK)]
        # stats count what was returned, not what was covered to verify it
        assert (st.stats.read_ops, st.stats.bytes_read) == (1, len(got))
        st.corrupt_chunk("/f", 0, 10)  # outside the span, inside its head block
        with pytest.raises(IntegrityError, match="mismatch"):
            st.read_chunk_verified("/f", 0, 700, 100)

    def test_missing_chunk_reads_empty(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        assert st.read_chunk_verified("/f", 0, 0, CHUNK) == (b"", ())

    def test_bitrot_fails_proofs_and_partial_reads(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        assert st.corrupt_chunk("/f", 0, 2000)
        # Full-block reads hand the stored digest to the caller as a
        # proof — the *client* recomputes it, and here it cannot match.
        got, proofs = st.read_chunk_verified("/f", 0, 0, CHUNK)
        boff = 2000 // BLOCK * BLOCK
        digest = unpacked(proofs[0][2])[2000 // BLOCK]
        assert chunk_checksum(got[boff : boff + BLOCK], boff) != digest
        # Blocks a read only partially covers are verified server-side.
        with pytest.raises(IntegrityError, match="mismatch"):
            st.read_chunk_verified("/f", 0, 1500, 700)
        assert st.integrity_stats.checksum_failures == 1
        assert not st.verify_chunk("/f", 0)

    def test_torn_chunk_detected_as_torn(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        assert st.tear_chunk("/f", 0, 100)
        with pytest.raises(IntegrityError, match="torn"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert st.integrity_stats.torn_chunks == 1

    def test_zero_length_tear(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        assert st.tear_chunk("/f", 0, 0)
        with pytest.raises(IntegrityError, match="torn"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)

    def test_quarantine_blocks_reads_and_replace_lifts(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        st.corrupt_chunk("/f", 0, 1)
        st.quarantine_chunk("/f", 0)
        assert st.is_quarantined("/f", 0)
        assert st.quarantined == [("/f", 0)]
        with pytest.raises(IntegrityError, match="quarantined"):
            st.read_chunk_verified("/f", 0, 0, CHUNK)
        fresh = payload(CHUNK, seed=8)
        st.replace_chunk("/f", 0, fresh)
        assert not st.is_quarantined("/f", 0)
        got, _ = st.read_chunk_verified("/f", 0, 0, CHUNK)
        assert got == fresh
        assert st.integrity_stats.chunks_replaced == 1

    def test_a_guarded_replace_refuses_a_copy_that_moved(self, kind, tmp_path):
        """``seen`` is the copy as the copier judged it: a stale one is
        refused and leaves the copy, a matching one replaces and answers
        the installed copy's digest, read back."""
        st = make_storage(kind, tmp_path)
        old, fresh = payload(CHUNK), payload(CHUNK, seed=8)
        st.write_chunk("/f", 0, 0, old)
        seen = st.payload_digest("/f", 0)
        st.write_chunk("/f", 0, 100, fresh[:50])  # a write since it was judged
        moved = st.read_chunk("/f", 0, 0, CHUNK)
        assert st.replace_chunk("/f", 0, old, seen) is False
        assert st.read_chunk("/f", 0, 0, CHUNK) == moved
        assert st.integrity_stats.chunks_replaced == 0
        answer = st.replace_chunk("/f", 0, fresh, st.payload_digest("/f", 0))
        assert answer == {"length": CHUNK, "digest": chunk_checksum(fresh, 0, st.algorithm)}
        assert st.read_chunk("/f", 0, 0, CHUNK) == fresh
        # A rotted copy is judged None; once healed it no longer matches.
        assert st.corrupt_chunk("/f", 0, 5)
        assert st.payload_digest("/f", 0) is None
        st.write_chunk("/f", 0, 0, old)
        assert st.replace_chunk("/f", 0, fresh, None) is False
        assert st.read_chunk("/f", 0, 0, CHUNK) == old
        assert st.corrupt_chunk("/f", 0, 5)
        assert st.replace_chunk("/f", 0, fresh, None) == answer
        assert st.integrity_stats.chunks_replaced == 2

    def test_remove_chunks_drops_digests(self, kind, tmp_path):
        st = make_storage(kind, tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        st.remove_chunks("/f")
        assert st.read_chunk_verified("/f", 0, 0, CHUNK) == (b"", ())

    def test_digest_table_is_keyed_by_path(self, kind, tmp_path):
        # One table shape on both backends, so dropping a path is one pop
        # however many chunks of other files are cached.
        st = make_storage(kind, tmp_path)
        for path in ("/f", "/g"):
            for chunk_id in range(3):
                st.write_chunk(path, chunk_id, 0, payload(10))
        assert {p: sorted(t) for p, t in st._sums.items()} == {
            "/f": [0, 1, 2], "/g": [0, 1, 2]
        }
        st.remove_chunks("/f")
        assert set(st._sums) == {"/g"}

    def test_crc32c_backend_roundtrip(self, kind, tmp_path):
        st = make_storage(kind, tmp_path, integrity_algorithm="crc32c")
        data = payload(2 * BLOCK)
        st.write_chunk("/f", 0, 0, data)
        got, proofs = st.read_chunk_verified("/f", 0, 0, 2 * BLOCK)
        assert got == data
        assert unpacked(proofs[0][2])[0] == chunk_checksum(data[:BLOCK], 0, "crc32c")
        st.corrupt_chunk("/f", 0, 10)
        assert not st.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError):
            st.read_chunk_verified("/f", 0, 5, 100)  # partial: server-verified

    def test_disabled_is_passthrough(self, kind, tmp_path):
        st = make_storage(kind, tmp_path, integrity=False)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        assert st.read_chunk_verified("/f", 0, 0, CHUNK) == (data, ())
        assert st.integrity_stats.verified_reads == 0


@pytest.mark.parametrize("algorithm", ["gxh64", "crc32c"])
@pytest.mark.parametrize("kind", ["memory", "localfs"])
class TestAPartialChangeBlessesNothingItDidNotTouch:
    """A write or a cut inside a digest block used to re-read the rest of
    the block *unverified* and digest it afresh: rot outside the changed
    range came out with a valid digest."""

    ROT = 3000  # in block 2 of [2048, 3072)

    def rotten(self, kind, tmp_path, algorithm):
        st = make_storage(kind, tmp_path, integrity_algorithm=algorithm)
        data = bytearray(payload(CHUNK))
        st.write_chunk("/f", 0, 0, bytes(data))
        assert st.corrupt_chunk("/f", 0, self.ROT)
        assert not st.verify_chunk("/f", 0)
        return st, data

    def test_write_beside_the_rot(self, kind, algorithm, tmp_path):
        st, data = self.rotten(kind, tmp_path, algorithm)
        st.write_chunk("/f", 0, 2 * BLOCK, b"w" * 200)  # same block, other bytes
        assert not st.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError, match="mismatch"):
            st.read_chunk_verified("/f", 0, self.ROT - 8, 16)
        data[2 * BLOCK : 2 * BLOCK + 200] = b"w" * 200
        assert st.read_chunk_verified("/f", 0, 0, 2 * BLOCK)[0] == bytes(data[: 2 * BLOCK])

    def test_truncate_above_the_rot(self, kind, algorithm, tmp_path):
        st, _data = self.rotten(kind, tmp_path, algorithm)
        st.truncate_chunk("/f", 0, self.ROT + 40)
        assert not st.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError, match="mismatch"):
            st.read_chunk_verified("/f", 0, self.ROT - 8, 16)

    def test_a_whole_block_overwrite_still_heals(self, kind, algorithm, tmp_path):
        st, data = self.rotten(kind, tmp_path, algorithm)
        st.write_chunk("/f", 0, 2 * BLOCK, b"h" * BLOCK)
        data[2 * BLOCK : 3 * BLOCK] = b"h" * BLOCK
        assert st.verify_chunk("/f", 0)
        assert st.read_chunk_verified("/f", 0, 0, CHUNK)[0] == bytes(data)


_CHANGES = st_.lists(
    st_.one_of(
        st_.tuples(st_.just("write"), st_.integers(0, 599), st_.binary(min_size=1, max_size=260)),
        st_.tuples(st_.just("cut"), st_.integers(0, 600), st_.just(b"")),
    ),
    min_size=1, max_size=12,
)


@pytest.mark.parametrize("pure", [False, True], ids=["numpy", "pure"])
@pytest.mark.parametrize("algorithm", ["gxh64", "crc32c"])
@pytest.mark.parametrize("kind", ["memory", "localfs"])
@given(changes=_CHANGES, block=st_.sampled_from([7, 64, 100, 128, 600]))
@settings(max_examples=25, deadline=None)
def test_stored_digests_equal_the_digests_of_the_content(
        kind, algorithm, pure, changes, block, tmp_path_factory):
    """After any sequence of writes and cuts — unaligned, with holes, growing
    across blocks — the record is what digesting the whole payload gives."""
    integ._FORCE_PURE = pure
    try:
        root = tmp_path_factory.mktemp("prop")
        opts = dict(integrity=True, integrity_block_size=block, integrity_algorithm=algorithm)
        st = (MemoryChunkStorage(600, **opts) if kind == "memory"
              else LocalFSChunkStorage(600, str(root), **opts))
        model = bytearray()
        for what, at, data in changes:
            if what == "write":
                data = data[: 600 - at]
                st.write_chunk("/f", 0, at, data)
                model.extend(bytes(max(0, at - len(model))))
                model[at : at + len(data)] = data
            else:
                st.truncate_chunk("/f", 0, at)
                del model[at:]
            assert st.read_chunk("/f", 0, 0, 600) == bytes(model)
            record = st._get_sums("/f", 0)
            if model:
                assert record == (len(model), block_checksums(model, st.block_size, algorithm))
                assert st.verify_chunk("/f", 0)
            else:
                assert record is None
    finally:
        integ._FORCE_PURE = False


class TestLocalFSCrashEdges:
    """The failure modes a node crash leaves on the scratch SSD."""

    def make(self, tmp_path, **opts):
        return make_storage("localfs", tmp_path, **opts)

    def test_sidecars_survive_restart(self, tmp_path):
        st = self.make(tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        reopened = self.make(tmp_path)  # same root: the restart path
        got, proofs = reopened.read_chunk_verified("/f", 0, 0, CHUNK)
        assert got == data
        assert len(proofs[0][2]) == 8 * (CHUNK // BLOCK)

    def test_restart_still_detects_pre_crash_rot(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        chunk_file = st._chunk_file("/f", 0)
        reopened = self.make(tmp_path)
        with open(chunk_file, "r+b") as fh:
            fh.seek(50)
            byte = fh.read(1)
            fh.seek(50)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert not reopened.verify_chunk("/f", 0)
        with pytest.raises(IntegrityError):
            reopened.read_chunk_verified("/f", 0, 40, 20)

    def test_torn_partial_chunk_file(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        os.truncate(st._chunk_file("/f", 0), 333)
        reopened = self.make(tmp_path)
        with pytest.raises(IntegrityError, match="torn"):
            reopened.read_chunk_verified("/f", 0, 0, CHUNK)
        assert not reopened.verify_chunk("/f", 0)

    def test_zero_length_chunk_file(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        os.truncate(st._chunk_file("/f", 0), 0)
        reopened = self.make(tmp_path)
        with pytest.raises(IntegrityError, match="torn"):
            reopened.read_chunk_verified("/f", 0, 0, CHUNK)

    def test_torn_sidecar_reads_as_unverifiable(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        sidecar = st._sidecar_file("/f", 0)
        os.truncate(sidecar, os.path.getsize(sidecar) - 3)
        reopened = self.make(tmp_path)
        with pytest.raises(IntegrityError, match="checksum record"):
            reopened.read_chunk_verified("/f", 0, 0, CHUNK)

    def test_garbage_sidecar_reads_as_unverifiable(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        with open(st._sidecar_file("/f", 0), "wb") as fh:
            fh.write(b"not a sidecar at all" * 3)
        reopened = self.make(tmp_path)
        with pytest.raises(IntegrityError, match="checksum record"):
            reopened.read_chunk_verified("/f", 0, 0, CHUNK)

    def test_shrunk_record_reloads_after_restart(self, tmp_path):
        # The in-place update must cut the old record's tail off: a
        # shorter record followed by stale digests would not parse.
        st = LocalFSChunkStorage(
            512 * 1024, str(tmp_path / "big"), integrity=True,
            integrity_block_size=128 * 1024,
        )
        data = payload(512 * 1024)
        st.write_chunk("/f", 0, 0, data)
        sidecar = st._sidecar_file("/f", 0)
        before = os.path.getsize(sidecar)
        st.truncate_chunk("/f", 0, 100)
        assert os.path.getsize(sidecar) == before - 3 * 8
        reopened = LocalFSChunkStorage(
            512 * 1024, str(tmp_path / "big"), integrity=True,
            integrity_block_size=128 * 1024,
        )
        assert reopened.verify_chunk("/f", 0)
        assert reopened.read_chunk_verified("/f", 0, 0, 4096) == (
            data[:100], ((0, 100, one(chunk_checksum(data[:100], 0))),)
        )

    def _records(self, tmp_path):
        """Sidecar bytes of a 4-block chunk and of the same chunk cut to 1."""
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        sidecar = st._sidecar_file("/f", 0)
        with open(sidecar, "rb") as fh:
            long = fh.read()
        st.truncate_chunk("/f", 0, 100)
        with open(sidecar, "rb") as fh:
            short = fh.read()
        assert len(short) < len(long)
        return sidecar, long, short

    @pytest.mark.parametrize("torn_at", [7, 14, 18, 25, 29])
    def test_torn_in_place_write_reads_as_unverifiable(self, tmp_path, torn_at):
        # Crash part-way through pwrite(record, 0) over a record of
        # another length: new prefix, old remainder.  (The records first
        # differ at byte 6; a tear before that *is* the old record.)
        sidecar, long, short = self._records(tmp_path)
        for new, old in ((short, long), (long, short)):
            with open(sidecar, "wb") as fh:
                fh.write(new[:torn_at] + old[torn_at:])
            reopened = self.make(tmp_path)
            with pytest.raises(IntegrityError, match="checksum record"):
                reopened.read_chunk_verified("/f", 0, 0, 100)
            assert not reopened.verify_chunk("/f", 0)

    def test_stale_tail_reads_as_unverifiable(self, tmp_path):
        # Crash between the pwrite of a shorter record and its ftruncate.
        sidecar, long, short = self._records(tmp_path)
        with open(sidecar, "wb") as fh:
            fh.write(short + long[len(short):])
        reopened = self.make(tmp_path)
        with pytest.raises(IntegrityError, match="checksum record"):
            reopened.read_chunk_verified("/f", 0, 0, 100)
        # ...and the next write heals it: rewritten whole, tail cut.
        reopened.write_chunk("/f", 0, 0, payload(100))
        assert os.path.getsize(sidecar) == len(short)
        assert self.make(tmp_path).verify_chunk("/f", 0)

    def test_short_pwrite_is_looped(self, tmp_path, monkeypatch):
        real = os.pwrite
        monkeypatch.setattr(
            os, "pwrite", lambda fd, data, offset: real(fd, bytes(data[:7]), offset)
        )
        st = self.make(tmp_path)
        data = payload(CHUNK)
        st.write_chunk("/f", 0, 0, data)
        st.write_chunk("/f", 0, 100, data[:50])
        monkeypatch.undo()
        reopened = self.make(tmp_path)
        want = data[:100] + data[:50] + data[150:]
        assert reopened.read_chunk_verified("/f", 0, 0, CHUNK)[0] == want
        assert reopened.verify_chunk("/f", 0)

    def test_sidecars_invisible_to_payload_namespace(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        st.write_chunk("/f", 5, 0, payload(100))
        assert sorted(st.chunk_ids("/f")) == [0, 5]
        assert list(st.paths()) == ["/f"]
        assert st.used_bytes() == CHUNK + 100

    def test_remove_chunks_removes_sidecars(self, tmp_path):
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        sidecar = st._sidecar_file("/f", 0)
        assert os.path.exists(sidecar)
        st.remove_chunks("/f")
        assert not os.path.exists(sidecar)

    def test_sidecar_header_format_stable(self, tmp_path):
        # The sidecar is a persisted format: magic + version pin it, and
        # version 2 records the grain its digests were taken at.
        st = self.make(tmp_path)
        st.write_chunk("/f", 0, 0, payload(CHUNK))
        with open(st._sidecar_file("/f", 0), "rb") as fh:
            blob = fh.read()
        size = struct.calcsize("<4sBBQII")
        magic, version, algo, length, count, grain = struct.unpack("<4sBBQII", blob[:size])
        assert magic == b"GKCS"
        assert version == 2
        assert algo == 0  # gxh64
        assert length == CHUNK
        assert count == CHUNK // BLOCK
        assert grain == BLOCK
        # the body is the packed record itself, then the CRC
        assert blob[size:-4] == st._get_sums("/f", 0)[1] == block_checksums(
            payload(CHUNK), BLOCK
        )


class TestLocalFSHotPath:
    """One open of the chunk file (and one of its sidecar) per *residency*
    in the handle table, none per operation, positional I/O on the handle,
    at most one in-place sidecar write, never truncating.  Counts, not
    clocks; tests/test_storage_handles.py counts the other syscalls."""

    BIG, BLK, IO = 512 * 1024, 128 * 1024, 8192

    @pytest.fixture
    def opens(self, monkeypatch):
        """Every ``os.open`` / ``builtins.open`` as ``(basename, how)``."""
        seen = []
        real_os_open, real_open = os.open, builtins.open

        def os_open(path, flags, *args, **kwargs):
            seen.append((os.path.basename(os.fspath(path)), flags))
            return real_os_open(path, flags, *args, **kwargs)

        def py_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                seen.append((os.path.basename(os.fspath(file)), mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(builtins, "open", py_open)
        return seen

    def attach(self, tmp_path, integrity=True):
        return LocalFSChunkStorage(
            self.BIG, str(tmp_path / "store"), integrity=integrity,
            integrity_block_size=self.BLK,
        )

    def make(self, tmp_path, integrity=True):
        st = self.attach(tmp_path, integrity)
        st.write_chunk("/f", 0, 0, payload(self.BIG))
        return st

    @staticmethod
    def truncating(opens):
        return [(name, how) for name, how in opens
                if (how & os.O_TRUNC if isinstance(how, int) else "w" in how)]

    def test_resident_overwrite_opens_nothing_patches_sum(
        self, tmp_path, opens
    ):
        st = self.make(tmp_path)
        assert not self.truncating(opens)
        sidecar = st._sidecar_file("/f", 0)
        before = os.stat(sidecar)
        del opens[:]
        for slot in (3, 4, 5):
            st.write_chunk("/f", 0, slot * self.IO, payload(self.IO, seed=9))
        assert opens == []
        after = os.stat(sidecar)
        assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
        st.close()  # the next residency: one open each, however many writes
        for slot in (6, 7):
            st.write_chunk("/f", 0, slot * self.IO, payload(self.IO, seed=9))
        assert sorted(name for name, _ in opens) == ["chunk_00000000", "chunk_00000000.sum"]
        assert not self.truncating(opens)
        assert self.attach(tmp_path).verify_chunk("/f", 0)  # as after a restart

    def test_resident_verified_read_opens_nothing(self, tmp_path, opens):
        st = self.make(tmp_path)
        want = payload(self.BIG)[3 * self.IO : 4 * self.IO]
        del opens[:]
        assert st.read_chunk_verified("/f", 0, 3 * self.IO, self.IO) == (want, ())
        assert opens == []
        st.close()
        for _ in range(2):
            assert st.read_chunk_verified("/f", 0, 3 * self.IO, self.IO) == (want, ())
        assert opens == [("chunk_00000000", os.O_RDWR), ("chunk_00000000.sum", os.O_RDWR)]

    def test_integrity_off_touches_no_sidecar(self, tmp_path, opens):
        st = self.make(tmp_path, integrity=False)
        del opens[:]
        st.write_chunk("/f", 0, self.IO, payload(self.IO))
        st.read_chunk_verified("/f", 0, self.IO, self.IO)
        assert opens == []
        st.close()
        st.write_chunk("/f", 0, self.IO, payload(self.IO))
        st.read_chunk_verified("/f", 0, self.IO, self.IO)
        assert opens == [("chunk_00000000", os.O_RDWR)]


@pytest.mark.parametrize("on_disk", [False, True])
def test_ftruncate_above_first_chunk_payload_end_to_end(on_disk, tmp_path):
    """truncate_chunk used to *grow* a localfs chunk past its digest
    record; the next verified read then called a healthy chunk torn."""
    config = FSConfig(
        integrity_enabled=True, data_dir=str(tmp_path / "data") if on_disk else None
    )
    with GekkoFSCluster(num_nodes=2, config=config) as fs:
        client = fs.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"a" * 100, 0)
        client.pwrite(fd, b"b", 2 * 1024 * 1024)
        client.ftruncate(fd, 1000)
        assert client.pread(fd, 4096, 0) == b"a" * 100 + b"\0" * 900
        for daemon in fs.daemons:
            for path in daemon.storage.paths():
                for chunk_id in daemon.storage.chunk_ids(path):
                    assert daemon.storage.verify_chunk(path, chunk_id)
