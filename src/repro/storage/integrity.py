"""Chunk checksum algorithms and block-grid helpers for the integrity plane.

GekkoFS trusts the node-local file system to return the bytes it wrote;
at burst-buffer scale that trust is misplaced — bit-rot and torn writes
are real failure modes the paper's relaxed-POSIX model never addresses.
This module supplies the digests the storage backends persist alongside
every chunk (sidecar per chunk, one digest per 8 KiB *block*, the paper's
small-I/O point) and that clients re-verify end-to-end on read.  A run of
blocks is digested in one batched pass (:func:`block_checksums`), so the
fine grain costs per byte, not per block, and every digest record — in
memory, in the sidecar, in a read's proof — is one packed little-endian
u64 array.

Two algorithms are offered:

* ``"gxh64"`` (default) — a 64-bit multilinear digest built for the hot
  path: each little-endian 64-bit word is multiplied by a fixed odd
  per-position weight and the products are summed mod 2^64, then
  finalised with a splitmix64 mix of the length and a caller salt.  Odd
  multipliers are invertible mod 2^64, so *any* corruption confined to
  one word is detected deterministically; multi-word corruption escapes
  with probability ~2^-64.  The whole word loop is one integer dot
  product, which numpy fuses into a single pass (~8 µs per 128 KiB; a run
  of blocks is one ``(blocks × words)`` contraction plus a vectorised
  finaliser); a bit-exact pure-Python fallback keeps digests stable across machines
  and across the presence/absence of numpy.  The sum is *linear* in the
  (zero-padded) words and the finaliser a bijection, so a stored digest
  can be moved from the old content of a byte range to the new without
  the rest of the block (:func:`patch_checksum`): a partial-block write
  digests what it replaces and what it writes, and never blesses bytes
  it did not look at.
* ``"crc32c"`` — the Castagnoli CRC used by iSCSI/ext4/Btrfs, as a
  table-driven reference implementation.  Byte-at-a-time Python is far
  too slow for the data path but the polynomial is the industry
  fixture; it is selectable via ``FSConfig(integrity_algorithm=...)``
  for correctness-focused runs and is cross-checked against the
  standard test vector.

Digests are salted with the block's byte offset inside its chunk, so a
block's bytes landing at the wrong offset (misdirected write) also fail
verification, not only in-place rot.
"""

from __future__ import annotations

import struct
import sys
import threading
from dataclasses import dataclass
from operator import mul

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DIGEST",
    "IntegrityStats",
    "block_checksums",
    "block_span",
    "chunk_checksum",
    "crc32c",
    "load_accelerator",
    "patch_checksum",
]

_np = None  # numpy, once load_accelerator() has looked for it
_np_sought = False


def load_accelerator():
    """Import numpy, the optional accelerator, now (the pure path is
    bit-identical without it).  A storage or client built with integrity on
    calls this, so the import is part of set-up and not of the first digest;
    a process that never digests a byte never pays it."""
    global _np, _np_sought
    if not _np_sought:
        try:
            import numpy

            _np = numpy
        except ImportError:  # pragma: no cover - exercised via the force flag
            pass
        _np_sought = True
    return _np


DEFAULT_BLOCK_SIZE = 8 * 1024
"""Default checksum granularity: one digest per 8 KiB of chunk payload."""

#: One packed digest: a record is these, concatenated, one per block.
DIGEST = struct.Struct("<Q")

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_LEN_MULT = 0x9E3779B97F4A7C15  # golden-ratio odd constant for length mixing

# ---------------------------------------------------------------------------
# CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — reference algorithm
# ---------------------------------------------------------------------------


def _build_crc32c_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data``; chainable via ``crc`` like :func:`zlib.crc32`.

    Standard check value: ``crc32c(b"123456789") == 0xE3069283``.
    """
    crc = ~crc & _M32
    table = _CRC32C_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return ~crc & _M32


# ---------------------------------------------------------------------------
# GXH64 — the vectorisable hot-path digest
# ---------------------------------------------------------------------------


class _WeightTable:
    """Deterministic per-word 64-bit odd weights, grown lazily.

    The stream comes from a fixed 64-bit LCG so that persisted digests
    remain valid across processes, machines, and numpy versions (numpy's
    own RNG streams are *not* version-stable, so it is never used here).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = 0x9E3779B97F4A7C15
        self._weights: list[int] = []
        self._np_weights = None

    def _grow(self, n: int) -> None:
        state = self._state
        while len(self._weights) < n:
            state = (state * 6364136223846793005 + 1442695040888963407) & _M64
            self._weights.append(state | 1)
        self._state = state

    def py(self, n: int) -> list[int]:
        with self._lock:
            if len(self._weights) < n:
                self._grow(n)
                self._np_weights = None
            return self._weights

    def np(self, n: int):
        with self._lock:
            if len(self._weights) < n:
                self._grow(n)
                self._np_weights = None
            if self._np_weights is None or len(self._np_weights) < n:
                self._np_weights = _np.array(self._weights, dtype=_np.uint64)
            return self._np_weights


_WEIGHTS = _WeightTable()

_FORCE_PURE = False  # test hook: exercise the pure-Python path with numpy present


_MIX_1, _MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # splitmix64's multipliers


def _mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_1) & _M64
    x ^= x >> 27
    x = (x * _MIX_2) & _M64
    x ^= x >> 31
    return x


_UNMIX_MULT_1 = pow(_MIX_1, -1, 1 << 64)
_UNMIX_MULT_2 = pow(_MIX_2, -1, 1 << 64)


def _unmix64(x: int) -> int:
    """Inverse of :func:`_mix64` (xor-shifts and odd multiplies both invert)."""
    x ^= (x >> 31) ^ (x >> 62)
    x = (x * _UNMIX_MULT_2) & _M64
    x ^= (x >> 27) ^ (x >> 54)
    x = (x * _UNMIX_MULT_1) & _M64
    x ^= (x >> 30) ^ (x >> 60)
    return x


def _finalize(acc: int, length: int, salt: int) -> int:
    # _mix64(0) == 0, so the zero salt (block at chunk offset 0 — every
    # digest when block size == chunk size) skips one mix round.
    if salt:
        acc ^= _mix64(salt)
    return _mix64(acc ^ ((length * _LEN_MULT) & _M64))


def _unfinalize(digest: int, length: int, salt: int) -> int:
    acc = _unmix64(digest) ^ ((length * _LEN_MULT) & _M64)
    return acc ^ _mix64(salt) if salt else acc


def _accumulate_py(data, start: int) -> int:
    n = len(data)
    full = n // 8
    weights = _WEIGHTS.py(start + full + 1)
    acc = 0
    if full:
        words = struct.unpack_from(f"<{full}Q", data, 0)
        acc = sum(map(mul, words, weights[start : start + full]))
    if n != full * 8:
        tail = int.from_bytes(bytes(data[full * 8 :]), "little")
        acc += tail * weights[start + full]
    return acc & _M64


def _accumulate_np(data, start: int) -> int:
    n = len(data)
    full = n // 8
    acc = 0
    if full:
        words = _np.frombuffer(data, dtype="<u8", count=full)
        # Lock-free weight lookup on the hot path: the cached array only
        # ever grows, so a long-enough snapshot is always valid.
        weights = _WEIGHTS._np_weights
        if weights is None or len(weights) < start + full:
            weights = _WEIGHTS.np(start + full)
        # One fused pass: integer dot product with C unsigned wraparound.
        acc = int(_np.dot(words, weights[start : start + full]))
    if n != full * 8:
        tail = int.from_bytes(bytes(data[full * 8 :]), "little")
        acc = (acc + tail * _WEIGHTS.py(start + full + 1)[start + full]) & _M64
    return acc


def _accumulate(data, start: int = 0) -> int:
    """GXH64's linear form: the sum, mod 2^64, of ``data``'s little-endian
    64-bit words (the last one zero-padded) times the weights of word
    positions ``start``, ``start + 1``, ..."""
    if not _FORCE_PURE and sys.byteorder == "little" and (
        _np is not None or load_accelerator() is not None
    ):
        return _accumulate_np(data, start)
    return _accumulate_py(data, start)


def chunk_checksum(data, salt: int = 0, algorithm: str = "gxh64") -> int:
    """Digest ``data`` (bytes-like) under ``algorithm``, salted with ``salt``.

    ``salt`` is by convention the byte offset of the data inside its
    chunk, making digests position-sensitive across blocks.  Accepts any
    buffer (``bytes``/``bytearray``/``memoryview``) without copying on
    the accelerated path.
    """
    if algorithm == "gxh64":
        return _finalize(_accumulate(data), len(data), salt)
    if algorithm == "crc32c":
        # fold the salt in as a prefix so misplaced blocks still fail
        return crc32c(bytes(data), crc=salt & _M32)
    raise ValueError(f"unknown integrity algorithm {algorithm!r}")


def patch_checksum(
    digest: int, length: int, salt: int, at: int, before, after, new_length: int
) -> int:
    """The GXH64 digest of a block after bytes ``[at, at + len(before))`` of
    it changed from ``before`` to ``after`` and its length from ``length``
    to ``new_length`` — from its stored ``digest`` alone.

    ``at`` is a multiple of 8 inside the block; the two byte strings may
    differ in length (growth, a cut) since bytes past either end count as
    the zeros the digest pads with.  Nothing outside the range is read, so
    nothing outside it is vouched for: rot elsewhere in the block fails
    the patched digest exactly as it failed the old one.  An empty block
    (``length == 0``) has no digest to start from: pass ``digest=None``.
    """
    acc = _unfinalize(digest, length, salt) if digest is not None else 0
    acc += _accumulate(after, at // 8) - _accumulate(before, at // 8)
    return _finalize(acc & _M64, new_length, salt)


# ---------------------------------------------------------------------------
# block grid
# ---------------------------------------------------------------------------


def block_span(offset: int, length: int, block_size: int) -> range:
    """Indices of the checksum blocks overlapping ``[offset, offset+length)``."""
    if length <= 0:
        return range(0)
    return range(offset // block_size, (offset + length - 1) // block_size + 1)


def block_checksums(
    data, block_size: int, algorithm: str = "gxh64", base_offset: int = 0
) -> bytes:
    """Per-block digests of ``data``, one per ``block_size`` slice, as one
    packed little-endian u64 array (:data:`DIGEST` each).

    ``base_offset`` is the chunk-absolute byte offset of ``data[0]`` and
    must be block-aligned; each block is salted with its own absolute
    offset so the sidecar entries are independent of how the write that
    produced them was split.  A lone block takes the scalar path; a run of
    GXH64 blocks is accumulated in one numpy call and finalised as a
    vector, bit for bit what the scalar path gives each block.
    """
    if base_offset % block_size:
        raise ValueError(f"base_offset {base_offset} not aligned to {block_size}")
    n = len(data)
    if n <= block_size:  # hot path: one block (or none), no slicing
        return DIGEST.pack(chunk_checksum(data, base_offset, algorithm)) if n else b""
    full = n // block_size
    if (
        algorithm == "gxh64" and not block_size % 8 and not _FORCE_PURE
        and sys.byteorder == "little" and load_accelerator() is not None
    ):
        packed = _run_digests_np(data, block_size, full, base_offset)
        if n == full * block_size:
            return packed
        tail = memoryview(data)[full * block_size :]
        return packed + DIGEST.pack(
            chunk_checksum(tail, base_offset + full * block_size, algorithm)
        )
    view = memoryview(data)
    return struct.pack(f"<{-(-n // block_size)}Q", *[
        chunk_checksum(view[boff : boff + block_size], base_offset + boff, algorithm)
        for boff in range(0, n, block_size)
    ])


# Per block size: ``_mix64(k * block_size) ^ (block_size * _LEN_MULT)`` for
# block k of a chunk — the finaliser's salt and length terms of a full block,
# grown like the weights (racing growers compute the same table).
_FULL_BLOCK_TERMS: dict = {}


def _full_block_terms(block_size: int, count: int):
    table = _FULL_BLOCK_TERMS.get(block_size)
    if table is None or len(table) < count:
        size = max(count, 2 * len(table) if table is not None else 64)
        length_term = (block_size * _LEN_MULT) & _M64
        table = _np.array(
            [_mix64(k * block_size) ^ length_term for k in range(size)], dtype=_np.uint64
        )
        _FULL_BLOCK_TERMS[block_size] = table
    return table


def _run_digests_np(data, block_size: int, count: int, base_offset: int) -> bytes:
    """Packed digests of the ``count`` whole blocks at the front of ``data``:
    one ``(blocks × words)`` contraction against the weight table, then the
    splitmix finaliser over the vector (wraparound uint64 arithmetic)."""
    np = _np
    words = block_size // 8
    rows = np.frombuffer(data, dtype="<u8", count=count * words).reshape(count, words)
    weights = _WEIGHTS._np_weights
    if weights is None or len(weights) < words:
        weights = _WEIGHTS.np(words)
    acc = np.einsum("ij,j->i", rows, weights[:words])
    first = base_offset // block_size
    acc ^= _full_block_terms(block_size, first + count)[first : first + count]
    # _mix64, vectorised
    acc ^= acc >> np.uint64(30)
    acc *= np.uint64(_MIX_1)
    acc ^= acc >> np.uint64(27)
    acc *= np.uint64(_MIX_2)
    acc ^= acc >> np.uint64(31)
    return acc.tobytes()


@dataclass
class IntegrityStats:
    """Counters a checksumming backend maintains (all zero when disabled).

    :ivar verified_reads: reads served after successful digest checks.
    :ivar checksum_failures: failed checks — a verified read, or a
        whole-chunk check (``gkfs_chunk_digest``, which the scrubber, the
        repairer and the migrator verify with; a guarded replace's
        compare and read-back; and the quarantine re-check).
    :ivar torn_chunks: failed checks whose payload was shorter than the
        sidecar recorded — the torn-write / zero-length crash signature.
    :ivar chunks_replaced: chunks rewritten by the one chunk copy
        (``gkfs_replace_chunk``; its four users are read-repair, the wire
        repairer's repair and resync, scrub, and migration); a refused
        replace is not counted.
    :ivar chunks_quarantined: chunks fenced off as unrepairable
        (``gkfs_quarantine_chunk``).
    """

    verified_reads: int = 0
    checksum_failures: int = 0
    torn_chunks: int = 0
    chunks_replaced: int = 0
    chunks_quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)
