"""Stable path hashing for wide-striping placement.

GekkoFS clients resolve the daemon responsible for a path *locally*, with
no central placement service: metadata lives on ``hash(path) % n`` and each
data chunk on ``hash(path ⊕ chunk_id) % n`` (§III-B).  Correctness of the
whole file system therefore rests on every client computing the identical
hash — so we use FNV-1a, a deterministic hash that never changes across
interpreter runs (unlike the seeded built-in ``hash``).

At ``2**k`` daemons (``k <= 8``) a file's chunk placement is a per-file
permutation of ``chunk_id mod 2**k``, not pseudo-random: an FNV-1a step (xor
a byte, multiply by an odd prime) keeps the low ``k`` bits to themselves.  Up
to 32 daemons chunk ``c < 256`` sits on ``owner ^ (c % 2**k)``, so at two,
half of a file's sub-chunk writes reach its metadata owner and no aligned
two-chunk write does.  The hash stays: changing it moves every placement.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["fnv1a_64", "hash_path", "hash_chunk"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes, seed: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of ``data``.

    :param data: the bytes to hash.
    :param seed: starting state; chaining calls with the previous digest
        hashes a concatenation without building it.
    :returns: unsigned 64-bit digest.
    """
    h = seed & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 14)
def hash_path(path: str) -> int:
    """Digest used to place a path's *metadata*; memoised, since a client
    asks once per call naming the path and once per chunk of a transfer."""
    return fnv1a_64(path.encode("utf-8"))


@lru_cache(maxsize=1 << 14)
def hash_chunk(path: str, chunk_id: int) -> int:
    """Digest used to place one *data chunk* of a file; memoised, as every
    span of every data call asks.  Chains the chunk id into the path digest
    so consecutive chunks of the same file spread across daemons
    (wide-striping), resolvable from ``(path, chunk_id)`` alone."""
    if chunk_id < 0:
        raise ValueError(f"chunk_id must be >= 0, got {chunk_id}")
    return fnv1a_64(chunk_id.to_bytes(8, "little"), seed=hash_path(path))
