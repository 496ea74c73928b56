"""Bloom filter used by SSTables to skip point reads that cannot hit.

An LSM read may have to consult every run; RocksDB (and therefore our
substitute) attaches a bloom filter to each SSTable so misses cost one
in-memory probe instead of a binary search.  The filter is a plain
bit array with ``k`` double-hashed probes (Kirsch–Mitzenmacher), which
gives the standard false-positive behaviour with only two base hashes.
Those two depend on the key alone, so a store computes them once per
operation (:func:`key_hashes`) and probes every run's filter with them
(:meth:`BloomFilter.admits`).
"""

from __future__ import annotations

import math

from repro.common.hashing import fnv1a_64

__all__ = ["BloomFilter", "key_hashes"]

_SEED2 = 0x9E3779B97F4A7C15  # golden-ratio odd constant for the second hash


def key_hashes(key: bytes) -> tuple[int, int]:
    """The two base hashes every filter derives ``key``'s probes from."""
    return fnv1a_64(key), fnv1a_64(key, seed=_SEED2) | 1


class BloomFilter:
    """Fixed-size bloom filter over byte-string keys.

    :param expected_items: how many keys the filter is sized for.
    :param fp_rate: target false-positive probability at that fill level.
    """

    __slots__ = ("nbits", "nhashes", "_bits", "count")

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items <= 0:
            raise ValueError(f"expected_items must be > 0, got {expected_items}")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        nbits = int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2))
        self.nbits = max(8, nbits)
        self.nhashes = max(1, round(self.nbits / expected_items * math.log(2)))
        self._bits = bytearray((self.nbits + 7) // 8)
        self.count = 0

    def _probes(self, hashes: tuple[int, int]):
        h1, h2 = hashes
        for i in range(self.nhashes):
            yield ((h1 + i * h2) & 0xFFFFFFFFFFFFFFFF) % self.nbits

    def add(self, key: bytes) -> None:
        """Insert ``key``; idempotent."""
        for bit in self._probes(key_hashes(key)):
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self.count += 1

    def admits(self, hashes: tuple[int, int]) -> bool:
        """Whether the key whose :func:`key_hashes` are ``hashes`` may be here."""
        return all(self._bits[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(hashes))

    def __contains__(self, key: bytes) -> bool:
        return self.admits(key_hashes(key))

    # -- serialisation (embedded in the SSTable footer) -------------------

    def to_bytes(self) -> bytes:
        """Serialise as ``nbits | nhashes | count | bit array``."""
        header = (
            self.nbits.to_bytes(8, "little")
            + self.nhashes.to_bytes(4, "little")
            + self.count.to_bytes(8, "little")
        )
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`."""
        obj = cls.__new__(cls)
        obj.nbits = int.from_bytes(data[0:8], "little")
        obj.nhashes = int.from_bytes(data[8:12], "little")
        obj.count = int.from_bytes(data[12:20], "little")
        obj._bits = bytearray(data[20:])
        if len(obj._bits) != (obj.nbits + 7) // 8:
            raise ValueError("corrupt bloom filter: bit array length mismatch")
        return obj
