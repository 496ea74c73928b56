"""Placement policies: which daemon owns a path's metadata / a chunk.

The defining property (§III-B) is that *any* client resolves ownership
from ``(path, chunk_id)`` and the daemon count alone — no central lookup
tables.  :class:`SimpleHashDistributor` is the paper's hashed wide-striping
(a per-file permutation of ``chunk_id mod 2**k`` at ``2**k`` daemons, not
pseudo-random); :class:`FilePerNodeDistributor` is the contrasting policy
for the §V "different data distribution patterns" ablation (whole file on
its metadata owner — locality for small files, a hotspot for big ones).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.common.hashing import fnv1a_64, hash_chunk, hash_path

__all__ = [
    "replica_set",
    "Distributor",
    "SimpleHashDistributor",
    "FilePerNodeDistributor",
    "GuidedDistributor",
    "RendezvousDistributor",
]


def replica_set(primary: int, replication: int, num_daemons: int) -> list[int]:
    """Successor replica placement: ``primary`` plus the daemons after it.

    Every client resolves the set from the path alone — the same
    no-central-service property as the primary placement.  Collapses to
    one daemon when replication is off (the paper's design) or the
    deployment is smaller than ``replication``.
    """
    if replication == 1 or num_daemons == 1:
        return [primary % num_daemons]
    return [(primary + i) % num_daemons for i in range(min(replication, num_daemons))]


class Distributor:
    """Stateless ownership resolution over ``num_daemons`` endpoints."""

    def __init__(self, num_daemons: int):
        if num_daemons <= 0:
            raise ValueError(f"num_daemons must be > 0, got {num_daemons}")
        self.num_daemons = num_daemons

    def locate_metadata(self, path: str) -> int:
        """Daemon owning the metadata record of ``path``."""
        raise NotImplementedError

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        """Daemon owning data chunk ``chunk_id`` of ``path``."""
        raise NotImplementedError

    def locate_all(self) -> range:
        """Every daemon address — for broadcasts (remove, readdir)."""
        return range(self.num_daemons)


class SimpleHashDistributor(Distributor):
    """Paper default: hash(path) for metadata, hash(path, chunk) per chunk
    (at ``2**k`` daemons each aligned run of ``2**k`` chunks covers every
    daemon once, :mod:`repro.common.hashing`)."""

    def locate_metadata(self, path: str) -> int:
        return hash_path(path) % self.num_daemons

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        return hash_chunk(path, chunk_id) % self.num_daemons


class FilePerNodeDistributor(Distributor):
    """Whole-file placement: all chunks live with the metadata owner.

    Still resolvable by every client independently (it is a pure function
    of the path), but gives up wide-striping: one node serves all I/O of a
    file.  Used by the ABL-DIST ablation to show why GekkoFS stripes.
    """

    def locate_metadata(self, path: str) -> int:
        return hash_path(path) % self.num_daemons

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        return self.locate_metadata(path)


class GuidedDistributor(Distributor):
    """Hash placement with explicit per-path overrides.

    GekkoFS ships a *guided* distributor: a deployment-wide configuration
    pins selected paths (and optionally individual chunks) to chosen
    daemons — e.g. to co-locate a hot input file with the ranks that read
    it — while everything else falls back to wide-striping.  Every client
    must be constructed with the identical override table, preserving the
    no-central-service property.

    :param overrides: ``path -> daemon`` pins (metadata *and* all chunks).
    :param chunk_overrides: finer ``(path, chunk_id) -> daemon`` pins;
        take precedence over ``overrides`` for data placement.
    """

    def __init__(
        self,
        num_daemons: int,
        overrides: Optional[Mapping[str, int]] = None,
        chunk_overrides: Optional[Mapping[tuple[str, int], int]] = None,
    ):
        super().__init__(num_daemons)
        self._overrides = dict(overrides or {})
        self._chunk_overrides = dict(chunk_overrides or {})
        for target in list(self._overrides.values()) + list(self._chunk_overrides.values()):
            if not 0 <= target < num_daemons:
                raise ValueError(f"override target {target} outside [0, {num_daemons})")
        self._fallback = SimpleHashDistributor(num_daemons)

    def locate_metadata(self, path: str) -> int:
        pinned = self._overrides.get(path)
        return pinned if pinned is not None else self._fallback.locate_metadata(path)

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        pinned = self._chunk_overrides.get((path, chunk_id))
        if pinned is not None:
            return pinned
        pinned = self._overrides.get(path)
        if pinned is not None:
            return pinned
        return self._fallback.locate_chunk(path, chunk_id)


class RendezvousDistributor(Distributor):
    """Highest-random-weight (rendezvous) placement.

    Same independence and balance properties as modulo hashing, with one
    extra: when the daemon count changes (a node joins or leaves the
    temporary deployment), only ~1/n of placements move instead of nearly
    all — the property a resize/malleability extension needs.
    """

    @staticmethod
    def _weight(key: int, daemon: int) -> int:
        return fnv1a_64(daemon.to_bytes(4, "little"), seed=key)

    def _best(self, key: int) -> int:
        return max(range(self.num_daemons), key=lambda d: (self._weight(key, d), d))

    def locate_metadata(self, path: str) -> int:
        return self._best(hash_path(path))

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        return self._best(hash_chunk(path, chunk_id))
