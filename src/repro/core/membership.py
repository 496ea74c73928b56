"""Membership epochs: versioned placement maps that survive resizes.

The paper's deployment is static: the hosts file distributed at start-up
*is* the membership.  This module makes membership a first-class,
versioned object so a grow/shrink (or a crash-replace) can run **live**:

* every deployment owns one :class:`MembershipView` — the placement map
  plus a monotonically increasing **epoch**.  Clients route through the
  view, so a placement change is visible to every client the moment the
  cluster commits it, without rebuilding anything;
* during a change the view walks ``STABLE → MIGRATING → RELEASING →
  STABLE``.  While MIGRATING the *old* placement stays authoritative
  (the migrator is still copying); a short write freeze covers the final
  delta pass; after the flip the view enters RELEASING, where reads that
  miss under the new placement fall back to the old owner until the
  epoch is sealed and the source copies are released;
* the view publishes its epoch to the deployment's network, which stamps
  it into the envelope of every request it builds, so daemons reject
  retired epochs server-side (``RpcEngine.min_epoch``,
  :class:`~repro.common.errors.StaleEpochError`) from any client that
  bypasses the view.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.core.distributor import Distributor, replica_set

__all__ = ["MembershipView", "READONLY_HANDLERS"]

#: Membership-change states.
STABLE = "stable"
MIGRATING = "migrating"  # new placement staged; old placement authoritative
RELEASING = "releasing"  # new placement live; old owners still hold copies

#: Handlers that never mutate daemon state (the socket transport may
#: resubmit them over a fresh connection).
READONLY_HANDLERS = frozenset(
    {
        "gkfs_stat",
        "gkfs_stat_lease",
        "gkfs_stat_if_changed",
        # The replica put/drop pair mutates only the volatile TTL-bounded
        # hot-replica side table — never the KV store.
        "gkfs_put_hot_replica",
        "gkfs_drop_hot_replica",
        "gkfs_readdir",
        "gkfs_readdir_plus",
        "gkfs_read_chunks",
        "gkfs_statfs",
        "gkfs_metrics",
        "gkfs_chunk_digest",
        "gkfs_inventory",
        "gkfs_ping",
        "gkfs_trace_dump",
        "gkfs_metrics_window",
        "gkfs_flight_dump",
    }
)

#: A freeze longer than this is a migrator bug, not backpressure.
_FREEZE_TIMEOUT = 30.0


class MembershipView(Distributor):
    """One deployment's placement map, versioned by membership epoch.

    Answers the :class:`~repro.core.distributor.Distributor` surface
    (``locate_metadata``, ``locate_chunk``, ``locate_all``,
    ``num_daemons``) for whichever distributor is *authoritative*: they
    are that distributor's own bound methods and count, installed again
    at every flip, so a look-up through the view costs what it costs on
    the distributor.  Clients hold a view wherever they held a
    distributor.  All transitions are driven by the deployment and its
    migrator; clients only read.

    :param network: the deployment's :class:`~repro.rpc.RpcNetwork`;
        every epoch bump is published to it (``network.epoch``), and it
        stamps that epoch into each request it builds.
    """

    def __init__(self, distributor: Distributor, network: Any = None):
        self._lock = threading.Lock()
        self._network = network
        self._pending: Optional[Distributor] = None
        #: The retiring placement while a change is RELEASING, else None.
        self.previous: Optional[Distributor] = None
        self.epoch = 0
        self.state = STABLE
        #: True only for the freeze window; the client's mutation gate
        #: reads it before it parks on :meth:`wait_writable`.
        self.frozen = False
        self._writable = threading.Event()
        self._writable.set()
        self._install(distributor)

    def _install(self, distributor: Distributor) -> None:
        #: The authoritative underlying distributor.
        self.distributor = distributor
        self.num_daemons = distributor.num_daemons
        self.locate_metadata = distributor.locate_metadata
        self.locate_chunk = distributor.locate_chunk
        self.locate_all = distributor.locate_all

    # -- change protocol (cluster/migrator side) ---------------------------

    def begin_change(self, new_distributor: Distributor) -> int:
        """Stage ``new_distributor`` and bump the epoch.

        The old placement stays authoritative: clients keep reading and
        writing against it while the migrator pre-copies.  Returns the
        new epoch.
        """
        with self._lock:
            if self.state != STABLE:
                raise RuntimeError(
                    f"membership change already in progress (state {self.state})"
                )
            self._pending = new_distributor
            self.epoch += 1
            self.state = MIGRATING
            if self._network is not None:
                self._network.epoch = self.epoch
            return self.epoch

    def abort_change(self) -> None:
        """Abandon a staged change; the old placement never stopped being
        authoritative, so aborting is always safe before the flip."""
        with self._lock:
            if self.state != MIGRATING:
                raise RuntimeError(f"no change to abort (state {self.state})")
            self._pending = None
            self.state = STABLE
            self.unfreeze_writes()

    def commit_change(self) -> Distributor:
        """Flip: the staged placement becomes authoritative (RELEASING).

        The old distributor is kept for dual-epoch read fallback until
        :meth:`seal`.  Returns the now-authoritative distributor.
        """
        with self._lock:
            if self.state != MIGRATING or self._pending is None:
                raise RuntimeError(f"no change to commit (state {self.state})")
            self.previous = self.distributor
            self._install(self._pending)
            self._pending = None
            self.state = RELEASING
            return self.distributor

    def seal(self) -> None:
        """Drop the old placement: source copies are verified released."""
        with self._lock:
            if self.state != RELEASING:
                raise RuntimeError(f"no epoch to seal (state {self.state})")
            self.previous = None
            self.state = STABLE

    # -- write freeze -------------------------------------------------------

    def freeze_writes(self) -> None:
        self._writable.clear()
        self.frozen = True

    def unfreeze_writes(self) -> None:
        self.frozen = False
        self._writable.set()

    def wait_writable(self) -> None:
        if not self._writable.wait(_FREEZE_TIMEOUT):
            raise RuntimeError(
                "membership write freeze exceeded "
                f"{_FREEZE_TIMEOUT}s — migrator stalled?"
            )

    # -- dual-epoch fallback targets ---------------------------------------

    def old_metadata_targets(self, rel: str, replication: int) -> list:
        """The retiring epoch's metadata replica set (RELEASING only)."""
        prev = self.previous
        if prev is None:
            return []
        return replica_set(prev.locate_metadata(rel), replication, prev.num_daemons)

    def old_chunk_targets(self, rel: str, chunk_id: int, replication: int) -> list:
        """The retiring epoch's replica set for one chunk (RELEASING only)."""
        prev = self.previous
        if prev is None:
            return []
        return replica_set(
            prev.locate_chunk(rel, chunk_id), replication, prev.num_daemons
        )

