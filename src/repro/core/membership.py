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
* :class:`EpochStampedNetwork` publishes the epoch through the RPC
  envelope on every call, so daemons reject retired epochs server-side
  (``RpcEngine.min_epoch``, :class:`~repro.common.errors.StaleEpochError`)
  from any client that bypasses the view.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.core.distributor import Distributor, replica_set

__all__ = ["MembershipView", "EpochStampedNetwork", "READONLY_HANDLERS"]

#: Membership-change states.
STABLE = "stable"
MIGRATING = "migrating"  # new placement staged; old placement authoritative
RELEASING = "releasing"  # new placement live; old owners still hold copies

#: Handlers that never mutate daemon state.  Everything else blocks
#: during the migrator's brief write freeze (the window in which the
#: final delta pass copies the last dirty chunks before the flip).
READONLY_HANDLERS = frozenset(
    {
        "gkfs_stat",
        "gkfs_stat_lease",
        "gkfs_stat_if_changed",
        # The replica put/drop pair mutates only the volatile TTL-bounded
        # hot-replica side table — never the KV store — so parking it on
        # the write freeze would deadlock seeding clients for nothing.
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

    Implements the :class:`~repro.core.distributor.Distributor` surface
    by delegating to whichever underlying distributor is *authoritative*
    for the current state, so clients can hold a view wherever they held
    a distributor.  All transitions are driven by the cluster/migrator;
    clients only read.
    """

    def __init__(self, distributor: Distributor):
        self._lock = threading.Lock()
        self._current = distributor
        self._pending: Optional[Distributor] = None
        self._previous: Optional[Distributor] = None
        self.epoch = 0
        self.state = STABLE
        #: Set = writes may proceed; cleared only for the freeze window.
        self._writable = threading.Event()
        self._writable.set()

    # -- Distributor surface (reads; GIL-atomic attribute loads) -----------

    @property
    def num_daemons(self) -> int:
        return self._current.num_daemons

    def locate_metadata(self, path: str) -> int:
        return self._current.locate_metadata(path)

    def locate_chunk(self, path: str, chunk_id: int) -> int:
        return self._current.locate_chunk(path, chunk_id)

    def locate_all(self):
        return self._current.locate_all()

    @property
    def distributor(self) -> Distributor:
        """The authoritative underlying distributor."""
        return self._current

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
            return self.epoch

    def abort_change(self) -> None:
        """Abandon a staged change; the old placement never stopped being
        authoritative, so aborting is always safe before the flip."""
        with self._lock:
            if self.state != MIGRATING:
                raise RuntimeError(f"no change to abort (state {self.state})")
            self._pending = None
            self.state = STABLE
            self._writable.set()

    def commit_change(self) -> Distributor:
        """Flip: the staged placement becomes authoritative (RELEASING).

        The old distributor is kept for dual-epoch read fallback until
        :meth:`seal`.  Returns the now-authoritative distributor.
        """
        with self._lock:
            if self.state != MIGRATING or self._pending is None:
                raise RuntimeError(f"no change to commit (state {self.state})")
            self._previous = self._current
            self._current = self._pending
            self._pending = None
            self.state = RELEASING
            return self._current

    def seal(self) -> None:
        """Drop the old placement: source copies are verified released."""
        with self._lock:
            if self.state != RELEASING:
                raise RuntimeError(f"no epoch to seal (state {self.state})")
            self._previous = None
            self.state = STABLE

    # -- write freeze -------------------------------------------------------

    def freeze_writes(self) -> None:
        self._writable.clear()

    def unfreeze_writes(self) -> None:
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
        prev = self._previous
        if prev is None:
            return []
        return replica_set(prev.locate_metadata(rel), replication, prev.num_daemons)

    def old_chunk_targets(self, rel: str, chunk_id: int, replication: int) -> list:
        """The retiring epoch's replica set for one chunk (RELEASING only)."""
        prev = self._previous
        if prev is None:
            return []
        return replica_set(
            prev.locate_chunk(rel, chunk_id), replication, prev.num_daemons
        )


class EpochStampedNetwork:
    """Per-client network wrapper: epoch stamping plus the freeze gate.

    Sits between a :class:`~repro.core.client.GekkoFSClient` and its
    port/network.  Every call (a) parks mutating handlers while the
    migrator's write freeze is up, and (b) stamps the view's epoch into
    the RPC envelope so daemons can enforce ``min_epoch`` server-side.
    Everything else (tracer, inflight gauge, qos stats, ``lookup``)
    forwards to the wrapped network untouched.
    """

    def __init__(self, inner: Any, view: MembershipView):
        self._inner = inner
        self._view = view

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _gate(self, handler: str) -> int:
        view = self._view
        if handler not in READONLY_HANDLERS and not view._writable.is_set():
            view.wait_writable()
        return view.epoch

    def call(self, target: int, handler: str, *args: Any, bulk: Any = None) -> Any:
        epoch = self._gate(handler)
        return self._inner.call(target, handler, *args, bulk=bulk, epoch=epoch)

    def call_async(self, target: int, handler: str, *args: Any, bulk: Any = None):
        epoch = self._gate(handler)
        return self._inner.call_async(target, handler, *args, bulk=bulk, epoch=epoch)
