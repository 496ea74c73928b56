"""Deployment configuration for a GekkoFS instance.

One :class:`FSConfig` describes a whole deployment: chunk size, mount
prefix, whether daemons maintain the modification time (GekkoFS lets
deployments disable metadata fields they do not need, since every one
costs a KV update), and every opt-in plane's knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.common.units import KiB, parse_size
from repro.storage.integrity import DEFAULT_BLOCK_SIZE as DEFAULT_INTEGRITY_BLOCK_SIZE

__all__ = ["FSConfig", "DEFAULT_CHUNK_SIZE"]

#: The paper's internal chunk size (§IV): 512 KiB.
DEFAULT_CHUNK_SIZE = 512 * KiB


@dataclass(frozen=True)
class FSConfig:
    """Immutable deployment settings shared by clients and daemons.

    :ivar chunk_size: data striping granularity in bytes.
    :ivar mountpoint: virtual prefix intercepted by the client library;
        paths outside it fall through to the node-local file system.
    :ivar maintain_mtime: keep modification time in metadata.
    :ivar size_cache_enabled: buffer shared-file size updates on the
        client (§IV-B extension) instead of one RPC per write.
    :ivar size_cache_flush_every: flush the buffered size after this many
        writes (and always on close/fsync/stat).
    :ivar data_cache_enabled: client-side LRU chunk cache (§V future-work
        study) — intra-chunk readahead + zero-RPC repeat reads; own
        writes stay visible, remote writes may be served stale.
    :ivar data_cache_bytes: chunk-cache capacity per client.
    :ivar replication: copies of every metadata record and data chunk
        (1 = the paper's no-fault-tolerance design).  With R > 1 the
        deployment survives R-1 crash-stop daemon losses for reads; an
        extension prototyping the group's follow-on reliability work.
    :ivar rpc_retries: transient delivery failures retried per RPC with
        exponential backoff (0 = the paper's no-retry behaviour; the
        fabric either delivers or the call fails).
    :ivar rpc_deadline: overall seconds one RPC may consume across all
        attempts and backoff sleeps; ``None`` leaves latency bounded by
        the attempt count alone.  Setting it (even with 0 retries)
        routes calls through the deadline-aware retrying transport.
    :ivar rpc_call_timeout: per-call stall deadline on socket transports
        (seconds).  A watchdog fails any in-flight RPC older than this
        with ``TimeoutError`` even while its connection stays open — so
        a hung-but-connected daemon (SIGSTOP) becomes breaker-visible
        health evidence instead of stalling callers until the sync RPC
        deadline.  ``None`` disables the watchdog (in-process transports
        ignore the knob).
    :ivar breaker_enabled: per-daemon circuit breaker — after
        ``breaker_failure_threshold`` consecutive delivery failures a
        daemon is declared unhealthy and further requests to it fail
        fast with ``EIO`` until a half-open probe succeeds.
    :ivar breaker_failure_threshold: consecutive failures that trip the
        breaker.
    :ivar degraded_mode: broadcasts (listdir, statfs, chunk removal)
        tolerate unreachable daemons even without replication covering
        them, returning partial results flagged degraded; fatal
        transient failures surface as ``EIO``
        (:class:`~repro.common.errors.DaemonUnavailableError`) instead
        of raw transport exceptions.  Off = the paper's behaviour: any
        dead daemon is loudly fatal to every operation touching it.
    :ivar qos_enabled: the request-scheduling/QoS plane.  Daemon side:
        every daemon serves RPCs through an execution pool with separate
        metadata and data lanes (the paper's dedicated Argobots streams,
        §III-C), weighted-fair queueing between clients, queue-depth
        admission control (over-limit arrivals answered with retryable
        ``EAGAIN`` + ``retry_after``), and optional per-tenant rate
        caps.  Client side: per-daemon AIMD in-flight windows plus
        transparent throttle retry.  Off by default ⇒ the legacy
        dispatch-immediately behaviour, with zero code on the hot path.
    :ivar qos_meta_workers: metadata-lane workers per daemon.
    :ivar qos_data_workers: data-lane workers per daemon.
    :ivar qos_queue_limit: per-lane backlog bound; arrivals beyond it
        are throttled instead of queued.
    :ivar qos_client_weights: optional ``{client_id: weight}`` map — a
        weight-2 client gets twice the service of a weight-1 client
        while both are backlogged (clients without an entry weigh 1).
    :ivar qos_rate_limits: optional ``{client_id: ops_per_second}`` hard
        caps enforced per daemon by token bucket (the "cap a noisy
        tenant" knob).
    :ivar qos_window_enabled: enforce the client-side AIMD window
        (identity stamping and throttle retries stay on regardless).
    :ivar qos_window_initial: starting in-flight window per daemon.
    :ivar qos_window_max: window growth ceiling per daemon.
    :ivar qos_throttle_retries: throttles absorbed per logical request
        before ``EAGAIN`` surfaces to the application.
    :ivar integrity_enabled: the data-integrity plane.  Storage side:
        every chunk carries per-block digests persisted alongside its
        payload (in-memory table / on-disk sidecar), maintained on every
        write and truncate.  Read side: daemons verify blocks the request
        only partially covers and return the stored digests of fully
        covered blocks as *proofs*; the client re-verifies those proofs
        over the received bulk buffer, so rot in storage *and* corruption
        in transit both surface as
        :class:`~repro.common.errors.IntegrityError` (EIO) instead of
        garbage — or, with ``replication >= 2``, trigger transparent
        replica failover plus in-place read-repair.  Off by default: the
        paper's trust-the-local-FS behaviour, with zero work on the hot
        path (no sidecars, no digest calls, no extra RPC payload).
    :ivar integrity_block_size: digest granularity in bytes; one digest
        per this many bytes of chunk payload (default 8 KiB, the paper's
        small-I/O point: an aligned 8 KiB read reads and digests 8 KiB and
        is checked end to end by the client).  Clamped to the chunk size
        by the backends (a 64 B test chunk keeps one digest per chunk).
    :ivar integrity_algorithm: ``"gxh64"`` (default, vectorised 64-bit
        weighted-product digest built for the hot path) or ``"crc32c"``
        (table-driven Castagnoli reference; far slower in pure Python).
    :ivar integrity_verify_writes: additionally checksum written spans on
        the client and have daemons verify the pulled payload *before*
        it reaches storage (HDFS-style write-path verification).  Costs
        one extra digest pass per side; off by default — the end-to-end
        read check already catches wire corruption after the fact.
    :ivar telemetry_enabled: the observability plane — distributed
        request tracing (client-op spans, RPC-carried request ids,
        daemon handler spans) plus per-handler latency histograms in
        every daemon's :class:`~repro.telemetry.metrics.MetricsRegistry`.
        Off by default: the hot path then never allocates a span or
        stamps an id (the zero-cost path the micro-benchmark asserts).
    :ivar metrics_window_interval: seconds per fixed-interval metrics
        window (the time-series ring each daemon keeps when telemetry is
        on; harvested over ``gkfs_metrics_window``, drives the SLO
        burn-rate engine).
    :ivar flight_recorder_dir: directory for per-daemon flight-recorder
        dumps (``flight-d<id>.json``); ``None`` disables the recorder.
        Socket daemons flush the ring there on every window tick, so the
        file survives SIGKILL; terminal events (SIGTERM, crash,
        quarantine, migration abort) stamp a reason.  Read back with
        ``repro postmortem``.
    :ivar kv_dir: directory for daemon KV stores (``None`` = in-memory).
    :ivar data_dir: directory for daemon chunk storage (``None`` = in-memory).
    :ivar migration_rate: byte/s ceiling for the live-rebalance migrator
        (token-bucketed on the mover side); ``None`` = unthrottled.
        Foreground traffic additionally outranks migration in the WFQ
        lanes (the migrator's reserved identity carries a fixed low
        weight).
    :ivar metacache_enabled: client-side metadata/dentry cache — a
        bounded LRU holding getattr records and readdir pages under TTL
        leases.  Fresh entries answer stat/open/listdir with zero RPCs;
        expired entries revalidate with a version-stamped conditional
        RPC (``gkfs_stat_if_changed``) that ships the record only when
        it actually changed.  Every local mutation invalidates its own
        entries (read-your-writes); cross-client staleness is bounded by
        ``metacache_ttl`` plus one revalidation round-trip.  Off by
        default: the paper's one-RPC-per-stat behaviour, zero structure
        on the hot path.
    :ivar metacache_ttl: lease duration in seconds; a cached entry older
        than this revalidates before being served.
    :ivar metacache_capacity: max cached entries per client (attr
        records + readdir pages combined, LRU-evicted).
    :ivar metacache_hot_enabled: daemon-side hot-metadata mitigation.
        Owners count per-key reads in sliding windows; a key crossing
        ``metacache_hot_threshold`` reads per window is flagged hot and
        its record is replicated (client-assisted — daemons never talk
        to each other) to ``metacache_hot_k`` sibling daemons chosen by
        rendezvous hashing.  Clients then spread lease revalidations
        across owner + replicas, flattening single-key stat storms.
        Requires ``metacache_enabled``.
    :ivar metacache_hot_threshold: reads of one key within one window
        that promote it to hot.
    :ivar metacache_hot_window: seconds per hot-key accounting window;
        a hot key cooling below the threshold for a full window demotes.
    :ivar metacache_hot_k: sibling daemons each hot record is replicated
        to (clamped to the cluster size minus the owner).
    :ivar metacache_replica_ttl: seconds a daemon serves a hot replica
        before discarding it unrefreshed — the staleness backstop for
        mutations by clients that never saw the key as hot.
    :ivar rename_emulation: serve ``rename`` as copy-then-unlink.  The
        paper deliberately drops rename (§III-A); this opt-in emulation
        exists for workloads that need it and carries rename's full
        client-cache invalidation (size, data, metadata) for the
        destination path.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
    mountpoint: str = "/gkfs"
    maintain_mtime: bool = True
    size_cache_enabled: bool = False
    size_cache_flush_every: int = 64
    data_cache_enabled: bool = False
    data_cache_bytes: int = 64 * 1024 * 1024
    replication: int = 1
    rpc_retries: int = 0
    rpc_deadline: Optional[float] = None
    rpc_call_timeout: Optional[float] = None
    breaker_enabled: bool = False
    breaker_failure_threshold: int = 3
    degraded_mode: bool = False
    qos_enabled: bool = False
    qos_meta_workers: int = 2
    qos_data_workers: int = 2
    qos_queue_limit: int = 256
    qos_client_weights: Optional[dict] = None
    qos_rate_limits: Optional[dict] = None
    qos_window_enabled: bool = True
    qos_window_initial: int = 8
    qos_window_max: int = 64
    qos_throttle_retries: int = 16
    integrity_enabled: bool = False
    integrity_block_size: int = DEFAULT_INTEGRITY_BLOCK_SIZE
    integrity_algorithm: str = "gxh64"
    integrity_verify_writes: bool = False
    telemetry_enabled: bool = False
    metrics_window_interval: float = 1.0
    flight_recorder_dir: Optional[str] = None
    kv_dir: Optional[str] = None
    data_dir: Optional[str] = None
    migration_rate: Optional[float] = None
    metacache_enabled: bool = False
    metacache_ttl: float = 0.5
    metacache_capacity: int = 4096
    metacache_hot_enabled: bool = False
    metacache_hot_threshold: int = 64
    metacache_hot_window: float = 1.0
    metacache_hot_k: int = 3
    metacache_replica_ttl: float = 2.0
    rename_emulation: bool = False

    def __post_init__(self):
        object.__setattr__(self, "chunk_size", parse_size(self.chunk_size))
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {self.chunk_size}")
        if not self.mountpoint.startswith("/") or self.mountpoint == "/":
            raise ValueError(
                f"mountpoint must be an absolute non-root path, got {self.mountpoint!r}"
            )
        if self.mountpoint.endswith("/"):
            raise ValueError("mountpoint must not end with '/'")
        if self.size_cache_flush_every < 1:
            raise ValueError("size_cache_flush_every must be >= 1")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.rpc_retries < 0:
            raise ValueError(f"rpc_retries must be >= 0, got {self.rpc_retries}")
        if self.rpc_deadline is not None and self.rpc_deadline <= 0:
            raise ValueError(f"rpc_deadline must be > 0, got {self.rpc_deadline}")
        if self.rpc_call_timeout is not None and self.rpc_call_timeout <= 0:
            raise ValueError(
                f"rpc_call_timeout must be > 0, got {self.rpc_call_timeout}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                f"breaker_failure_threshold must be >= 1, "
                f"got {self.breaker_failure_threshold}"
            )
        if self.qos_meta_workers < 1 or self.qos_data_workers < 1:
            raise ValueError("qos lane worker counts must be >= 1")
        if self.qos_queue_limit < 1:
            raise ValueError(f"qos_queue_limit must be >= 1, got {self.qos_queue_limit}")
        for client, weight in (self.qos_client_weights or {}).items():
            if weight <= 0:
                raise ValueError(f"qos weight for client {client!r} must be > 0")
        for client, rate in (self.qos_rate_limits or {}).items():
            if rate <= 0:
                raise ValueError(f"qos rate limit for client {client!r} must be > 0")
        if not 1 <= self.qos_window_initial <= self.qos_window_max:
            raise ValueError(
                f"need 1 <= qos_window_initial <= qos_window_max, "
                f"got {self.qos_window_initial}/{self.qos_window_max}"
            )
        if self.qos_throttle_retries < 1:
            raise ValueError(
                f"qos_throttle_retries must be >= 1, got {self.qos_throttle_retries}"
            )
        object.__setattr__(
            self, "integrity_block_size", parse_size(self.integrity_block_size)
        )
        if self.integrity_block_size <= 0:
            raise ValueError(
                f"integrity_block_size must be > 0, got {self.integrity_block_size}"
            )
        if self.integrity_algorithm not in ("gxh64", "crc32c"):
            raise ValueError(
                f"integrity_algorithm must be 'gxh64' or 'crc32c', "
                f"got {self.integrity_algorithm!r}"
            )
        if self.integrity_verify_writes and not self.integrity_enabled:
            raise ValueError("integrity_verify_writes requires integrity_enabled")
        if self.migration_rate is not None and self.migration_rate <= 0:
            raise ValueError(
                f"migration_rate must be > 0 (or None), got {self.migration_rate}"
            )
        if self.metrics_window_interval <= 0:
            raise ValueError(
                f"metrics_window_interval must be > 0, "
                f"got {self.metrics_window_interval}"
            )
        if self.data_cache_enabled and self.data_cache_bytes < self.chunk_size:
            raise ValueError(
                f"data_cache_bytes ({self.data_cache_bytes}) must hold at least "
                f"one chunk ({self.chunk_size})"
            )
        if self.metacache_ttl <= 0:
            raise ValueError(f"metacache_ttl must be > 0, got {self.metacache_ttl}")
        if self.metacache_capacity < 1:
            raise ValueError(
                f"metacache_capacity must be >= 1, got {self.metacache_capacity}"
            )
        if self.metacache_hot_enabled and not self.metacache_enabled:
            raise ValueError("metacache_hot_enabled requires metacache_enabled")
        if self.metacache_hot_threshold < 1:
            raise ValueError(
                f"metacache_hot_threshold must be >= 1, "
                f"got {self.metacache_hot_threshold}"
            )
        if self.metacache_hot_window <= 0:
            raise ValueError(
                f"metacache_hot_window must be > 0, got {self.metacache_hot_window}"
            )
        if self.metacache_hot_k < 1:
            raise ValueError(
                f"metacache_hot_k must be >= 1, got {self.metacache_hot_k}"
            )
        if self.metacache_replica_ttl <= 0:
            raise ValueError(
                f"metacache_replica_ttl must be > 0, "
                f"got {self.metacache_replica_ttl}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "FSConfig":
        """Rebuild a config from ``dataclasses.asdict`` output that went
        through JSON (``repro serve --config-json``, deployment manifests).

        A key this version does not know — a typo, or a knob retired since
        the JSON was written — raises a :class:`ValueError` naming it.
        JSON object keys are always strings; the QoS per-client maps are
        keyed by int client ids, so those are coerced back.
        """
        unknown = sorted(set(data) - {field.name for field in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown or retired FSConfig key(s): {', '.join(unknown)}"
            )
        data = dict(data)
        for key in ("qos_client_weights", "qos_rate_limits"):
            if data.get(key):
                data[key] = {int(k): v for k, v in data[key].items()}
        return cls(**data)

    def with_(self, **changes) -> "FSConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)
