"""MOGON II calibration: every constant the models use, with derivations.

The paper reports a handful of hard anchor numbers (§IV); all model
constants below are back-solved from them and documented here so the
calibration is auditable.  Anchors:

* 512 nodes × 16 procs = 8192 processes.
* Metadata: ≈46 M creates/s, ≈44 M stats/s, ≈22 M removes/s at 512 nodes.
  One RPC per create/stat; a GekkoFS remove is metadata lookup + delete
  (2 RPCs) plus chunk removal (0 extra RPCs for zero-byte mdtest files) —
  hence remove ≈ stat/2, exactly what the paper measured.
  Per-process cycle time at 512 nodes: 8192/44e6 ≈ 186 µs per RPC, split
  here into client overhead + 2 × one-way latency + KV service.
* Data: 64 MiB transfers reach ≈141 GiB/s write (80 % of aggregated SSD
  peak) and ≈204 GiB/s read (70 %); 8 KiB transfers reach >13 M write and
  >22 M read IOPS with per-op latency ≤700 µs; random 8 KiB loses ≈33 %
  (write) / ≈60 % (read); shared-file writes cap at ≈150 K ops/s without
  the size-update cache.
* Start-up: < 20 s for 512 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import KiB
from repro.simulator.network import NetworkModel, OMNIPATH_100G
from repro.storage.ssd_model import DC_S3700, SSDModel

__all__ = ["MogonIICalibration", "MOGON_II"]


@dataclass(frozen=True)
class MogonIICalibration:
    """All knobs of the MOGON II + GekkoFS + Lustre models.

    Metadata path (per-RPC budget ≈186 µs at the stat anchor):

    :ivar client_overhead: interception + file map + hashing + marshalling
        per operation, client side.
    :ivar rpc_one_way_latency: one-way Mercury/Margo message latency as
        *observed by mdtest* under load (the 5 µs hardware path plus
        progress-loop scheduling; back-solved, not a wire measurement).
    :ivar kv_create_time / kv_stat_time / kv_remove_time: RocksDB service
        time per op on the daemon (create is slightly cheaper than stat
        in the paper's measurements: 46 M vs 44 M ops/s).
    :ivar handler_pool: concurrent Margo handler ULTs per daemon.

    Data path (anchors: 80 %/70 % at 64 MiB; 13 M/22 M IOPS at 8 KiB):

    :ivar chunk_write_overhead: per-chunk-access CPU+FS overhead on the
        write path (buffered chunk-file write).  9 µs makes the 8 KiB
        anchor come out at 13 M IOPS / 617 µs latency.
    :ivar chunk_read_overhead: same for reads (2.9 µs → 22 M IOPS).
    :ivar random_write_extra / random_read_extra: additional per-access
        cost at a random in-chunk offset (lost coalescing / readahead);
        15.4 µs and 24.8 µs reproduce the −33 % / −60 % at 8 KiB while
        vanishing for chunk-sized transfers (the paper: random ≈
        sequential for transfers ≥ chunk size).
    :ivar write_path_efficiency / read_path_efficiency: residual
        system-level efficiency (incast, skew, progress-loop sharing)
        applied to the SSD-limited bound; 0.81/0.72 close the gap to the
        80 %/70 % figure-level anchors.
    :ivar shared_file_update_ceiling: serialised size-update rate of one
        metadata owner (the ≈150 K ops/s hotspot, §IV-B).

    Start-up (< 20 s at 512 nodes):

    :ivar startup_base: job-launcher fan-out base cost.
    :ivar startup_per_level: additional cost per doubling of node count.
    :ivar startup_daemon_init: local daemon initialisation (RocksDB
        create, SSD scratch dir, Margo engine).
    """

    # metadata path
    client_overhead: float = 40e-6
    rpc_one_way_latency: float = 48e-6
    kv_create_time: float = 42e-6
    kv_stat_time: float = 50e-6
    kv_remove_time: float = 50e-6
    handler_pool: int = 16
    procs_per_node: int = 16

    # data path
    chunk_size: int = 512 * KiB
    chunk_write_overhead: float = 9e-6
    chunk_read_overhead: float = 2.9e-6
    random_write_extra: float = 15.4e-6
    random_read_extra: float = 24.8e-6
    write_path_efficiency: float = 0.81
    read_path_efficiency: float = 0.72
    shared_file_update_ceiling: float = 150e3

    # hardware
    ssd: SSDModel = DC_S3700
    network: NetworkModel = OMNIPATH_100G

    # start-up model
    startup_base: float = 5.0
    startup_per_level: float = 1.0
    startup_daemon_init: float = 3.0

    def kv_time(self, op: str) -> float:
        """KV service time for a metadata op (``create``/``stat``/``remove``)."""
        try:
            return {
                "create": self.kv_create_time,
                "stat": self.kv_stat_time,
                "remove": self.kv_remove_time,
            }[op]
        except KeyError:
            raise ValueError(f"unknown metadata op {op!r}") from None


#: The calibration used by every bench (Figure 2, Figure 3, claims).
MOGON_II = MogonIICalibration()
