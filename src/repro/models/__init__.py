"""Performance models that regenerate the paper's evaluation.

Two layers:

* **Protocol-faithful DES runs** (small scale) — mdtest/IOR access
  patterns executed on :mod:`repro.simulator` with the calibrated node
  costs.  Slow but assumption-free; tests validate the analytic layer
  against these.
* **Analytic closed-network models** (paper scale) — bottleneck/fixed-
  point throughput for 1–512 nodes × 16 processes, calibrated once
  against the paper's anchor numbers (see
  :mod:`repro.models.calibration`).  These drive the Figure 2/3 benches.

The Lustre baseline is a capacity model of a single metadata server with
directory-lock serialisation — the structural reason the paper's Lustre
curves are flat while GekkoFS scales linearly.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "calibration": ["MogonIICalibration", "MOGON_II"],
    "gekkofs": ["GekkoFSModel"],
    "integrity": [
        "chunk_loss_probability", "interval_corruption_probability",
        "mission_survival_probability", "survival_curve",
    ],
    "lustre": ["LustreModel"],
    "metacache": [
        "hot_ring_size", "hottest_share", "offload_ratio", "owner_stat_rps", "simulate_stat_storm",
        "stat_hit_rate",
    ],
    "observability": [
        "flight_loss_bound", "offset_error_bound", "steady_burn_rate", "time_to_budget_exhaustion",
        "time_to_detect", "windows_to_fire",
    ],
    "rebalance": ["minimum_bytes_moved", "modulo_moved_fraction", "rendezvous_moved_fraction"],
    "ssd_peak": ["aggregated_ssd_peak"],
})
