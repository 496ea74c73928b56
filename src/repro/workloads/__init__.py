"""Workload clones of the paper's microbenchmarks.

The evaluation (§IV) uses unmodified mdtest (metadata: create/stat/remove
in a single directory) and IOR (data: sequential/random, file-per-process
/ shared-file, transfer-size sweeps).  These modules reproduce those
access patterns as drivers against the *functional* file system; the
analytic/DES models in :mod:`repro.models` reuse the same specs for
paper-scale projection.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "mdtest": ["MdtestResult", "MdtestSpec", "run_mdtest"],
    "ior": ["IorResult", "IorSpec", "run_ior"],
})
