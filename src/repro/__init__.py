"""repro — a reproduction of GekkoFS (Vef et al., IEEE CLUSTER 2018).

A temporary, distributed, relaxed-POSIX burst-buffer file system for HPC
applications, rebuilt in Python together with every substrate it depends
on: an LSM key-value store (RocksDB stand-in), an RPC framework with bulk
transfers (Mercury/Margo stand-in), chunk-file storage backends, a
discrete-event cluster simulator calibrated to the paper's MOGON II
testbed, a Lustre baseline model, and mdtest/IOR workload clones.

Quickstart::

    from repro import GekkoFSCluster

    with GekkoFSCluster(num_nodes=4) as fs:
        client = fs.client(node_id=0)
        with fs.open_file("/gkfs/hello.dat", "wb") as f:
            f.write(b"burst buffer bytes")
        print(client.stat("/gkfs/hello.dat").size)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and claim.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core.config": ["DEFAULT_CHUNK_SIZE", "FSConfig"],
    "core.distributor": [
        "Distributor", "FilePerNodeDistributor", "GuidedDistributor", "RendezvousDistributor",
        "SimpleHashDistributor",
    ],
    "core.daemon": ["GekkoDaemon"],
    "core.fileobj": ["GekkoFile"],
    "core.client": ["GekkoFSClient"],
    "core.cluster": ["GekkoFSCluster"],
    "core.metadata": ["Metadata"],
    "core.posix": ["PosixShim"],
})
__all__.append("__version__")
