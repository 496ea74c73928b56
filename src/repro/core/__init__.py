"""GekkoFS core: the paper's contribution.

Client interposition logic, per-node daemons, hash-based wide-striping,
chunked data path, relaxed-POSIX semantics, and the size-update cache —
assembled into a deployable temporary file system by
:class:`~repro.core.cluster.GekkoFSCluster`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ["SizeUpdateCache"],
    "chunking": ["ChunkSpan", "chunk_count", "split_range"],
    "client": ["GekkoFSClient"],
    "cluster": ["GekkoFSCluster"],
    "config": ["DEFAULT_CHUNK_SIZE", "FSConfig"],
    "daemon": ["GekkoDaemon", "HANDLER_NAMES"],
    "distributor": [
        "Distributor", "FilePerNodeDistributor", "GuidedDistributor", "RendezvousDistributor",
        "SimpleHashDistributor",
    ],
    "fileobj": ["GekkoFile", "flags_for_mode"],
    "filemap": ["FD_BASE", "OpenFile", "OpenFileMap"],
    "membership": ["MembershipView"],
    "metadata": ["Metadata", "new_dir_metadata", "new_file_metadata"],
    "resize": ["MIGRATION_CLIENT_ID", "MigrationReport", "Migrator"],
    "posix": ["PosixShim", "StatBuf"],
})
