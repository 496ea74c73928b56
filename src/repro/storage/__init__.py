"""Node-local storage: chunk-file backends and the SSD performance model.

The GekkoFS daemon's I/O persistence layer stores *one file per chunk* on
the node-local file system (§III-B).  Two functional backends implement
that contract — an in-memory one for tests/simulation and a real
directory-backed one — plus :class:`~repro.storage.ssd_model.SSDModel`,
the calibrated performance model of the Intel DC S3700-class SATA SSDs
that the MOGON II evaluation nodes provide.

The integrity plane (:mod:`repro.storage.integrity`) adds per-block chunk
digests, checksum-verified reads with end-to-end proofs, and the
corrupt/tear fault hooks the chaos harness drives.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "backend": ["ChunkStorage", "StorageStats"],
    "integrity": [
        "DEFAULT_BLOCK_SIZE", "IntegrityStats", "block_checksums", "chunk_checksum", "crc32c",
    ],
    "localfs": ["LocalFSChunkStorage"],
    "memory": ["MemoryChunkStorage"],
    "ssd_model": ["DC_S3700", "SSDModel"],
})
