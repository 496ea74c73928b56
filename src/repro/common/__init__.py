"""Shared low-level utilities used by every subsystem.

This package deliberately has no dependency on any other ``repro``
subpackage so that substrates (KV store, RPC, storage, simulator) can use
it without import cycles.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "errors": [
        "GekkoError", "BadFileDescriptorError", "ExistsError", "IntegrityError",
        "InvalidArgumentError", "IsADirectoryError_", "NotADirectoryError_", "NotEmptyError",
        "NotFoundError", "UnsupportedError",
    ],
    "hashing": ["fnv1a_64", "hash_chunk", "hash_path"],
    "units": [
        "KiB", "MiB", "GiB", "TiB", "format_ops", "format_size", "format_throughput", "parse_size",
    ],
})
