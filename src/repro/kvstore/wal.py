"""Write-ahead log giving the memtable crash durability.

Every mutation is framed and checksummed before it is acknowledged, so a
daemon restart replays the log into a fresh memtable.  Record format::

    crc32(4) | op(1) | key_len(4) | value_len(4) | key | value

``op`` is 0 for put, 1 for delete (value empty).  The CRC covers everything
after itself; replay stops cleanly at the first torn/corrupt record, which
is exactly the you-lose-only-the-tail semantics RocksDB's WAL provides.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib
from typing import Iterator, Optional

__all__ = ["WriteAheadLog", "RECORD_OVERHEAD"]

_HEADER = struct.Struct("<IBII")  # crc, op, key_len, value_len
#: Bytes a single put/delete record adds to its key and value.
RECORD_OVERHEAD = _HEADER.size
_BODY = struct.Struct("<BII")  # op, key_len, value_len: a record after its CRC
OP_PUT = 0
OP_DELETE = 1
#: A whole batch serialised into one record's value — one CRC covers the
#: entire batch, so replay applies it all-or-nothing (RocksDB WriteBatch
#: atomicity).
OP_BATCH = 2


class WriteAheadLog:
    """Append-only log of (op, key, value) records at ``path``."""

    def __init__(self, path: str, sync: bool = False):
        """
        :param path: log file; created if missing, appended to if present.
        :param sync: fsync after every append.  Off by default — the paper's
            daemons target node-local scratch SSDs whose contents are wiped
            between runs, so job-level durability is what matters.
        """
        self.path = path
        self.sync = sync
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        #: Size of the log: what a restart would read back.
        self.bytes = os.fstat(self._fd).st_size

    def append(self, op: int, key: bytes, value: bytes = b"") -> None:
        """Record one mutation (or one serialised batch) with one ``write``:
        in the page cache it survives a process crash (SIGKILL), the failure
        replay covers; ``sync`` adds an fsync, for power loss."""
        if op not in (OP_PUT, OP_DELETE, OP_BATCH):
            raise ValueError(f"unknown WAL op {op}")
        body = _BODY.pack(op, len(key), len(value)) + key + value
        record = zlib.crc32(body).to_bytes(4, "little") + body
        self.bytes += len(record)
        while record:  # a short write is finished, or raised
            written = os.write(self._fd, record)
            if not written:
                raise OSError(errno.EIO, f"WAL {self.path}: write made no progress")
            record = record[written:]
        if self.sync:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def replay(path: str) -> Iterator[tuple[int, bytes, Optional[bytes]]]:
        """Yield ``(op, key, value)`` for every intact record in ``path``.

        Stops silently at the first record whose header is truncated or
        whose checksum fails — that is the torn tail of a crash, not data.
        """
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        offset = 0
        while offset + _HEADER.size <= len(data):
            crc, op, key_len, value_len = _HEADER.unpack_from(data, offset)
            body_end = offset + _HEADER.size + key_len + value_len
            if body_end > len(data):
                return  # torn tail
            body = data[offset + 4 : body_end]
            if zlib.crc32(body) != crc:
                return  # corrupt tail
            key_start = offset + _HEADER.size
            key = data[key_start : key_start + key_len]
            value = data[key_start + key_len : body_end]
            if op == OP_BATCH:
                # Unfold the batch: it is intact (one CRC), so every
                # sub-operation replays — atomic by construction.
                yield from WriteAheadLog.decode_batch(value)
            else:
                yield op, key, (value if op == OP_PUT else None)
            offset = body_end

    @staticmethod
    def truncate(path: str) -> None:
        """Discard the log (after its contents were flushed to an SSTable)."""
        with open(path, "wb"):
            pass

    # -- batch encoding ------------------------------------------------------

    @staticmethod
    def encode_batch(ops: "list[tuple[int, bytes, bytes]]") -> bytes:
        """Serialise put/delete sub-operations into one OP_BATCH value."""
        parts = []
        for op, key, value in ops:
            if op not in (OP_PUT, OP_DELETE):
                raise ValueError(f"batch may only contain put/delete, got op {op}")
            parts.append(_BODY.pack(op, len(key), len(value)) + key + value)
        return b"".join(parts)

    @staticmethod
    def decode_batch(blob: bytes) -> Iterator[tuple[int, bytes, Optional[bytes]]]:
        """Inverse of :meth:`encode_batch` (record integrity is the
        caller's concern — the enclosing WAL record's CRC covers it)."""
        offset = 0
        while offset < len(blob):
            op, key_len, value_len = _BODY.unpack_from(blob, offset)
            key_start = offset + _BODY.size
            key = blob[key_start : key_start + key_len]
            value = blob[key_start + key_len : key_start + key_len + value_len]
            yield op, key, (value if op == OP_PUT else None)
            offset = key_start + key_len + value_len
