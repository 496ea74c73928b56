"""Metadata records: the KV objects that replace inodes and dirents.

GekkoFS stores one value per path in the owner daemon's KV store — there
are no inodes and no directory blocks; a "directory" is just a record whose
``is_dir`` flag is set, and ``readdir`` is a prefix scan (§II, §III).  The
record is a fixed-layout struct, so the daemon reads a record's type and
size and patches its size and blocks as bytes (:func:`record_head`,
:func:`resize_record`), never building a :class:`Metadata`.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["Metadata", "new_file_metadata", "new_dir_metadata", "blocks_for",
           "record_head", "resize_record", "prefer_record"]

_LAYOUT = struct.Struct("<BQIddd Q")  # flags, size, mode, ctime, mtime, atime, blocks
_SIZED = struct.Struct("<BQ28sQ")  # the same 45 bytes, mode and times opaque
_HEAD = struct.Struct("<BQ")  # flags, size
_FLAG_DIR = 1


def blocks_for(size: int, chunk_size: int) -> int:
    """Block count of a file of ``size`` bytes: the chunks it spans."""
    return -(-size // chunk_size)


def record_head(record: bytes) -> tuple[bool, int]:
    """``(is_dir, size)`` of an encoded record, read in place."""
    flags, size = _HEAD.unpack_from(record)
    return bool(flags & _FLAG_DIR), size


def prefer_record(held: Optional[bytes], record: bytes) -> bytes:
    """The copy to keep of two replicas of one path's record.

    A file's largest size wins: a replica that missed a size update must
    not hide acknowledged bytes.  For a directory any copy will do, so
    the one already ``held`` stays.  Restore paths raise an understated
    size to the winner's and never lower one.
    """
    if held is None:
        return record
    is_dir, size = record_head(record)
    return record if not is_dir and size > record_head(held)[1] else held


def resize_record(record: bytes, size: int, chunk_size: int) -> bytes:
    """``Metadata.decode(record).with_size(size, chunk_size).encode()``, as bytes."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    return _SIZED.pack(record[0], size, record[_HEAD.size:-8], blocks_for(size, chunk_size))


@dataclass(frozen=True)
class Metadata:
    """Per-path metadata value.

    Fields a deployment disables (see
    :class:`~repro.core.config.FSConfig`) are simply left at zero; the
    layout stays fixed so records from differently-configured clients
    remain compatible.
    """

    is_dir: bool
    size: int = 0
    mode: int = 0o644
    ctime: float = 0.0
    mtime: float = 0.0
    atime: float = 0.0
    blocks: int = 0

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if self.blocks < 0:
            raise ValueError(f"blocks must be >= 0, got {self.blocks}")

    def encode(self) -> bytes:
        """Fixed-width wire/KV form."""
        flags = _FLAG_DIR if self.is_dir else 0
        return _LAYOUT.pack(
            flags, self.size, self.mode, self.ctime, self.mtime, self.atime, self.blocks
        )

    @classmethod
    def decode(cls, data: bytes) -> "Metadata":
        """The record of ``data``, built without ``__init__``: its fields
        unpack unsigned, so ``__post_init__`` has nothing to reject."""
        flags, size, mode, ctime, mtime, atime, blocks = _LAYOUT.unpack(data)
        record = object.__new__(cls)
        record.__dict__.update(is_dir=bool(flags & _FLAG_DIR), size=size, mode=mode,
                               ctime=ctime, mtime=mtime, atime=atime, blocks=blocks)
        return record

    def with_size(self, size: int, chunk_size: int, mtime: Optional[float] = None) -> "Metadata":
        """Copy with a new size (and derived block count / mtime)."""
        return replace(
            self,
            size=size,
            blocks=blocks_for(size, chunk_size),
            mtime=self.mtime if mtime is None else mtime,
        )


def _now() -> float:
    return time.time()


def new_file_metadata(mode: int = 0o644, *, maintain_times: bool = True) -> Metadata:
    """Fresh regular-file record (size 0)."""
    now = _now() if maintain_times else 0.0
    return Metadata(is_dir=False, size=0, mode=mode, ctime=now, mtime=now)


def new_dir_metadata(mode: int = 0o755, *, maintain_times: bool = True) -> Metadata:
    """Fresh directory record."""
    now = _now() if maintain_times else 0.0
    return Metadata(is_dir=True, size=0, mode=mode, ctime=now, mtime=now)
