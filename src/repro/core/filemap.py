"""User-space file-descriptor table (the client's "file map").

The interposition library cannot use kernel descriptors for GekkoFS files
— there is no kernel object behind them — so it manages its own table
(§III-B, client component 2).  Descriptors are allocated from a high base
so they can never collide with real kernel fds the application also holds.
"""

from __future__ import annotations

import heapq
import os
import threading
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import BadFileDescriptorError

__all__ = ["OpenFile", "OpenFileMap", "FD_BASE"]

#: First GekkoFS descriptor; real kernel fds stay far below this.
FD_BASE = 100_000


@dataclass
class OpenFile:
    """State of one open descriptor."""

    path: str
    flags: int
    is_dir: bool = False
    position: int = 0  # file offset maintained in user space
    #: A size the metadata owner has reported for the path at some moment
    #: (open, size update, append reservation, fstat, SEEK_END, own
    #: ftruncate).  It bounds the spans a read may plan without asking the
    #: owner, and never answers a size or EOF question itself.
    size_seen: int = 0
    #: ``readdir`` snapshot for directory descriptors (eventual
    #: consistency: the listing is fixed at opendir time).
    dir_entries: Optional[list[tuple[str, bool]]] = None
    dir_cursor: int = 0

    @property
    def readable(self) -> bool:
        accmode = self.flags & os.O_ACCMODE
        return accmode in (os.O_RDONLY, os.O_RDWR)

    @property
    def writable(self) -> bool:
        accmode = self.flags & os.O_ACCMODE
        return accmode in (os.O_WRONLY, os.O_RDWR)

    @property
    def append(self) -> bool:
        return bool(self.flags & os.O_APPEND)


class OpenFileMap:
    """Thread-safe fd table: allocate, look up, release.

    Descriptors are recycled lowest-first, like a kernel fd table, which
    keeps behaviour deterministic for tests.
    """

    def __init__(self, base: int = FD_BASE):
        self._base = base
        self._lock = threading.Lock()
        self._open: dict[int, OpenFile] = {}
        self._free: list[int] = []  # recycled descriptors, a min-heap
        self._next = base

    def add(self, entry: OpenFile) -> int:
        """Insert ``entry`` and return its new descriptor."""
        with self._lock:
            if self._free:
                fd = heapq.heappop(self._free)
            else:
                fd = self._next
                self._next += 1
            self._open[fd] = entry
            return fd

    def get(self, fd: int) -> OpenFile:
        """Look up ``fd`` or raise EBADF."""
        with self._lock:
            entry = self._open.get(fd)
        if entry is None:
            raise BadFileDescriptorError(f"fd {fd} is not a GekkoFS descriptor")
        return entry

    def remove(self, fd: int) -> OpenFile:
        """Close ``fd``: remove and return its entry, or raise EBADF."""
        with self._lock:
            entry = self._open.pop(fd, None)
            if entry is None:
                raise BadFileDescriptorError(f"fd {fd} is not a GekkoFS descriptor")
            heapq.heappush(self._free, fd)
            return entry

    def owns(self, fd: int) -> bool:
        """Whether ``fd`` is an open descriptor of this table."""
        with self._lock:
            return fd in self._open

    def __len__(self) -> int:
        with self._lock:
            return len(self._open)

    def open_paths(self) -> list[str]:
        """Paths with at least one open descriptor (diagnostics)."""
        with self._lock:
            return sorted({e.path for e in self._open.values()})
