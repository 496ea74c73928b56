"""errno-style syscall shim over the client — the preload library's ABI.

The real GekkoFS interposition library cannot raise exceptions into a C
application: every intercepted call returns ``-1`` (or ``NULL``) and sets
``errno``.  :class:`PosixShim` reproduces that contract exactly, which is
what a downstream user porting a C-style application model against this
library needs: the same call names, the same return conventions, the same
errno values.

    shim = PosixShim(cluster.client(0))
    fd = shim.open("/gkfs/f", os.O_CREAT | os.O_WRONLY)
    if fd < 0:
        print(os.strerror(shim.errno))
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.common.errors import GekkoError
from repro.core.client import GekkoFSClient
from repro.core.metadata import Metadata

__all__ = ["PosixShim", "StatBuf"]


@dataclass(frozen=True)
class StatBuf:
    """``struct stat`` equivalent filled by :meth:`PosixShim.stat`."""

    st_mode: int
    st_size: int
    st_ctime: float
    st_mtime: float
    st_atime: float
    st_blocks: int
    st_nlink: int = 1

    @classmethod
    def from_metadata(cls, md: Metadata) -> "StatBuf":
        kind = 0o040000 if md.is_dir else 0o100000  # S_IFDIR / S_IFREG
        return cls(
            st_mode=kind | md.mode,
            st_size=md.size,
            st_ctime=md.ctime,
            st_mtime=md.mtime,
            st_atime=md.atime,
            st_blocks=md.blocks,
        )

    def is_dir(self) -> bool:
        return bool(self.st_mode & 0o040000)


def _c_call(name: str, ok=None, failed=-1):
    """One shim call: ``client.<name>`` under the C return convention.

    Success clears :attr:`PosixShim.errno` and returns ``ok(value)`` —
    by default the value itself, ``0`` for a call that returns nothing.
    A failure with an errno — a :class:`GekkoError` from a GekkoFS path,
    the kernel's ``OSError`` from a node-local one — sets it and returns
    ``failed``.  Anything else is a bug and propagates.
    """

    def call(self, *args):
        try:
            value = getattr(self.client, name)(*args)
        except (GekkoError, OSError) as err:
            if err.errno is None:
                raise
            self.errno = err.errno
            return failed
        self.errno = 0
        if ok is not None:
            return ok(value)
        return 0 if value is None else value

    call.__name__ = call.__qualname__ = name
    return call


class PosixShim:
    """C-convention façade: returns ``-1``/``None`` and sets :attr:`errno`.

    Every call is :func:`_c_call` over the client method of the same
    name.  Exactly one GekkoFS error class maps to each errno (see
    :mod:`repro.common.errors`); a call the client forwarded to the
    node-local FS reports the kernel's errno.  ``read``/``pread`` return
    the bytes, ``stat``/``fstat`` a :class:`StatBuf` (``None`` on error),
    and ``readdir`` the next entry or ``None`` at end-of-stream (errno
    0) / on error (errno set) — the ``readdir(3)`` convention.
    """

    def __init__(self, client: GekkoFSClient):
        self.client = client
        self.errno = 0

    open = _c_call("open")
    creat = _c_call("creat")
    close = _c_call("close")
    read = _c_call("read")
    write = _c_call("write")
    pread = _c_call("pread")
    pwrite = _c_call("pwrite")
    lseek = _c_call("lseek")
    fsync = _c_call("fsync")
    ftruncate = _c_call("ftruncate")
    stat = _c_call("stat", ok=StatBuf.from_metadata, failed=None)
    fstat = _c_call("fstat", ok=StatBuf.from_metadata, failed=None)
    unlink = _c_call("unlink")
    truncate = _c_call("truncate")
    mkdir = _c_call("mkdir")
    rmdir = _c_call("rmdir")
    opendir = _c_call("opendir")
    readdir = _c_call("readdir", ok=lambda entry: entry, failed=None)
    # Unsupported on GekkoFS paths (§III-A): ENOTSUP there.
    rename = _c_call("rename")
    link = _c_call("link")
    symlink = _c_call("symlink")
    chmod = _c_call("chmod")

    def access(self, path: str, _mode: int = os.F_OK) -> int:
        """Existence probe; GekkoFS has no permissions, so any mode passes
        when the path exists (§III-A)."""
        return 0 if self.stat(path) is not None else -1
