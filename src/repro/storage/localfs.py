"""Directory-backed chunk storage: one real file per chunk.

This is the faithful version of the daemon's persistence layer — chunk
``c`` of ``/foo/bar`` becomes ``<root>/<encoded /foo/bar>/chunk_00000042``
on the node-local file system, exactly the layout GekkoFS puts on its
scratch SSD.  Path encoding is percent-style so any GekkoFS path maps to
one flat directory name, reversibly and collision-free.

With integrity enabled every chunk file gains a ``.sum`` sidecar holding
its grain, the checksummed payload length and the per-block digests (the
packed record itself, as the body), self-framed with a CRC so a sidecar
torn by a crash reads as *unverifiable* rather than as plausible garbage;
so does one of another format version or another grain.  Sidecars are
write-through (updated inside the same locked section as the payload) and
invisible to the payload namespace: ``chunk_ids``/``used_bytes``/
``remove_chunks`` account only real chunk files.

A chunk the daemon is working on stays open.  The store's one **handle
table** (``_sums``: path → chunk id → :class:`_Handle`) holds, per
resident chunk, the chunk file's ``O_RDWR`` descriptor, the sidecar's
descriptor and tracked length, and the digest record — it *is* the
digest table of this backend.  A chunk operation is positional I/O on the
handle: no open, close, path build or sidecar ``fstat`` per operation,
and never ``O_TRUNC``.  The table is an LRU bounded by
:data:`HANDLE_CAPACITY`; eviction, :meth:`LocalFSChunkStorage.close` and
every unlink close the descriptors first and forget the record, which
reloads from the sidecar as after a restart.  A handle is a descriptor,
not a buffer: every byte is in the page cache when ``write_chunk``
returns (docs/architecture.md, "Persistence", has the why).
"""

from __future__ import annotations

import errno
import os
import resource
import struct
import weakref
import zlib
from collections import OrderedDict
from typing import Iterable, Iterator, Optional

from repro.storage.backend import ChunkStorage, Reader

__all__ = ["LocalFSChunkStorage", "encode_path", "decode_path"]

_SIDECAR_SUFFIX = ".sum"
_SIDECAR_MAGIC = b"GKCS"
_SIDECAR_VERSION = 2
# magic, version, algo, length, count, grain (the digest block size)
_SIDECAR_HEADER = struct.Struct("<4sBBQII")
_ALGO_CODES = {"gxh64": 0, "crc32c": 1}


def _handle_capacity() -> int:
    """Resident chunks per store, from the soft ``RLIMIT_NOFILE``: two
    descriptors a chunk, so sixteen in-process daemons with full tables
    stay under a limit of 1024."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    return 1024 if soft == resource.RLIM_INFINITY else max(2, min(1024, soft // 40))


#: Bound of every store's handle table.  Derived once, not configured.
HANDLE_CAPACITY = _handle_capacity()

_UNREAD = object()  # a handle's record before its sidecar has been looked at


def encode_path(path: str) -> str:
    """Make a GekkoFS path safe as a single directory name ('%'-escaped)."""
    return path.replace("%", "%25").replace("/", "%2F")


def decode_path(name: str) -> str:
    """Inverse of :func:`encode_path`."""
    return name.replace("%2F", "/").replace("%25", "%")


def _no_chunk(offset: int, length: int) -> bytes:
    return b""


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """``os.pwrite`` may write short; loop until every byte is down."""
    view = memoryview(data)
    done = 0
    while done < len(view):
        done += os.pwrite(fd, view[done:], offset + done)


class _Handle:
    """One resident chunk: its open chunk file, its sidecar (opened at the
    first digest load or write; ``sum_size`` is the sidecar's file length,
    ``fstat``-ed then and tracked since) and its digest record."""

    __slots__ = ("path", "chunk_id", "fd", "read", "sum_fd", "sum_size", "record")

    def __init__(self, path: str, chunk_id: int, fd: int, record):
        self.path, self.chunk_id, self.fd = path, chunk_id, fd
        self.read: Reader = lambda offset, length: os.pread(fd, length, offset)
        self.sum_fd, self.sum_size = -1, 0
        self.record = record

    def close(self) -> None:
        os.close(self.fd)
        if self.sum_fd >= 0:
            os.close(self.sum_fd)


def _close_all(handles: Iterable[_Handle]) -> None:
    for handle in handles:
        handle.close()


class LocalFSChunkStorage(ChunkStorage):
    """Chunk files under ``root`` on the real (node-local) file system."""

    def __init__(self, chunk_size: int, root: str, **integrity_opts):
        super().__init__(chunk_size, **integrity_opts)
        self.root = root
        os.makedirs(root, exist_ok=True)
        # ``_sums`` is the handle table here; ``_recent`` orders the same
        # handles, least recently used first.
        self._recent: OrderedDict[_Handle, None] = OrderedDict()
        weakref.finalize(self, _close_all, self._recent)  # dropped without close()

    def _dir_for(self, path: str) -> str:
        return os.path.join(self.root, encode_path(path))

    def _chunk_file(self, path: str, chunk_id: int) -> str:
        return os.path.join(self._dir_for(path), f"chunk_{chunk_id:08d}")

    def _sidecar_file(self, path: str, chunk_id: int) -> str:
        return self._chunk_file(path, chunk_id) + _SIDECAR_SUFFIX

    @staticmethod
    def _is_chunk(name: str) -> bool:
        return not name.endswith(_SIDECAR_SUFFIX)

    @staticmethod
    def _chunk_id_of(name: str) -> int:
        return int(name.split("_", 1)[1])

    # -- the handle table (every method below runs under the storage lock) --

    def _handle(self, path: str, chunk_id: int, create: bool = False) -> Optional[_Handle]:
        """The chunk's resident handle, opened at first touch; ``None`` for
        a chunk that does not exist unless ``create``.  An absent chunk
        leaves nothing behind: no handle, no directory."""
        handle = self._sums.get(path, {}).get(chunk_id)
        if handle is not None:
            self._recent.move_to_end(handle)
            return handle
        fname = self._chunk_file(path, chunk_id)
        record = _UNREAD
        try:
            fd = os.open(fname, os.O_RDWR)  # never O_TRUNC: partial chunks stay
        except FileNotFoundError:
            if not create:
                return None
            os.makedirs(self._dir_for(path), exist_ok=True)
            fd = os.open(fname, os.O_RDWR | os.O_CREAT, 0o666)
            self.stats.chunks_created += 1
            record = None  # a chunk made just now has no record to load
        handle = _Handle(path, chunk_id, fd, record)
        self._sums.setdefault(path, {})[chunk_id] = handle
        self._recent[handle] = None
        while len(self._recent) > HANDLE_CAPACITY:
            self._drop(next(iter(self._recent)))
        return handle

    def _drop(self, handle: _Handle) -> None:
        """Close a resident handle and forget its record."""
        table = self._sums[handle.path]
        del table[handle.chunk_id]
        if not table:
            del self._sums[handle.path]
        del self._recent[handle]
        handle.close()

    def _unlink(self, path: str, chunk_ids: Iterable[int]) -> None:
        """Remove chunk files, each closed before it is unlinked (a
        descriptor on an unlinked inode pins its disk blocks), and the
        path's directory with the last of them."""
        for chunk_id in chunk_ids:
            handle = self._sums.get(path, {}).get(chunk_id)
            if handle is not None:
                self._drop(handle)
            os.remove(self._chunk_file(path, chunk_id))
            self.stats.chunks_removed += 1
            if self.integrity:
                self._integrity_drop_chunk(path, chunk_id)
        try:
            os.rmdir(self._dir_for(path))
        except OSError as exc:
            if exc.errno != errno.ENOTEMPTY:
                raise

    @property
    def open_handles(self) -> int:
        return len(self._recent)

    def close(self) -> None:
        """Close every resident handle.  Idempotent; a store used again
        afterwards reopens what it touches."""
        with self._lock:
            for handle in list(self._recent):
                self._drop(handle)

    # -- chunk operations ---------------------------------------------------

    def write_chunk(self, path: str, chunk_id: int, offset: int, data: bytes) -> int:
        self._check_range(offset, len(data))
        with self._lock:
            handle = self._handle(path, chunk_id, create=True)
            record = self._sums_after_write(
                path, chunk_id, offset, data, handle.read) if self.integrity else None
            _pwrite_all(handle.fd, data, offset)  # past EOF leaves a sparse hole
            self.stats.bytes_written += len(data)
            self.stats.write_ops += 1
            if record:
                self._set_sums(path, chunk_id, *record)
            return len(data)

    def _reader(self, path: str, chunk_id: int) -> Reader:
        handle = self._handle(path, chunk_id)
        return handle.read if handle is not None else _no_chunk

    def truncate_chunk(self, path: str, chunk_id: int, length: int) -> None:
        self._check_range(0, length)
        with self._lock:
            if length == 0:  # nothing to open (or to evict another chunk for)
                if os.path.exists(self._chunk_file(path, chunk_id)):
                    self._unlink(path, [chunk_id])
                return
            handle = self._handle(path, chunk_id)
            if handle is None:
                return
            record = self._sums_after_truncate(
                path, chunk_id, length, handle.read) if self.integrity else None
            if length < os.fstat(handle.fd).st_size:  # shrink-only
                os.ftruncate(handle.fd, length)
            if record:
                self._set_sums(path, chunk_id, *record)

    def remove_chunks(self, path: str) -> int:
        with self._lock:
            directory = self._dir_for(path)
            if not os.path.isdir(directory):
                return 0
            for handle in list(self._sums.get(path, {}).values()):
                self._drop(handle)
            count = 0
            for name in os.listdir(directory):
                os.remove(os.path.join(directory, name))
                if self._is_chunk(name):
                    count += 1
            os.rmdir(directory)
            self.stats.chunks_removed += count
            if self.integrity:
                self._integrity_drop_path(path)
            return count

    def remove_chunks_from(self, path: str, first_chunk: int) -> int:
        with self._lock:
            doomed = [cid for cid in self.chunk_ids(path) if cid >= first_chunk]
            if doomed:
                self._unlink(path, doomed)
            return len(doomed)

    def chunk_ids(self, path: str) -> Iterable[int]:
        with self._lock:
            directory = self._dir_for(path)
            if not os.path.isdir(directory):
                return []
            return sorted(
                self._chunk_id_of(name)
                for name in os.listdir(directory)
                if self._is_chunk(name)
            )

    def chunk_lengths(self, path: str) -> list[tuple[int, int]]:
        with self._lock:
            return [
                (chunk_id, os.path.getsize(self._chunk_file(path, chunk_id)))
                for chunk_id in self.chunk_ids(path)
            ]

    def paths(self, after: Optional[str] = None) -> Iterator[str]:
        # One listing of the root; each directory is looked into only when
        # the caller gets that far, so a paged pass lists each about once.
        with self._lock:
            names = sorted((decode_path(name), name) for name in os.listdir(self.root))
        for path, name in names:
            if after is not None and path <= after:
                continue
            sub = os.path.join(self.root, name)
            with self._lock:
                held = os.path.isdir(sub) and any(map(self._is_chunk, os.listdir(sub)))
            if held:
                yield path

    def used_bytes(self) -> int:
        with self._lock:
            total = 0
            for dirname in os.listdir(self.root):
                sub = os.path.join(self.root, dirname)
                if os.path.isdir(sub):
                    for name in os.listdir(sub):
                        if self._is_chunk(name):
                            total += os.path.getsize(os.path.join(sub, name))
            return total

    # -- integrity hooks: the record lives on the handle ---------------------

    def _open_sidecar(self, handle: _Handle, create: bool) -> bool:
        """Open the handle's sidecar once; the one ``fstat`` here is what
        the shrink rule is decided from for as long as it stays resident."""
        if handle.sum_fd < 0:
            flags = os.O_RDWR | (os.O_CREAT if create else 0)
            try:
                handle.sum_fd = os.open(
                    self._sidecar_file(handle.path, handle.chunk_id), flags, 0o666)
            except FileNotFoundError:
                return False
            handle.sum_size = os.fstat(handle.sum_fd).st_size
        return True

    def _record(self, handle: _Handle) -> Optional[tuple[int, bytes]]:
        """The handle's digest record, loaded from its sidecar at first use."""
        if handle.record is _UNREAD:
            handle.record = None  # kept too: no readable record
            if self._open_sidecar(handle, create=False):
                handle.record = self._parse_sidecar(
                    os.pread(handle.sum_fd, handle.sum_size, 0))
        return handle.record

    def _get_sums(self, path: str, chunk_id: int) -> Optional[tuple[int, bytes]]:
        handle = self._handle(path, chunk_id)
        return None if handle is None else self._record(handle)

    def _record_and_reader(
        self, path: str, chunk_id: int
    ) -> tuple[Optional[tuple[int, bytes]], Reader]:
        handle = self._handle(path, chunk_id)
        if handle is None:
            return None, _no_chunk
        return self._record(handle), handle.read

    def _set_sums(self, path: str, chunk_id: int, length: int, sums: bytes) -> None:
        handle = self._handle(path, chunk_id)
        handle.record = (length, sums)
        body = _SIDECAR_HEADER.pack(
            _SIDECAR_MAGIC, _SIDECAR_VERSION, _ALGO_CODES[self.algorithm],
            length, len(sums) // 8, self.block_size,
        ) + sums
        record = body + struct.pack("<I", zlib.crc32(body))
        self._open_sidecar(handle, create=True)
        _pwrite_all(handle.sum_fd, record, 0)
        if handle.sum_size > len(record):  # the record got shorter
            os.ftruncate(handle.sum_fd, len(record))
        handle.sum_size = len(record)

    def _del_sums(self, path: str, chunk_id: int) -> None:
        """The handle went with the chunk file (:meth:`_unlink`)."""
        try:
            os.remove(self._sidecar_file(path, chunk_id))
        except FileNotFoundError:
            pass

    def _parse_sidecar(self, blob: bytes) -> Optional[tuple[int, bytes]]:
        """The record a sidecar holds, or ``None``: torn, of another format
        version (version 1 had no grain), algorithm or grain — digests this
        store cannot check are no digests, never a mismatch."""
        if len(blob) < _SIDECAR_HEADER.size + 4:
            return None  # torn sidecar
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) != crc or body[4] != _SIDECAR_VERSION:
            return None
        magic, _version, algo, length, count, grain = _SIDECAR_HEADER.unpack_from(body)
        if (
            magic != _SIDECAR_MAGIC
            or algo != _ALGO_CODES.get(self.algorithm)
            or grain != self.block_size
            or len(body) != _SIDECAR_HEADER.size + 8 * count
        ):
            return None
        return (length, body[_SIDECAR_HEADER.size :])

    # -- fault injectors: through the handle, so on the inode in use --------

    def corrupt_chunk(
        self, path: str, chunk_id: int, byte_offset: int, xor: int = 0xA5
    ) -> bool:
        with self._lock:
            handle = self._handle(path, chunk_id) if byte_offset >= 0 else None
            byte = handle.read(byte_offset, 1) if handle is not None else b""
            if byte:
                os.pwrite(handle.fd, bytes([byte[0] ^ (xor & 0xFF or 0xA5)]), byte_offset)
            return bool(byte)

    def tear_chunk(self, path: str, chunk_id: int, keep_bytes: int) -> bool:
        with self._lock:
            handle = self._handle(path, chunk_id)
            if handle is None or keep_bytes >= os.fstat(handle.fd).st_size:
                return False
            os.ftruncate(handle.fd, keep_bytes)
            return True
