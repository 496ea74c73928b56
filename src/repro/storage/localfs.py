"""Directory-backed chunk storage: one real file per chunk.

This is the faithful version of the daemon's persistence layer — chunk
``c`` of ``/foo/bar`` becomes ``<root>/<encoded /foo/bar>/chunk_00000042``
on the node-local file system, exactly the layout GekkoFS puts on its
scratch SSD.  Path encoding is percent-style so any GekkoFS path maps to
one flat directory name, reversibly and collision-free.

With integrity enabled every chunk file gains a ``.sum`` sidecar holding
the checksummed payload length and the per-block digests, self-framed
with a CRC so a sidecar torn by a crash reads as *unverifiable* rather
than as plausible garbage.  Sidecars are write-through (updated inside
the same locked section as the payload) and cached in memory; a restart
reloads them lazily from disk.  They are invisible to the payload
namespace: ``chunk_ids``/``used_bytes``/``remove_chunks`` account only
real chunk files.

One chunk operation is one ``os.open`` of the chunk file, positional I/O
on it and at most one sidecar write, patched in place and never
``O_TRUNC`` (docs/architecture.md, "Persistence", has the why).
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.storage.backend import ChunkStorage, Reader

__all__ = ["LocalFSChunkStorage", "encode_path", "decode_path"]

_SIDECAR_SUFFIX = ".sum"
_SIDECAR_MAGIC = b"GKCS"
_SIDECAR_VERSION = 1
_SIDECAR_HEADER = struct.Struct("<4sBBQI")  # magic, version, algo, length, count
_ALGO_CODES = {"gxh64": 0, "crc32c": 1}


def encode_path(path: str) -> str:
    """Make a GekkoFS path safe as a single directory name ('%'-escaped)."""
    return path.replace("%", "%25").replace("/", "%2F")


def decode_path(name: str) -> str:
    """Inverse of :func:`encode_path`."""
    return name.replace("%2F", "/").replace("%25", "%")


def _pread_on(fd: int) -> Reader:
    return lambda offset, length: os.pread(fd, length, offset)


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """``os.pwrite`` may write short; loop until every byte is down."""
    view = memoryview(data)
    done = 0
    while done < len(view):
        done += os.pwrite(fd, view[done:], offset + done)


class LocalFSChunkStorage(ChunkStorage):
    """Chunk files under ``root`` on the real (node-local) file system."""

    def __init__(self, chunk_size: int, root: str, **integrity_opts):
        super().__init__(chunk_size, **integrity_opts)
        self.root = root
        os.makedirs(root, exist_ok=True)

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

    def write_chunk(self, path: str, chunk_id: int, offset: int, data: bytes) -> int:
        self._check_range(offset, len(data))
        with self._lock:
            fname = self._chunk_file(path, chunk_id)
            try:
                fd = os.open(fname, os.O_RDWR)  # never O_TRUNC: partial chunks stay
            except FileNotFoundError:
                os.makedirs(self._dir_for(path), exist_ok=True)
                fd = os.open(fname, os.O_RDWR | os.O_CREAT, 0o666)
                self.stats.chunks_created += 1
            try:
                record = self._sums_after_write(
                    path, chunk_id, offset, data, _pread_on(fd)) if self.integrity else None
                _pwrite_all(fd, data, offset)  # past EOF leaves a sparse hole
                self.stats.bytes_written += len(data)
                self.stats.write_ops += 1
                if record:
                    self._set_sums(path, chunk_id, *record)
            finally:
                os.close(fd)
            return len(data)

    @contextmanager
    def _reader(self, path: str, chunk_id: int) -> Iterator[Reader]:
        try:
            fd = os.open(self._chunk_file(path, chunk_id), os.O_RDONLY)
        except FileNotFoundError:
            yield lambda offset, length: b""
            return
        try:
            yield _pread_on(fd)
        finally:
            os.close(fd)

    def truncate_chunk(self, path: str, chunk_id: int, length: int) -> None:
        self._check_range(0, length)
        with self._lock:
            fname = self._chunk_file(path, chunk_id)
            try:
                fd = os.open(fname, os.O_RDWR)
            except FileNotFoundError:
                return
            try:
                record = self._sums_after_truncate(
                    path, chunk_id, length, _pread_on(fd)) if self.integrity and length else None
                if length == 0:
                    os.remove(fname)
                    self.stats.chunks_removed += 1
                    if self.integrity:
                        self._integrity_drop_chunk(path, chunk_id)
                elif length < os.fstat(fd).st_size:  # shrink-only
                    os.ftruncate(fd, length)
                if record:
                    self._set_sums(path, chunk_id, *record)
            finally:
                os.close(fd)

    def remove_chunks(self, path: str) -> int:
        with self._lock:
            directory = self._dir_for(path)
            if not os.path.isdir(directory):
                return 0
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
            directory = self._dir_for(path)
            if not os.path.isdir(directory):
                return 0
            count = 0
            for name in os.listdir(directory):
                if not self._is_chunk(name):
                    continue
                cid = self._chunk_id_of(name)
                if cid >= first_chunk:
                    os.remove(os.path.join(directory, name))
                    count += 1
                    if self.integrity:
                        self._integrity_drop_chunk(path, cid)
            self.stats.chunks_removed += count
            return count

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

    def paths(self) -> Iterable[str]:
        with self._lock:
            found = []
            for name in os.listdir(self.root):
                sub = os.path.join(self.root, name)
                if os.path.isdir(sub) and any(map(self._is_chunk, os.listdir(sub))):
                    found.append(decode_path(name))
            return sorted(found)

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

    # -- integrity hooks ---------------------------------------------------

    def _get_sums(self, path: str, chunk_id: int) -> Optional[tuple[int, list[int]]]:
        table = self._sums.setdefault(path, {})
        if chunk_id not in table:  # ``None`` is cached too: no readable record
            table[chunk_id] = self._load_sidecar(path, chunk_id)
        return table[chunk_id]

    def _set_sums(self, path: str, chunk_id: int, length: int, sums: list[int]) -> None:
        super()._set_sums(path, chunk_id, length, sums)
        body = _SIDECAR_HEADER.pack(
            _SIDECAR_MAGIC, _SIDECAR_VERSION, _ALGO_CODES[self.algorithm], length, len(sums)
        ) + struct.pack(f"<{len(sums)}Q", *sums)
        record = body + struct.pack("<I", zlib.crc32(body))
        fd = os.open(self._sidecar_file(path, chunk_id), os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            _pwrite_all(fd, record, 0)
            if os.fstat(fd).st_size > len(record):  # the record got shorter
                os.ftruncate(fd, len(record))
        finally:
            os.close(fd)

    def _del_sums(self, path: str, chunk_id: int) -> None:
        super()._del_sums(path, chunk_id)
        try:
            os.remove(self._sidecar_file(path, chunk_id))
        except FileNotFoundError:
            pass

    def _load_sidecar(self, path: str, chunk_id: int) -> Optional[tuple[int, list[int]]]:
        try:
            with open(self._sidecar_file(path, chunk_id), "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        if len(blob) < _SIDECAR_HEADER.size + 4:
            return None  # torn sidecar
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) != crc:
            return None
        magic, version, algo, length, count = _SIDECAR_HEADER.unpack_from(body)
        if (
            magic != _SIDECAR_MAGIC
            or version != _SIDECAR_VERSION
            or algo != _ALGO_CODES.get(self.algorithm)
            or len(body) != _SIDECAR_HEADER.size + 8 * count
        ):
            return None
        sums = list(struct.unpack_from(f"<{count}Q", body, _SIDECAR_HEADER.size))
        return (length, sums)

    def corrupt_chunk(
        self, path: str, chunk_id: int, byte_offset: int, xor: int = 0xA5
    ) -> bool:
        with self._lock:
            try:
                fd = os.open(self._chunk_file(path, chunk_id), os.O_RDWR)
            except FileNotFoundError:
                return False
            try:
                byte = os.pread(fd, 1, byte_offset) if byte_offset >= 0 else b""
                if byte:
                    os.pwrite(fd, bytes([byte[0] ^ (xor & 0xFF or 0xA5)]), byte_offset)
                return bool(byte)
            finally:
                os.close(fd)

    def tear_chunk(self, path: str, chunk_id: int, keep_bytes: int) -> bool:
        with self._lock:
            fname = self._chunk_file(path, chunk_id)
            try:
                if keep_bytes >= os.path.getsize(fname):
                    return False
                os.truncate(fname, keep_bytes)
            except FileNotFoundError:
                return False
            return True
