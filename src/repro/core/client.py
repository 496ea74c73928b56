"""The GekkoFS client library (the interposition layer's brain).

The preloaded library in the paper intercepts file-system calls, answers
them from its own file map where possible, forwards GekkoFS paths to the
responsible daemons, and lets everything else fall through to the
node-local file system (§III-B).  It has three parts, and so does this
client:

* the **interception layer** — this class, with the ELF interposition
  replaced by an explicit call surface: :func:`_routed` decides GekkoFS
  or ``os.*`` for every call, :meth:`GekkoFSClient._rel` maps the path;
* the **file map** — :class:`~repro.core.filemap.OpenFileMap`, descriptors
  with their position, flags and ``size_seen``;
* the **RPC forwarding layer** — :class:`~repro.core.metapath.MetadataPath`
  (``client.meta``: record RPCs, listings, the size-update and lease
  caches) and :class:`~repro.core.datapath.DataPath` (``client.data``:
  span planning, the chunk fan-outs, fail-over, the chunk cache).

Semantics implemented (and deliberately not implemented) follow §III-A:

* strong consistency for operations on a specific file,
* eventually-consistent ``readdir`` (merged per-daemon partial listings),
* no rename/move, no links — :class:`~repro.common.errors.UnsupportedError`
  (rename has an opt-in copy-then-unlink emulation),
* every call on a path outside the mountpoint, or on a kernel descriptor,
  goes to its ``os.*`` counterpart (:func:`_routed`, the one routing rule),
* no permission enforcement, no global locks, synchronous I/O,
* cache-less by default; three opt-in client caches (size updates §IV-B,
  whole chunks §V, metadata leases), each told about every mutation of
  this client at one point, :class:`~repro.core.cache.Mutations`
  (``client.mutations``).
"""

from __future__ import annotations

import errno
import functools
import os
from dataclasses import dataclass
from stat import S_ISDIR
from typing import Optional

from repro.common.errors import (
    BadFileDescriptorError,
    ExistsError,
    InvalidArgumentError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    UnsupportedError,
)
from repro.core.cache import Mutations
from repro.core.config import FSConfig
from repro.core.datapath import DataPath
from repro.core.distributor import Distributor
from repro.core.membership import MembershipView
from repro.core.filemap import FD_BASE, OpenFile, OpenFileMap
from repro.core.metadata import Metadata, new_dir_metadata, new_file_metadata, record_head
from repro.core.metapath import MetadataPath
from repro.rpc.engine import RpcNetwork
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots

__all__ = ["GekkoFSClient", "ClientStats"]


def _routed(local, by: str = "path"):
    """Declare one call's routing: the interception rule, written once.

    ``by`` names what routes the call — its first argument as a
    ``"path"`` (node-local when outside the mountpoint), as an ``"fd"``
    (node-local below :data:`FD_BASE`: a descriptor the kernel handed
    out), or its first two arguments as ``"paths"`` (node-local only when
    both are).  A node-local call runs ``local``, the call's ``os.*``
    counterpart, with the caller's arguments; every other call runs the
    decorated GekkoFS body.  The result is a plain function, so the call
    surface stays introspectable (``tests/test_telemetry_surface.py``).
    """

    def decorate(body):
        if by == "fd":
            def call(self, fd, *args, **kwargs):
                if fd < FD_BASE:
                    return local(fd, *args, **kwargs)
                return body(self, fd, *args, **kwargs)
        elif by == "paths":
            def call(self, first, second, *args, **kwargs):
                if not (self.is_gekkofs_path(first) or self.is_gekkofs_path(second)):
                    return local(first, second, *args, **kwargs)
                return body(self, first, second, *args, **kwargs)
        else:
            def call(self, path, *args, **kwargs):
                if not (path.startswith(self._under) or path == self._mount):
                    return local(path, *args, **kwargs)  # is_gekkofs_path, inlined
                return body(self, path, *args, **kwargs)
        return functools.wraps(body)(call)

    return decorate


# -- node-local counterparts that are not a bare ``os.*`` call -------------


def _kernel_metadata(st: os.stat_result) -> Metadata:
    """A node-local file's attributes in the shape GekkoFS answers."""
    return Metadata(is_dir=S_ISDIR(st.st_mode), size=st.st_size, mode=st.st_mode & 0o7777,
                    ctime=st.st_ctime, mtime=st.st_mtime, atime=st.st_atime)


def _kernel_listing(path: str) -> list[tuple[str, bool]]:
    with os.scandir(path) as entries:
        return sorted((entry.name, entry.is_dir()) for entry in entries)


def _kernel_listing_plus(path: str) -> list[tuple[str, Metadata]]:
    with os.scandir(path) as entries:
        return sorted(
            ((entry.name, _kernel_metadata(entry.stat())) for entry in entries),
            key=lambda item: item[0],
        )


def _kernel_dir_stream(path: str) -> OpenFile:
    return OpenFile(
        path=path, flags=os.O_RDONLY, is_dir=True, dir_entries=_kernel_listing(path)
    )


def _kernel_snapshot(path: str) -> tuple[int, int]:
    fd = os.open(path, os.O_RDONLY)
    st = os.fstat(fd)
    if S_ISDIR(st.st_mode):
        os.close(fd)
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return fd, st.st_size


@dataclass
class ClientStats:
    """Per-client operation counters."""

    opens: int = 0
    creates: int = 0
    stats_: int = 0
    removes: int = 0
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    readdirs: int = 0
    #: Widest single RPC fan-out this client has had in flight at once.
    max_fanout: int = 0
    #: Broadcasts that completed with at least one unreachable daemon.
    degraded_ops: int = 0
    #: Individual broadcast legs lost to unreachable daemons (tolerated).
    leg_failures: int = 0
    #: Read legs that failed checksum verification and fell over to
    #: another replica (integrity plane).
    integrity_failovers: int = 0
    #: Corrupt replica chunks rewritten in place from a verified copy
    #: after a successful fail-over (read-repair).
    read_repairs: int = 0
    #: Replica write legs that failed while the op still acked — the
    #: replica now holds stale data until something resyncs it.
    dirty_marks: int = 0
    #: Dirty marks dropped because the ledger hit capacity (resync
    #: coverage lost; anti-entropy must fall back to a full pass).
    dirty_overflow: int = 0


class GekkoFSClient:
    """One application process's view of a GekkoFS deployment.

    :param network: the deployment's RPC address book.
    :param distributor: placement policy (must match every other client).
    :param config: deployment configuration (must match the daemons).
    :param node_id: the node this client runs on (diagnostics only — the
        hash distribution makes placement location-independent).
    """

    def __init__(self, network: RpcNetwork, distributor: Distributor, config: FSConfig,
                 node_id: int = 0):
        self.network = network
        #: The placement view every path routes through (a bare
        #: distributor gets a static view of its own).
        self.distributor = (distributor if isinstance(distributor, MembershipView)
                            else MembershipView(distributor))
        self.config = config
        mount = self._mount = config.mountpoint  # the interception test's operands
        self._under, self._cut = mount + "/", len(mount)
        self.node_id = node_id
        self.filemap = OpenFileMap()
        self.stats = ClientStats()
        #: Per-op records of tolerated broadcast leg failures (telemetry):
        #: ``{"handler": ..., "failed": {address: exception class name}}``.
        self.degraded_events: list[dict] = []
        #: Registry mirroring :class:`ClientStats` (``client.*`` gauges) —
        #: the same enumeration path as the daemon-side registries, so
        #: ``degraded_ops``/``leg_failures`` appear in metrics reports.
        #: Each configured cache adds its own gauges as it subscribes.
        self.metrics_registry = self._build_metrics_registry()
        #: The one point every mutation reaches the client caches through.
        self.mutations = Mutations()
        self.meta = MetadataPath(self)
        self.data = DataPath(self)
        # With telemetry enabled the cluster sets network.tracer; every
        # traced operation on this client then opens a span.
        tracer = getattr(network, "tracer", None)
        if tracer is not None:
            from repro.telemetry.spans import install_op_spans

            install_op_spans(self, tracer)

    # -- interception routing ---------------------------------------------

    def is_gekkofs_path(self, path: str) -> bool:
        """The interception test: does ``path`` live under the mountpoint?"""
        return path.startswith(self._under) or path == self._mount

    def _rel(self, path: str) -> str:
        """Internal (mount-relative) form of ``path``; root is ``"/"``."""
        rel = path[self._cut:]
        if path[:self._cut] != self._mount or rel[:1] not in ("", "/"):
            raise InvalidArgumentError(f"{path!r} is not under {self._mount!r}")
        if rel[-1:] == "/":
            rel = rel.rstrip("/")
        if "//" in rel:
            raise InvalidArgumentError(f"{path!r} contains empty components")
        return rel or "/"

    def _build_metrics_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.mirror("client.", lambda: self.stats, ClientStats.__dataclass_fields__)
        registry.gauge("client.degraded_events", lambda: len(self.degraded_events))
        # Under QoS the network is a ClientPort carrying congestion-control
        # counters; mirror them the same way so throttle behaviour shows up
        # in every metrics report.  (getattr on the instance dict — the
        # port's __getattr__ forwarding never fabricates this attribute.)
        qos_stats = getattr(self.network, "qos_stats", None)
        if qos_stats is not None:
            registry.mirror("client.qos_", lambda: qos_stats,
                            ("throttles", "giveups", "throttle_wait"))
        return registry

    # -- open / close -----------------------------------------------------------

    @_routed(lambda path, flags=os.O_RDONLY, mode=0o644: os.open(path, flags, mode))
    def open(self, path: str, flags: int = os.O_RDONLY, mode: int = 0o644) -> int:
        """POSIX-style open; returns a GekkoFS descriptor (>= ``FD_BASE``).

        ``O_CREAT``/``O_EXCL``/``O_TRUNC``/``O_APPEND`` and the access
        modes are honoured; there are no permission checks (§III-A).
        """
        return self._open_gkfs(path, flags, mode)

    def _open_gkfs(self, path: str, flags: int, mode: int) -> int:
        """Open a GekkoFS path.  The size the open observed stays on the
        descriptor as ``size_seen`` — reads plan their spans from it, and
        :meth:`read_bytes`/:meth:`copy` take it as their snapshot.

        ``O_TRUNC`` on a writable descriptor is a truncate to 0 and is
        heard as one by every cache; without ``O_CREAT`` it is the owner's
        one ``gkfs_truncate_metadata``, which also refuses a directory or
        a missing path — never a decision taken from a lease."""
        rel = self._rel(path)
        self.stats.opens += 1
        writable = flags & os.O_ACCMODE in (os.O_WRONLY, os.O_RDWR)
        truncate = bool(flags & os.O_TRUNC) and writable
        if flags & os.O_CREAT:
            record = new_file_metadata(mode, maintain_times=self.config.maintain_mtime)
            stored = self.meta.call(rel, "gkfs_create", record.encode(), bool(flags & os.O_EXCL))
            is_dir, size = record_head(stored)
            self.stats.creates += 1
            self.mutations.created(rel, stored)
            if is_dir:
                raise IsADirectoryError_(path)
            if truncate:
                size = self._truncate_rel(rel, 0, size)
            else:
                # The file may be one this client already wrote through
                # another descriptor: a size held back for it is part of
                # what this open observes.
                published = self.meta.flush(rel)
                if published is not None:
                    size = published
        elif truncate:
            is_dir, size = False, self._truncate_rel(rel, 0)
        else:
            md = self.meta.stat(rel)
            is_dir, size = md.is_dir, md.size
            if is_dir and writable:
                raise IsADirectoryError_(path)
        return self.filemap.add(OpenFile(path=rel, flags=flags, is_dir=is_dir, size_seen=size))

    def creat(self, path: str, mode: int = 0o644) -> int:
        """``creat(2)``: open with ``O_WRONLY | O_CREAT | O_TRUNC``."""
        return self.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)

    @_routed(os.close, by="fd")
    def close(self, fd: int) -> None:
        """Release a descriptor, publishing any size update held back."""
        entry = self.filemap.remove(fd)
        if not entry.is_dir:
            self.meta.flush(entry.path)

    # -- data ---------------------------------------------------------------------

    @_routed(os.pwrite, by="fd")
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positional write: split into chunk spans, fan out, publish size."""
        if offset < 0:
            raise InvalidArgumentError(f"negative offset {offset}")
        return self.data.pwrite(self.filemap.get(fd), data, offset)

    @_routed(os.write, by="fd")
    def write(self, fd: int, data: bytes) -> int:
        """Write at the descriptor position (or EOF under ``O_APPEND``,
        into a region the owner reserves: :meth:`DataPath.append`)."""
        entry = self.filemap.get(fd)
        if entry.append:
            entry.position = self.data.append(entry, data)
            return len(data)
        written = self.pwrite(fd, data, entry.position)
        entry.position += written
        return written

    @_routed(os.pread, by="fd")
    def pread(self, fd: int, count: int, offset: int) -> bytes:
        """Positional read: fan out, zero-fill holes, clamp at the file size.

        One round trip per daemon when every span inside the descriptor's
        ``size_seen`` comes back full; the owner is asked for the size
        only when one does not (:meth:`DataPath.pread`).
        """
        if offset < 0 or count < 0:
            raise InvalidArgumentError(f"negative offset/count: {offset}/{count}")
        return self.data.pread(self.filemap.get(fd), count, offset)

    @_routed(os.read, by="fd")
    def read(self, fd: int, count: int) -> bytes:
        """Read at the descriptor position, advancing it."""
        entry = self.filemap.get(fd)
        data = self.pread(fd, count, entry.position)
        entry.position += len(data)
        return data

    @_routed(lambda fd, offset, whence=os.SEEK_SET: os.lseek(fd, offset, whence), by="fd")
    def lseek(self, fd: int, offset: int, whence: int = os.SEEK_SET) -> int:
        """Reposition the user-space file offset."""
        entry = self.filemap.get(fd)
        if whence == os.SEEK_SET:
            new = offset
        elif whence == os.SEEK_CUR:
            new = entry.position + offset
        elif whence == os.SEEK_END:
            new = self.data.stat_entry(entry).size + offset
        else:
            raise InvalidArgumentError(f"bad whence {whence}")
        if new < 0:
            raise InvalidArgumentError(f"resulting offset {new} is negative")
        entry.position = new
        return new

    @_routed(os.fsync, by="fd")
    def fsync(self, fd: int) -> None:
        """Publish size updates held back; data is already synchronous."""
        self.meta.flush(self.filemap.get(fd).path)

    # -- metadata operations ------------------------------------------------------

    @_routed(lambda path: _kernel_metadata(os.stat(path)))
    def stat(self, path: str) -> Metadata:
        """Attributes of ``path`` (strongly consistent for the record itself)."""
        return self.meta.stat(self._rel(path))

    @_routed(lambda fd: _kernel_metadata(os.fstat(fd)), by="fd")
    def fstat(self, fd: int) -> Metadata:
        return self.data.stat_entry(self.filemap.get(fd))

    def exists(self, path: str) -> bool:
        """Convenience existence probe (one stat RPC)."""
        try:
            self.stat(path)
            return True
        except (NotFoundError, FileNotFoundError):
            return False

    @_routed(os.unlink)
    def unlink(self, path: str) -> None:
        """Remove a file: metadata first, then the owners of its chunks.

        One RPC to the record's owner refuses a directory (``EISDIR``) or
        removes the record — the linearisation point; chunk removal is a
        targeted multicast to the daemons the distributor implicates.
        """
        rel = self._rel(path)
        pending = self.mutations.gone(rel)
        _, size = record_head(self.meta.call(rel, "gkfs_remove_metadata", False))
        self.data.trim(rel, max(size, pending))
        self.stats.removes += 1

    @_routed(lambda path, mode=0o755: os.mkdir(path, mode))
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory record (no parent traversal — flat namespace)."""
        rel = self._rel(path)
        if rel == "/":
            raise ExistsError(path)
        record = new_dir_metadata(mode, maintain_times=self.config.maintain_mtime)
        stored = self.meta.call(rel, "gkfs_create", record.encode(), True)
        self.stats.creates += 1
        self.mutations.created(rel, stored)

    @_routed(os.rmdir)
    def rmdir(self, path: str) -> None:
        """Remove an *empty* directory.

        Emptiness is checked with a readdir sweep — eventually consistent
        like every indirect operation, so a racing create may survive a
        concurrent rmdir; the paper accepts exactly this relaxation.  A
        file is refused (``ENOTDIR``) by the sweep, and again by the owner
        under its lock should one have replaced the directory since.
        """
        rel = self._rel(path)
        if rel == "/":
            raise InvalidArgumentError("cannot remove the file system root")
        if self.listdir(path):
            raise NotEmptyError(path)
        self.mutations.gone(rel)
        self.meta.call(rel, "gkfs_remove_metadata", True)
        self.stats.removes += 1

    @_routed(os.truncate)
    def truncate(self, path: str, new_size: int) -> None:
        """Set the file size, dropping chunk data beyond it: one RPC to
        the owner refuses a directory (``EISDIR``) or resizes the record
        and returns the old size; only a shrink costs a chunk multicast."""
        if new_size < 0:
            raise InvalidArgumentError(f"negative size {new_size}")
        self._truncate_rel(self._rel(path), new_size)

    @_routed(os.ftruncate, by="fd")
    def ftruncate(self, fd: int, new_size: int) -> None:
        if new_size < 0:
            raise InvalidArgumentError(f"negative size {new_size}")
        entry = self.filemap.get(fd)
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.writable:
            raise BadFileDescriptorError(f"fd {fd} is not open for writing")
        entry.size_seen = self._truncate_rel(entry.path, new_size)

    def _truncate_rel(self, rel: str, new_size: int, size: Optional[int] = None) -> int:
        """Truncate ``rel`` to ``new_size``; returns ``new_size``.

        ``size`` is the owner's size as a create just answered it: the
        owner is then asked only if there is anything to cut."""
        pending = self.mutations.gone(rel)
        if size is None or max(size, pending) > new_size:
            size = self.meta.call(rel, "gkfs_truncate_metadata", new_size)
        old_size = max(pending, size)
        if new_size < old_size:
            self.data.trim(rel, old_size, new_size)
        return new_size

    # -- directory listing -----------------------------------------------------------

    @_routed(_kernel_listing)
    def listdir(self, path: str) -> list[tuple[str, bool]]:
        """Merged ``(name, is_dir)`` listing of a directory.

        Gathers each daemon's partial listing and merges — the paper's
        eventually-consistent ``readdir``: concurrent creates/removes may
        or may not appear (§III-A).
        """
        return self.meta.listing(self._rel(path), plus=False)

    @_routed(_kernel_listing_plus)
    def listdir_plus(self, path: str) -> list[tuple[str, Metadata]]:
        """Listing with attributes — the ``ls -l`` path, batched.

        One ``gkfs_readdir_plus`` RPC per daemon returns each entry's full
        metadata record alongside its name, instead of a stat RPC per
        entry.  Eventually consistent like :meth:`listdir` (§III-A).
        """
        return self.meta.listing(self._rel(path), plus=True)

    def opendir(self, path: str) -> int:
        """Open a directory stream; the listing is snapshotted now.

        The stream is client-side state, like libc's ``DIR``, in both
        namespaces: a node-local directory's stream holds the kernel's
        listing (:meth:`_dir_stream`) and :meth:`readdir` walks it.
        """
        return self.filemap.add(self._dir_stream(path))

    @_routed(_kernel_dir_stream)
    def _dir_stream(self, path: str) -> OpenFile:
        entries = self.listdir(path)
        return OpenFile(
            path=self._rel(path), flags=os.O_RDONLY, is_dir=True, dir_entries=entries
        )

    def readdir(self, fd: int) -> Optional[tuple[str, bool]]:
        """Next entry of an open directory stream, ``None`` at the end."""
        entry = self.filemap.get(fd)
        if not entry.is_dir or entry.dir_entries is None:
            raise NotADirectoryError_(entry.path)
        if entry.dir_cursor >= len(entry.dir_entries):
            return None
        item = entry.dir_entries[entry.dir_cursor]
        entry.dir_cursor += 1
        return item

    def walk(self, path: str):
        """Yield ``(dirpath, dirnames, files)`` like :func:`os.walk`.

        ``files`` pairs each name with its :class:`Metadata` (one batched
        readdir-plus per directory per daemon, not a stat per file).
        Eventually consistent like every listing (§III-A).  Top-down;
        mutate ``dirnames`` in place to prune, as with ``os.walk``.
        """
        entries = self.listdir_plus(path)
        dirnames = [name for name, md in entries if md.is_dir]
        files = [(name, md) for name, md in entries if not md.is_dir]
        yield path, dirnames, files
        for name in dirnames:
            yield from self.walk(f"{path}/{name}")

    def disk_usage(self, path: str) -> dict:
        """Recursive ``du``: files, directories, and summed logical bytes."""
        md = self.stat(path)
        if not md.is_dir:
            return {"files": 1, "directories": 0, "bytes": md.size}
        totals = {"files": 0, "directories": 0, "bytes": 0}
        for _dirpath, dirnames, files in self.walk(path):
            totals["directories"] += len(dirnames)
            totals["files"] += len(files)
            totals["bytes"] += sum(entry.size for _name, entry in files)
        return totals

    @_routed(_kernel_snapshot)
    def _open_snapshot(self, path: str) -> tuple[int, int]:
        """Open a file for a whole-file read: ``(fd, size)``, the size
        being the one the open observed (no stat of its own)."""
        fd = self._open_gkfs(path, os.O_RDONLY, 0o644)
        entry = self.filemap.get(fd)
        if entry.is_dir:
            self.close(fd)
            raise IsADirectoryError_(path)
        return fd, entry.size_seen

    @_routed(lambda fd, count, offset, size: os.pread(fd, count, offset), by="fd")
    def _pread_snapshot(self, fd: int, count: int, offset: int, size: int) -> bytes:
        """:meth:`pread` clamped at an :meth:`_open_snapshot` size."""
        return self.data.pread(self.filemap.get(fd), count, offset, size=size)

    def read_bytes(self, path: str) -> bytes:
        """Whole-file read convenience (open/read/close in one call).

        The stat made at open supplies the size — one metadata
        round-trip before the data fan-out, not three.
        """
        fd, size = self._open_snapshot(path)
        try:
            return self._pread_snapshot(fd, size, 0, size)
        finally:
            self.close(fd)

    def write_bytes(self, path: str, data: bytes) -> int:
        """Whole-file write convenience (create/truncate/write/close)."""
        fd = self.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
        try:
            return self.pwrite(fd, data, 0)
        finally:
            self.close(fd)

    def copy(self, src: str, dst: str, *, buffer_size: int = 4 * 1024 * 1024) -> int:
        """Copy a file's contents to a new path; returns bytes copied.

        GekkoFS has no rename (§III-A); the sanctioned substitute for the
        rare application that needs one is copy-then-unlink, which this
        utility provides the expensive half of.  The copy streams through
        the client in ``buffer_size`` pieces — it is a data movement, not
        a metadata trick, and costs accordingly.
        """
        if buffer_size <= 0:
            raise InvalidArgumentError(f"buffer_size must be > 0, got {buffer_size}")
        src_fd, size = self._open_snapshot(src)  # reused per piece
        try:
            dst_fd = self.open(dst, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
            try:
                offset = 0
                while offset < size:
                    piece = self._pread_snapshot(src_fd, min(buffer_size, size - offset),
                                                 offset, size)
                    if not piece:
                        break
                    self.pwrite(dst_fd, piece, offset)
                    offset += len(piece)
                if offset < size:
                    # A concurrent truncate shrank the source mid-copy;
                    # pad to the size this copy observed at open.
                    self.ftruncate(dst_fd, size)
                    offset = size
            finally:
                self.close(dst_fd)
        finally:
            self.close(src_fd)
        return offset

    @_routed(os.rename, by="paths")
    def rename(self, old: str, new: str) -> None:
        """Rename — unsupported by default (§III-A), opt-in emulation.

        Two node-local paths are the kernel's rename whatever the setting;
        a GekkoFS path on one side only is ``EINVAL``.  With
        ``rename_emulation`` the sanctioned copy-then-unlink substitute
        runs under the hood.  Crucially, *every* client cache drops its
        destination-path state first — the copy opens the destination
        with ``O_TRUNC``, heard as its bytes going: the destination may
        have been removed and recreated by other clients since this client
        last touched it, and a cached chunk surviving into the renamed
        file would serve stale bytes where the daemons hold holes (the
        cross-client staleness hole ``unlink``/``truncate`` already
        close for their own paths).  Not atomic — a data movement, with
        the documented relaxed-consistency window while it runs.
        """
        if not self.config.rename_emulation:
            raise UnsupportedError(f"rename({old!r}, {new!r}): GekkoFS has no rename support")
        for path in (old, new):
            self._rel(path)  # EINVAL: a GekkoFS path on one side only
        self.copy(old, new)
        self.unlink(old)

    # -- deliberately unsupported (§III-A) ----------------------------------------------

    @_routed(os.link, by="paths")
    def link(self, target: str, name: str) -> None:
        """GekkoFS does not support hard links."""
        raise UnsupportedError(f"link({target!r}, {name!r}): GekkoFS has no link support")

    @_routed(os.symlink, by="paths")
    def symlink(self, target: str, name: str) -> None:
        """GekkoFS does not support symbolic links."""
        raise UnsupportedError(
            f"symlink({target!r}, {name!r}): GekkoFS has no symlink support"
        )

    @_routed(os.chmod)
    def chmod(self, path: str, mode: int) -> None:
        """Access permissions are not maintained (§III-A)."""
        raise UnsupportedError(f"chmod({path!r}): GekkoFS does not manage permissions")

    # -- introspection ---------------------------------------------------------------------

    def _ask_every_daemon(self, handler: str) -> tuple[dict, dict]:
        """Broadcast an introspection ``handler``; ``({address: reply}, flags)``.

        Strict by default: an unreachable daemon is an error even under
        replication (no replica answers *for* it), raised after every leg
        has drained.  In degraded mode the reachable daemons' replies come
        back with ``flags`` labelling the truth as partial —
        ``"degraded"`` and the unreachable addresses in
        ``"missing_daemons"``.
        """
        targets = list(self.distributor.locate_all())
        degraded = self.config.degraded_mode
        replies = self.meta.broadcast(targets, handler, tolerate=degraded)
        answered = {t: reply for t, reply in zip(targets, replies) if reply is not None}
        if not degraded:
            return answered, {}
        missing = sorted(target for target in targets if target not in answered)
        return answered, {"degraded": bool(missing), "missing_daemons": missing}

    def statfs(self) -> dict:
        """Aggregated deployment usage across all daemons (broadcast
        semantics and degraded-mode flags: :meth:`_ask_every_daemon`)."""
        answered, flags = self._ask_every_daemon("gkfs_statfs")
        return {
            "daemons": self.distributor.num_daemons,
            "used_bytes": sum(s["used_bytes"] for s in answered.values()),
            "metadata_records": sum(s["metadata_records"] for s in answered.values()),
            **flags,
        }

    def metrics(self) -> dict:
        """Cluster-wide metrics: every daemon's registry plus this client's.

        Same broadcast as :meth:`statfs` (an unreachable daemon's metrics
        are simply absent from a degraded aggregate).  Returns::

            {
              "daemons":    total daemon count,
              "per_daemon": {address: registry snapshot},
              "cluster":    merged snapshot (counters/gauges summed,
                            latency histograms merged, as summaries),
              "client":     this client's mirror registry snapshot,
            }
        """
        per_daemon, flags = self._ask_every_daemon("gkfs_metrics")
        return {
            "daemons": self.distributor.num_daemons,
            "per_daemon": per_daemon,
            "cluster": merge_snapshots(per_daemon),
            "client": self.metrics_registry.snapshot(),
            **flags,
        }
