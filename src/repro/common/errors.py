"""Errno-style exception hierarchy for GekkoFS operations.

GekkoFS is a user-space file system: its client library reports failures
through errno values that the interposition layer hands back to the
application.  This module mirrors that contract with one exception type per
errno the paper's operations can produce.  Every exception carries its
``errno`` so callers (and the RPC layer, which serialises failures across
the wire) can translate losslessly.
"""

from __future__ import annotations

import errno as _errno

__all__ = [
    "GekkoError",
    "NotFoundError",
    "ExistsError",
    "IsADirectoryError_",
    "NotADirectoryError_",
    "NotEmptyError",
    "BadFileDescriptorError",
    "InvalidArgumentError",
    "UnsupportedError",
    "DaemonUnavailableError",
    "IntegrityError",
    "AgainError",
    "StaleEpochError",
    "UNREACHABLE",
    "error_from_errno",
]


class GekkoError(Exception):
    """Base class for all GekkoFS file-system errors.

    :ivar errno: the POSIX errno equivalent of this failure.
    """

    errno: int = _errno.EIO

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)


class NotFoundError(GekkoError):
    """Path does not exist (ENOENT)."""

    errno = _errno.ENOENT


class ExistsError(GekkoError):
    """Path already exists and O_EXCL (or mkdir) forbids reuse (EEXIST)."""

    errno = _errno.EEXIST


class IsADirectoryError_(GekkoError):
    """A file operation was applied to a directory (EISDIR)."""

    errno = _errno.EISDIR


class NotADirectoryError_(GekkoError):
    """A directory operation was applied to a regular file (ENOTDIR)."""

    errno = _errno.ENOTDIR


class NotEmptyError(GekkoError):
    """rmdir() on a directory that still has entries (ENOTEMPTY)."""

    errno = _errno.ENOTEMPTY


class BadFileDescriptorError(GekkoError):
    """Operation on a closed or never-opened descriptor (EBADF)."""

    errno = _errno.EBADF


class InvalidArgumentError(GekkoError):
    """Malformed argument: negative offset, bad flags, ... (EINVAL)."""

    errno = _errno.EINVAL


class UnsupportedError(GekkoError):
    """Operation GekkoFS deliberately does not support (ENOTSUP).

    The paper removes rename/move and link functionality because HPC
    application studies show they are rarely used inside a parallel job
    (§III-A); calling them is an error, not a silent no-op.
    """

    errno = _errno.ENOTSUP


class DaemonUnavailableError(GekkoError):
    """A daemon holding the addressed shard is unreachable (EIO).

    The paper's GekkoFS has no answer here (§I): a dead daemon hangs its
    callers.  This repo's fault-tolerance extension converts exhausted
    retries and tripped circuit breakers into this error so applications
    see a bounded-time ``EIO`` — the same contract a kernel file system
    offers for a dead disk — instead of an unbounded stall.  Raised
    client-side; it never crosses the wire (its subject is precisely the
    daemon that cannot answer).
    """

    errno = _errno.EIO


#: Failures that mean "this daemon cannot answer now": a crashed
#: in-process engine (``LookupError``), a dropped or refused socket, a
#: deadline, an exhausted retry budget or a tripped breaker.  A
#: whole-cluster pass (repair, fsck) skips such a daemon and lets any
#: other error propagate.
UNREACHABLE = (LookupError, ConnectionError, TimeoutError, DaemonUnavailableError)


class IntegrityError(GekkoError):
    """Stored or transferred chunk data failed checksum verification (EIO).

    Raised instead of returning garbage: by a daemon whose chunk store
    detects bit-rot or a torn write (payload shorter than the checksummed
    length the sidecar recorded), and by a client whose end-to-end proof
    check over the received bulk buffer fails.  With replication >= 2 the
    client treats it as a *failover* signal — retry the span on another
    replica and read-repair the bad copy — so applications never see it;
    with replication 1 there is no good copy to serve and it surfaces as
    ``EIO``, the same contract a kernel file system offers for an
    uncorrectable disk error.  Crossing the wire it rehydrates to this
    class (the EIO slot is free: :class:`DaemonUnavailableError` is
    deliberately client-side only).
    """

    errno = _errno.EIO


class AgainError(GekkoError):
    """Resource temporarily unavailable — retry later (EAGAIN).

    Raised by a daemon's admission controller when a queue is over its
    configured depth limit or a tenant has exhausted its rate budget.
    Unlike every other error in this module it is *retryable by
    contract*: the request was never executed, so reissuing it is always
    safe.  ``retry_after`` is the server's hint (seconds) for when
    capacity is expected; ``None`` means "immediately, at the client's
    discretion".

    Crossing the wire, ``retry_after`` rides alongside the errno in the
    response envelope — a throttle is a *successful delivery* of an
    unsuccessful admission, so it must never be confused with the
    delivery failures the circuit breaker counts.
    """

    errno = _errno.EAGAIN

    def __init__(self, message: str = "", retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class StaleEpochError(GekkoError):
    """The caller's placement map belongs to a retired membership epoch
    (ESTALE).

    A client resolves every path to a daemon from its own copy of the
    placement map.  After a membership change (resize, crash-replace)
    that map is wrong: silently following it would read from — or worse,
    write to — a daemon that no longer owns the data.  Clients of the
    deployment route through its live
    :class:`~repro.core.membership.MembershipView` and follow the change;
    a caller that stamps a request with an older epoch is rejected by
    every daemon whose ``min_epoch`` watermark has moved past it once the
    new epoch is sealed.  The fix is to build a fresh client from the
    deployment (which carries the current epoch).
    """

    errno = _errno.ESTALE


_BY_ERRNO = {
    cls.errno: cls
    for cls in (
        NotFoundError,
        ExistsError,
        IsADirectoryError_,
        NotADirectoryError_,
        NotEmptyError,
        BadFileDescriptorError,
        InvalidArgumentError,
        UnsupportedError,
        IntegrityError,
        AgainError,
        StaleEpochError,
    )
}


def error_from_errno(
    code: int, message: str = "", retry_after: float | None = None
) -> GekkoError:
    """Reconstruct the concrete exception for ``code``.

    Used by the RPC layer to rehydrate a failure that crossed the wire as
    ``(errno, message)`` — plus ``retry_after`` for EAGAIN throttles.
    Unknown codes degrade to the base :class:`GekkoError`.
    """
    cls = _BY_ERRNO.get(code, GekkoError)
    if cls is AgainError:
        return AgainError(message, retry_after=retry_after)
    err = cls(message)
    err.errno = code
    return err
