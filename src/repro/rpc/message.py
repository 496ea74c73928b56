"""RPC request/response envelopes and wire-size accounting.

An RPC is priced by its frame: a socket stamps each request and reply with
the bytes of the frame it read or encoded (``repro.net.codec``).  In-process
delivery never serialises payloads (that would be pure overhead), so there
the size is the *model* of a frame, :func:`estimate_wire_size`, computed
the first time someone reads it — the instrumented transport, the engine's
counters, the QoS cost model and the discrete-event network model.
"""

from __future__ import annotations

import errno as _errno
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import GekkoError, error_from_errno

__all__ = ["RpcRequest", "RpcResponse", "RemoteError", "estimate_wire_size"]

#: Fixed per-message envelope overhead (headers Mercury puts on the wire).
ENVELOPE_BYTES = 64


def estimate_wire_size(obj: Any) -> int:
    """Approximate serialised size of an RPC argument/result in bytes.

    Deliberately cheap and deterministic — this feeds performance models,
    not a real encoder.
    """
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj) + 4
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) + 4
    if isinstance(obj, (list, tuple)):
        return 4 + sum(estimate_wire_size(item) for item in obj)
    if isinstance(obj, dict):
        return 4 + sum(
            estimate_wire_size(k) + estimate_wire_size(v) for k, v in obj.items()
        )
    # Dataclass-like objects used in responses.
    if hasattr(obj, "__dict__"):
        return estimate_wire_size(vars(obj))
    return 16


class RemoteError(Exception):
    """A handler failure captured on the server side of an RPC.

    Carries the original errno so :meth:`RpcResponse.result` can rehydrate
    the concrete :class:`~repro.common.errors.GekkoError` on the client.
    ``retry_after`` travels only for EAGAIN throttles (the admission
    controller's capacity hint); it is ``None`` for every other errno.
    """

    def __init__(
        self, errno_: int, message: str, retry_after: Optional[float] = None
    ):
        super().__init__(message)
        self.errno = errno_
        self.retry_after = retry_after


@dataclass(slots=True)
class RpcRequest:
    """One RPC as put on the (virtual) wire.

    :ivar target: destination daemon address.
    :ivar handler: registered handler name, e.g. ``"gkfs_create"``.
    :ivar args: positional arguments for the handler.
    :ivar bulk: optional bulk-data handle travelling out of band (RDMA).
    :ivar request_id: trace context — the originating client operation's
        request id.  Carried in the envelope (not a thread-local) so the
        daemon side sees it regardless of which handler-pool thread
        serves the request.  ``None`` whenever telemetry is off.
    :ivar parent_span: trace context — the client span that issued this
        RPC; the daemon's handler span becomes its child.
    :ivar client_id: QoS identity — which client (tenant) issued this
        RPC, stamped by the per-client port so the daemon scheduler can
        account fair shares.  ``None`` whenever QoS is off; anonymous
        requests are accounted to a shared bucket.
    :ivar epoch: membership epoch of the placement map the caller used
        to route this request.  Daemons reject epochs below their
        ``min_epoch`` watermark with ESTALE, so a client holding a
        retired map fails loudly instead of touching the wrong shard.
        ``None`` (unversioned deployments, raw network users) always
        passes the gate.
    :ivar chain: the settle stages of the caller's stack, innermost first,
        for this call's future (:mod:`repro.rpc.future`); never on the wire.
    """

    target: int
    handler: str
    args: tuple = ()
    bulk: Optional[Any] = None
    request_id: Optional[str] = None
    parent_span: Optional[str] = None
    client_id: Optional[int] = None
    epoch: Optional[int] = None
    #: Control-frame bytes; 0 until stamped by a socket or first modelled.
    _wire_size: int = field(default=0, repr=False, compare=False)
    chain: tuple = field(default=(), repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        """RPC-channel bytes (bulk payloads travel out of band): over a
        socket the frame's size, elsewhere the model of one — the header,
        :data:`ENVELOPE_BYTES` (`repro.net.codec` pins its header to it),
        plus the body's handler name, args, and the trace/identity ids when
        set, so untraced requests cost what they did before telemetry."""
        size = self._wire_size
        if not size:
            size = ENVELOPE_BYTES + len(self.handler) + estimate_wire_size(self.args)
            for extra in (self.request_id, self.parent_span, self.client_id, self.epoch):
                if extra is not None:
                    size += estimate_wire_size(extra)
            self._wire_size = size
        return size

    def reply_size(self, response: "RpcResponse") -> int:
        """RPC-channel bytes of the reply, priced once by the engine: the
        model here, the frame off a socket (``net.codec.FramedRequest``)."""
        return response.wire_size


@dataclass(slots=True)
class RpcResponse:
    """Handler outcome: exactly one of ``value`` / ``error`` is meaningful."""

    value: Any = None
    error: Optional[RemoteError] = None
    bulk_bytes: int = 0  # out-of-band payload size moved by this RPC
    #: Control-frame bytes, 0 until known (see :attr:`RpcRequest.wire_size`).
    _wire_size: int = field(default=0, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def wire_size(self) -> int:
        size = self._wire_size
        if not size:  # the value, or the error's (errno, message, retry_after)
            error = self.error
            size = ENVELOPE_BYTES + estimate_wire_size(
                self.value if error is None
                else (error.errno, str(error), getattr(error, "retry_after", None))
            )
            self._wire_size = size
        return size

    def result(self) -> Any:
        """Return the value or raise the rehydrated client-side error."""
        if self.error is not None:
            raise error_from_errno(
                self.error.errno,
                str(self.error),
                retry_after=getattr(self.error, "retry_after", None),
            )
        return self.value

    @classmethod
    def from_call(cls, fn, args: tuple) -> "RpcResponse":
        """Run ``fn(*args)``, capturing GekkoFS errors as remote errors.

        Non-:class:`GekkoError` exceptions propagate: they are bugs in the
        daemon, not file-system failures, and must not be masked.
        """
        try:
            return cls(value=fn(*args))
        except GekkoError as err:
            return cls.from_error(err)

    @classmethod
    def from_error(cls, err: GekkoError) -> "RpcResponse":
        """A GekkoFS error a handler raised, as the wire carries it."""
        return cls(error=RemoteError(err.errno, str(err), getattr(err, "retry_after", None)))

    @classmethod
    def throttled(cls, message: str, retry_after: Optional[float] = None) -> "RpcResponse":
        """An admission-control rejection, as put on the wire.

        Built by the daemon-side scheduler *without* invoking any
        handler; the client's ``result()`` rehydrates it as
        :class:`~repro.common.errors.AgainError`.
        """
        return cls(error=RemoteError(_errno.EAGAIN, message, retry_after))
