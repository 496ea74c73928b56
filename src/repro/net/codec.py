"""Binary wire format for socket RPC: frames, frame I/O, tagged value codec.

Every message on a GekkoFS socket is one *frame*: a fixed
:data:`HEADER_SIZE`-byte header, a body and — for the two kinds that move
chunk data — a raw payload.  The header is deliberately sized to
:data:`~repro.rpc.message.ENVELOPE_BYTES`, the per-message envelope the
performance models have charged for since PR 1 — what the models call
"Mercury headers" is literally the bytes on the wire, which is what lets
``tests/test_net_codec.py`` reconcile :func:`estimate_wire_size` against
reality.

One connection carries all three kinds, in order: ``REQUEST`` (a read-only
bulk exposure rides *behind the body of the same frame*, ``aux1`` bytes),
``PUSH`` (``body_len`` raw bytes for offset ``aux1`` of the caller's
exposed buffer) and ``RESPONSE`` (``aux1``/``aux2`` = bytes the handler
pulled/pushed).  A stream delivers in the order written, so an exposure is
there when its header is and every ``PUSH`` of a request precedes its
``RESPONSE``: no handshake, parking table or completion barrier restores
an order that is never lost.

A body packs its fixed-layout part with one ``struct`` call and pays the
tagged codec for its variable values only.  A request body is a 22-byte
prefix — target (u32), client id and epoch (i64, :data:`_ABSENT` for
``None``), traced flag and handler-name length (u8 each) — then the UTF-8
handler name, the tagged args tuple and, only when traced, the tagged
``request_id`` and ``parent_span``.  A response body is one status byte, then
the tagged value.  The tagged codec (:func:`dumps`/:func:`loads`) covers
exactly the types that cross the RPC boundary: ``None``, bools, ints of any
size, floats, ``bytes``, ``str``, lists, tuples (distinct from lists so
decoded args compare equal to what in-process transports deliver), and
dicts.  No pickle anywhere — a malicious or corrupt peer can only produce
these plain values, never code execution.  Neither a body nor a payload is
joined to its header: :func:`send_frame` hands the caller's buffers to
``sendmsg`` as they are, :func:`recv_full` receives each straight into its
destination, and an RPC is priced by its frames (:class:`FramedRequest`),
never by a walk.
"""

from __future__ import annotations

import select
import socket
import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Any, Callable, Optional, Tuple

from repro.rpc.message import ENVELOPE_BYTES, RpcRequest, RpcResponse

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "WIRE_VERSION",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_PUSH",
    "FLAG_HAS_BULK",
    "FLAG_BULK_READONLY",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_FAULT",
    "FrameError",
    "FramedRequest",
    "dumps",
    "loads",
    "pack_header",
    "pack_head",
    "pack_frame",
    "pack_push",
    "unpack_header",
    "send_frame",
    "recv_full",
    "wait_io",
    "encode_request_body",
    "decode_request_body",
    "encode_response_body",
    "decode_response_body",
    "response_status",
]

#: Wire magic: first bytes of every frame header.
MAGIC = b"GKFS"
#: Protocol version; bumped on any incompatible layout change (1: two
#: sockets per channel paired by a HELLO handshake; 2: one ordered stream;
#: 3: a fixed struct envelope in front of the tagged args; 4: the chunk
#: RPCs' span tables, write digests and read proofs as packed arrays and a
#: flat read reply).
WIRE_VERSION = 4

# Frame kinds.
KIND_REQUEST = 1  # one RPC request, read-only exposure appended
KIND_RESPONSE = 2  # one RPC response
KIND_PUSH = 3  # daemon -> client: one pushed segment of a bulk read

# Header flags.
FLAG_HAS_BULK = 0x01  # request travels with a bulk exposure of aux1 bytes
FLAG_BULK_READONLY = 0x02  # ... read-only (pull-only): its bytes follow the body

# Response statuses.
STATUS_OK = 0  # body is the handler value
STATUS_ERROR = 1  # body is (errno, message, retry_after) — a GekkoFS error
STATUS_FAULT = 2  # body is (type_name, message) — a non-GekkoFS exception

#: Fixed header layout: magic, version, kind, flags, seq, body_len,
#: aux1, aux2, then zero padding out to ENVELOPE_BYTES.  ``aux1``/``aux2``
#: are per-kind scalars: requests put the bulk exposure size in aux1;
#: responses put bytes-pulled in aux1 and bytes-pushed in aux2; pushes put
#: the destination offset in aux1.
_HEADER = struct.Struct("!4sBBHIIQQ32x")
HEADER_SIZE = _HEADER.size
if HEADER_SIZE != ENVELOPE_BYTES:  # the models charge exactly this envelope
    raise ImportError(f"frame header is {HEADER_SIZE} bytes, models charge {ENVELOPE_BYTES}")


class FrameError(ConnectionError):
    """A torn, truncated, or foreign frame — the connection is unusable."""


#: The header's pack with magic and version bound, then kind, flags, seq (u32),
#: body_len, aux1, aux2: what the per-RPC paths call, with no Python frame.
pack_head = partial(_HEADER.pack, MAGIC, WIRE_VERSION)


def pack_header(kind: int, seq: int, body_len: int, *, flags: int = 0,
                aux1: int = 0, aux2: int = 0) -> bytes:
    """One frame header stating ``body_len``; the body follows as its own
    ``sendmsg`` buffer (:func:`send_frame`)."""
    return pack_head(kind, flags, seq & 0xFFFFFFFF, body_len, aux1, aux2)


def pack_frame(kind: int, seq: int, body: bytes = b"", *, flags: int = 0,
               aux1: int = 0, aux2: int = 0) -> bytes:
    """One whole frame as one ``bytes``: header, then a copy of ``body``."""
    return pack_header(kind, seq, len(body), flags=flags, aux1=aux1, aux2=aux2) + body


def pack_push(seq: int, offset: int, length: int) -> bytes:
    """Header of the ``PUSH`` of ``length`` raw bytes for ``offset``."""
    return pack_header(KIND_PUSH, seq, length, aux1=offset)


def unpack_header(buf) -> Tuple[int, int, int, int, int, int]:
    """Decode one :data:`HEADER_SIZE`-byte header, validating magic/version:
    ``(kind, flags, seq, body_len, aux1, aux2)``."""
    magic, version, kind, flags, seq, body_len, aux1, aux2 = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (torn or foreign stream)")
    if version != WIRE_VERSION:
        raise FrameError(
            f"peer speaks wire version {version}, this side wire version {WIRE_VERSION}"
        )
    return kind, flags, seq, body_len, aux1, aux2


# -- frame I/O ---------------------------------------------------------------


def wait_io(sock: socket.socket, timeout: Optional[float], *,
            read: bool = True, write: bool = False) -> int:
    """Block until ``sock`` is readable and/or writable: the ``poll`` event
    mask, or 0 on timeout.  Hang-up, error and a descriptor closed under the
    poll count as ready — the I/O call that follows reports them; one
    already closed (by another thread: shutdown, re-point) is reported here."""
    fd = sock.fileno()
    if fd < 0:
        raise ConnectionError("connection closed")
    poller = select.poll()
    poller.register(fd, (select.POLLIN if read else 0) | (select.POLLOUT if write else 0))
    events = poller.poll(None if timeout is None else max(0.0, timeout) * 1000.0)
    return events[0][1] if events else 0


def send_frame(sock: socket.socket, bufs: list, size: int,
               on_full: Optional[Callable[[], None]] = None) -> None:
    """Write one frame — ``bufs``: its header, body, and any payload,
    ``size`` bytes in all — as one scatter/gather ``sendmsg`` loop, each
    buffer handed over as it is (``bufs`` is consumed), under the caller's
    write lock.  With ``on_full`` the sends do not block: whenever the
    socket takes no more, ``on_full()`` waits for room (and may receive
    meanwhile) and the send resumes where it stopped."""
    flags = 0 if on_full is None else socket.MSG_DONTWAIT
    while True:
        try:
            sent = sock.sendmsg(bufs, (), flags)
        except BlockingIOError:
            on_full()
            continue
        size -= sent
        if not size:
            return
        while sent >= len(bufs[0]):
            sent -= len(bufs.pop(0))
        if sent:
            bufs[0] = memoryview(bufs[0])[sent:]


def recv_full(sock: socket.socket, dest: memoryview,
              patience: Optional[float] = None) -> None:
    """Fill ``dest`` from the stream by ``recv_into`` ``dest`` itself: a
    payload lands where it is going, and nothing is appended, sliced off
    or copied to reassemble.  ``patience`` bounds how long the peer may
    stay silent before the next piece (then ``ConnectionError``)."""
    size = len(dest)
    while size:
        if patience is not None and not wait_io(sock, patience):
            raise ConnectionError(f"peer silent for {patience}s in the middle of a frame")
        count = sock.recv_into(dest)
        if not count:
            raise ConnectionError("connection closed by peer")
        size -= count
        dest = dest[count:]


# -- tagged value codec ------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT8 = 0x03  # signed, 1 byte
_T_INT32 = 0x04  # signed, 4 bytes
_T_INT64 = 0x05  # signed, 8 bytes
_T_BIGINT = 0x06  # u32 length + signed big-endian bytes
_T_FLOAT = 0x07  # IEEE double
_T_BYTES = 0x08  # u32 length + raw
_T_STR = 0x09  # u32 length + utf-8
_T_LIST = 0x0A  # u32 count + items
_T_TUPLE = 0x0B  # u32 count + items
_T_DICT = 0x0C  # u32 count + key/value pairs

# Tag and value (or tag and length) packed by one struct call.
_pack_tag_i8 = struct.Struct("!Bb").pack
_pack_tag_i32 = struct.Struct("!Bi").pack
_pack_tag_i64 = struct.Struct("!Bq").pack
_pack_tag_u32 = struct.Struct("!BI").pack
_pack_tag_f64 = struct.Struct("!Bd").pack
_unpack_i8 = struct.Struct("!b").unpack_from
_unpack_i32 = struct.Struct("!i").unpack_from
_unpack_i64 = struct.Struct("!q").unpack_from
_unpack_u32 = struct.Struct("!I").unpack_from
_unpack_f64 = struct.Struct("!d").unpack_from
_unpack_tag_u32 = struct.Struct("!BI").unpack_from
_NONE, _FALSE, _TRUE = bytes([_T_NONE]), bytes([_T_FALSE]), bytes([_T_TRUE])


def _encode(values, parts: list, kind: Optional[type] = None) -> None:
    """Append the tagged form of each of ``values`` to ``parts``, in order.
    A container writes its tag and count, then recurses once for all its
    items: one visit per container, not per value."""
    # One dispatch on the exact type, ordered by hot-path frequency: ints
    # (offsets/lengths/ids), str (paths, handler names), bytes (inline
    # payloads, metadata records), containers, then the singletons.  A
    # subclass instance (IntEnum, namedtuple, OrderedDict, ...) re-enters
    # alone with its base as ``kind`` and is written by that arm as it is.
    for obj in values:
        cls = kind or type(obj)
        if cls is int:
            if -128 <= obj <= 127:
                parts.append(_pack_tag_i8(_T_INT8, obj))
            elif -2147483648 <= obj <= 2147483647:
                parts.append(_pack_tag_i32(_T_INT32, obj))
            elif -(1 << 63) <= obj < (1 << 63):
                parts.append(_pack_tag_i64(_T_INT64, obj))
            else:
                raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
                parts += (_pack_tag_u32(_T_BIGINT, len(raw)), raw)
        elif cls is str:
            raw = obj.encode("utf-8")
            parts += (_pack_tag_u32(_T_STR, len(raw)), raw)
        elif cls is bytes:
            parts += (_pack_tag_u32(_T_BYTES, len(obj)), obj)
        elif cls is tuple or cls is list:
            parts.append(_pack_tag_u32(_T_TUPLE if cls is tuple else _T_LIST, len(obj)))
            _encode(obj, parts)
        elif obj is None:
            parts.append(_NONE)
        elif cls is bool:
            parts.append(_TRUE if obj else _FALSE)
        elif cls is float:
            parts.append(_pack_tag_f64(_T_FLOAT, obj))
        elif cls is dict:  # its count, then key, value, key, value, ...
            parts.append(_pack_tag_u32(_T_DICT, len(obj)))
            _encode(chain.from_iterable(obj.items()), parts)
        elif isinstance(obj, (bytearray, memoryview)):
            _encode((bytes(obj),), parts)
        else:
            for base in (int, float, bytes, str, tuple, list, dict):
                if isinstance(obj, base):
                    _encode((obj,), parts, base)
                    break
            else:
                raise TypeError(
                    f"type {type(obj).__name__} cannot cross the RPC wire "
                    f"(supported: None/bool/int/float/bytes/str/list/tuple/dict)"
                )


def dumps(obj: Any) -> bytes:
    """Encode one value to its tagged wire form."""
    parts: list = []
    _encode((obj,), parts)
    return b"".join(parts)


def _decode(buf, offset: int, count: int, size: int, whole: bool = False) -> Tuple[list, int]:
    """The ``count`` tagged values at ``offset`` of the ``size``-byte ``buf``,
    and the offset after them (which must be ``size`` when ``whole``); as
    :func:`_encode`, a container recurses once for all its items.  Each value
    takes a byte at least, so a count the bytes left cannot hold is refused
    before anything is allocated."""
    if offset + count > size:
        raise FrameError(f"{count} values announced at offset {offset} of {size} bytes")
    values = [None] * count
    for index in range(count):
        # Tags tested in hot-path order, as in :func:`_encode`.
        tag = buf[offset]
        offset += 1
        if tag == _T_INT8:
            value, offset = _unpack_i8(buf, offset)[0], offset + 1
        elif tag == _T_STR:
            end = offset + 4 + _unpack_u32(buf, offset)[0]
            value, offset = str(buf[offset + 4:end], "utf-8"), end
        elif tag == _T_TUPLE or tag == _T_LIST:
            value, offset = _decode(buf, offset + 4, _unpack_u32(buf, offset)[0], size)
            if tag == _T_TUPLE:
                value = tuple(value)
        elif tag == _T_NONE:
            value = None
        elif tag == _T_BYTES:
            end = offset + 4 + _unpack_u32(buf, offset)[0]
            value, offset = bytes(buf[offset + 4:end]), end
        elif tag == _T_INT32:
            value, offset = _unpack_i32(buf, offset)[0], offset + 4
        elif tag == _T_INT64:
            value, offset = _unpack_i64(buf, offset)[0], offset + 8
        elif tag == _T_TRUE or tag == _T_FALSE:
            value = tag == _T_TRUE
        elif tag == _T_FLOAT:
            value, offset = _unpack_f64(buf, offset)[0], offset + 8
        elif tag == _T_DICT:
            items, offset = _decode(buf, offset + 4, 2 * _unpack_u32(buf, offset)[0], size)
            value = dict(zip(items[::2], items[1::2]))
        elif tag == _T_BIGINT:
            end = offset + 4 + _unpack_u32(buf, offset)[0]
            value, offset = int.from_bytes(buf[offset + 4:end], "big", signed=True), end
        else:
            raise FrameError(f"unknown wire tag 0x{tag:02x} at offset {offset - 1}")
        values[index] = value
    if whole and offset != size:
        raise FrameError(f"{size - offset} trailing bytes after value")
    return values, offset


def loads(buf) -> Any:
    """Decode one tagged value; trailing bytes are a framing bug."""
    return _decode(buf, 0, 1, len(buf), True)[0][0]


# -- request/response bodies -------------------------------------------------

_PREFIX = struct.Struct("!IqqBB")  # the request-body prefix (module docstring)
_ABSENT = -(1 << 63)
#: What the tagged codec raises on bytes it did not write.
_MALFORMED = (IndexError, TypeError, ValueError, RecursionError, struct.error)


def encode_request_body(request: RpcRequest) -> bytes:
    """The control-frame body of one request (an exposure follows it raw);
    what the prefix cannot hold is a ``TypeError``, like an unwritable arg."""
    handler = request.handler.encode("utf-8")
    client_id, epoch = request.client_id, request.epoch
    request_id, parent_span = request.request_id, request.parent_span
    traced = request_id is not None or parent_span is not None
    try:
        if _ABSENT in (client_id, epoch):
            raise struct.error("the absent sentinel is not a value")
        prefix = _PREFIX.pack(request.target, _ABSENT if client_id is None else client_id,
                              _ABSENT if epoch is None else epoch, traced, len(handler))
    except struct.error as exc:
        raise TypeError(
            f"RPC envelope of {request.handler!r} cannot cross the wire: {exc}") from None
    args = request.args
    parts = [prefix, handler, _pack_tag_u32(_T_TUPLE, len(args))]
    _encode(args, parts)
    if traced:
        _encode((request_id, parent_span), parts)
    return b"".join(parts)


@dataclass(slots=True)
class FramedRequest(RpcRequest):
    """A request read off a socket, stamped with the size of its frame.
    The engine prices the reply (:meth:`reply_size`) before the share
    ledger and its counters fold it in: the body is encoded then, and the
    server sends that very body (:attr:`reply_body`)."""

    reply_body: Optional[bytes] = field(default=None, repr=False, compare=False)

    def reply_size(self, response: RpcResponse) -> int:
        self.reply_body = body = (
            encode_response_body(STATUS_OK, response.value) if response.error is None
            else encode_response_body(*response_status(response)))
        response._wire_size = size = HEADER_SIZE + len(body)
        return size


def decode_request_body(body, seq_bulk: Optional[Any]) -> FramedRequest:
    """Rebuild the request; ``seq_bulk`` is the server-side bulk stand-in."""
    size = len(body)
    try:
        target, client_id, epoch, traced, name_len = _PREFIX.unpack_from(body)
        start = _PREFIX.size + name_len
        handler = str(body[_PREFIX.size:start], "utf-8")
        tag, count = _unpack_tag_u32(body, start)
        # The args' items, then the two trace ids when traced: one visit.
        values, _ = _decode(body, start + 5, count + 2 if traced else count, size, True)
    except _MALFORMED as exc:
        raise FrameError(f"malformed request body: {exc!r}") from None
    if tag != _T_TUPLE:
        raise FrameError(f"request args carry wire tag 0x{tag:02x}, not a tuple")
    request_id, parent_span = values[count:] if traced else (None, None)
    return FramedRequest(
        target, handler, tuple(values[:count]), seq_bulk, request_id, parent_span,
        None if client_id == _ABSENT else client_id, None if epoch == _ABSENT else epoch,
        HEADER_SIZE + size,  # priced by the frame it came in
    )


def encode_response_body(status: int, payload: Any) -> bytes:
    """The control-frame body of one response: the status byte, then the
    tagged ``payload`` — the handler value (:data:`STATUS_OK`), an
    ``(errno, message, retry_after)`` triple (:data:`STATUS_ERROR`), or a
    ``(type_name, message)`` pair (:data:`STATUS_FAULT`)."""
    parts = [bytes((status,))]
    _encode((payload,), parts)
    return b"".join(parts)


def response_status(response: RpcResponse) -> Tuple[int, Any]:
    """The ``(status, payload)`` that carries ``response`` on the wire."""
    error = response.error
    if error is None:
        return STATUS_OK, response.value
    return STATUS_ERROR, (error.errno, str(error), error.retry_after)


def decode_response_body(body) -> Tuple[int, Any]:
    """``(status, payload)``; a body the codec did not write: FrameError."""
    size = len(body)
    if not size or body[0] > STATUS_FAULT:
        raise FrameError("response body without a known status byte")
    try:
        return body[0], _decode(body, 1, 1, size, True)[0][0]
    except _MALFORMED as exc:
        raise FrameError(f"malformed response body: {exc!r}") from None
