"""Wire codec: framing, tagged values, and estimator reconciliation."""

from __future__ import annotations

import collections
import enum
import os
import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.codec import (
    FLAG_BULK_READONLY,
    FLAG_HAS_BULK,
    HEADER_SIZE,
    KIND_PUSH,
    KIND_REQUEST,
    KIND_RESPONSE,
    STATUS_ERROR,
    STATUS_OK,
    FrameError,
    decode_request_body,
    decode_response_body,
    dumps,
    encode_request_body,
    encode_response_body,
    loads,
    pack_frame,
    pack_push,
    unpack_header,
)
from repro.core.chunking import pack_spans, reply_proofs
from repro.core.cluster import GekkoFSCluster
from repro.core.config import FSConfig
from repro.rpc.message import ENVELOPE_BYTES, RpcRequest, RpcResponse


def framed_request_size(request: RpcRequest) -> int:
    """What a socket server prices ``request`` at: the size of the control
    frame it read (a bulk exposure is out of band)."""
    return decode_request_body(encode_request_body(request), None).wire_size


def framed_reply_size(response: RpcResponse) -> int:
    """What a socket server prices the reply at: the size of the control
    frame it writes for ``response``."""
    request = decode_request_body(encode_request_body(RpcRequest(0, "h")), None)
    return request.reply_size(response)


class TestTaggedValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            127,
            -128,
            128,
            2**31 - 1,
            -(2**31),
            2**63 - 1,
            -(2**63),
            2**64 + 17,  # gxh64 digests exceed i64 — must survive
            -(2**100),
            3.14159,
            float("inf"),
            b"",
            b"\x00\xff" * 100,
            "",
            "path/with/é中文",
            [],
            [1, "two", b"three", None],
            (),
            (1, (2, (3,))),
            {},
            {"k": 1, "nested": {"a": [1, 2]}, "id": 7},
            [(0, 0, 512), (1, 64, 448)],  # chunk span lists
        ],
    )
    def test_round_trip_exact(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_and_list_stay_distinct(self):
        # In-process transports never serialise, so socket transports must
        # hand handlers the same container types they would have seen.
        assert loads(dumps((1, 2))) == (1, 2)
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)
        assert isinstance(loads(dumps([(1, 2)]))[0], tuple)

    def test_bool_not_confused_with_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert loads(dumps(1)) is not True

    def test_unsupported_type_raises_type_error(self):
        with pytest.raises(TypeError, match="cannot cross the RPC wire"):
            dumps(object())
        with pytest.raises(TypeError):
            dumps({"ok": {1, 2}})

    def test_trailing_bytes_are_a_framing_bug(self):
        with pytest.raises(FrameError, match="trailing"):
            loads(dumps(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(FrameError, match="unknown wire tag"):
            loads(b"\xfe")


def _frozen_encode(obj, out: bytearray) -> None:
    """The encoder as it stood before the type-dispatch rewrite, kept as the
    reference: the wire format is what it wrote, byte for byte."""
    if obj is None:
        out.append(0x00)
    elif obj is True:
        out.append(0x02)
    elif obj is False:
        out.append(0x01)
    elif type(obj) is int or (isinstance(obj, int) and not isinstance(obj, bool)):
        if -128 <= obj <= 127:
            out.append(0x03)
            out += struct.pack("!b", obj)
        elif -2147483648 <= obj <= 2147483647:
            out.append(0x04)
            out += struct.pack("!i", obj)
        elif -(1 << 63) <= obj < (1 << 63):
            out.append(0x05)
            out += struct.pack("!q", obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(0x06)
            out += struct.pack("!I", len(raw))
            out += raw
    elif isinstance(obj, float):
        out.append(0x07)
        out += struct.pack("!d", obj)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        out.append(0x08)
        out += struct.pack("!I", len(raw))
        out += raw
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(0x09)
        out += struct.pack("!I", len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out.append(0x0B if isinstance(obj, tuple) else 0x0A)
        out += struct.pack("!I", len(obj))
        for item in obj:
            _frozen_encode(item, out)
    elif isinstance(obj, dict):
        out.append(0x0C)
        out += struct.pack("!I", len(obj))
        for key, value in obj.items():
            _frozen_encode(key, out)
            _frozen_encode(value, out)
    else:
        raise TypeError(
            f"type {type(obj).__name__} cannot cross the RPC wire "
            f"(supported: None/bool/int/float/bytes/str/list/tuple/dict)"
        )


def _frozen_dumps(obj) -> bytes:
    out = bytearray()
    _frozen_encode(obj, out)
    return bytes(out)


class _Lane(enum.IntEnum):
    META = 0
    DATA = 300


_Span = collections.namedtuple("_Span", "chunk_id offset length")

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: every width, the bigint arm included
    st.integers(-130, 130),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63 - 1, 2**63, -(2**63) - 1]),
    st.sampled_from(list(_Lane)),
    st.floats(allow_nan=False),
    st.binary(max_size=40),
    st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
    st.text(max_size=20),
)
_keys = st.one_of(st.text(max_size=8), st.integers(-300, 300), st.binary(max_size=8))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.tuples(st.integers(0, 9), st.integers(), st.integers(0, 2**40)).map(
            lambda t: _Span(*t)),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3).map(collections.OrderedDict),
    ),
    max_leaves=12,
)


class TestFrozenEncoderParity:
    @given(_values)
    def test_same_bytes_and_a_plain_value_back(self, value):
        wire = dumps(value)
        assert wire == _frozen_dumps(value)
        # Subclasses and buffer types decode to their plain base, and that
        # re-encodes to the same bytes.
        assert dumps(loads(wire)) == wire
        assert loads(memoryview(bytearray(wire))) == loads(wire)

    def test_nan_and_negative_zero_bit_patterns(self):
        for value in (float("nan"), -0.0, float("-inf")):
            assert dumps(value) == _frozen_dumps(value)

    @pytest.mark.parametrize("value", [object(), {1, 2}, [1, {2}], {"k": (1, 2j)}, range(3)])
    def test_unsupported_type_same_text(self, value):
        with pytest.raises(TypeError) as frozen:
            _frozen_dumps(value)
        with pytest.raises(TypeError) as live:
            dumps(value)
        assert str(live.value) == str(frozen.value)

    @given(st.integers(0x0D, 0xFF), st.binary(max_size=8))
    def test_every_unknown_tag_is_a_frame_error(self, tag, rest):
        with pytest.raises(FrameError, match=f"unknown wire tag 0x{tag:02x} at offset 0"):
            loads(bytes([tag]) + rest)

    @given(_values, st.binary(min_size=1, max_size=4))
    def test_trailing_bytes_after_any_value(self, value, extra):
        with pytest.raises(FrameError, match=f"{len(extra)} trailing bytes"):
            loads(dumps(value) + extra)


class TestFrames:
    def test_header_is_exactly_the_modelled_envelope(self):
        # The whole point: what the models call ENVELOPE_BYTES is now the
        # literal frame header on the socket.
        assert HEADER_SIZE == ENVELOPE_BYTES
        frame = pack_frame(KIND_REQUEST, 1)
        assert len(frame) == HEADER_SIZE

    def test_header_round_trip(self):
        raw = pack_frame(
            KIND_RESPONSE, 0xDEAD, b"body", flags=FLAG_HAS_BULK, aux1=7, aux2=9
        )
        assert unpack_header(raw) == (KIND_RESPONSE, FLAG_HAS_BULK, 0xDEAD, 4, 7, 9)

    def test_foreign_magic_rejected(self):
        with pytest.raises(FrameError, match="magic"):
            unpack_header(b"HTTP" + b"\x00" * (HEADER_SIZE - 4))

    def test_torn_frame_rejected(self):
        good = bytearray(pack_frame(KIND_REQUEST, 1, b"x"))
        good[0] ^= 0xFF
        with pytest.raises(FrameError):
            unpack_header(bytes(good))

    def test_version_mismatch_rejected(self):
        raw = bytearray(pack_frame(KIND_REQUEST, 1))
        raw[4] += 1  # version byte
        with pytest.raises(FrameError, match="version"):
            unpack_header(bytes(raw))

    def test_v1_frame_rejection_names_both_versions(self):
        # What a PR-6 peer (two sockets, HELLO handshake) would send first.
        raw = bytearray(pack_frame(KIND_REQUEST, 0))
        raw[4] = 1
        with pytest.raises(FrameError, match=r"version 1\b.*version 4\b"):
            unpack_header(bytes(raw))

    def test_push_header_announces_a_separately_sent_payload(self):
        # A PUSH's payload travels as its own sendmsg buffer: pack_push states
        # its length; pack_frame only ever states the body it is given.
        raw = pack_push(3, 4096, 1 << 20)
        assert len(raw) == HEADER_SIZE
        kind, _flags, _seq, body_len, aux1, _aux2 = unpack_header(raw)
        assert (kind, body_len, aux1) == (KIND_PUSH, 1 << 20, 4096)

    def test_frame_error_is_a_delivery_failure(self):
        # Torn frames must count against daemon health like any other
        # connection loss.
        assert issubclass(FrameError, ConnectionError)


class TestRequestResponseBodies:
    def test_request_round_trip_preserves_everything(self):
        request = RpcRequest(
            target=3,
            handler="gkfs_write_chunks",
            args=("/gkfs/f", pack_spans([(17, 0, 7, 0)]), b"payload", None),
            request_id="req-abc",
            parent_span="span-xyz",
            client_id=42,
        )
        decoded = decode_request_body(encode_request_body(request), None)
        assert decoded.target == request.target
        assert decoded.handler == request.handler
        assert decoded.args == request.args
        assert decoded.request_id == request.request_id
        assert decoded.parent_span == request.parent_span
        assert decoded.client_id == request.client_id

    def test_bulk_stand_in_is_attached(self):
        request = RpcRequest(target=0, handler="h", args=())
        marker = object()
        assert decode_request_body(encode_request_body(request), marker).bulk is marker

    def test_response_statuses(self):
        status, payload = decode_response_body(
            encode_response_body(STATUS_OK, {"size": 10})
        )
        assert status == STATUS_OK and payload == {"size": 10}
        status, payload = decode_response_body(
            encode_response_body(STATUS_ERROR, (2, "gone", None))
        )
        assert status == STATUS_ERROR and payload == (2, "gone", None)


_i64 = st.integers(-(2**63) + 1, 2**63 - 1)  # -2**63 stands for None on the wire
_args = st.lists(_values, max_size=4).map(tuple)
_handlers = st.text(min_size=1, max_size=40).filter(lambda h: len(h.encode()) <= 255)


class TestWireV3Envelope:
    """The struct prefix, the handler name, the tagged args and the optional
    trace ids: every shape round-trips, malformed bodies are frame errors,
    and what the prefix cannot hold fails at issue as a ``TypeError``."""

    @given(
        target=st.integers(0, 2**32 - 1), handler=_handlers, args=_args,
        client_id=st.none() | _i64, epoch=st.none() | _i64,
        request_id=st.none() | st.text(max_size=24),
        parent_span=st.none() | st.text(max_size=24),
    )
    def test_every_envelope_shape_round_trips(self, target, handler, args, client_id,
                                              epoch, request_id, parent_span):
        request = RpcRequest(target, handler, args, None, request_id, parent_span,
                             client_id, epoch)
        body = encode_request_body(request)
        marker = object()
        decoded = decode_request_body(body, marker)
        assert (decoded.target, decoded.handler, decoded.args, decoded.bulk) == (
            target, handler, args, marker)
        assert (decoded.request_id, decoded.parent_span) == (request_id, parent_span)
        assert (decoded.client_id, decoded.epoch) == (client_id, epoch)
        assert type(decoded.args) is tuple
        assert decoded.wire_size == HEADER_SIZE + len(body)

    def test_untraced_body_is_prefix_name_and_args(self):
        request = RpcRequest(target=1, handler="gkfs_stat", args=("/gkfs/x",), epoch=4)
        body = encode_request_body(request)
        assert body[:22] == struct.pack("!IqqBB", 1, -(2**63), 4, 0, 9)
        assert body[22:31] == b"gkfs_stat"
        assert loads(body[31:]) == ("/gkfs/x",)

    def test_reply_is_a_status_byte_and_the_value(self):
        assert encode_response_body(STATUS_ERROR, (2, "gone", None)) == (
            b"\x01" + dumps((2, "gone", None)))

    @pytest.mark.parametrize("body", [
        b"", b"\x00" * 21,  # shorter than the prefix
        struct.pack("!IqqBB", 0, 0, 0, 0, 2) + b"\xff\xfe" + dumps(()),  # name not UTF-8
        encode_request_body(RpcRequest(0, "h", (1,))) + b"\x00",  # trailing bytes
        encode_request_body(RpcRequest(0, "h", (1,), request_id="r")) + b"\x00",
        encode_request_body(RpcRequest(0, "h", (1,)))[:-1],  # torn args
        struct.pack("!IqqBB", 0, 0, 0, 0, 1) + b"h" + dumps(7),  # args not a tuple
        struct.pack("!IqqBB", 0, 0, 0, 0, 1) + b"h" + dumps([7]),
        struct.pack("!IqqBB", 0, 0, 0, 1, 1) + b"h" + dumps(()) + dumps(3),  # no parent span
    ])
    def test_malformed_request_body_is_a_frame_error(self, body):
        with pytest.raises(FrameError):
            decode_request_body(body, None)

    @pytest.mark.parametrize("body", [
        b"", b"\x07" + dumps(1), b"\x00" + dumps(1) + b"\x00",
        b"\x00" + dumps([1, 2])[:-1],  # torn value
        b"\x00\x0c\x00\x00\x00\x01" + dumps([1]) + dumps(2),  # unhashable dict key
        b"\x00" + b"\x0a\x00\x00\x00\x01" * 100_000,  # nested past the recursion limit
    ])
    def test_malformed_response_body_is_a_frame_error(self, body):
        with pytest.raises(FrameError):
            decode_response_body(body)

    @pytest.mark.parametrize("request_", [
        RpcRequest(-1, "h"),
        RpcRequest(2**32, "h"),
        RpcRequest(0, "h", client_id=2**63),
        RpcRequest(0, "h", client_id=-(2**63)),  # the absent sentinel
        RpcRequest(0, "h", epoch=-(2**63) - 1),
        RpcRequest(0, "h", epoch=1.5),
        RpcRequest(0, "x" * 256),
    ], ids=["target<0", "target>u32", "client>i64", "client=sentinel", "epoch<i64",
            "epoch-float", "name>255"])
    def test_what_the_prefix_cannot_hold_is_a_type_error(self, request_):
        with pytest.raises(TypeError, match="cannot cross the wire"):
            encode_request_body(request_)


#: Requests shaped like the real handler traffic the file system issues.
_REPRESENTATIVE_REQUESTS = [
    RpcRequest(target=0, handler="gkfs_stat", args=("/gkfs/some/deep/path.txt",)),
    RpcRequest(target=3, handler="gkfs_create", args=("/gkfs/f", b"x" * 120, False)),
    RpcRequest(
        target=1,
        handler="gkfs_write_chunks",
        args=("/gkfs/f", pack_spans([(17, 0, 512, 0)]), b"y" * 512, None),
    ),
    RpcRequest(
        target=2,
        handler="gkfs_read_chunks",
        args=("/gkfs/f", pack_spans([(0, 0, 512, 0), (1, 0, 512, 512), (2, 0, 100, 1024)])),
    ),
    RpcRequest(target=0, handler="gkfs_update_size", args=("/gkfs/f", 1048576, False)),
    RpcRequest(target=0, handler="gkfs_readdir", args=("/gkfs",)),
    RpcRequest(target=0, handler="gkfs_statfs", args=()),
    RpcRequest(
        target=5,
        handler="gkfs_metrics",
        args=(),
        request_id="req-0123456789abcdef",
        parent_span="span-0123456789abcdef",
        client_id=7,
    ),
]


@pytest.fixture(scope="module")
def captured_replies() -> dict:
    """One real reply per shape, from handlers run in process with
    integrity on: a stat record, an inline 8 KiB read with its proofs, a
    1 MiB read pushed through a bulk handle, a readdir page, a throttle."""
    seen: dict = {}
    config = FSConfig(integrity_enabled=True, integrity_block_size=4096)
    with GekkoFSCluster(num_nodes=2, config=config) as fs:
        for daemon in fs.daemons:
            def handle(request, real=daemon.engine.handle):
                response = real(request)
                seen.setdefault(request.handler, []).append(response)
                return response

            daemon.engine.handle = handle
        client = fs.client(0)
        client.mkdir("/gkfs/d", 0o755)
        for i in range(40):
            client.close(client.open(f"/gkfs/d/file-{i:04d}.dat", os.O_CREAT | os.O_RDWR))
        client.listdir("/gkfs/d")
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, os.urandom(1 << 20), 0)
        client.stat("/gkfs/f")
        client.pread(fd, 8192, 4096)
        inline = seen["gkfs_read_chunks"][-1]
        client.pread(fd, 1 << 20, 0)
        pushed = seen["gkfs_read_chunks"][-1]
    assert inline.value[3] is not None and reply_proofs(inline.value, 4096)[0]
    assert pushed.value[3] is None and pushed.value[0] >= 1 << 19
    return {
        "stat": seen["gkfs_stat"][-1],
        "read_inline_8k": inline,
        "read_pushed_1m": pushed,
        "readdir": seen["gkfs_readdir"][-1],
        "throttle": RpcResponse.throttled("daemon 0 meta lane at queue limit 256", 0.0012),
    }


class TestEstimatorReconciliation:
    """Pin :func:`estimate_wire_size`, the model of a frame, to the real
    frames.

    Over a socket every RPC is priced by its frame.  Where no frame exists
    — the instrumented transport, the in-process engines' counters and QoS
    cost model, and the DES network model — ``wire_size`` is this model;
    this is the contract that those charges track what a socket would
    carry, in both directions.
    """

    @pytest.mark.parametrize(
        "shape", ["stat", "read_inline_8k", "read_pushed_1m", "readdir", "throttle"]
    )
    def test_reply_estimate_within_pinned_tolerance(self, captured_replies, shape):
        response = captured_replies[shape]
        estimated = RpcResponse(value=response.value, error=response.error).wire_size
        real = framed_reply_size(response)
        tolerance = max(32, int(0.2 * estimated))
        assert abs(real - estimated) <= tolerance, (
            f"{shape}: estimated {estimated}, real {real}, tolerance {tolerance}"
        )
        assert response.wire_size == real  # stamped: the frame, not the model

    @pytest.mark.parametrize(
        "request_", _REPRESENTATIVE_REQUESTS, ids=lambda r: r.handler
    )
    def test_estimate_within_pinned_tolerance(self, request_):
        estimated = request_.wire_size
        real = framed_request_size(request_)
        tolerance = max(32, int(0.2 * estimated))
        assert abs(real - estimated) <= tolerance, (
            f"{request_.handler}: estimated {estimated}, real {real}, "
            f"tolerance {tolerance}"
        )

    def test_payload_bytes_dominate_both(self):
        # For data-plane sizes the two must agree to within the envelope
        # noise — a 1 MiB inline payload is ~1 MiB on either meter.
        request = RpcRequest(
            target=0,
            handler="gkfs_write_chunks",
            args=("/f", pack_spans([(0, 0, 1 << 20, 0)]), b"z" * (1 << 20), None),
        )
        assert abs(framed_request_size(request) - request.wire_size) < 256

    def test_trace_ids_are_charged_when_set(self):
        bare = RpcRequest(target=0, handler="gkfs_stat", args=("/gkfs/x",))
        traced = RpcRequest(
            target=0,
            handler="gkfs_stat",
            args=("/gkfs/x",),
            request_id="req-0123456789abcdef",
            parent_span="span-0123456789abcdef",
            client_id=3,
        )
        # Real frames grow when ids travel; the estimator must follow.
        assert framed_request_size(traced) > framed_request_size(bare)
        assert traced.wire_size > bare.wire_size

    def test_untraced_estimate_unchanged_by_telemetry_fields(self):
        # Telemetry off ⇒ ids are None ⇒ accounted size is exactly the
        # pre-telemetry formula (models stay calibrated).
        from repro.rpc.message import ENVELOPE_BYTES, estimate_wire_size

        request = RpcRequest(target=0, handler="gkfs_stat", args=("/gkfs/x",))
        assert request.wire_size == ENVELOPE_BYTES + len("gkfs_stat") + (
            estimate_wire_size(("/gkfs/x",))
        )
