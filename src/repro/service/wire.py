"""The socket transport's wire format: length-prefixed, struct-packed frames.

The TCP transport (:mod:`repro.service.net`) moves the *same* RPC payloads
the in-process dispatcher passes by reference — method names, register keys,
arbitrary written values, :class:`~repro.protocol.timestamps.Timestamp`
objects (honest and forged), signature bytes and
:class:`~repro.simulation.server.StoredValue` replies — so the codec must be
a bijection on that whole value space.  A frame is a 4-byte big-endian
length prefix followed by the body; a body is the magic byte ``0xB1``
followed by one tag-prefixed value:

====  ======  ========================================================
tag   type    layout after the tag byte
====  ======  ========================================================
0x00  None    (nothing)
0x01  True    (nothing)
0x02  False   (nothing)
0x03  int     ``!q``
0x04  int     ``!I`` byte length + signed big-endian magnitude (beyond int64)
0x05  float   ``!d``
0x06  str     ``!I`` byte length + UTF-8
0x07  bytes   ``!I`` byte length + raw bytes
0x08  list    ``!I`` count + items
0x09  tuple   ``!I`` count + items
0x0A  dict    ``!I`` count + key/value pairs (keys need not be strings)
0x0B  ts      ``!qq`` ``Timestamp(counter, writer_id)``
0x0C  ts      two packed ints (beyond int64: forged timestamps)
0x0D  sv      ``StoredValue(value, timestamp, signature)``, each packed
====  ======  ========================================================

so an RPC request/response tuple costs a handful of ``struct`` packs.
``decode(encode(x)) == x`` for every supported payload — the hypothesis
suite in ``tests/service/test_wire.py`` pins the round trips down,
including adversarially large and empty values.

The magic byte is the **wire version**: a body opening with anything else
(a legacy text-encoded frame, garbage) raises
:class:`~repro.exceptions.WireFormatError`, which costs the sending peer its
connection and nothing more.  There is no handshake.  Request envelopes are
``("req", request_id, server, method, args)``; a traced client appends its
64-bit trace id as a sixth element, and every server accepts both lengths.
:func:`dump` renders any frame as readable text for debugging.

:class:`FrameDecoder` is an *incremental* decoder: feed it whatever chunks
the socket produced — single bytes, frame fragments, several frames glued
together — and it yields each complete payload exactly once, holding
partial frames until the rest arrives.  Frames beyond
:data:`MAX_FRAME_BYTES` raise :class:`~repro.exceptions.WireFormatError`
*before* the body is buffered, bounding the memory a malformed (or hostile)
peer can pin.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import ProtocolError, WireFormatError
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import StoredValue

#: Hard cap on one frame's body size (prefix excluded).  Large enough for
#: any realistic register value, small enough that a corrupt length prefix
#: cannot make the decoder buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Length-prefix width in bytes (big-endian, unsigned).
_PREFIX_BYTES = 4

# -- values ------------------------------------------------------------------------

#: First body byte of every frame: the wire version.  0xB1 is a UTF-8
#: continuation byte, so no UTF-8 text body can open with it.
BINARY_MAGIC = 0xB1

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03  # !q
_T_BIGINT = 0x04  # !I byte length + signed big-endian magnitude
_T_FLOAT = 0x05  # !d
_T_STR = 0x06  # !I byte length + UTF-8
_T_BYTES = 0x07  # !I byte length + raw bytes (no base64)
_T_LIST = 0x08  # !I count + items
_T_TUPLE = 0x09  # !I count + items
_T_DICT = 0x0A  # !I count + key/value pairs
_T_TS = 0x0B  # !qq (counter, writer_id)
_T_TSBIG = 0x0C  # two packed ints (beyond int64; forged timestamps)
_T_SV = 0x0D  # value, timestamp, signature (each packed)

_STRUCT_Q = struct.Struct("!q")
_STRUCT_D = struct.Struct("!d")
_STRUCT_I = struct.Struct("!I")
_STRUCT_QQ = struct.Struct("!qq")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _pack_int(value: int, out: bytearray) -> None:
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(_T_INT)
        out += _STRUCT_Q.pack(value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        out.append(_T_BIGINT)
        out += _STRUCT_I.pack(len(raw))
        out += raw


def _pack_str(value: str, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    out += _STRUCT_I.pack(len(raw))
    out += raw


def _pack_bytes(value: bytes, out: bytearray) -> None:
    out.append(_T_BYTES)
    out += _STRUCT_I.pack(len(value))
    out += value


def _pack_list(value: list, out: bytearray) -> None:
    out.append(_T_LIST)
    out += _STRUCT_I.pack(len(value))
    for item in value:
        _pack_binary(item, out)


def _pack_tuple(value: tuple, out: bytearray) -> None:
    out.append(_T_TUPLE)
    out += _STRUCT_I.pack(len(value))
    for item in value:
        _pack_binary(item, out)


def _pack_dict(value: dict, out: bytearray) -> None:
    out.append(_T_DICT)
    out += _STRUCT_I.pack(len(value))
    for key, item in value.items():
        _pack_binary(key, out)
        _pack_binary(item, out)


def _pack_timestamp(value: Timestamp, out: bytearray) -> None:
    counter, writer_id = value.counter, value.writer_id
    if _INT64_MIN <= counter <= _INT64_MAX and _INT64_MIN <= writer_id <= _INT64_MAX:
        out.append(_T_TS)
        out += _STRUCT_QQ.pack(counter, writer_id)
    else:  # a forged timestamp may carry arbitrary-precision fields
        out.append(_T_TSBIG)
        _pack_int(counter, out)
        _pack_int(writer_id, out)


def _pack_stored_value(value: StoredValue, out: bytearray) -> None:
    out.append(_T_SV)
    _pack_binary(value.value, out)
    _pack_binary(value.timestamp, out)
    _pack_binary(value.signature, out)


def _pack_none(value: None, out: bytearray) -> None:
    out.append(_T_NONE)


def _pack_bool(value: bool, out: bytearray) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _pack_float(value: float, out: bytearray) -> None:
    out.append(_T_FLOAT)
    out += _STRUCT_D.pack(value)


#: Exact-type dispatch for the hot path (one ``type(x)`` lookup instead of
#: an isinstance chain); ``bool`` precedes ``int`` in the subclass fallback
#: below because ``bool`` subclasses ``int``.
_BINARY_PACKERS = {
    type(None): _pack_none,
    bool: _pack_bool,
    int: _pack_int,
    float: _pack_float,
    str: _pack_str,
    bytes: _pack_bytes,
    list: _pack_list,
    tuple: _pack_tuple,
    dict: _pack_dict,
    Timestamp: _pack_timestamp,
    StoredValue: _pack_stored_value,
}

_BINARY_PACKER_FALLBACK = (
    (bool, _pack_bool),
    (int, _pack_int),
    (float, _pack_float),
    (str, _pack_str),
    (bytes, _pack_bytes),
    (list, _pack_list),
    (tuple, _pack_tuple),
    (dict, _pack_dict),
    (Timestamp, _pack_timestamp),
    (StoredValue, _pack_stored_value),
)


def _pack_binary(value: Any, out: bytearray) -> None:
    packer = _BINARY_PACKERS.get(type(value))
    if packer is not None:
        packer(value, out)
        return
    for cls, packer in _BINARY_PACKER_FALLBACK:  # subclasses (rare)
        if isinstance(value, cls):
            packer(value, out)
            return
    raise WireFormatError(
        f"cannot serialise {type(value).__name__!r} for the socket transport"
    )


def _take(body: bytes, offset: int, length: int) -> int:
    end = offset + length
    if end > len(body):
        raise WireFormatError(
            f"truncated binary frame: {length} bytes claimed at offset {offset}, "
            f"{len(body) - offset} available"
        )
    return end


def _unpack_binary(body: bytes, offset: int) -> Tuple[Any, int]:
    tag = body[offset]
    offset += 1
    if tag == _T_TUPLE or tag == _T_LIST:
        (count,) = _STRUCT_I.unpack_from(body, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _unpack_binary(body, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_STR:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return body[offset + 4 : end].decode("utf-8"), end
    if tag == _T_INT:
        return _STRUCT_Q.unpack_from(body, offset)[0], offset + 8
    if tag == _T_TS:
        counter, writer_id = _STRUCT_QQ.unpack_from(body, offset)
        return Timestamp(counter, writer_id), offset + 16
    if tag == _T_SV:
        value, offset = _unpack_binary(body, offset)
        timestamp, offset = _unpack_binary(body, offset)
        signature, offset = _unpack_binary(body, offset)
        return StoredValue(value=value, timestamp=timestamp, signature=signature), offset
    if tag == _T_BYTES:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return body[offset + 4 : end], end
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_FLOAT:
        return _STRUCT_D.unpack_from(body, offset)[0], offset + 8
    if tag == _T_DICT:
        (count,) = _STRUCT_I.unpack_from(body, offset)
        offset += 4
        pairs = {}
        for _ in range(count):
            key, offset = _unpack_binary(body, offset)
            item, offset = _unpack_binary(body, offset)
            pairs[key] = item
        return pairs, offset
    if tag == _T_BIGINT:
        (length,) = _STRUCT_I.unpack_from(body, offset)
        end = _take(body, offset + 4, length)
        return int.from_bytes(body[offset + 4 : end], "big", signed=True), end
    if tag == _T_TSBIG:
        counter, offset = _unpack_binary(body, offset)
        writer_id, offset = _unpack_binary(body, offset)
        if not isinstance(counter, int) or not isinstance(writer_id, int):
            raise WireFormatError("malformed big-timestamp record")
        return Timestamp(counter, writer_id), offset
    raise WireFormatError(f"unknown binary wire tag 0x{tag:02x}")


def decode_binary_body(body: bytes) -> Any:
    """Decode one binary frame body (magic byte included); raise on garbage."""
    try:
        value, offset = _unpack_binary(body, 1)
    except WireFormatError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, OverflowError,
            RecursionError, TypeError, ValueError, ProtocolError) as error:
        # ProtocolError: a forged body can encode field values the protocol
        # types refuse (a negative timestamp counter) — still a wire fault.
        raise WireFormatError(
            f"truncated or malformed binary frame: {error}"
        ) from error
    if offset != len(body):
        raise WireFormatError(
            f"{len(body) - offset} trailing bytes after the binary payload"
        )
    return value


def encode_binary_body(payload: Any) -> bytes:
    """One payload as a frame body (magic byte included)."""
    out = bytearray((BINARY_MAGIC,))
    _pack_binary(payload, out)
    return bytes(out)


# -- framing -----------------------------------------------------------------------


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return len(body).to_bytes(_PREFIX_BYTES, "big") + body


def encode_frame(payload: Any) -> bytes:
    """One payload as a length-prefixed frame, ready for a socket write."""
    return _framed(encode_binary_body(payload))


def request_tail(method: str, args: tuple) -> bytes:
    """Pre-serialised shared suffix of a fan-out's request frames.

    A quorum fan-out sends ``q`` request frames differing only in
    ``request_id`` and ``server``; serialising the (potentially large)
    ``(method, args)`` payload once per *operation* instead of once per
    frame keeps the wire fast path linear in the payload size.  Compose
    with :func:`encode_request_frame`.
    """
    out = bytearray()
    _pack_str(method, out)
    _pack_tuple(tuple(args), out)
    return bytes(out)


#: Fixed prefix of every request body: magic, 5-tuple header, "req".
_BINARY_REQ_PREFIX = bytes(
    (BINARY_MAGIC, _T_TUPLE)
) + _STRUCT_I.pack(5) + bytes((_T_STR,)) + _STRUCT_I.pack(3) + b"req"

#: The traced variant: magic, 6-tuple header, "req" — the sixth element is
#: the 64-bit trace id of the client-side quorum trace this RPC belongs to.
_BINARY_REQ6_PREFIX = bytes(
    (BINARY_MAGIC, _T_TUPLE)
) + _STRUCT_I.pack(6) + bytes((_T_STR,)) + _STRUCT_I.pack(3) + b"req"


def encode_request_frame(
    request_id: int, server: int, tail: bytes, trace_id: Optional[int] = None
) -> bytes:
    """One request frame from a pre-serialised :func:`request_tail`.

    Byte-identical to ``encode_frame(("req", request_id, server, method,
    args))`` — the wire tests pin the equivalence down.  With a
    ``trace_id`` the envelope grows a sixth element (byte-identical to
    encoding the 6-tuple); every server accepts both envelope lengths.
    """
    out = bytearray(_BINARY_REQ_PREFIX if trace_id is None else _BINARY_REQ6_PREFIX)
    _pack_int(request_id, out)
    _pack_int(server, out)
    out += tail
    if trace_id is not None:
        _pack_int(trace_id, out)
    return _framed(bytes(out))


#: Fixed prefix of every response body: magic, 3-tuple header, "rsp".
_BINARY_RSP_PREFIX = bytes(
    (BINARY_MAGIC, _T_TUPLE)
) + _STRUCT_I.pack(3) + bytes((_T_STR,)) + _STRUCT_I.pack(3) + b"rsp"


def encode_response_frame(request_id: int, payload: Any) -> bytes:
    """One response frame; byte-identical to ``encode_frame(("rsp", ...))``.

    The response envelope is as fixed as the request one, so this glues a
    precomputed prefix instead of packing the outer tuple — it is the
    server's per-request hot path.
    """
    out = bytearray(_BINARY_RSP_PREFIX)
    _pack_int(request_id, out)
    _pack_binary(payload, out)
    return _framed(bytes(out))


def decode_binary_request_body(body: bytes) -> Any:
    """:func:`decode_binary_body`, fast-pathing the canonical request shape.

    Bodies produced by :func:`encode_request_frame` open with a fixed
    14-byte envelope prefix; recognising it skips the generic tag dispatch
    for the envelope (the server decodes one of these per RPC).  Anything
    else — including a malformed lookalike — falls back to the generic
    decoder, so error behaviour is unchanged.
    """
    traced = body.startswith(_BINARY_REQ6_PREFIX)
    if traced or body.startswith(_BINARY_REQ_PREFIX):
        # Both envelopes share one layout; the traced one carries a
        # trailing trace-id int.
        try:
            if body[14] == _T_INT and body[23] == _T_INT:
                request_id = _STRUCT_Q.unpack_from(body, 15)[0]
                server = _STRUCT_Q.unpack_from(body, 24)[0]
                method, offset = _unpack_binary(body, 32)
                args, offset = _unpack_binary(body, offset)
                if type(method) is str and type(args) is tuple:
                    if traced:
                        trace_id, offset = _unpack_binary(body, offset)
                        if offset == len(body) and type(trace_id) is int:
                            return ("req", request_id, server, method, args, trace_id)
                    elif offset == len(body):
                        return ("req", request_id, server, method, args)
        except Exception:
            pass
    return decode_binary_body(body)


def decode_binary_response_body(body: bytes) -> Any:
    """:func:`decode_binary_body`, fast-pathing the canonical response shape.

    The client-side mirror of :func:`decode_binary_request_body`: one
    response envelope per RPC reply.
    """
    if body.startswith(_BINARY_RSP_PREFIX):
        try:
            if body[14] == _T_INT:
                request_id = _STRUCT_Q.unpack_from(body, 15)[0]
                payload, offset = _unpack_binary(body, 23)
                if offset == len(body):
                    return ("rsp", request_id, payload)
        except Exception:
            pass
    return decode_binary_body(body)


def _unversioned(body: bytes) -> WireFormatError:
    opener = f"0x{body[0]:02x}" if body else "nothing"
    return WireFormatError(
        f"frame body opens with {opener}, not the wire-version byte "
        f"0x{BINARY_MAGIC:02x}"
    )


# -- debugging ---------------------------------------------------------------------


def _render(value: Any) -> str:
    if isinstance(value, Timestamp):
        return f"ts({value.counter}, {value.writer_id})"
    if isinstance(value, StoredValue):
        return (
            f"sv({_render(value.value)}, {_render(value.timestamp)}, "
            f"{_render(value.signature)})"
        )
    if isinstance(value, bytes):
        return f"0x{value.hex()}" if value else "b''"
    if isinstance(value, tuple):
        inner = ", ".join(_render(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, list):
        return "[" + ", ".join(_render(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{_render(key)}: {_render(item)}" for key, item in value.items()
        ) + "}"
    return repr(value)


def dump(frame: bytes) -> str:
    """Render one length-prefixed frame as readable text (a debugging aid).

    Request and response envelopes get a one-line summary
    (``req #7 -> server 3: read('x') trace=0x2a``); any other payload is
    rendered as a Python-like literal with ``ts(counter, writer)`` and
    ``sv(value, ts, signature)`` records and bytes in hex.  A truncated or
    malformed frame raises :class:`~repro.exceptions.WireFormatError`.
    """
    frame = bytes(frame)
    if len(frame) < _PREFIX_BYTES:
        raise WireFormatError(f"truncated frame: {len(frame)}-byte length prefix")
    length = int.from_bytes(frame[:_PREFIX_BYTES], "big")
    body = frame[_PREFIX_BYTES:]
    if length != len(body):
        raise WireFormatError(
            f"truncated frame: the prefix claims {length} body bytes, "
            f"{len(body)} present"
        )
    if not body or body[0] != BINARY_MAGIC:
        raise _unversioned(body)
    payload = decode_binary_body(body)
    size = f"  [{len(frame)} B]"
    if (
        type(payload) is tuple
        and len(payload) in (5, 6)
        and payload[0] == "req"
        and type(payload[4]) is tuple
    ):
        _, request_id, server, method, args = payload[:5]
        text = f"req #{request_id} -> server {server}: {method}"
        text += "(" + ", ".join(_render(arg) for arg in args) + ")"
        if len(payload) == 6:
            text += f" trace=0x{payload[5]:x}"
        return text + size
    if type(payload) is tuple and len(payload) == 3 and payload[0] == "rsp":
        return f"rsp #{payload[1]}: {_render(payload[2])}" + size
    return _render(payload) + size


class FrameDecoder:
    """Incremental frame decoder, resilient to arbitrary chunk boundaries.

    :meth:`feed` accepts whatever the socket read produced and returns the
    payloads of every frame *completed* by that chunk (possibly none,
    possibly several); partial frames stay buffered until their remaining
    bytes arrive.  A body that does not open with :data:`BINARY_MAGIC`
    raises :class:`~repro.exceptions.WireFormatError`.  The decoder is
    stateful per connection — use one instance per stream.
    """

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        decode_body: Optional[Callable[[bytes], Any]] = None,
    ) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = int(max_frame_bytes)
        #: How bodies decode; callers on a known hot path may install a
        #: specialised decoder (e.g. :func:`decode_binary_request_body`)
        #: that falls back to :func:`decode_binary_body` on anything else.
        self._decode_body = decode_body or decode_binary_body
        #: Frames decoded so far (tests and server stats).
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Any]:
        """Buffer ``data``; return the payloads of every completed frame."""
        buffer = self._buffer
        buffer += data
        payloads: List[Any] = []
        # Walk the buffer with an offset and compact once at the end: a
        # chunk carrying many small frames costs one left-shift, not one
        # per frame.
        offset = 0
        available = len(buffer)
        decode_body = self._decode_body
        while available - offset >= _PREFIX_BYTES:
            length = int.from_bytes(buffer[offset : offset + _PREFIX_BYTES], "big")
            if length > self._max_frame_bytes:
                raise WireFormatError(
                    f"incoming frame claims {length} bytes, beyond the "
                    f"{self._max_frame_bytes}-byte cap"
                )
            end = offset + _PREFIX_BYTES + length
            if available < end:
                break
            body = bytes(buffer[offset + _PREFIX_BYTES : end])
            offset = end
            if not body or body[0] != BINARY_MAGIC:
                raise _unversioned(body)
            payloads.append(decode_body(body))
            self.frames_decoded += 1
        if offset:
            del buffer[:offset]
        return payloads
