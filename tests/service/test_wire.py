"""Property tests for the socket transport's wire format.

Two invariants carry the whole TCP path:

* **round trip** — ``decode(encode(x)) == x`` for every payload the
  protocol can put on the wire (scalars, bytes, tuples, dicts with
  non-string keys, honest and forged timestamps, stored values — nested
  arbitrarily, adversarially large or empty);
* **short-read resilience** — the incremental decoder recovers the exact
  frame sequence however the byte stream is chopped up (single bytes,
  fragments straddling the length prefix, many frames per chunk).

Both are hypothesis properties; deterministic edge cases (oversized
frames, unknown tags, truncated or forged bodies, bodies without the
wire-version byte) pin the error behaviour, the fast-path request/response
envelope codecs are checked byte-for-byte against the generic encoder, and
:func:`~repro.service.wire.dump` renders every envelope readably.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WireFormatError
from repro.protocol.timestamps import Timestamp
from repro.service.wire import (
    BINARY_MAGIC,
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_binary_body,
    decode_binary_request_body,
    decode_binary_response_body,
    dump,
    encode_binary_body,
    encode_frame,
    encode_request_frame,
    encode_response_frame,
    request_tail,
)
from repro.simulation.server import StoredValue

# -- payload strategy -------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),  # NaN breaks == (not the codec); tested separately
    st.text(max_size=64),
    st.binary(max_size=128),
    st.builds(
        Timestamp,
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=0, max_value=2**30),
    ),
)


def stored_values(values):
    return st.builds(
        StoredValue,
        value=values,
        timestamp=st.one_of(
            st.builds(Timestamp, st.integers(min_value=0, max_value=2**62)),
            st.text(max_size=8),  # a forged, wrong-typed timestamp
            st.none(),
        ),
        signature=st.one_of(st.none(), st.binary(max_size=64)),
    )


payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(
                st.text(max_size=8),
                st.integers(min_value=-100, max_value=100),
                st.builds(Timestamp, st.integers(min_value=0, max_value=1000)),
            ),
            children,
            max_size=4,
        ),
        stored_values(children),
    ),
    max_leaves=12,
)


#: Values at the edges of the fixed-width layouts: int64 bounds and just
#: beyond (the arbitrary-precision fallback), signed zero and infinities,
#: and timestamps whose fields overflow int64 (the big-timestamp record).
layout_edges = st.one_of(
    st.sampled_from(
        [
            2**63 - 1,
            -(2**63),
            2**63,
            -(2**63) - 1,
            2**200,
            -(2**200),
            0.0,
            -0.0,
            float("inf"),
            float("-inf"),
            "",
            b"",
            Timestamp.forged_maximum(),
        ]
    ),
    st.builds(
        Timestamp,
        st.integers(min_value=2**63, max_value=2**130),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    st.builds(
        Timestamp,
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=2**63, max_value=2**90),
    ),
)


def request_frames():
    return st.builds(
        lambda request_id, server, method, args: (
            "req", request_id, server, method, args
        ),
        st.integers(min_value=1, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["read", "write", "ping", "repair"]),
        st.lists(payloads, max_size=3).map(tuple),
    )


def legacy_frame(payload) -> bytes:
    """A length-prefixed, text-encoded body: what pre-versioned peers sent."""
    body = json.dumps(payload).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


class TestRoundTrip:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_is_identity(self, payload):
        assert decode_binary_body(encode_binary_body(payload)) == payload

    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_frame_round_trip(self, payload):
        decoder = FrameDecoder()
        (decoded,) = decoder.feed(encode_frame(payload))
        assert decoded == payload
        assert decoder.pending_bytes == 0

    def test_rpc_shaped_payloads(self):
        request = ("req", 17, 4, "write", ("x", ("v", 3), Timestamp(5, 1), b"\x00sig"))
        reply = ("rsp", 17, ("ok", StoredValue(("v", 3), Timestamp(5, 1), b"\x00sig")))
        for payload in (request, reply):
            (decoded,) = FrameDecoder().feed(encode_frame(payload))
            assert decoded == payload
            assert type(decoded) is tuple

    @given(
        st.integers(min_value=1, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.text(max_size=16),
        st.lists(payloads, max_size=3).map(tuple),
    )
    @settings(max_examples=100, deadline=None)
    def test_fast_request_encoder_is_byte_identical(self, request_id, server, method, args):
        tail = request_tail(method, args)
        fast = encode_request_frame(request_id, server, tail)
        assert fast == encode_frame(("req", request_id, server, method, args))

    def test_adversarially_large_and_empty_values(self):
        large = "A" * 1_000_000
        for value in (large, large.encode(), b"", "", [], (), {}, 0, None):
            (decoded,) = FrameDecoder().feed(encode_frame(value))
            assert decoded == value
            assert type(decoded) is type(value)

    def test_forged_maximum_timestamp_survives_the_wire(self):
        forged = Timestamp.forged_maximum()
        (decoded,) = FrameDecoder().feed(encode_frame(forged))
        assert decoded == forged and isinstance(decoded, Timestamp)

    def test_non_string_dict_keys_round_trip(self):
        history = {Timestamp(1): "a", Timestamp(2): "b", 7: "c"}
        (decoded,) = FrameDecoder().feed(encode_frame(history))
        assert decoded == history

    def test_unserialisable_object_is_rejected(self):
        with pytest.raises(WireFormatError, match="cannot serialise"):
            encode_frame(object())
        with pytest.raises(WireFormatError, match="cannot serialise"):
            encode_frame(("rsp", 1, {1, 2}))


class TestBinaryCodec:
    @given(layout_edges)
    @settings(max_examples=150, deadline=None)
    def test_binary_round_trip_is_identity(self, payload):
        """The fixed-width layouts and their overflow fallbacks (``!q`` →
        big int, ``!qq`` timestamp → big-timestamp record) round-trip
        exactly, type included."""
        decoded = decode_binary_body(encode_binary_body(payload))
        assert decoded == payload and type(decoded) is type(payload)
        if isinstance(payload, float):
            assert str(decoded) == str(payload)  # keeps the sign of -0.0

    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_binary_frame_round_trip(self, payload):
        """Frame layout: a big-endian body length, then the wire-version
        byte, then the value."""
        frame = encode_frame(payload)
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        assert frame[4] == BINARY_MAGIC
        assert FrameDecoder().feed(frame) == [payload]

    def test_pinned_rpc_frame_bytes(self):
        """The wire format is pinned byte for byte: a change here breaks
        every deployed peer, so it must be deliberate."""
        frame = encode_frame(("req", 99, 7, "write", ("x17", Timestamp(12, 4), b"\xffs")))
        assert frame.hex() == (
            "0000004f"  # body length
            "b1"  # wire version
            "09" "00000005"  # 5-tuple
            "06" "00000003" "726571"  # "req"
            "03" "0000000000000063"  # request id 99
            "03" "0000000000000007"  # server 7
            "06" "00000005" "7772697465"  # "write"
            "09" "00000003"  # args 3-tuple
            "06" "00000003" "783137"  # "x17"
            "0b" "000000000000000c" "0000000000000004"  # Timestamp(12, 4)
            "07" "00000002" "ff73"  # raw signature bytes
        )
        assert FrameDecoder().feed(frame)[0][4][1] == Timestamp(12, 4)

    def test_megabyte_payloads_round_trip(self):
        blob = bytes(range(256)) * 4096  # 1 MiB of every byte value
        text = "Σ" * 500_000  # 1 MB of multibyte UTF-8
        for value in (blob, text, ("rsp", 1, ("ok", StoredValue(blob, Timestamp(1), None)))):
            (decoded,) = FrameDecoder().feed(encode_frame(value))
            assert decoded == value
        # raw bytes ship without base64: framing overhead stays tiny
        assert len(encode_frame(blob)) < len(blob) + 64

    @given(payloads, st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_binary_body_is_a_wire_error(self, payload, data):
        body = encode_binary_body(payload)
        cut = data.draw(st.integers(min_value=1, max_value=max(1, len(body) - 1)))
        if cut == len(body):  # nothing to truncate (bare None is 2 bytes)
            return
        with pytest.raises(WireFormatError):
            decode_binary_body(body[:cut])

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_forged_binary_body_never_escapes_wire_error(self, garbage):
        """Arbitrary bytes after the magic either decode or raise
        WireFormatError — no other exception type reaches the caller."""
        try:
            decode_binary_body(bytes((BINARY_MAGIC,)) + garbage)
        except WireFormatError:
            pass

    def test_unknown_binary_tag_is_a_wire_error(self):
        with pytest.raises(WireFormatError, match="unknown binary wire tag"):
            decode_binary_body(bytes((BINARY_MAGIC, 0xEE)))

    def test_trailing_bytes_are_a_wire_error(self):
        body = encode_binary_body(("rsp", 1, None)) + b"\x00"
        with pytest.raises(WireFormatError, match="trailing"):
            decode_binary_body(body)

    @given(
        st.lists(
            st.one_of(
                request_frames(),
                request_frames().map(lambda frame: frame + (2**62 + 1,)),
                st.tuples(st.just("rsp"), st.integers(1, 2**31), payloads),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_binary_frames_survive_any_chunking(self, frames, chunk_size):
        """The envelope fast-path decoders the sockets install, fed the
        envelopes they see (plain and traced requests, responses)."""
        stream = b"".join(encode_frame(frame) for frame in frames)
        requests = [frame for frame in frames if frame[0] == "req"]
        responses = [frame for frame in frames if frame[0] == "rsp"]
        for decode_body, expected in (
            (decode_binary_request_body, requests),
            (decode_binary_response_body, responses),
        ):
            sent = b"".join(encode_frame(frame) for frame in expected)
            decoder = FrameDecoder(decode_body=decode_body)
            decoded = []
            for start in range(0, len(sent), chunk_size):
                decoded.extend(decoder.feed(sent[start : start + chunk_size]))
            assert decoded == expected
            assert decoder.pending_bytes == 0
        assert FrameDecoder().feed(stream) == frames


class TestEnvelopeFastPaths:
    """The fixed request/response envelope codecs against the generic ones."""

    @given(
        st.integers(min_value=1, max_value=2**31),
        payloads,
    )
    @settings(max_examples=100, deadline=None)
    def test_response_encoder_is_byte_identical(self, request_id, payload):
        fast = encode_response_frame(request_id, payload)
        assert fast == encode_frame(("rsp", request_id, payload))

    @given(
        st.integers(min_value=1, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
        st.text(max_size=16),
        st.lists(payloads, max_size=3).map(tuple),
    )
    @settings(max_examples=100, deadline=None)
    def test_request_fast_decoder_matches_generic(self, request_id, server, method, args):
        frame = encode_request_frame(request_id, server, request_tail(method, args))
        body = bytes(frame[4:])
        assert decode_binary_request_body(body) == decode_binary_body(body)
        assert decode_binary_request_body(body) == ("req", request_id, server, method, args)

    @given(st.integers(min_value=1, max_value=2**31), payloads)
    @settings(max_examples=100, deadline=None)
    def test_response_fast_decoder_matches_generic(self, request_id, payload):
        frame = encode_response_frame(request_id, payload)
        body = bytes(frame[4:])
        assert decode_binary_response_body(body) == decode_binary_body(body)
        assert decode_binary_response_body(body) == ("rsp", request_id, payload)

    @given(st.binary(max_size=48))
    @settings(max_examples=200, deadline=None)
    def test_fast_decoders_never_diverge_on_garbage(self, garbage):
        """Whatever bytes arrive, the envelope fast paths agree with the
        generic decoder: same value or both a WireFormatError."""
        body = bytes((BINARY_MAGIC,)) + garbage
        for fast in (decode_binary_request_body, decode_binary_response_body):
            try:
                generic = decode_binary_body(body)
            except WireFormatError:
                with pytest.raises(WireFormatError):
                    fast(body)
            else:
                assert fast(body) == generic


class TestShortReadResilience:
    @given(
        st.lists(payloads, min_size=1, max_size=5),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_yields_the_same_frames(self, frames, chunk_size):
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), chunk_size):
            decoded.extend(decoder.feed(stream[start : start + chunk_size]))
        assert decoded == frames
        assert decoder.pending_bytes == 0

    @given(st.lists(payloads, min_size=2, max_size=4), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_random_chunk_boundaries(self, frames, rnd):
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        position = 0
        while position < len(stream):
            step = rnd.randint(1, max(1, len(stream) - position))
            decoded.extend(decoder.feed(stream[position : position + step]))
            position += step
        assert decoded == frames

    def test_partial_frame_stays_buffered_without_output(self):
        frame = encode_frame({"k": list(range(50))})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []  # not even a full length prefix
        assert decoder.feed(frame[3:10]) == []  # prefix + partial body
        assert decoder.pending_bytes == 10
        (decoded,) = decoder.feed(frame[10:])
        assert decoded == {"k": list(range(50))}

    def test_frames_glued_to_a_partial_tail(self):
        first, second = encode_frame("one"), encode_frame("two")
        decoder = FrameDecoder()
        assert decoder.feed(first + second[:5]) == ["one"]
        assert decoder.feed(second[5:]) == ["two"]


class TestMalformedInput:
    def test_oversized_length_prefix_is_rejected_before_buffering(self):
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireFormatError, match="beyond"):
            FrameDecoder().feed(prefix)

    def test_oversized_encode_is_rejected(self):
        decoder_cap = FrameDecoder(max_frame_bytes=16)
        frame = encode_frame("x" * 64)
        with pytest.raises(WireFormatError):
            decoder_cap.feed(frame)

    def test_garbage_body_is_a_wire_error(self):
        body = b"not a versioned body"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="wire-version byte"):
            FrameDecoder().feed(frame)
        with pytest.raises(WireFormatError, match="opens with nothing"):
            FrameDecoder().feed(bytes(4))  # an empty body

    def test_legacy_text_frame_is_a_wire_error(self):
        """A pre-versioned peer's text-encoded frame is refused, even one
        glued behind a valid frame (which is still delivered first)."""
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame("ok")) == ["ok"]
        with pytest.raises(WireFormatError, match="0x7b"):
            decoder.feed(legacy_frame({"t": ["req", 1, 0, "read", {"t": ["x"]}]}))

    def test_unknown_tag_is_a_wire_error(self):
        """An unknown tag nested inside a valid container, not just at the
        top level."""
        body = encode_binary_body(("rsp", None))[:-1] + bytes((0xEE,))
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(WireFormatError, match="unknown binary wire tag 0xee"):
            FrameDecoder().feed(frame)

    def test_malformed_timestamp_body_is_a_wire_error(self):
        # A big-timestamp record whose counter is a string.
        body = bytes((BINARY_MAGIC, 0x0C)) + encode_binary_body("1")[1:] + (
            encode_binary_body(0)[1:]
        )
        with pytest.raises(WireFormatError, match="malformed big-timestamp"):
            decode_binary_body(body)
        # A fixed-width record cut short of its second int64.
        body = encode_binary_body(Timestamp(3, 1))[:-4]
        with pytest.raises(WireFormatError, match="truncated or malformed"):
            decode_binary_body(body)
        # A forged negative counter the protocol type itself refuses.
        body = bytes((BINARY_MAGIC, 0x0B)) + (-1).to_bytes(8, "big", signed=True) + bytes(8)
        with pytest.raises(WireFormatError):
            decode_binary_body(body)


class TestDump:
    def test_every_envelope_renders_readably(self):
        tail = request_tail("write", ("x", "v1", Timestamp(5, 2), b"\x01\xab"))
        assert dump(encode_request_frame(17, 4, tail)).startswith(
            "req #17 -> server 4: write('x', 'v1', ts(5, 2), 0x01ab)"
        )
        assert dump(encode_request_frame(17, 4, tail, trace_id=0xBEEF)).startswith(
            "req #17 -> server 4: write('x', 'v1', ts(5, 2), 0x01ab) trace=0xbeef"
        )
        reply = ("ok", StoredValue("v1", Timestamp(5, 2), b"\x01"))
        assert dump(encode_response_frame(9, reply)).startswith(
            "rsp #9: ('ok', sv('v1', ts(5, 2), 0x01))"
        )
        rendered = dump(encode_frame({"k": [1, (2,), None, True, 1.5, b""]}))
        assert rendered.startswith("{'k': [1, (2,), None, True, 1.5, b'']}")
        frame = encode_frame("x")
        assert rendered.endswith(" B]") and dump(frame).endswith(f"[{len(frame)} B]")
        # An envelope-shaped payload with malformed args renders literally.
        assert dump(encode_frame(("req", 1, 2, "m", 5))).startswith("('req', 1, 2, 'm', 5)")

    def test_forged_big_timestamp_renders_in_full(self):
        forged = Timestamp(2**100, 2**64)
        rendered = dump(encode_response_frame(1, ("ok", StoredValue("evil", forged, None))))
        assert f"ts({2**100}, {2**64})" in rendered

    def test_truncated_frame_is_a_wire_error(self):
        frame = encode_request_frame(1, 2, request_tail("read", ("x",)))
        for cut in (0, 3, 4, len(frame) - 1):
            with pytest.raises(WireFormatError, match="truncated"):
                dump(frame[:cut])
        with pytest.raises(WireFormatError, match="wire-version byte"):
            dump(legacy_frame(["rsp", 1, None]))
