"""Property tests for the trace extension of the wire protocol.

The trace extension is signalled by the envelope length alone — there is
no handshake:

* the **envelope** grows a sixth element only when a trace id is attached,
  and the traced request frame is byte-identical to encoding the 6-tuple
  generically — so payload semantics never depend on the fast path;
* every **server** accepts both envelope lengths, so a traced client needs
  no round trip before its first traced request, and an untraced client
  keeps sending (and being served) plain 5-tuples.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer
from repro.protocol.timestamps import Timestamp
from repro.service.net import TcpDispatcher, TcpServiceServer, TcpTransport
from repro.service.node import ServiceNode
from repro.service.wire import (
    FrameDecoder,
    encode_frame,
    encode_request_frame,
    request_tail,
)


def run(coroutine):
    return asyncio.run(coroutine)


request_ids = st.integers(min_value=0, max_value=2**62)
server_ids = st.integers(min_value=0, max_value=2**31)
trace_ids = st.integers(min_value=0, max_value=2**62)
methods = st.sampled_from(["read", "write", "ping"])
args_values = st.tuples(
    st.text(max_size=16), st.integers(min_value=-(2**40), max_value=2**40)
)


class TestTracedEnvelope:
    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values, trace_ids)
    def test_traced_fast_path_is_byte_identical(
        self, request_id, server, method, args, trace_id
    ):
        tail = request_tail(method, args)
        fast = encode_request_frame(request_id, server, tail, trace_id=trace_id)
        generic = encode_frame(("req", request_id, server, method, args, trace_id))
        assert fast == generic

    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values, trace_ids)
    def test_traced_and_untraced_frames_decode_to_the_same_request(
        self, request_id, server, method, args, trace_id
    ):
        tail = request_tail(method, args)
        decoder = FrameDecoder()
        plain = decoder.feed(
            encode_request_frame(request_id, server, tail)
        ) + decoder.feed(
            encode_request_frame(request_id, server, tail, trace_id=trace_id)
        )
        assert len(plain) == 2
        untraced, traced = plain
        # Identical payload semantics: the traced frame is the untraced
        # one plus the trailing id, nothing reinterpreted.
        assert tuple(traced[:5]) == tuple(untraced)
        assert traced[5] == trace_id

    @settings(max_examples=50)
    @given(request_ids, server_ids, methods, args_values)
    def test_no_trace_id_means_the_classic_five_tuple(
        self, request_id, server, method, args
    ):
        tail = request_tail(method, args)
        frame = encode_request_frame(request_id, server, tail)
        assert frame == encode_frame(("req", request_id, server, method, args))


class TestDegradation:
    def test_traced_pair_negotiates_and_attributes_requests(self):
        """The traced envelope *is* the negotiation: the very first fan-out
        carries its trace id, with no round trip before it."""

        async def scenario():
            nodes = [ServiceNode(server) for server in range(3)]
            server = TcpServiceServer(nodes)
            await server.start()
            transport = TcpTransport(server.address)
            dispatcher = TcpDispatcher(transport)
            tracer = Tracer(sample_rate=1.0)
            trace = tracer.begin("write", variable="x")
            replies = await dispatcher.fan_out(
                [0, 1, 2], "write", ("x", "v", Timestamp(1), None), 0.5, trace=trace
            )
            assert set(replies) == {0, 1, 2}
            assert server.traced_requests == 3
            assert server.last_trace_id == trace.trace_id
            assert trace.span_dispositions() == {"ok": 3}
            await transport.aclose()
            await server.aclose()

        run(scenario())

    def test_untraced_client_against_traced_server_stays_untraced(self):
        async def scenario():
            nodes = [ServiceNode(server) for server in range(2)]
            server = TcpServiceServer(nodes)
            await server.start()
            transport = TcpTransport(server.address)
            dispatcher = TcpDispatcher(transport)
            await dispatcher.fan_out([0, 1], "write", ("x", "v", Timestamp(1), None), 0.5)
            assert server.requests_handled == 2
            assert server.traced_requests == 0
            await transport.aclose()
            await server.aclose()

        run(scenario())
