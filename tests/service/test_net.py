"""Tests for the TCP socket transport, server and dispatcher (`repro.service.net`)."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ServiceError
from repro.protocol.timestamps import Timestamp
from repro.service.client import AsyncQuorumClient
from repro.service.net import TcpDispatcher, TcpServiceServer, TcpTransport
from repro.service.node import ServiceNode
from repro.service.register import AsyncDisseminationRegister, AsyncMaskingRegister
from repro.service.wire import encode_frame, encode_request_frame, request_tail
from repro.simulation.server import (
    ByzantineForgeBehavior,
    CorrectBehavior,
    StoredValue,
)

MASKING = ProbabilisticMaskingSystem(25, 10, 3)


def run(coroutine):
    return asyncio.run(coroutine)


async def deploy(n=25, **transport_kwargs):
    nodes = [ServiceNode(server) for server in range(n)]
    server = TcpServiceServer(nodes)
    await server.start()
    transport = TcpTransport(server.address, **transport_kwargs)
    return nodes, server, transport


async def teardown(server, transport):
    await transport.aclose()
    await server.aclose()


class TestTcpRoundTrip:
    def test_write_then_read_through_real_sockets(self):
        async def scenario():
            nodes, server, transport = await deploy()
            dispatcher = TcpDispatcher(transport)
            acks = await dispatcher.fan_out(
                [3], "write", ("x", ("v", 0), Timestamp(1), None), 1.0
            )
            assert acks == {3: True}
            replies = await dispatcher.fan_out([3], "read", ("x",), 1.0)
            stored = replies[3]
            assert stored.value == ("v", 0) and stored.timestamp == Timestamp(1)
            # The write really landed on the server-side node object.
            assert nodes[3].stored("x").value == ("v", 0)
            assert server.requests_handled == 2
            await teardown(server, transport)

        run(scenario())

    def test_server_routes_by_server_id(self):
        async def scenario():
            nodes, server, transport = await deploy(n=5)
            dispatcher = TcpDispatcher(transport)
            for target in range(5):
                await dispatcher.fan_out(
                    [target], "write", ("x", target, Timestamp(1), None), 1.0
                )
            assert [node.stored("x").value for node in nodes] == [0, 1, 2, 3, 4]
            await teardown(server, transport)

        run(scenario())

    def test_concurrent_fan_outs_multiplex_on_shared_connections(self):
        async def scenario():
            nodes, server, transport = await deploy(n=10)
            for node in nodes:
                node.server.handle_write("x", node.server_id * 11, Timestamp(1), None)
            dispatcher = TcpDispatcher(transport)
            replies = await asyncio.gather(
                *(
                    dispatcher.fan_out([index % 10], "read", ("x",), 1.0)
                    for index in range(200)
                )
            )
            for index, reply in enumerate(replies):
                assert reply[index % 10].value == (index % 10) * 11  # no cross-talk
            assert transport.calls == 200
            await teardown(server, transport)

        run(scenario())

    def test_ephemeral_port_is_published_after_start(self):
        async def scenario():
            server = TcpServiceServer([ServiceNode(0)])
            host, port = await server.start()
            assert host == "127.0.0.1" and port > 0
            assert server.serving
            with pytest.raises(ServiceError):
                await server.start()
            await server.aclose()
            assert not server.serving

        run(scenario())


class TestFailureSemantics:
    def test_crashed_node_costs_the_caller_its_deadline(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            nodes[1].crash()
            dispatcher = TcpDispatcher(transport)
            loop = asyncio.get_running_loop()
            started = loop.time()
            assert await dispatcher.fan_out([1], "ping", (), 0.05) == {}
            waited = loop.time() - started
            assert waited == pytest.approx(0.05, abs=0.1)
            assert transport.timed_out == 1
            await teardown(server, transport)

        run(scenario())

    def test_simulated_drops_are_counted_and_never_sent(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, drop_probability=0.999999, seed=7)
            dispatcher = TcpDispatcher(transport)
            assert await dispatcher.fan_out([0], "ping", (), 0.01) == {}
            assert transport.dropped == 1
            assert transport.timed_out == 0
            assert server.requests_handled == 0
            await teardown(server, transport)

        run(scenario())

    def test_reconnects_after_a_dropped_connection(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            dispatcher = TcpDispatcher(transport)
            assert await dispatcher.fan_out([0], "ping", (), 1.0) == {0: True}
            # Sever the (only) connection out from under the transport.
            transport._connections[0]._writer.close()
            await asyncio.sleep(0.01)
            assert await dispatcher.fan_out([0], "ping", (), 1.0) == {0: True}
            assert transport.reconnects == 1
            assert server.connections_accepted == 2
            await teardown(server, transport)

        run(scenario())

    def test_unreachable_server_times_out_instead_of_hanging(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            await server.aclose()
            # A fresh transport to the now-closed port cannot even connect.
            dead = TcpTransport(server.address)
            loop = asyncio.get_running_loop()
            started = loop.time()
            assert await TcpDispatcher(dead).fan_out([0], "ping", (), 0.05) == {}
            assert loop.time() - started == pytest.approx(0.05, abs=0.1)
            assert dead.timed_out == 1
            await teardown(server, transport)
            await dead.aclose()

        run(scenario())

    def test_injected_latency_beyond_the_deadline_is_a_timeout(self):
        # A drawn delay beyond the deadline IS the timeout: the request is
        # never sent and the operation resolves with no replies.
        async def scenario():
            nodes, server, transport = await deploy(n=3, latency=0.2)
            replies = await TcpDispatcher(transport).fan_out([0], "ping", (), 0.05)
            assert replies == {}
            assert transport.timed_out == 1
            assert server.requests_handled == 0
            assert len(transport._pending) == 0
            await teardown(server, transport)

        run(scenario())

    def test_unknown_method_costs_the_peer_its_connection_only(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            dispatcher = TcpDispatcher(transport)
            assert await dispatcher.fan_out([0], "bogus-method", (), 0.05) == {}
            # The server survives and the transport reconnects transparently.
            assert server.serving
            assert await dispatcher.fan_out([0], "ping", (), 1.0) == {0: True}
            await teardown(server, transport)

        run(scenario())

    def test_negative_server_id_is_rejected_not_wrapped_around(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3, connections=1)
            assert await TcpDispatcher(transport).fan_out([-1], "ping", (), 0.05) == {}
            # Nothing was routed to nodes[-1]; the server just dropped the peer.
            assert server.requests_handled == 0
            assert server.serving
            await teardown(server, transport)

        run(scenario())

    def test_validation(self):
        with pytest.raises(ServiceError):
            TcpTransport(("127.0.0.1", 1), connections=0)

    def test_legacy_text_frame_closes_only_its_own_connection(self):
        """A peer speaking the pre-versioned text codec loses its own
        connection; every other connection keeps being served."""

        async def exchange(reader, writer, frame):
            writer.write(frame)
            await writer.drain()
            return await asyncio.wait_for(reader.read(65536), 1.0)

        async def scenario():
            nodes, server, transport = await deploy(n=3)
            host, port = server.address
            good = await asyncio.open_connection(host, port)
            legacy = await asyncio.open_connection(host, port)
            ping = encode_request_frame(1, 0, request_tail("ping", ()))
            assert await exchange(*good, ping)  # served
            body = b'{"t":["req",1,0,"ping",{"t":[]}]}'
            assert await exchange(*legacy, len(body).to_bytes(4, "big") + body) == b""
            assert await exchange(*good, ping)  # still served
            # A fresh transport connects and is served alongside.
            assert await TcpDispatcher(transport).fan_out([2], "ping", (), 1.0) == {
                2: True
            }
            assert server.requests_handled == 3
            for _, writer in (good, legacy):
                writer.close()
            await teardown(server, transport)

        run(scenario())

    def test_every_server_accepts_both_envelope_lengths(self):
        async def scenario():
            nodes, server, transport = await deploy(n=2)
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(
                encode_frame(("req", 1, 0, "ping", ()))
                + encode_frame(("req", 2, 1, "ping", (), 77))
            )
            await writer.drain()
            received = b""
            while len(received) < 2 * len(encode_frame(("rsp", 1, ("ok", True)))):
                received += await asyncio.wait_for(reader.read(65536), 1.0)
            assert server.requests_handled == 2
            assert server.traced_requests == 1 and server.last_trace_id == 77
            writer.close()
            await teardown(server, transport)

        run(scenario())


class TestTcpDispatcher:
    def test_fan_out_matches_node_handle_replies(self):
        async def scenario():
            nodes, server, transport = await deploy(n=10)
            for node in nodes:
                node.server.handle_write("x", node.server_id, Timestamp(1), None)
            dispatcher = TcpDispatcher(transport)
            replies = await dispatcher.fan_out(range(10), "read", ("x",), 1.0)
            assert sorted(replies) == list(range(10))
            # Each payload is what the node's own handler answers, with the
            # ("ok", payload) envelope stripped.
            for server_id, payload in replies.items():
                tag, expected = nodes[server_id].handle("read", "x")
                assert tag == "ok"
                assert payload == expected and payload.value == server_id
            assert dispatcher.ops == 1
            await teardown(server, transport)

        run(scenario())

    def test_silent_servers_resolve_at_the_op_deadline(self):
        async def scenario():
            nodes, server, transport = await deploy(n=6)
            for victim in (1, 4):
                nodes[victim].crash()
            dispatcher = TcpDispatcher(transport)
            loop = asyncio.get_running_loop()
            started = loop.time()
            replies = await dispatcher.fan_out(range(6), "ping", (), 0.05)
            waited = loop.time() - started
            assert sorted(replies) == [0, 2, 3, 5]
            assert waited == pytest.approx(0.05, abs=0.1)
            assert transport.timed_out == 2
            assert len(transport._pending) == 0  # nothing leaked
            await teardown(server, transport)

        run(scenario())

    def test_empty_fan_out_resolves_immediately(self):
        async def scenario():
            nodes, server, transport = await deploy(n=3)
            dispatcher = TcpDispatcher(transport)
            assert await dispatcher.fan_out((), "ping", (), 0.05) == {}
            await teardown(server, transport)

        run(scenario())


class TestQuorumClientOverTcp:
    def test_masking_register_over_the_wire(self):
        async def scenario():
            nodes, server, transport = await deploy()
            client = AsyncQuorumClient(
                MASKING, TcpDispatcher(transport), deadline=1.0, rng=random.Random(3)
            )
            register = AsyncMaskingRegister(client)
            write = await register.write("over-the-wire")
            assert len(write.acknowledged) == 10
            outcome = await register.read()
            # ε-allowance: the two quorums can under-intersect; what cannot
            # happen is a fabricated value.
            assert outcome.value in ("over-the-wire", None)
            await teardown(server, transport)

        run(scenario())

    def test_forged_replies_cross_the_wire_and_are_outvoted(self):
        async def scenario():
            nodes, server, transport = await deploy()
            system = ProbabilisticMaskingSystem(25, 15, 2)  # k = 5 > b = 2
            for victim in (0, 1):
                nodes[victim].set_behavior(
                    ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
                )
            client = AsyncQuorumClient(
                system, TcpDispatcher(transport), deadline=1.0, rng=random.Random(5)
            )
            register = AsyncMaskingRegister(client)
            await register.write("honest")
            for _ in range(10):
                outcome = await register.read()
                assert outcome.value != "FORGED"
            await teardown(server, transport)

        run(scenario())

    def test_probe_repair_works_over_tcp(self):
        async def scenario():
            nodes, server, transport = await deploy()
            client = AsyncQuorumClient(
                MASKING, TcpDispatcher(transport), deadline=0.05, rng=random.Random(11)
            )
            register = AsyncMaskingRegister(client)
            await register.write("durable")
            for victim in random.Random(2).sample(range(25), 10):
                nodes[victim].crash()
            outcome = await register.read()
            assert outcome.value in ("durable", None)
            assert client.probe_fallbacks >= 1
            await teardown(server, transport)

        run(scenario())


class _StrSignatureBehavior(CorrectBehavior):
    """Serves the honest record with a non-bytes signature attached."""

    def on_read(self, server, variable):
        stored = super().on_read(server, variable)
        if stored is None:
            return None
        return StoredValue(stored.value, stored.timestamp, signature="forged")


class TestNonBytesSignatures:
    def test_str_signature_reply_is_rejected_and_the_read_completes(self):
        async def scenario():
            nodes, server, transport = await deploy()
            system = ProbabilisticDisseminationSystem(25, 8, 5)
            for victim in range(5):
                nodes[victim].set_behavior(_StrSignatureBehavior())
            client = AsyncQuorumClient(
                system, TcpDispatcher(transport), deadline=1.0, rng=random.Random(9)
            )
            register = AsyncDisseminationRegister(client)
            await register.write("signed")
            for _ in range(20):
                outcome = await register.read()
                assert register.classify_read(outcome) in ("fresh", "stale", "empty")
            assert register.forged_replies_rejected > 0
            await teardown(server, transport)

        run(scenario())


class _JunkReadBehavior(CorrectBehavior):
    """Stores writes honestly but answers every read with ``payload``."""

    def __init__(self, payload):
        self.payload = payload

    def on_read(self, server, variable):
        return self.payload


#: Read payloads a Byzantine replica can put on the wire that are not a
#: well-formed record: the binary codec carries every one of them.
JUNK_READ_PAYLOADS = [
    42,
    "x",
    (1, 2, 3),
    StoredValue("FORGED", "zzz"),
    StoredValue("FORGED", 7),
    StoredValue("FORGED", [1, 2]),
]


class TestJunkReadReplies:
    """A replica answering reads with junk makes the read value-less there."""

    @pytest.mark.parametrize("payload", JUNK_READ_PAYLOADS, ids=repr)
    @pytest.mark.parametrize(
        "system, register_class",
        [
            (ProbabilisticMaskingSystem(25, 10, 3), AsyncMaskingRegister),
            (ProbabilisticDisseminationSystem(25, 8, 5), AsyncDisseminationRegister),
        ],
        ids=["masking", "dissemination"],
    )
    def test_reads_complete_and_accept_nothing_fabricated(
        self, system, register_class, payload
    ):
        async def scenario():
            nodes, server, transport = await deploy()
            for victim in (0, 1, 2):
                nodes[victim].set_behavior(_JunkReadBehavior(payload))
            client = AsyncQuorumClient(
                system, TcpDispatcher(transport), deadline=1.0, rng=random.Random(4)
            )
            register = register_class(client)
            await register.write("honest")
            junk_seen = 0
            for _ in range(30):
                result = await client.read("x")
                junk_seen += len(result.quorum & {0, 1, 2})
                # Junk repliers still count as responders, never as values.
                assert all(server_id not in result.replies for server_id in (0, 1, 2))
                outcome = await register.read()
                assert outcome.value in ("honest", None)
                assert register.classify_read(outcome) in ("fresh", "stale", "empty")
            assert junk_seen > 0
            await teardown(server, transport)

        run(scenario())


class TestRoguePeer:
    """Requests no honest client sends cost the sender its connection only."""

    ROGUE_REQUESTS = {
        "junk-timestamp-write": ("write", ("x", "junk", "zzz", None)),
        "none-timestamp-write": ("write", ("x", "junk", None, None)),
        "str-signature-write": ("write", ("x", "junk", Timestamp(9), "sig")),
        "non-str-variable-write": ("write", (7, "junk", Timestamp(9), None)),
        "junk-timestamp-repair": ("repair", ("x", "junk", [1, 2], None)),
        "wrong-arity-read": ("read", ()),
        "wrong-arity-write": ("write", ("x", "junk")),
        "non-str-variable-read": ("read", (("x",),)),
    }

    @pytest.mark.parametrize("name", sorted(ROGUE_REQUESTS))
    def test_rogue_requests_never_reach_a_replica(self, name):
        method, args = self.ROGUE_REQUESTS[name]

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
            nodes, server, transport = await deploy()
            reader, writer = await asyncio.open_connection(*server.address)
            # One rogue request per replica, all in one burst.
            tail = request_tail(method, args)
            writer.write(
                b"".join(
                    encode_request_frame(request_id, request_id, tail)
                    for request_id in range(25)
                )
            )
            await writer.drain()
            # The server answers nothing and closes the rogue connection.
            assert await asyncio.wait_for(reader.read(65536), 1.0) == b""
            writer.close()
            assert server.requests_handled == 0
            assert all(node.stored("x") is None for node in nodes)
            # Honest traffic is untouched: every write reaches a full quorum.
            client = AsyncQuorumClient(
                MASKING, TcpDispatcher(transport), deadline=1.0, rng=random.Random(6)
            )
            register = AsyncMaskingRegister(client)
            for index in range(5):
                write = await register.write(f"honest-{index}")
                assert len(write.acknowledged) >= MASKING.quorum_size
            assert server.serving
            await teardown(server, transport)
            assert unhandled == []

        run(scenario())
