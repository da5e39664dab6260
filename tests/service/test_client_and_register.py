"""Tests for the async quorum client and the register frontends."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import QuorumUnavailableError
from repro.protocol.timestamps import Timestamp
from repro.service.client import AsyncQuorumClient, ReadRpcResult
from repro.service.dispatch import BatchedDispatcher
from repro.service.node import ServiceNode
from repro.service.register import (
    AsyncDisseminationRegister,
    AsyncMaskingRegister,
    AsyncRegister,
    async_register_for,
)
from repro.service.transport import AsyncTransport
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.server import ByzantineForgeBehavior, StoredValue

PLAIN = UniformEpsilonIntersectingSystem(25, 8)
MASKING = ProbabilisticMaskingSystem(25, 10, 3)
DISSEMINATION = ProbabilisticDisseminationSystem(25, 8, 5)


def run(coroutine):
    return asyncio.run(coroutine)


def deploy(system, seed=0, timeout=0.01, **transport_kwargs):
    nodes = [ServiceNode(server) for server in range(system.n)]
    transport = AsyncTransport(seed=seed, **transport_kwargs)
    client = AsyncQuorumClient(
        system,
        BatchedDispatcher(nodes, transport),
        deadline=timeout,
        rng=random.Random(seed),
    )
    return nodes, client


class TestAsyncQuorumClient:
    def test_write_then_read_round_trip(self):
        nodes, client = deploy(PLAIN)

        async def scenario():
            write = await client.write("x", "v", Timestamp(1), None)
            assert len(write.acknowledged) == len(write.quorum) == 8
            assert not write.retried
            read = await client.read("x")
            assert len(read.quorum) == 8
            assert read.responders == 8
            # The quorums are ε-intersecting, not strict: replies carry the
            # value only where the two quorums overlap.
            for stored in read.replies.values():
                assert stored.value == "v"

        run(scenario())

    def test_partial_failure_triggers_probe_repair(self):
        nodes, client = deploy(PLAIN, seed=5)
        for server in range(10):
            nodes[server].crash()

        async def scenario():
            write = await client.write("x", "v", Timestamp(1), None)
            return write

        write = run(scenario())
        # With 10 of 25 servers crashed a sampled 8-quorum almost surely hits
        # a crash; the client then probes and re-assembles a live quorum.
        assert client.probe_fallbacks >= 1
        assert write.retried
        assert len(write.acknowledged & write.quorum) == 8
        assert all(not nodes[server].server.is_crashed for server in write.quorum)

    def test_write_with_no_live_quorum_raises(self):
        nodes, client = deploy(PLAIN)
        for node in nodes:
            node.crash()

        async def scenario():
            await client.write("x", "v", Timestamp(1), None)

        with pytest.raises(QuorumUnavailableError):
            run(scenario())

    def test_read_with_everything_dead_returns_no_replies(self):
        nodes, client = deploy(PLAIN)
        for node in nodes:
            node.crash()

        read = run(client.read("x"))
        assert read.replies == {}
        assert read.responders == 0

    def test_repair_can_be_disabled(self):
        nodes = [ServiceNode(server) for server in range(PLAIN.n)]
        client = AsyncQuorumClient(
            PLAIN,
            BatchedDispatcher(nodes, AsyncTransport()),
            deadline=0.01,
            rng=random.Random(1),
            repair=False,
        )
        for server in range(10):
            nodes[server].crash()

        read = run(client.read("x"))
        assert client.probe_fallbacks == 0
        assert not read.retried

    def test_probe_strategy_matches_the_construction(self):
        _, uniform_client = deploy(PLAIN)
        from repro.quorum.probe import UniformProbeStrategy

        assert isinstance(uniform_client._probe_strategy(), UniformProbeStrategy)


class TestAsyncRegisters:
    def test_plain_register_reads_fresh_when_healthy(self):
        nodes, client = deploy(PLAIN)

        async def scenario():
            register = AsyncRegister(client)
            await register.write("payload")
            outcome = await register.read()
            assert register.classify_read(outcome) == "fresh"
            assert outcome.value == "payload"

        run(scenario())

    def test_plain_register_accepts_forgeries_masking_filters_them(self):
        # The same attack, two read rules: a forged maximal timestamp wins a
        # benign read but cannot collect k=2 vouching votes with one forger.
        async def scenario(register_cls, system):
            nodes, client = deploy(system, seed=9)
            nodes[0].set_behavior(
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
            )
            register = register_cls(client)
            await register.write("honest")
            labels = set()
            for _ in range(40):
                outcome = await register.read()
                labels.add(register.classify_read(outcome))
            return labels

        plain_labels = run(scenario(AsyncRegister, PLAIN))
        masking_labels = run(scenario(AsyncMaskingRegister, MASKING))
        assert "fabricated" in plain_labels
        assert "fabricated" not in masking_labels
        assert "fresh" in masking_labels

    def test_dissemination_register_discards_forgeries(self):
        nodes, client = deploy(DISSEMINATION, seed=4)
        for server in range(5):
            nodes[server].set_behavior(
                ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum())
            )

        async def scenario():
            register = AsyncDisseminationRegister(client)
            await register.write("signed")
            for _ in range(20):
                outcome = await register.read()
                assert register.classify_read(outcome) in ("fresh", "stale", "empty")
            return register.forged_replies_rejected

        rejected = run(scenario())
        assert rejected > 0

    def test_dissemination_verdicts_are_shared_only_by_identical_encodings(self):
        """Each distinct record is verified once per read, but values that
        compare equal while signing differently never share a verdict."""
        _, client = deploy(DISSEMINATION)
        register = AsyncDisseminationRegister(client)
        scheme = register.signatures
        ts = Timestamp(3, 0)
        calls = []
        plain_verify = scheme.verify

        def counting_verify(*args):
            calls.append(args)
            return plain_verify(*args)

        scheme.verify = counting_verify
        cases = [
            (1, [True, 1.0, 1]),
            (True, [1, 1.0, True]),
            (1.0, [1, True, 1.0]),
            ([1, 2], [(1, 2), [1, 2]]),
            ((1, 2), [[1, 2], (1, 2)]),
            ({"a": 1, "b": 2}, [{"b": 2, "a": 1}, {"a": 1, "b": 2}]),
        ]
        for signed, lookalikes in cases:
            signature = scheme.sign("x", signed, ts)
            records = [signed, *lookalikes, signed]
            replies = {
                server: StoredValue(value, ts, signature)
                for server, value in enumerate(records)
            }
            # A forged timestamp equal to ts but signing differently.
            replies[len(records)] = StoredValue(signed, Timestamp(True, 0), signature)
            result = ReadRpcResult(
                quorum=frozenset(replies), replies=replies, responders=len(replies),
                retried=False, probes_used=0,
            )
            verified = register._filter(result)
            expected = {
                server
                for server, stored in replies.items()
                if plain_verify("x", stored.value, stored.timestamp, stored.signature)
            }
            assert set(verified) == expected, (signed, lookalikes)
            assert 0 in expected
        # Eight echoes of one honest str record cost a single verify.
        calls.clear()
        signature = scheme.sign("x", "s", ts)
        replies = {server: StoredValue("s", ts, signature) for server in range(8)}
        result = ReadRpcResult(
            quorum=frozenset(replies), replies=replies, responders=8,
            retried=False, probes_used=0,
        )
        assert len(register._filter(result)) == 8
        assert len(calls) == 1

    def test_masking_register_requires_a_threshold_system(self):
        _, client = deploy(PLAIN)
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            AsyncMaskingRegister(client)

    def test_async_register_for_resolves_the_scenario_kind(self):
        for system, expected in (
            (PLAIN, AsyncRegister),
            (DISSEMINATION, AsyncDisseminationRegister),
            (MASKING, AsyncMaskingRegister),
        ):
            _, client = deploy(system)
            register = async_register_for(ScenarioSpec(system=system), client)
            assert type(register) is expected
        # Forcing plain over a masking system mirrors the spec's escape hatch.
        _, client = deploy(MASKING)
        forced = async_register_for(
            ScenarioSpec(system=MASKING, register_kind="plain"), client
        )
        assert type(forced) is AsyncRegister

    def test_service_outcomes_match_the_sequential_register_semantics(self):
        # One deterministic state: 3 servers store the old version, the rest
        # the new one.  The async masking frontend and the sync register must
        # select and label identically (shared selection + classification).
        nodes, client = deploy(MASKING, seed=2)

        async def scenario():
            register = AsyncMaskingRegister(client)
            await register.write("v1")
            await register.write("v2")
            outcome = await register.read()
            return register.classify_read(outcome), outcome

        label, outcome = run(scenario())
        assert label == "fresh"
        assert outcome.value == "v2"
        assert outcome.votes >= outcome.threshold
