"""Tests for the transport conditions and the replica nodes."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ConfigurationError, ServiceError
from repro.protocol.timestamps import Timestamp
from repro.service.dispatch import BatchedDispatcher
from repro.service.node import NO_REPLY, ServiceNode
from repro.service.transport import AsyncTransport
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineSilentBehavior,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestAsyncTransport:
    def test_healthy_round_trip_through_the_dispatcher(self):
        node = ServiceNode(0)
        transport = AsyncTransport()
        dispatcher = BatchedDispatcher([node], transport)

        async def scenario():
            acks = await dispatcher.fan_out([0], "write", ("x", "v", Timestamp(1), None), None)
            assert acks == {0: True}
            replies = await dispatcher.fan_out([0], "read", ("x",), None)
            assert replies[0].value == "v"

        run(scenario())
        assert transport.calls == 2
        assert transport.dropped == transport.timed_out == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncTransport(latency=-1.0)
        with pytest.raises(ConfigurationError):
            AsyncTransport(latency=0.001, jitter=0.01)
        with pytest.raises(ConfigurationError):
            AsyncTransport(drop_probability=1.0)

    def test_jitter_is_reproducible_per_seed(self):
        delays = []
        for _ in range(2):
            transport = AsyncTransport(latency=0.01, jitter=0.005, seed=11)
            delays.append([transport.draw_delay() for _ in range(20)])
        assert delays[0] == delays[1]
        assert len(set(delays[0])) > 1


class TestServiceNode:
    def test_crash_and_recover_preserve_storage(self):
        node = ServiceNode(0)
        assert node.handle("write", "x", "v", Timestamp(1), None) == ("ok", True)
        node.crash()
        assert node.handle("read", "x") is NO_REPLY
        assert node.handle("write", "x", "w", Timestamp(2), None) is NO_REPLY
        assert not node.answers_pings
        node.recover()
        tag, stored = node.handle("read", "x")
        assert stored.value == "v"

    def test_empty_register_answers_explicitly(self):
        # "I store nothing" must be distinguishable from a dead server.
        node = ServiceNode(0)
        assert node.handle("read", "x") == ("ok", None)
        assert node.handle("ping") == ("ok", True)

    def test_silent_byzantine_suppresses_everything(self):
        node = ServiceNode(0, ByzantineSilentBehavior())
        assert node.handle("ping") is NO_REPLY
        assert node.handle("read", "x") is NO_REPLY
        assert node.handle("write", "x", "v", Timestamp(1), None) is NO_REPLY

    def test_live_behavior_swap(self):
        node = ServiceNode(0)
        node.handle("write", "x", "v", Timestamp(1), None)
        node.set_behavior(ByzantineForgeBehavior("FORGED", Timestamp.forged_maximum()))
        tag, stored = node.handle("read", "x")
        assert stored.value == "FORGED"
        assert node.answers_pings  # a forger looks perfectly alive

    def test_unknown_method_is_a_service_error(self):
        with pytest.raises(ServiceError):
            ServiceNode(0).handle("warp")
