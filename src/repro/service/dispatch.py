"""In-process RPC dispatch: how every in-process client reaches its replicas.

A quorum operation touches ``q`` servers, and with a thousand concurrent
clients that is thousands of RPCs per scheduling tick.  Giving each one its
own coroutine, timer and deadline would make per-*operation* bookkeeping
the cost that grows with traffic, where the paper's whole point is that
only per-*server* load should.  :class:`BatchedDispatcher` therefore
batches per server:

* every RPC is appended to its destination node's pending bucket; the
  **first** RPC to reach a node in a scheduling window arms one delivery
  event (``call_later`` at the transport delay, or ``call_soon`` when it is
  zero) and every later RPC to the same node rides along — one timer per
  *(node, tick)*, not per RPC;
* a fanned-out operation is one :class:`_PendingOp`: a single future the
  caller awaits, resolved when every constituent RPC's fate is known.  An
  operation with missed RPCs (drops, crashes, silent servers) resolves at
  its *operation* deadline — at most one ``call_later`` per operation, armed
  lazily and only when a miss actually happened — so the loss-free fast path
  runs with **zero** deadline timers.

The transport decides each message's fate: drops are sampled per message
from the transport's RNG and all failure counters
(``calls``/``dropped``/``timed_out``) live on the transport.  The delivery
delay is drawn once per (node, tick), and RPCs joining an already-armed
window are delivered with it.  A missing reply costs the caller its
deadline, and with no deadline the caller learns of the loss after the
transport delay.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.node import NO_REPLY, ServiceNode
from repro.service.stats import EwmaLatencyTracker
from repro.service.transport import AsyncTransport
from repro.types import ServerId

class _PendingOp:
    """One fanned-out operation: shared reply dict, shared deadline.

    The caller awaits :attr:`future`, which resolves to the
    ``{server: payload}`` map of every RPC that answered.  ``deliver`` and
    ``miss`` are called from flush callbacks as each constituent RPC's fate
    becomes known; the op resolves immediately when everything answered, and
    otherwise at ``start + timeout`` (one lazily armed timer): a missing reply
    costs the caller its whole deadline.
    """

    __slots__ = (
        "loop", "future", "replies", "timeout", "start", "remaining", "misses",
        "trace",
    )

    def __init__(
        self, loop: asyncio.AbstractEventLoop, timeout: Optional[float], total: int
    ) -> None:
        self.loop = loop
        self.future = loop.create_future()
        self.replies: Dict[ServerId, Any] = {}
        self.timeout = timeout
        self.start = loop.time()
        self.remaining = total
        self.misses = 0
        self.trace: Any = None

    def deliver(self, server: ServerId, payload: Any) -> None:
        self.replies[server] = payload
        self.remaining -= 1
        if self.remaining == 0:
            self._finish()

    def miss(self, server: ServerId) -> None:
        self.misses += 1
        self.remaining -= 1
        if self.remaining == 0:
            self._finish()

    def _finish(self) -> None:
        if self.misses == 0 or self.timeout is None:
            self._resolve()
            return
        remaining = self.start + self.timeout - self.loop.time()
        if remaining <= 0.0:
            self._resolve()
        else:
            self.loop.call_later(remaining, self._resolve)

    def _resolve(self) -> None:
        if not self.future.done():
            self.future.set_result(self.replies)


class BatchedDispatcher:
    """Coalescing RPC dispatch shared by every client of one deployment.

    Parameters
    ----------
    nodes:
        The replica nodes, indexed by server id.
    transport:
        The shared transport: source of delays, drop sampling and the
        ``calls``/``dropped``/``timed_out`` counters.
    tracker:
        Optional :class:`~repro.service.stats.EwmaLatencyTracker` fed with
        per-server delivery latencies and miss penalties.
    """

    def __init__(
        self,
        nodes: Sequence[ServiceNode],
        transport: AsyncTransport,
        tracker: Optional[EwmaLatencyTracker] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.transport = transport
        self.tracker = tracker
        self._pending: List[List[Tuple[_PendingOp, str, tuple]]] = [
            [] for _ in self.nodes
        ]
        self._armed: List[bool] = [False] * len(self.nodes)
        #: Delivery events fired so far (tests assert coalescing through it:
        #: with batching this is far below the RPC count).
        self.flushes = 0
        #: Fire-and-forget repair payloads awaiting each node's next flush.
        self._repairs: List[List[tuple]] = [[] for _ in self.nodes]
        #: Repair payloads delivered so far (piggybacked, never counted as
        #: transport calls: they ride delivery events that already happened).
        self.repairs_piggybacked = 0

    async def fan_out(
        self,
        servers: Sequence[ServerId],
        method: str,
        args: tuple,
        timeout: Optional[float],
        trace: Optional[Any] = None,
    ) -> Dict[ServerId, Any]:
        """Issue one logical operation: ``method`` to every listed server.

        Returns the ``{server: payload}`` map of the replies that arrived
        within the operation deadline.  A ``trace`` collects one span per
        constituent RPC as its fate is flushed.
        """
        if not servers:
            return {}
        loop = asyncio.get_running_loop()
        op = _PendingOp(loop, timeout, len(servers))
        if trace is not None:
            op.trace = trace
        transport = self.transport
        transport.calls += len(servers)
        pending = self._pending
        armed = self._armed
        for server in servers:
            pending[server].append((op, method, args))
            if not armed[server]:
                armed[server] = True
                delay = transport.draw_delay()
                if delay > 0.0:
                    loop.call_later(delay, self._flush, server, loop.time() + delay)
                else:
                    loop.call_soon(self._flush, server, op.start)
        return await op.future

    def enqueue_repair(
        self,
        server: ServerId,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
    ) -> None:
        """Attach one read-repair payload to ``server``'s next flush.

        The repair rides the next coalesced delivery event — piggybacked, so
        it costs no RPC round and no transport call.  If nothing is armed
        for the node yet, a delivery event is armed exactly as an RPC would
        arm one, so repairs cannot starve on an idle node.
        """
        self._repairs[server].append((variable, value, timestamp, signature))
        if not self._armed[server]:
            self._armed[server] = True
            loop = asyncio.get_running_loop()
            delay = self.transport.draw_delay()
            if delay > 0.0:
                loop.call_later(delay, self._flush, server, loop.time() + delay)
            else:
                loop.call_soon(self._flush, server, loop.time())

    def _flush(self, server: ServerId, flush_at: float) -> None:
        """Deliver a node's whole pending bucket: one event per (node, tick)."""
        self._armed[server] = False
        bucket = self._pending[server]
        repairs = self._repairs[server]
        if repairs:
            # Piggybacked read-repair: delivered with the tick (the delivery
            # event has already happened, so no extra drop sampling) and
            # absorbed by the replica's merge rule — crashed and Byzantine
            # nodes refuse, exactly as in the gossip engine.
            node_handle = self.nodes[server].handle
            for variable, value, timestamp, signature in repairs:
                node_handle("repair", variable, value, timestamp, signature)
            self.repairs_piggybacked += len(repairs)
            repairs.clear()
        if not bucket:
            return
        self.flushes += 1
        node = self.nodes[server]
        transport = self.transport
        rng_draw = transport.rng.random
        drop_p = transport.drop_probability
        handle = node.handle
        tracker = self.tracker
        now = bucket[0][0].loop.time() if tracker is not None else 0.0
        for op, method, args in bucket:
            if drop_p and rng_draw() < drop_p:
                transport.dropped += 1
                if op.trace is not None:
                    op.trace.record(server, method, op.start, flush_at, "dropped")
            elif op.timeout is not None and flush_at - op.start > op.timeout:
                # Deadlines are judged per *operation* in simulated time: an
                # RPC that rode an already-armed window was enqueued after
                # the op that armed it, so its own delivery delay
                # (scheduled flush time minus its start) can be inside its
                # deadline even when the window's drawn delay is not.  Using
                # the *scheduled* flush time (not the wall clock at which
                # this callback actually ran) keeps event-loop lag from
                # counting against the transport's deadline: fates follow
                # drawn delays.
                transport.timed_out += 1
                if op.trace is not None:
                    op.trace.record(server, method, op.start, flush_at, "timeout")
            else:
                reply = handle(method, *args)
                if reply is not NO_REPLY:
                    if tracker is not None:
                        tracker.observe(server, now - op.start)
                    if op.trace is not None:
                        op.trace.record(server, method, op.start, flush_at, "ok")
                    op.deliver(server, reply[1])
                    continue
                transport.timed_out += 1
                if op.trace is not None:
                    op.trace.record(server, method, op.start, flush_at, "silent")
            if tracker is not None:
                tracker.penalize(
                    server, op.timeout if op.timeout is not None else now - op.start
                )
            op.miss(server)
        # Reuse the bucket list across ticks instead of reallocating it.
        bucket.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"BatchedDispatcher(nodes={len(self.nodes)}, flushes={self.flushes})"
        )
