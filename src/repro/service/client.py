"""The asynchronous quorum client: concurrent fan-out plus quorum repair.

A client performs one protocol operation (read or write) by sampling a
quorum through the system's access strategy — the paper stresses the
strategy must be followed for the ε guarantee to hold — and handing the
whole quorum to its dispatcher as one fan-out under one operation deadline:
the in-process :class:`~repro.service.dispatch.BatchedDispatcher` or, over
sockets, the :class:`~repro.service.net.TcpDispatcher`.  The dispatcher is
the client's only way to reach replicas.  Under partial failure (some RPCs
time out) the client falls back to the adaptive probing
of :mod:`repro.quorum.probe`: it pings the whole universe concurrently,
feeds the answers to a probe strategy as the liveness oracle, and re-issues
the operation against the live quorum the strategy assembles.  Uniform
constructions use :class:`~repro.quorum.probe.UniformProbeStrategy` (any
``q`` live servers form a quorum, and random-order probing preserves the
load profile); structured systems fall back to
:class:`~repro.quorum.probe.GreedyProbeStrategy`.

The repair pass *replaces* the original quorum rather than merging reply
sets: a merged super-quorum would not be a strategy-drawn quorum, and for
the masking protocol it would inflate ``|Q ∩ B|`` beyond what Lemma 5.7
accounts for.

Replies are taken as the Byzantine-server model allows them to be: any
payload at all.  A read reply that is not a
:class:`~repro.simulation.server.StoredValue` timestamped with a
:class:`~repro.protocol.timestamps.Timestamp` (or ``None``) counts as
value-less, exactly like an explicit "I store nothing", so no reply a faulty
server sends can crash a read.

**Quorum pooling** (default-on: blocks of :data:`DEFAULT_QUORUM_POOL`; pass
``quorum_pool=0`` for per-operation draws) pre-samples quorums in blocks
through
:meth:`~repro.core.probabilistic.ProbabilisticQuorumSystem.sample_quorum_block`
(vectorised NumPy draw).  Every pooled quorum is an independent strategy
draw, so pooling changes *when* the sampling cost is paid, never the
distribution.

``selection="latency-aware"`` additionally biases quorum choice toward fast
replicas via an EWMA tracker (:mod:`repro.service.stats`).  That mode
**deviates from the access strategy** — the ε guarantee and Lemma 5.7's
``|Q ∩ B|`` accounting hold only for strategy-drawn quorums — so it warns on
construction and the service harness refuses it for Byzantine scenarios;
``selection="strategy"`` remains the default.
"""

from __future__ import annotations

import asyncio
import random
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError, QuorumUnavailableError
from repro.quorum.probe import (
    GreedyProbeStrategy,
    ProbeResult,
    UniformProbeStrategy,
    oracle_from_alive_set,
)
from repro.obs.trace import QuorumTrace, Tracer
from repro.protocol.timestamps import Timestamp
from repro.rngs import fresh_rng
from repro.service.stats import EwmaLatencyTracker
from repro.simulation.server import StoredValue
from repro.types import Quorum, ServerId

if TYPE_CHECKING:
    from repro.service.dispatch import BatchedDispatcher
    from repro.service.net import TcpDispatcher

#: The two quorum-selection modes; only ``strategy`` preserves ε.
SELECTION_MODES = ("strategy", "latency-aware")

#: Quorums pre-sampled per pool refill (one vectorised block draw).
DEFAULT_QUORUM_POOL = 32

EPSILON_CAVEAT = (
    "latency-aware quorum selection deviates from the access strategy: the "
    "ε guarantee (and the masking protocol's |Q ∩ B| accounting) holds only "
    "for strategy-drawn quorums"
)


def _value_or_none(responses: Dict[ServerId, Any]) -> Dict[ServerId, Any]:
    """Map every read reply that is not a well-formed record to ``None``.

    A Byzantine server may answer a read with any payload at all.  Only a
    :class:`~repro.simulation.server.StoredValue` whose timestamp is a
    :class:`~repro.protocol.timestamps.Timestamp` (or ``None``) carries a
    value; anything else is value-less, like an explicit "I store nothing"
    — the server still counts as a responder.  Rewrites ``responses`` in
    place and returns it.
    """
    for server, stored in responses.items():
        if stored is not None and not (
            isinstance(stored, StoredValue)
            and (stored.timestamp is None or isinstance(stored.timestamp, Timestamp))
        ):
            responses[server] = None
    return responses


@dataclass(frozen=True, slots=True)
class WriteRpcResult:
    """Outcome of one fanned-out quorum write.

    ``trace`` carries the operation's :class:`~repro.obs.trace.QuorumTrace`
    when the client samples traces, ``None`` otherwise.
    """

    quorum: Quorum
    acknowledged: frozenset
    retried: bool
    probes_used: int
    trace: Optional[QuorumTrace] = None


@dataclass(frozen=True, slots=True)
class ReadRpcResult:
    """Outcome of one fanned-out quorum read.

    ``replies`` holds the value-bearing answers; ``responders`` counts every
    server that answered at all (including explicit "I store nothing"), which
    is what distinguishes an empty register from a dead quorum.  ``trace``
    carries the operation's :class:`~repro.obs.trace.QuorumTrace` when the
    client samples traces, ``None`` otherwise.
    """

    quorum: Quorum
    replies: Dict[ServerId, StoredValue]
    responders: int
    retried: bool
    probes_used: int
    trace: Optional[QuorumTrace] = None


class AsyncQuorumClient:
    """Concurrent quorum operations through a shared dispatcher.

    Parameters
    ----------
    system:
        The probabilistic quorum system; quorums are drawn from its access
        strategy and repair uses its structure.
    dispatcher:
        The deployment's shared dispatcher — a
        :class:`~repro.service.dispatch.BatchedDispatcher` in process or a
        :class:`~repro.service.net.TcpDispatcher` over sockets.
    deadline:
        Operation deadline in event-loop seconds (``None`` disables it).
    rng:
        Random source for quorum sampling and probe order.
    repair:
        Whether partial failures trigger the probe fallback (on by default;
        the load harness counts how often it fires).
    selection:
        ``"strategy"`` (default, ε-faithful) or ``"latency-aware"`` (biased
        toward fast replicas; warns, see the module docstring).
    tracker:
        Latency tracker backing latency-aware selection.  Share one instance
        across clients of a deployment so estimates aggregate; created on
        demand when latency-aware selection is requested without one.
    quorum_pool:
        Strategy-drawn quorums pre-sampled per block refill (``0`` disables
        pooling and draws per operation).
    pool_generator:
        Optional persistent NumPy generator backing the pool's block draws.
        A deployment shares one across its clients so a thousand clients do
        not pay a thousand bit-generator constructions; by default each
        client derives its own from ``rng`` on first refill.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When set, sampled
        operations assemble a :class:`~repro.obs.trace.QuorumTrace` (quorum,
        one span per RPC, retry/probe accounting) attached to the RPC result.
        ``None`` (the default) keeps every per-operation trace branch off
        the hot path — tracing costs nothing when unused.
    client_id:
        Identity recorded in this client's traces (e.g. the register layer's
        writer id); purely observational.
    shard:
        Shard index recorded in this client's traces when the client serves
        one shard of a sharded deployment; purely observational.
    repair_budget:
        Lagging replicas one settled read may repair by piggybacking
        fire-and-forget repair payloads onto the dispatcher's coalescing
        path (``0``, the default, disables piggybacked read-repair).
    lazy_fallback:
        Skip the read path's probe-fallback round when the partial reply
        set can already settle a value (at least ``read_threshold``
        value-bearing replies).  The probe round exists to chase freshness
        into a fully live quorum; with anti-entropy running that freshness
        is maintained in the background, so deployments arm this together
        with gossip/read-repair and the extra round becomes pure overhead.
        Off by default — without anti-entropy the fallback is what keeps
        reads fresh under churn.  Writes always keep their fallback: a
        write that lands on too few servers is a durability loss no later
        read can repair.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        dispatcher: Union["BatchedDispatcher", "TcpDispatcher"],
        deadline: Optional[float] = 0.05,
        rng: Optional[random.Random] = None,
        repair: bool = True,
        selection: str = "strategy",
        tracker: Optional[EwmaLatencyTracker] = None,
        quorum_pool: int = DEFAULT_QUORUM_POOL,
        pool_generator: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        client_id: Optional[str] = None,
        shard: Optional[int] = None,
        repair_budget: int = 0,
        lazy_fallback: bool = False,
    ) -> None:
        if dispatcher is None:
            raise ConfigurationError(
                "a quorum client reaches its replicas through a dispatcher; "
                "pass the deployment's BatchedDispatcher or TcpDispatcher"
            )
        if deadline is not None and deadline <= 0.0:
            raise ConfigurationError(f"the RPC deadline must be positive, got {deadline}")
        if selection not in SELECTION_MODES:
            raise ConfigurationError(
                f"unknown selection mode {selection!r}; choose from {SELECTION_MODES}"
            )
        if quorum_pool < 0:
            raise ConfigurationError(
                f"the quorum pool size must be non-negative, got {quorum_pool}"
            )
        if repair_budget < 0:
            raise ConfigurationError(
                f"the repair budget must be non-negative, got {repair_budget}"
            )
        self.system = system
        self.deadline = deadline
        self.rng = rng or fresh_rng()
        self.repair = bool(repair)
        self.dispatcher = dispatcher
        self.selection = selection
        self.quorum_pool = int(quorum_pool)
        self._pool: list = []
        self._pool_generator = pool_generator
        self.probe_fallbacks = 0
        self.repair_budget = int(repair_budget)
        self.lazy_fallback = bool(lazy_fallback)
        #: Read-repair payloads piggybacked so far (anti-entropy accounting).
        self.repairs_piggybacked = 0
        self.tracker = tracker
        self.tracer = tracer
        self.client_id = client_id
        self.shard = shard
        self._generator: Optional[np.random.Generator] = None
        if selection == "latency-aware":
            if not hasattr(system, "quorum_size"):
                raise ConfigurationError(
                    "latency-aware selection needs a uniform construction with a "
                    f"fixed quorum_size; {system.describe()} has none"
                )
            if self.tracker is None:
                # Join the deployment's existing tracker rather than
                # splitting observations across per-client instances.
                self.tracker = dispatcher.tracker
            if self.tracker is None:
                self.tracker = EwmaLatencyTracker(system.n)
            self._generator = np.random.default_rng(self.rng.randrange(2**63))
            warnings.warn(EPSILON_CAVEAT, UserWarning, stacklevel=2)
        if self.tracker is not None:
            if self.dispatcher.tracker is None:
                # First tracked client wires the shared dispatcher up; later
                # clients must not silently swap the tracker the earlier
                # ones are drawing from.
                self.dispatcher.tracker = self.tracker
            elif self.dispatcher.tracker is not self.tracker:
                raise ConfigurationError(
                    "the shared dispatcher already feeds a different latency "
                    "tracker; pass that tracker to every client of the "
                    "deployment"
                )

    # -- raw RPC fan-out ----------------------------------------------------------

    async def _fan_out(
        self,
        servers: Sequence[ServerId],
        method: str,
        *args: Any,
        trace: Optional[QuorumTrace] = None,
    ) -> Dict[ServerId, Any]:
        """Issue one RPC per server as one dispatcher operation.

        Returns the ``{server: payload}`` map of the servers that answered
        within the deadline.
        """
        if trace is not None:
            return await self.dispatcher.fan_out(
                servers, method, args, self.deadline, trace=trace
            )
        return await self.dispatcher.fan_out(servers, method, args, self.deadline)

    # -- piggybacked read-repair --------------------------------------------------

    def piggyback_repairs(
        self,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
        servers: Sequence[ServerId],
        trace: Optional[QuorumTrace] = None,
    ) -> int:
        """Queue read-repair at up to :attr:`repair_budget` lagging servers.

        Fire-and-forget anti-entropy: the settled ``(value, timestamp)`` of
        a completed read is attached to the dispatcher's next coalesced
        delivery toward each listed server, so freshness propagates without
        a new RPC round.  Returns how many repairs were queued (0 without a
        budget).  The replica side adopts through its merge rule —
        crashed and Byzantine servers refuse — so a repair can never make a
        copy *worse*, only newer.
        """
        if self.repair_budget <= 0 or not servers:
            return 0
        enqueue = self.dispatcher.enqueue_repair
        targets = list(servers)[: self.repair_budget]
        for server in targets:
            enqueue(server, variable, value, timestamp, signature)
        self.repairs_piggybacked += len(targets)
        if trace is not None:
            now = asyncio.get_running_loop().time()
            for server in targets:
                # Zero-length spans: the payload rides a delivery that is
                # not awaited, so "queued" is all the client ever observes.
                trace.record(server, "repair", now, now, "repair")
        return len(targets)

    # -- liveness probing ---------------------------------------------------------

    def _probe_strategy(self) -> Union[UniformProbeStrategy, GreedyProbeStrategy]:
        if hasattr(self.system, "quorum_size"):
            return UniformProbeStrategy(self.system.n, int(self.system.quorum_size))
        return GreedyProbeStrategy(self.system)

    async def ping_alive(
        self, trace: Optional[QuorumTrace] = None
    ) -> Set[ServerId]:
        """Ping every node concurrently; return the responders."""
        answers = await self._fan_out(range(self.system.n), "ping", trace=trace)
        return set(answers)

    async def assemble_live_quorum(
        self, trace: Optional[QuorumTrace] = None
    ) -> ProbeResult:
        """Probe for a quorum of currently-responding servers.

        The concurrent ping sweep plays the role of the probe strategy's
        liveness oracle; the strategy then decides which live servers form
        a quorum (and reports how many probes that inspection cost).  A
        ``trace`` collects the sweep's pings as spans of the repaired
        operation.
        """
        alive = await self.ping_alive(trace=trace)
        oracle = oracle_from_alive_set(alive)
        strategy = self._probe_strategy()
        if isinstance(strategy, UniformProbeStrategy):
            return strategy.probe(oracle, rng=self.rng)
        return strategy.probe(oracle)

    # -- quorum selection ---------------------------------------------------------

    def sample_quorum(self) -> Quorum:
        """Draw a quorum from the access strategy (public, pool-free)."""
        return self.system.sample_quorum(self.rng)

    def _next_quorum(self) -> Tuple[int, ...]:
        """The quorum the next operation fans out to, as a sorted id tuple.

        Strategy mode pops from the block-sampled pool (refilled through the
        vectorised ``sample_quorum_block``); latency-aware mode draws a
        biased quorum from the tracker per operation, since the bias must
        reflect the latest estimates.
        """
        if self._generator is not None:
            return self.tracker.biased_quorum(
                int(self.system.quorum_size), generator=self._generator
            )
        if self.quorum_pool == 0:
            return tuple(sorted(self.system.sample_quorum(self.rng)))
        pool = self._pool
        if not pool:
            if self._pool_generator is None:
                self._pool_generator = np.random.default_rng(self.rng.randrange(2**63))
            pool.extend(
                self.system.sample_quorum_block(
                    count=self.quorum_pool, generator=self._pool_generator
                )
            )
        return pool.pop()

    # -- protocol operations ------------------------------------------------------

    async def write(
        self,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes] = None,
    ) -> WriteRpcResult:
        """Fan a write out to a strategy-drawn quorum, repairing on failure.

        Raises :class:`~repro.exceptions.QuorumUnavailableError` only when no
        server at all acknowledged and no live quorum could be assembled —
        short of that, missed servers are exactly the crash-misses the ε
        analysis accounts for.
        """
        trace = (
            self.tracer.begin(
                "write", client_id=self.client_id, variable=variable, shard=self.shard
            )
            if self.tracer is not None
            else None
        )
        ordered = self._next_quorum()
        quorum: Quorum = frozenset(ordered)
        if trace is not None:
            trace.quorum = list(ordered)
            trace.selection = {"mode": self.selection}
        acks = await self._fan_out(
            ordered, "write", variable, value, timestamp, signature, trace=trace
        )
        retried = False
        probes = 0
        if len(acks) < len(ordered) and self.repair:
            self.probe_fallbacks += 1
            probe = await self.assemble_live_quorum(trace=trace)
            probes = probe.probes_used
            if probe.found:
                retried = True
                quorum = probe.quorum
                if trace is not None:
                    trace.quorum = sorted(probe.quorum)
                retry_acks = await self._fan_out(
                    sorted(probe.quorum),
                    "write",
                    variable,
                    value,
                    timestamp,
                    signature,
                    trace=trace,
                )
                acks = {**acks, **retry_acks}
            if not acks:
                # Even a successfully probed quorum can lose every retry RPC
                # on a lossy transport; a write nobody stored must not be
                # reported as complete.
                if trace is not None:
                    trace.retried = retried
                    trace.probes_used = probes
                    self.tracer.finish(trace, status="unavailable")
                raise QuorumUnavailableError(
                    f"write of {variable!r}: no server acknowledged "
                    f"({probe.servers_alive} answered the liveness sweep)"
                )
        if trace is not None:
            trace.retried = retried
            trace.probes_used = probes
            self.tracer.finish(trace)
        return WriteRpcResult(
            quorum=quorum,
            acknowledged=frozenset(acks),
            retried=retried,
            probes_used=probes,
            trace=trace,
        )

    def _settleable(self, responses: Dict[ServerId, Any]) -> bool:
        """Whether a partial reply set can already settle a read.

        At least ``read_threshold`` value-bearing replies (one for the
        benign and dissemination protocols, ``⌈k⌉`` for masking) means the
        selection rule has enough votes to pick a winner; chasing the
        missing servers into a probe round buys nothing anti-entropy is
        not already providing in the background.
        """
        threshold = int(getattr(self.system, "read_threshold", 1))
        value_bearing = sum(
            1 for stored in responses.values() if stored is not None
        )
        return value_bearing >= threshold

    async def read(self, variable: str) -> ReadRpcResult:
        """Fan a read out to a strategy-drawn quorum, repairing on failure.

        Never raises: with every reply missing the register layer returns ⊥,
        which is the protocol's own account of an unreachable quorum.
        """
        trace = (
            self.tracer.begin(
                "read", client_id=self.client_id, variable=variable, shard=self.shard
            )
            if self.tracer is not None
            else None
        )
        ordered = self._next_quorum()
        quorum: Quorum = frozenset(ordered)
        if trace is not None:
            trace.quorum = list(ordered)
            trace.selection = {"mode": self.selection}
        responses = _value_or_none(
            await self._fan_out(ordered, "read", variable, trace=trace)
        )
        retried = False
        probes = 0
        if (
            len(responses) < len(ordered)
            and self.repair
            and not (self.lazy_fallback and self._settleable(responses))
        ):
            self.probe_fallbacks += 1
            probe = await self.assemble_live_quorum(trace=trace)
            probes = probe.probes_used
            if probe.found:
                retried = True
                quorum = probe.quorum
                if trace is not None:
                    trace.quorum = sorted(probe.quorum)
                responses = _value_or_none(
                    await self._fan_out(
                        sorted(probe.quorum), "read", variable, trace=trace
                    )
                )
        replies = {
            server: stored for server, stored in responses.items() if stored is not None
        }
        if trace is not None:
            trace.retried = retried
            trace.probes_used = probes
            self.tracer.finish(trace)
        return ReadRpcResult(
            quorum=quorum,
            replies=replies,
            responders=len(responses),
            retried=retried,
            probes_used=probes,
            trace=trace,
        )
