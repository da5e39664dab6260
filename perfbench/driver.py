"""One benchmark run against one deployment: set-up, warm-up, open and closed loop.

Every operation goes through the public ``repro.api.Deployment`` facade.
Each read is classified as it completes, with ``classify_service_read``
against the benchmark's own issued-write history.  Classifying at once
keeps no per-read record alive, so the benchmark does not grow the heap
that the garbage collector scans while the service runs.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import Deployment
from repro.protocol.classification import OUTCOME_LABELS
from repro.service.load import (
    FaultInjectionSpec,
    classify_service_read,
    inject_faults,
    key_names,
)

from spans import Recorder
from workloads import CLOSED_IN_FLIGHT, Inputs, Op, Workload

#: How long a segment may take to finish its in-flight operations after its
#: last arrival (open loop) or its end (closed loop) before the stragglers
#: are cancelled and count as failed.
DRAIN_SECONDS = 10.0


@dataclass
class Counters:
    """Deployment-wide counters read before and after each phase."""

    rpc_calls: int = 0
    rpc_dropped: int = 0
    rpc_timeouts: int = 0
    dispatch_flushes: int = 0
    repairs_piggybacked: int = 0
    gossip_rounds: int = 0
    probe_fallbacks: int = 0
    node_requests: int = 0
    reconnects: int = 0

    def _combine(self, other: "Counters", sign: int) -> "Counters":
        return Counters(**{
            name: getattr(self, name) + sign * getattr(other, name)
            for name in self.__dataclass_fields__
        })

    def __add__(self, other: "Counters") -> "Counters":
        return self._combine(other, 1)

    def __sub__(self, other: "Counters") -> "Counters":
        return self._combine(other, -1)


@dataclass
class Phase:
    """What one kind of timed phase did, summed over all its segments."""

    name: str
    attempted: int = 0
    completed: int = 0
    reads: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    read_latency: List[float] = field(default_factory=list)
    write_latency: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    #: perf_counter interval of each segment, for span attribution.
    windows: List[tuple] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    first_error: Optional[str] = None
    #: Indices of the closed loop's operations, continued across segments.
    cursor: Any = field(default_factory=itertools.count)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


class Run:
    """A deployed workload plus the bookkeeping that judges its outputs."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 recorder: Optional[Recorder] = None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.recorder = recorder
        self.keys = key_names(workload.keys)
        self.scenario: Any = None
        self.deployment: Any = None
        self.writers: List[Any] = []
        self.readers: List[Any] = []
        #: key -> {timestamp: value} for every write issued.
        self.history: Dict[str, Dict[Any, Any]] = {key: {} for key in self.keys}
        #: key -> highest-timestamp completed write.
        self.settled: Dict[str, Any] = {key: None for key in self.keys}
        #: Reads per ``classify_service_read`` label, plus ``unissued``: an
        #: accepted value whose timestamp was never issued with that value.
        self.labels = {label: 0 for label in OUTCOME_LABELS + ("unissued",)}
        #: Operation tasks not yet finished (each removes itself when done).
        self.tasks: set = set()
        self._churn: Optional[asyncio.Task] = None
        self.churn_counters = {"injected": 0}
        self._op_ids = itertools.count(1)

    # -- set-up -------------------------------------------------------------------

    async def setup(self) -> None:
        """Build, start, connect and write every key once."""
        workload = self.workload
        self.scenario = workload.scenario()
        builder = (
            Deployment.builder(self.scenario)
            .transport(workload.transport)
            .shards(1)
            .deadline(workload.deadline)
            .seed(self.inputs.deployment_seed)
            .conditions(workload.latency, workload.jitter, workload.drop_probability)
        )
        if workload.anti_entropy:
            builder = builder.anti_entropy(fanout=2, repair_budget=4)
        self.deployment = builder.build()
        await self.deployment.start()
        base = self.scenario.writer_id
        self.writers = [
            self.deployment.connect(writer_id=base + index)
            for index in range(workload.writers)
        ]
        self.readers = [self.deployment.connect() for _ in range(workload.readers)]
        for writer in self.writers:
            writer.on_issued = self._issued
        for index, key in enumerate(self.keys):
            outcome = await self.writers[0].write(key, f"s{index}")
            self._settle(key, outcome)

    def start_churn(self) -> None:
        if self.workload.churn_crashes:
            spec = FaultInjectionSpec(
                crash_count=self.workload.churn_crashes,
                interval=self.workload.churn_interval,
            )
            self._churn = asyncio.ensure_future(inject_faults(
                self.deployment.sharded, spec,
                random.Random(self.inputs.churn_seed), self.churn_counters,
            ))

    async def teardown(self) -> None:
        if self._churn is not None:
            self._churn.cancel()
            try:
                await self._churn
            except asyncio.CancelledError:
                pass
            self._churn = None
        if self.deployment is not None:
            await self.deployment.aclose()

    def _issued(self, key: str, timestamp: Any, value: Any) -> None:
        self.history[key][timestamp] = value

    def _settle(self, key: str, outcome: Any) -> None:
        current = self.settled[key]
        if current is None or current.timestamp < outcome.timestamp:
            self.settled[key] = outcome

    # -- operations ---------------------------------------------------------------

    def counters(self) -> Counters:
        sharded = self.deployment.sharded
        return Counters(
            rpc_calls=sharded.rpc_calls,
            rpc_dropped=sharded.rpc_dropped,
            rpc_timeouts=sharded.rpc_timeouts,
            dispatch_flushes=sharded.dispatch_flushes,
            repairs_piggybacked=sharded.repairs_piggybacked,
            gossip_rounds=sharded.gossip_rounds,
            probe_fallbacks=sum(
                client.probe_fallbacks for client in self.writers + self.readers
            ),
            node_requests=sum(
                node.requests for shard in sharded.shards for node in shard.nodes
            ),
            reconnects=sum(
                getattr(shard.transport, "reconnects", 0) for shard in sharded.shards
            ),
        )

    async def _op(self, phase: Phase, index: int, op: Op, due: Optional[float]) -> None:
        is_write, key_index, client = op
        key = self.keys[key_index]
        token = (
            self.recorder.begin_op(next(self._op_ids))
            if self.recorder is not None and self.recorder.active
            else None
        )
        try:
            if is_write:
                outcome = await self.writers[client].write(key, f"{phase.name}{index}")
                self._settle(key, outcome)
            else:
                snapshot = self.settled[key]
                outcome = await self.readers[client].read(key)
                self._judge(key, outcome, snapshot)
                phase.reads += 1
                if outcome.timestamp is None and snapshot is not None:
                    phase.fail("empty-after-settled-write")
                    return
        except Exception as error:  # an operation that raises is a counted failure
            phase.fail(type(error).__name__)
            if phase.first_error is None:
                phase.first_error = f"{type(error).__name__}: {error}"
            return
        finally:
            if token is not None:
                self.recorder.end_op(token)
        phase.completed += 1
        if due is not None:
            latency = asyncio.get_running_loop().time() - due
            (phase.write_latency if is_write else phase.read_latency).append(latency)

    def _begin(self) -> tuple:
        return self.counters(), time.process_time(), time.perf_counter()

    def _end(self, phase: Phase, begun: tuple) -> None:
        counters, cpu, wall = begun
        end = time.perf_counter()
        phase.cpu += time.process_time() - cpu
        phase.wall += end - wall
        phase.windows.append((wall, end))
        phase.counters = phase.counters + (self.counters() - counters)

    async def open_loop(self, phase: Phase, arrivals: List[float], ops: List[Op],
                        first: int = 0) -> Phase:
        """One segment: issue ``ops`` at their Poisson send times, whatever is in
        flight, then wait for the stragglers.  ``arrivals`` count from now;
        ``first`` numbers the segment's operations after earlier segments'."""
        loop = asyncio.get_running_loop()
        tasks = self.tasks
        begun = self._begin()
        origin = loop.time()
        for index, (offset, op) in enumerate(zip(arrivals, ops), first):
            due = origin + offset
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            phase.lags.append(now - due)
            phase.attempted += 1
            task = loop.create_task(self._op(phase, index, op, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await _drain(phase, set(tasks), DRAIN_SECONDS)
        self._end(phase, begun)
        return phase

    async def closed_loop(self, phase: Phase, seconds: float, ops: List[Op]) -> Phase:
        """One segment: keep ``CLOSED_IN_FLIGHT`` operations in flight for ``seconds``."""
        loop = asyncio.get_running_loop()

        async def worker() -> None:
            while loop.time() < stop:
                index = next(phase.cursor)
                phase.attempted += 1
                await self._op(phase, index, ops[index % len(ops)], None)

        begun = self._begin()
        stop = loop.time() + seconds
        workers = [loop.create_task(worker()) for _ in range(CLOSED_IN_FLIGHT)]
        for task in workers:
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)
        for task in await _drain(phase, workers, seconds + DRAIN_SECONDS):
            task.result()  # a worker never raises: _op counts every failure
        self._end(phase, begun)
        return phase

    # -- judging ------------------------------------------------------------------

    def _judge(self, key: str, outcome: Any, snapshot: Any) -> None:
        history = self.history[key]
        self.labels[classify_service_read(outcome, snapshot, history)] += 1
        if outcome.timestamp is not None:
            try:
                issued = history.get(outcome.timestamp, _MISSING) == outcome.value
            except TypeError:  # an unhashable timestamp was never issued
                issued = False
            if not issued:
                self.labels["unissued"] += 1

    def unfinished_tasks(self) -> int:
        return len(self.tasks)


_MISSING = object()


async def _drain(phase: Phase, tasks, timeout: float) -> set:
    """Wait for ``tasks``; cancel the ones still running after ``timeout``.

    Each cancelled task was inside one operation, which counts as failed.
    Returns the tasks that finished on their own.
    """
    done, late = await asyncio.wait(tasks, timeout=timeout)
    for task in late:
        task.cancel()
    if late:
        await asyncio.wait(late)
        for _ in late:
            phase.fail("undrained")
    return done


async def timed_setups(workload: Workload, inputs: Inputs, repeats: int) -> List[float]:
    """Set-up time of ``repeats`` throwaway deployments (build through seeded keys)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run = Run(workload, inputs)
        try:
            await run.setup()
            times.append(time.perf_counter() - started)
        finally:
            await run.teardown()
    return times
