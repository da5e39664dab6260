"""Process-per-shard serving: real OS processes behind the sharded client API.

:class:`~repro.service.sharding.ShardedDeployment` hosts every shard's
socket server on the *caller's* event loop — fine for conformance runs, but
the whole deployment then shares one core with the load that drives it.
This module moves each shard into its own OS process:

* :class:`ShardServerConfig` — the picklable description one shard server
  needs (scenario, sampled failure plan, bind host); it crosses the
  ``multiprocessing`` *spawn* boundary, so child processes never inherit
  the parent's interpreter state.
* :func:`_shard_server_main` — the child entry point: build the replica
  group, apply the static failure plan, serve one
  :class:`~repro.service.net.TcpServiceServer` until SIGTERM/SIGINT.
* :class:`ClusterDeployment` — spawn one server process per shard, wait
  for the readiness handshake (each child reports its ephemeral port on a
  queue), build client-side transports/dispatchers, expose the same
  :class:`~repro.service.sharding.ShardedClientAPI` surface as the in-loop
  deployment, probe shard health, and tear everything down without
  orphans (terminate → join → kill).
* :class:`ClusterClientPool` — a client-side-only view of an already
  running cluster (addresses known), used by load worker processes.
* :func:`run_cluster_load` — the multi-process load generator: partition a
  :class:`~repro.service.load.ServiceLoadSpec` across worker processes
  (each running the ordinary async client harness against the shared
  cluster) and merge the partial results into one
  :class:`~repro.service.load.ServiceLoadReport`.

The load partition is by *register key*: worker ``w`` owns the keys whose
index satisfies ``index % workers == w``, and runs both the writers and
the readers of those keys.  Readers classify against per-key issued
histories and settled-write snapshots, which are only sound when observed
in the same process that tracks them — co-locating each key's readers and
writers keeps the zero-fabrication accounting exact with no cross-process
coordination.  (This is also why live fault injection and write
``contention`` are refused in cluster mode: the first needs in-process
node objects, the second would collide writers across partitions.)

Live fault injection aside, the cluster path runs the same scenario
semantics as every other layer — the conformance suite holds its
classification rates against the Monte-Carlo engines and the in-loop
services.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import queue as queue_module
import random
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, QuorumUnavailableError, ServiceError
from repro.protocol.classification import OUTCOME_LABELS
from repro.protocol.variable import WriteOutcome
from repro.service.gossip import GOSSIP_SEED_SALT, GossipService, scenario_verifier
from repro.service.net import TcpDispatcher, TcpServiceServer, TcpTransport
from repro.service.node import ServiceNode
from repro.service.sharding import ShardedClientAPI, _Shard, shard_for_key
from repro.service.stats import EwmaLatencyTracker
from repro.simulation.failures import FailurePlan
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: How long :meth:`ClusterDeployment.start` waits for every shard process
#: to report readiness before tearing the partial cluster down.
DEFAULT_START_TIMEOUT = 30.0

#: Patience per process during teardown before escalating SIGTERM → SIGKILL.
_JOIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class ShardServerConfig:
    """Everything one shard server process needs; crosses the spawn boundary."""

    index: int
    scenario: ScenarioSpec
    plan: FailurePlan
    host: str = "127.0.0.1"
    #: Optional :class:`~repro.simulation.scenario.AntiEntropySpec`: a
    #: gossiping spec arms a background gossip task next to the server.
    anti_entropy: Any = None
    #: Seed of the gossip task's peer-selection RNG.
    gossip_seed: int = 0


async def _serve_shard(config: ShardServerConfig, ready) -> None:
    nodes = [ServiceNode(server) for server in range(config.scenario.n)]
    for server in config.plan.crashed:
        nodes[server].crash()
    for server, behavior in config.plan.byzantine.items():
        nodes[server].set_behavior(behavior)
    server = TcpServiceServer(nodes, host=config.host)
    address = await server.start()
    gossip = None
    if config.anti_entropy is not None and config.anti_entropy.gossips:
        # Background anti-entropy runs where the replicas live: in this
        # shard's process, alongside the socket server, with the same
        # verifiability rule the scenario's register kind implies.
        gossip = GossipService(
            nodes,
            config.anti_entropy,
            rng=random.Random(config.gossip_seed),
            verify=scenario_verifier(config.scenario),
        )
        gossip.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            signal.signal(signum, lambda *_args: stop.set())
    # The readiness handshake: the parent learns the ephemeral port (and
    # that the interpreter, imports and bind all succeeded) from this one
    # message — only then does it build transports.
    ready.put((config.index, address))
    await stop.wait()
    if gossip is not None:
        await gossip.aclose()
    # Server-side metrics ride the same pipe home at shutdown: put before
    # closing the server (counters are final once stop is signalled) and
    # tagged so the parent's readiness loop can never confuse the shapes.
    ready.put(
        (
            "metrics",
            config.index,
            server.metrics_snapshot({"shard": config.index, "role": "shard-server"}),
        )
    )
    if gossip is not None:
        ready.put(
            (
                "metrics",
                config.index,
                gossip.metrics_snapshot(
                    {"shard": config.index, "role": "shard-server"}
                ),
            )
        )
    await server.aclose()


def _shard_server_main(config: ShardServerConfig, ready) -> None:
    """Child-process entry point: serve one shard until told to stop."""
    try:
        asyncio.run(_serve_shard(config, ready))
    except KeyboardInterrupt:  # SIGINT before/while the loop winds down
        pass


class ClusterDeployment(ShardedClientAPI):
    """``shards`` independent replica-group *processes*, routed by key.

    The client-facing surface (``client_for_shard``, ``new_register_client``,
    the RPC counters) is the shared :class:`ShardedClientAPI`; what differs
    from :class:`~repro.service.sharding.ShardedDeployment` is only where
    the servers live.  Per-shard failure plans, transport seeds and pool
    generators are sampled from ``rng`` in the same shard order as the
    in-loop deployment, so one seed describes the same cluster in both
    shapes.

    Parameters mirror ``ShardedDeployment`` (transport is always TCP here).
    A gossiping
    ``anti_entropy`` spec (explicit, or inherited from the scenario) arms a
    background gossip task *inside each shard server process*; its counters
    ride the readiness pipe home at shutdown as extra metric snapshots.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        shards: int = 1,
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        latency_tracking: bool = False,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
        host: str = "127.0.0.1",
        start_timeout: float = DEFAULT_START_TIMEOUT,
        anti_entropy: Optional[AntiEntropySpec] = None,
    ) -> None:
        if not isinstance(scenario, ScenarioSpec):
            raise ConfigurationError(
                f"a deployment is described over a ScenarioSpec, "
                f"got {type(scenario).__name__}"
            )
        if shards < 1:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        if rng is None:
            rng = random.Random(seed) if seed is not None else random.Random()
        if anti_entropy is None:
            anti_entropy = scenario.anti_entropy
        elif not isinstance(anti_entropy, AntiEntropySpec):
            raise ConfigurationError(
                f"anti_entropy is described by an AntiEntropySpec, "
                f"got {type(anti_entropy).__name__}"
            )
        if anti_entropy is not None and anti_entropy.fanout >= scenario.n:
            raise ConfigurationError(
                f"anti-entropy fanout {anti_entropy.fanout} must be smaller "
                f"than the replica group size {scenario.n}"
            )
        self.anti_entropy = anti_entropy
        self.scenario = scenario
        self.transport_mode = "tcp"
        self.latency_tracking = bool(latency_tracking)
        self._knobs = (latency, jitter, drop_probability)
        self._host = host
        self._start_timeout = float(start_timeout)
        self._started = False
        self._processes: List[Any] = []
        self._ready_queue: Optional[Any] = None
        #: ``(host, port)`` per shard, known after :meth:`start`.
        self.addresses: List[Tuple[str, int]] = []
        #: Per-shard server metric snapshots, drained from the readiness
        #: pipe during :meth:`aclose` (each child reports once at SIGTERM).
        self.server_metrics: List[dict] = []
        n = scenario.n
        self.shards: List[_Shard] = []
        for index in range(shards):
            shard = _Shard()
            shard.index = index
            shard.plan = scenario.failure_model.sample_plan_for(n, rng)
            shard.transport_seed = rng.randrange(2**63)
            shard.tracker = EwmaLatencyTracker(n) if latency_tracking else None
            shard.pool_generator = np.random.default_rng(rng.randrange(2**63))
            self.shards.append(shard)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def processes_alive(self) -> int:
        """Shard server processes currently running."""
        return sum(1 for process in self._processes if process.is_alive())

    @property
    def pids(self) -> List[int]:
        """OS pids of the shard server processes, in shard order."""
        return [process.pid for process in self._processes]

    def process_health(self) -> List[bool]:
        """Liveness of each shard's server process, in shard order."""
        return [process.is_alive() for process in self._processes]

    async def start(self) -> None:
        """Spawn the shard servers; returns once every shard reported ready."""
        if self._started:
            return
        context = multiprocessing.get_context("spawn")
        self._ready_queue = context.Queue()
        for shard in self.shards:
            config = ShardServerConfig(
                index=shard.index,
                scenario=self.scenario,
                plan=shard.plan,
                host=self._host,
                anti_entropy=self.anti_entropy,
                gossip_seed=shard.transport_seed ^ GOSSIP_SEED_SALT,
            )
            process = context.Process(
                target=_shard_server_main,
                args=(config, self._ready_queue),
                name=f"repro-shard-{shard.index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        try:
            addresses = await self._await_ready()
        except BaseException:
            await self.aclose()
            raise
        self.addresses = [addresses[index] for index in range(len(self.shards))]
        latency, jitter, drop_probability = self._knobs
        for shard, address in zip(self.shards, self.addresses):
            shard.transport = TcpTransport(
                address,
                latency=latency,
                jitter=jitter,
                drop_probability=drop_probability,
                seed=shard.transport_seed,
            )
            await shard.transport.connect()
            shard.dispatcher = TcpDispatcher(shard.transport, tracker=shard.tracker)
        self._started = True

    async def _await_ready(self) -> Dict[int, Tuple[str, int]]:
        loop = asyncio.get_running_loop()
        addresses: Dict[int, Tuple[str, int]] = {}
        deadline = time.monotonic() + self._start_timeout
        while len(addresses) < len(self.shards):
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {self._start_timeout}s waiting for "
                    f"{len(self.shards) - len(addresses)} shard server(s) to start"
                )
            for index, process in enumerate(self._processes):
                # A child that died before reporting will never report.
                if process.exitcode is not None and index not in addresses:
                    raise ServiceError(
                        f"shard server {process.name} exited with code "
                        f"{process.exitcode} before reporting readiness"
                    )
            try:
                index, address = await loop.run_in_executor(
                    None, self._ready_queue.get, True, 0.25
                )
            except queue_module.Empty:
                continue
            addresses[index] = address
        return addresses

    async def aclose(self) -> None:
        """Close transports and reap every shard process (idempotent).

        Escalates per process: SIGTERM (the child closes its server and
        exits its loop), then SIGKILL after :data:`_JOIN_TIMEOUT`.  After
        this returns no child of the deployment is left running.
        """
        for shard in self.shards:
            if shard.transport is not None:
                await shard.transport.aclose()
                shard.transport = None
            shard.dispatcher = None
        loop = asyncio.get_running_loop()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            await loop.run_in_executor(None, process.join, _JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - SIGTERM is normally enough
                process.kill()
                await loop.run_in_executor(None, process.join, _JOIN_TIMEOUT)
        for process in self._processes:
            try:
                process.close()
            except ValueError:  # pragma: no cover - still-running after SIGKILL
                pass
        self._processes = []
        if self._ready_queue is not None:
            # Every child reported its server metrics on this pipe right
            # after SIGTERM; with all processes joined, whatever is queued
            # is all there will ever be.
            while True:
                try:
                    message = self._ready_queue.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
                if (
                    isinstance(message, tuple)
                    and len(message) == 3
                    and message[0] == "metrics"
                ):
                    self.server_metrics.append(message[2])
            self._ready_queue.close()
            self._ready_queue.cancel_join_thread()
            self._ready_queue = None
        self._started = False

    def metrics_snapshots(self, labels: Optional[Dict[str, Any]] = None) -> List[dict]:
        """Client-side snapshots plus whatever the shard servers reported."""
        return super().metrics_snapshots(labels) + list(self.server_metrics)

    async def __aenter__(self) -> "ClusterDeployment":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- health -------------------------------------------------------------------

    async def probe(self, timeout: float = 1.0) -> List[bool]:
        """Ping one correct replica per shard; ``True`` where the shard serves.

        Complements :meth:`process_health` (a live process whose server
        wedged still fails the probe).  Probes a replica the failure plan
        left correct — a statically crashed replica is *supposed* to stay
        silent and would fail the probe of a perfectly healthy shard.
        """
        results = []
        for shard in self.shards:
            target = next(
                (
                    server
                    for server in range(self.scenario.n)
                    if server not in shard.plan.faulty_servers
                ),
                0,
            )
            try:
                replies = await shard.dispatcher.fan_out([target], "ping", (), timeout)
                results.append(target in replies)
            except Exception:
                results.append(False)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ClusterDeployment({self.scenario.describe()}, "
            f"shards={len(self.shards)}, "
            f"alive={self.processes_alive})"
        )


class ClusterClientPool(ShardedClientAPI):
    """Client-side view of a cluster that is already serving.

    Load worker processes construct one of these from the parent's shard
    addresses: same routing, same client API, no server ownership — closing
    the pool closes sockets, never processes.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        addresses: Sequence[Tuple[str, int]],
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        transport_seeds: Optional[Sequence[int]] = None,
        pool_seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.scenario = scenario
        self.transport_mode = "tcp"
        self._started = False
        self._knobs = (latency, jitter, drop_probability)
        self.addresses = [(str(host), int(port)) for host, port in addresses]
        self.shards: List[_Shard] = []
        for index, _address in enumerate(self.addresses):
            shard = _Shard()
            shard.index = index
            shard.transport_seed = (
                transport_seeds[index] if transport_seeds is not None else index
            )
            shard.pool_generator = np.random.default_rng(
                pool_seeds[index] if pool_seeds is not None else index
            )
            self.shards.append(shard)

    async def start(self) -> None:
        if self._started:
            return
        latency, jitter, drop_probability = self._knobs
        for shard, address in zip(self.shards, self.addresses):
            shard.transport = TcpTransport(
                address,
                latency=latency,
                jitter=jitter,
                drop_probability=drop_probability,
                seed=shard.transport_seed,
            )
            await shard.transport.connect()
            shard.dispatcher = TcpDispatcher(shard.transport)
        self._started = True

    async def aclose(self) -> None:
        for shard in self.shards:
            if shard.transport is not None:
                await shard.transport.aclose()
                shard.transport = None
            shard.dispatcher = None
        self._started = False

    async def __aenter__(self) -> "ClusterClientPool":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


# -- the multi-process load generator ----------------------------------------------


@dataclass(frozen=True)
class LoadWorkerConfig:
    """One load worker's slice of a cluster workload (fully picklable).

    The partition is by key: ``keys``/``key_ranks`` are the worker's subset
    of the global key list (global zipf ranks preserved, so the merged key
    distribution matches the single-process workload), ``versions`` the
    global write version numbers that land on those keys, ``readers`` how
    many reader clients this worker runs, and ``writer_id_base`` the first
    of its ``spec.resolved_writers`` globally unique writer identities.
    """

    worker: int
    spec: Any  # ServiceLoadSpec (typed loosely to avoid the import cycle)
    addresses: Tuple[Tuple[str, int], ...]
    keys: Tuple[str, ...]
    key_ranks: Tuple[int, ...]
    versions: Tuple[int, ...]
    readers: int
    writer_id_base: int
    seed: int
    transport_seeds: Tuple[int, ...]
    pool_seeds: Tuple[int, ...]


def merge_worker_provenance(values: Sequence[Any]) -> Any:
    """Merge per-worker provenance fields (``loop_driver``).

    Returns the single shared value when every worker agrees and the
    per-worker list (worker order preserved) when they differ — never
    silently the first worker's value.
    """
    merged = list(values)
    if merged and all(value == merged[0] for value in merged[1:]):
        return merged[0]
    return merged


def _worker_key_cdf(ranks: Sequence[int], skew: float) -> List[float]:
    """Cumulative weights over a worker's keys, from their *global* ranks."""
    weights = [1.0 / float(rank + 1) ** skew for rank in ranks]
    total = sum(weights)
    cdf: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


async def _drive_worker(config: LoadWorkerConfig) -> Dict[str, Any]:
    """Run one worker's share of the load; return a picklable partial report."""
    # Imported lazily: this runs inside worker processes too, and the load
    # module imports this one's runner (cycle broken at call time).
    from repro.obs.monitor import EpsilonMonitor
    from repro.obs.trace import Tracer
    from repro.service.load import classify_service_read, key_names

    spec = config.spec
    scenario = spec.scenario
    rng = random.Random(config.seed)
    pool = ClusterClientPool(
        scenario,
        config.addresses,
        latency=spec.latency,
        jitter=spec.jitter,
        drop_probability=spec.drop_probability,
        transport_seeds=config.transport_seeds,
        pool_seeds=config.pool_seeds,
    )
    # Disjoint id bases keep trace ids globally unique across workers.
    tracer = (
        Tracer(
            sample_rate=spec.trace_sample,
            seed=config.seed,
            id_base=config.worker << 40,
        )
        if getattr(spec, "trace_sample", 0.0) > 0.0
        else None
    )
    pool.tracer = tracer
    # Clients opened by this pool piggyback read-repair within the spec's
    # budget; the gossip half of anti-entropy runs server-side.
    pool.anti_entropy = getattr(spec, "resolved_anti_entropy", None)
    monitor = (
        EpsilonMonitor.for_scenario(scenario)
        if getattr(spec, "monitor_epsilon", False)
        else None
    )
    await pool.start()
    try:
        writer_count = spec.resolved_writers
        writers = [
            pool.new_register_client(
                rng,
                deadline=spec.deadline,
                selection=spec.selection,
                quorum_pool=spec.quorum_pool,
                writer_id=config.writer_id_base + index,
            )
            for index in range(writer_count)
        ]
        readers = [
            pool.new_register_client(
                rng,
                deadline=spec.deadline,
                selection=spec.selection,
                quorum_pool=spec.quorum_pool,
            )
            for _ in range(config.readers)
        ]
        global_names = key_names(spec.keys)
        names = list(config.keys)
        shard_of = {name: shard_for_key(name, spec.shards) for name in names}
        cdf = _worker_key_cdf(config.key_ranks, spec.key_skew) if len(names) > 1 else None
        reader_rngs = [
            random.Random(rng.randrange(2**63)) for _ in range(config.readers)
        ]

        history: Dict[str, Dict[Any, Any]] = {name: {} for name in names}
        settled: Dict[str, Optional[WriteOutcome]] = {name: None for name in names}
        outcomes: Dict[str, int] = {label: 0 for label in OUTCOME_LABELS}
        read_latencies: List[float] = []
        write_latencies: List[float] = []
        shard_ops = [0] * spec.shards
        counters = {"reads": 0, "writes": 0, "write_failures": 0}

        for writer in writers:
            writer.on_issued = (
                lambda key, timestamp, value: history[key].__setitem__(timestamp, value)
            )

        def settle(key: str, outcome: WriteOutcome) -> None:
            current = settled[key]
            if current is None or current.timestamp < outcome.timestamp:
                settled[key] = outcome

        async def run_writer(writer_index: int) -> None:
            writer = writers[writer_index]
            for version in config.versions:
                if version % writer_count != writer_index:
                    continue
                key = global_names[version % spec.keys]
                if writer_count == 1:
                    value = (scenario.workload.written_value, version)
                else:
                    value = (scenario.workload.written_value, writer_index, version)
                started = time.perf_counter()
                try:
                    outcome = await writer.write(key, value)
                except QuorumUnavailableError:
                    counters["write_failures"] += 1
                else:
                    write_latencies.append(time.perf_counter() - started)
                    settle(key, outcome)
                    counters["writes"] += 1
                    shard_ops[shard_of[key]] += 1
                if spec.write_interval:
                    await asyncio.sleep(spec.write_interval)

        async def run_reader(reader, index: int) -> None:
            for _ in range(spec.reads_per_client):
                if len(names) == 1:
                    key = names[0]
                else:
                    key = reader_rngs[index].choices(names, cum_weights=cdf)[0]
                snapshot = settled[key]
                started = time.perf_counter()
                outcome = await reader.read(key)
                read_latencies.append(time.perf_counter() - started)
                label = classify_service_read(outcome, snapshot, history[key])
                outcomes[label] += 1
                if tracer is not None and reader.last_trace is not None:
                    reader.last_trace.classification = label
                if monitor is not None:
                    monitor.observe(label)
                counters["reads"] += 1
                shard_ops[shard_of[key]] += 1

        started = time.perf_counter()
        await asyncio.gather(
            *(run_writer(index) for index in range(writer_count)),
            *(run_reader(reader, index) for index, reader in enumerate(readers)),
        )
        elapsed = time.perf_counter() - started
        return {
            "elapsed": elapsed,
            "reads": counters["reads"],
            "writes": counters["writes"],
            "write_failures": counters["write_failures"],
            "outcomes": outcomes,
            "read_latencies": read_latencies,
            "write_latencies": write_latencies,
            "rpc_calls": pool.rpc_calls,
            "rpc_dropped": pool.rpc_dropped,
            "rpc_timeouts": pool.rpc_timeouts,
            "probe_fallbacks": sum(client.probe_fallbacks for client in writers)
            + sum(client.probe_fallbacks for client in readers),
            "repairs_piggybacked": pool.repairs_piggybacked,
            "shard_ops": shard_ops,
            # Provenance the merge must not flatten to the first worker's
            # values: each worker reports what actually drove and carried
            # *its* slice of the load.
            "loop_driver": "asyncio",
            "traces": tracer.to_dicts() if tracer is not None else [],
            "metrics": pool.metrics_snapshots({"worker": config.worker}),
            "epsilon_alerts": list(monitor.alerts) if monitor is not None else [],
            "epsilon_monitor": monitor.to_dict() if monitor is not None else None,
        }
    finally:
        await pool.aclose()


def _load_worker_main(config: LoadWorkerConfig) -> Dict[str, Any]:
    """Worker-process entry point (also runnable in the parent for 1 worker)."""
    return asyncio.run(_drive_worker(config))


def _warm_worker() -> None:
    """Pre-import the harness in a pool worker (keeps spawn cost untimed)."""
    import repro.service.load  # noqa: F401  (the heavy transitive imports)


def partition_load(
    spec: Any, addresses: Sequence[Tuple[str, int]], rng: random.Random
) -> List[LoadWorkerConfig]:
    """Split one load spec into per-worker configs (keys, clients, writes)."""
    from repro.service.load import key_names

    workers = spec.processes
    names = key_names(spec.keys)
    configs: List[LoadWorkerConfig] = []
    base_clients, extra_clients = divmod(spec.clients, workers)
    for worker in range(workers):
        ranks = tuple(range(worker, spec.keys, workers))
        keys = tuple(names[rank] for rank in ranks)
        versions = tuple(
            version
            for version in range(spec.writes)
            if (version % spec.keys) % workers == worker
        )
        configs.append(
            LoadWorkerConfig(
                worker=worker,
                spec=spec,
                addresses=tuple(addresses),
                keys=keys,
                key_ranks=ranks,
                versions=versions,
                readers=base_clients + (1 if worker < extra_clients else 0),
                writer_id_base=spec.scenario.writer_id
                + worker * spec.resolved_writers,
                seed=rng.randrange(2**63),
                transport_seeds=tuple(
                    rng.randrange(2**63) for _ in range(len(addresses))
                ),
                pool_seeds=tuple(rng.randrange(2**63) for _ in range(len(addresses))),
            )
        )
    return configs


async def _cluster_load(spec: Any):
    from repro.service.load import ServiceLoadReport

    rng = random.Random(spec.seed)
    cluster = ClusterDeployment(
        spec.scenario,
        shards=spec.shards,
        latency=spec.latency,
        jitter=spec.jitter,
        drop_probability=spec.drop_probability,
        latency_tracking=spec.selection == "latency-aware",
        rng=rng,
        anti_entropy=spec.resolved_anti_entropy,
    )
    try:
        await cluster.start()
        configs = partition_load(spec, cluster.addresses, rng)
        if len(configs) == 1:
            # One worker: drive it on this loop, skipping a process hop.
            started = time.perf_counter()
            results = [await _drive_worker(configs[0])]
            elapsed = time.perf_counter() - started
        else:
            loop = asyncio.get_running_loop()
            context = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(configs), mp_context=context
            ) as executor:
                # Spawn + import every pool worker before the clock starts:
                # interpreter startup is deployment cost, not workload cost.
                await asyncio.gather(
                    *(
                        loop.run_in_executor(executor, _warm_worker)
                        for _ in configs
                    )
                )
                started = time.perf_counter()
                results = list(
                    await asyncio.gather(
                        *(
                            loop.run_in_executor(executor, _load_worker_main, config)
                            for config in configs
                        )
                    )
                )
                elapsed = time.perf_counter() - started
        outcomes = {label: 0 for label in OUTCOME_LABELS}
        shard_ops = [0] * spec.shards
        read_latencies: List[float] = []
        write_latencies: List[float] = []
        traces: List[dict] = []
        metrics: List[dict] = []
        epsilon_alerts: List[dict] = []
        for result in results:
            for label, count in result["outcomes"].items():
                outcomes[label] = outcomes.get(label, 0) + count
            for index, ops in enumerate(result["shard_ops"]):
                shard_ops[index] += ops
            read_latencies.extend(result["read_latencies"])
            write_latencies.extend(result["write_latencies"])
            traces.extend(result["traces"])
            metrics.extend(result["metrics"])
            epsilon_alerts.extend(result["epsilon_alerts"])
        monitors = [
            result["epsilon_monitor"]
            for result in results
            if result["epsilon_monitor"] is not None
        ]
        epsilon_monitor = None
        if monitors:
            observed = sum(monitor["observed"] for monitor in monitors)
            errors = sum(monitor["errors"] for monitor in monitors)
            epsilon_monitor = {
                "epsilon": monitors[0]["epsilon"],
                "slack": monitors[0]["slack"],
                "window": monitors[0]["window"],
                "min_samples": monitors[0]["min_samples"],
                "observed": observed,
                "errors": errors,
                # The most alarming worker window: windows do not compose
                # across processes, so report the worst one seen.
                "window_rate": max(monitor["window_rate"] for monitor in monitors),
                "total_rate": errors / observed if observed else 0.0,
                "alerts": epsilon_alerts,
            }
        report = ServiceLoadReport(
            spec=spec,
            elapsed=elapsed,
            reads_completed=sum(result["reads"] for result in results),
            writes_completed=sum(result["writes"] for result in results),
            write_failures=sum(result["write_failures"] for result in results),
            outcomes=outcomes,
            read_latencies=read_latencies,
            write_latencies=write_latencies,
            rpc_calls=sum(result["rpc_calls"] for result in results),
            rpc_dropped=sum(result["rpc_dropped"] for result in results),
            rpc_timeouts=sum(result["rpc_timeouts"] for result in results),
            probe_fallbacks=sum(result["probe_fallbacks"] for result in results),
            repairs_piggybacked=sum(
                result.get("repairs_piggybacked", 0) for result in results
            ),
            injected_crashes=0,
            dispatch_flushes=0,
            transport="tcp",
            shard_ops=shard_ops,
            loop_driver=merge_worker_provenance(
                [result["loop_driver"] for result in results]
            ),
            traces=traces,
            metrics=metrics,
            epsilon_alerts=epsilon_alerts,
            epsilon_monitor=epsilon_monitor,
        )
    finally:
        await cluster.aclose()
    # The shard servers report their metric snapshots on the readiness pipe
    # at SIGTERM, so they only exist once aclose() has drained it — and the
    # gossip-round tally the report carries comes from those snapshots too.
    report.metrics.extend(cluster.server_metrics)
    report.gossip_rounds = sum(
        snapshot.get("counters", {}).get("gossip_rounds", 0)
        for snapshot in cluster.server_metrics
    )
    return report


def run_cluster_load(spec: Any):
    """Run one cluster load experiment (sync entry; parent of all workers)."""
    return asyncio.run(_cluster_load(spec))
