"""Real socket transport: the service layer over asyncio TCP streams.

Everything above the dispatcher — quorum clients, register frontends, the
load harness, the classifiers — is transport-agnostic: it calls
``dispatcher.fan_out(servers, method, args, timeout)`` and reads the
transport's ``calls``/``dropped``/``timed_out`` counters.  This module
supplies the wire-level implementation of that interface:

* :class:`TcpServiceServer` hosts a whole replica group (a list of
  :class:`~repro.service.node.ServiceNode`) behind one listening socket;
  requests carry the destination ``server_id`` and are dispatched to the
  node's ordinary ``handle`` method once their arguments pass the wire
  boundary's checks.  A node that answers
  :data:`~repro.service.node.NO_REPLY` (crashed, silent-Byzantine) gets **no
  response frame** — the caller's deadline expires exactly as it would
  in process, so live fault injection works unchanged over the wire.
* :class:`TcpTransport` extends :class:`~repro.service.transport.
  AsyncTransport` (the same drop/latency simulation knobs and failure
  counters) with a small pool of connections, each with its own **writer
  task** draining an outbound queue — concurrent fan-outs coalesce into
  large socket writes — and **reconnect on drop**: a broken connection is
  detected, its in-flight RPCs are left to their deadlines (silence
  semantics), and the next send reopens the socket.
* :class:`TcpDispatcher` is the client's way onto the wire: one future and
  one deadline timer per fanned-out operation, the same ``fan_out``
  interface as the in-process
  :class:`~repro.service.dispatch.BatchedDispatcher`.

Unlike the simulated transport, deadlines here are *wall-clock*: a timeout
bounds real elapsed time, including event-loop lag and kernel buffering.
The conformance suite (``tests/conformance``) asserts that classification
rates over this path agree with the in-process service and both Monte-Carlo
engines, and that no fabricated value is ever accepted.

Frames are the length-prefixed, struct-packed format of
:mod:`repro.service.wire`; request/response shapes::

    ("req", request_id, server_id, method, args_tuple)
    ("req", request_id, server_id, method, args_tuple, trace_id)  # traced
    ("rsp", request_id, reply_envelope)

There is no handshake: a connection carries frames from its first byte.
The wire-version byte opening every body is the only compatibility check —
a peer sending anything else loses its connection — and a traced client
simply sends the six-element envelope, which every server accepts.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError, WireFormatError
from repro.obs.metrics import MetricsRegistry
from repro.protocol.timestamps import Timestamp
from repro.service.node import NO_REPLY, ServiceNode
from repro.service.transport import AsyncTransport
from repro.service.wire import (
    FrameDecoder,
    decode_binary_request_body,
    decode_binary_response_body,
    encode_request_frame,
    encode_response_frame,
    request_tail,
)

#: Socket read size for both the server's and the client's reader loops.
_READ_CHUNK = 64 * 1024

#: Connections a :class:`TcpTransport` stripes its RPCs across by default.
DEFAULT_CONNECTIONS = 2

#: Argument count of every method a replica serves over the wire.
_ARITY = {"read": 1, "ping": 0, "write": 4, "repair": 4}


def _check_args(method: Any, args: tuple) -> None:
    """Refuse request arguments no honest client sends; raise ``ValueError``.

    The variable is a ``str``; ``write`` and ``repair`` carry a
    :class:`~repro.protocol.timestamps.Timestamp` and a ``bytes``-or-``None``
    signature.  A replica that stored a rogue peer's junk timestamp could
    no longer order the next honest write against it, so the junk is
    stopped here, before it reaches any node.
    """
    if _ARITY.get(method) != len(args):
        raise ValueError(f"{method!r} with {len(args)} arguments")
    if args and type(args[0]) is not str:
        raise ValueError(f"variable {args[0]!r}")
    if len(args) == 4:
        signature = args[3]
        if type(args[2]) is not Timestamp or not (
            signature is None or type(signature) is bytes
        ):
            raise ValueError(f"timestamp {args[2]!r}, signature {signature!r}")


async def _drain_queue(
    queue: "asyncio.Queue[bytes]", writer: asyncio.StreamWriter
) -> None:
    """Per-connection writer task: coalesce queued frames into one write.

    Every frame enqueued while the previous ``drain`` was in flight is
    folded into the next socket write, so a burst of concurrent fan-outs
    costs a handful of syscalls instead of one per RPC.
    """
    try:
        while True:
            buffer = bytearray(await queue.get())
            while not queue.empty():
                buffer += queue.get_nowait()
            writer.write(bytes(buffer))
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError, RuntimeError):
        # Peer gone or loop shutting down: the reader side (or the caller's
        # deadline) owns the failure; the writer task just stops.
        pass


class TcpServiceServer:
    """One listening socket hosting a replica group.

    Parameters
    ----------
    nodes:
        The group's replica nodes, indexed by server id (requests name their
        destination).  The caller keeps the references — live fault
        injection crashes/recovers these exact objects.
    host, port:
        Bind address; ``port=0`` (the default) lets the OS pick a free
        ephemeral port, published via :attr:`address` after :meth:`start`.

    Requests arrive as 5-tuples, or as 6-tuples carrying the client's trace
    id; both are served identically, and the trace ids are counted.  A
    request that is malformed, names an unknown method, carries arguments
    no honest client sends (see :func:`_check_args`) or makes the node's
    handler raise costs its peer the connection and nothing more.
    """

    def __init__(
        self,
        nodes: Sequence[ServiceNode],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.nodes = list(nodes)
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connection_tasks: "set[asyncio.Task]" = set()
        self._connection_writers: "set[asyncio.StreamWriter]" = set()
        self.connections_accepted = 0
        self.requests_handled = 0
        #: Requests that arrived with a trace id (the six-element envelope).
        self.traced_requests = 0
        #: The most recent trace id seen (tests pin cross-process survival).
        self.last_trace_id: Optional[int] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` clients connect to (valid after start)."""
        return (self.host, self.port)

    @property
    def serving(self) -> bool:
        """Whether the listening socket is open."""
        return self._server is not None and self._server.is_serving()

    async def start(self) -> Tuple[str, int]:
        """Open the listening socket; return the bound address."""
        if self._server is not None:
            raise ServiceError("the server is already started")
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def aclose(self) -> None:
        """Stop accepting, drop every open connection, release the socket.

        Connections are closed at the transport level rather than by
        cancelling their handler tasks: each reader loop then sees EOF and
        unwinds cleanly, so shutdown never races a handler mid-dispatch.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        for writer in list(self._connection_writers):
            writer.close()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        self._connection_tasks.add(asyncio.current_task())
        self._connection_writers.add(writer)
        decoder = FrameDecoder(decode_body=decode_binary_request_body)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                # All of a chunk's responses coalesce into ONE socket write
                # directly from this loop (no queue, no writer task): a
                # burst of q requests costs one write, not 2q task hops.
                # Not reading while ``drain`` applies backpressure is the
                # point — a slow peer throttles itself, nobody else.
                responses: List[bytes] = []
                for frame in decoder.feed(chunk):
                    reply_frame = self._handle_request(frame)
                    if reply_frame is not None:
                        responses.append(reply_frame)
                if responses:
                    writer.write(b"".join(responses))
                    await writer.drain()
        except (ConnectionError, WireFormatError):
            # A malformed or vanished peer costs it its connection, nothing
            # more; other connections and the nodes are unaffected.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connection_writers.discard(writer)
            self._connection_tasks.discard(asyncio.current_task())

    def _handle_request(self, frame: Any) -> Optional[bytes]:
        try:
            trace_id: Optional[int] = None
            if isinstance(frame, tuple) and len(frame) == 6:
                kind, request_id, server_id, method, args, trace_id = frame
                if not isinstance(trace_id, int):
                    raise ValueError(trace_id)
            else:
                kind, request_id, server_id, method, args = frame
            if kind != "req" or not isinstance(args, tuple):
                raise ValueError(kind)
            # Explicit bounds check: Python's negative indexing would
            # otherwise silently route server_id=-1 to the last replica.
            if not isinstance(server_id, int) or not 0 <= server_id < len(self.nodes):
                raise ValueError(server_id)
            node = self.nodes[server_id]
            _check_args(method, args)
        except (TypeError, ValueError, IndexError, KeyError) as error:
            raise WireFormatError(f"malformed request frame: {frame!r}") from error
        try:
            reply = node.handle(method, *args)
        except (ServiceError, TypeError, ValueError) as error:
            # Method-level garbage gets the same containment as frame-level
            # garbage: this peer loses its connection, nothing more.
            raise WireFormatError(f"unroutable request frame: {error}") from error
        self.requests_handled += 1
        if trace_id is not None:
            self.traced_requests += 1
            self.last_trace_id = trace_id
        if reply is NO_REPLY:
            # Silence stays silence on the wire: the caller's deadline is
            # the only thing that resolves it, as in process.
            return None
        return encode_response_frame(request_id, reply)

    def metrics_snapshot(self, labels: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """This server's metrics as a mergeable registry snapshot.

        Picklable, so a shard-server process can ship it back over the
        cluster's readiness pipe at shutdown.
        """
        base = {"component": "tcp-server", "host": self.host, "port": self.port}
        if labels:
            base.update(labels)
        registry = MetricsRegistry(labels=base)
        registry.counter("server_connections_accepted").inc(self.connections_accepted)
        registry.counter("server_requests_handled").inc(self.requests_handled)
        registry.counter("server_traced_requests").inc(self.traced_requests)
        registry.counter("node_requests").inc(
            sum(node.requests for node in self.nodes)
        )
        registry.gauge("nodes").set(len(self.nodes))
        return registry.to_dict()


class _TcpConnection:
    """One client socket: reader task, writer task, lazy (re)connect."""

    __slots__ = ("transport", "_reader", "_writer", "_queue", "_tasks", "_lock", "_was_connected")

    def __init__(self, transport: "TcpTransport") -> None:
        self.transport = transport
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._queue: Optional["asyncio.Queue[bytes]"] = None
        self._tasks: List[asyncio.Task] = []
        self._lock = asyncio.Lock()
        self._was_connected = False

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    def enqueue(self, frame: bytes) -> None:
        """Queue one already-encoded frame on an open connection."""
        self._queue.put_nowait(frame)

    async def send(self, frame: bytes, connect_timeout: Optional[float] = None) -> None:
        """Queue one frame, (re)opening the socket first when needed.

        ``connect_timeout`` bounds the connect so a blackholed peer costs
        the caller its RPC deadline, not the OS connect timeout.
        """
        if not self.connected:
            if connect_timeout is None:
                await self._connect()
            else:
                try:
                    await asyncio.wait_for(self._connect(), connect_timeout)
                except asyncio.TimeoutError:
                    raise ConnectionError(
                        f"connect to {self.transport.address} exceeded the "
                        f"{connect_timeout}s deadline"
                    ) from None
        self._queue.put_nowait(frame)

    async def _connect(self) -> None:
        async with self._lock:
            if self.connected:
                return
            await self._teardown()
            transport = self.transport
            host, port = transport.address
            self._reader, self._writer = await asyncio.open_connection(host, port)
            self._queue = asyncio.Queue()
            self._tasks = [
                asyncio.create_task(_drain_queue(self._queue, self._writer)),
                asyncio.create_task(self._read_loop(self._reader)),
            ]
            if self._was_connected:
                transport.reconnects += 1
            self._was_connected = True

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder(decode_body=decode_binary_response_body)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    self.transport._dispatch_response(frame)
        except (ConnectionError, WireFormatError, asyncio.CancelledError):
            pass
        finally:
            # Mark the connection droppable so the next send reconnects;
            # in-flight RPCs resolve through their deadlines (silence).
            if self._writer is not None:
                self._writer.close()

    async def _teardown(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = self._queue = None

    async def aclose(self) -> None:
        async with self._lock:
            await self._teardown()


class TcpTransport(AsyncTransport):
    """The :class:`AsyncTransport` conditions plus a pool of TCP connections.

    ``latency``/``jitter``/``drop_probability`` keep their simulation
    meaning — extra client-side delay and injected message loss on top of
    whatever the real network does — so a :class:`~repro.service.load.
    ServiceLoadSpec` moves between ``transport="inproc"`` and
    ``transport="tcp"`` without changing what its knobs mean.  RPCs travel
    through a :class:`TcpDispatcher`, which enforces deadlines in
    wall-clock time.

    Parameters
    ----------
    address:
        The ``(host, port)`` of the shard's :class:`TcpServiceServer`.
    connections:
        Sockets the transport stripes RPCs across; each has its own writer
        task, so one slow ``drain`` never blocks the others.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        seed: int = 0,
        connections: int = DEFAULT_CONNECTIONS,
    ) -> None:
        super().__init__(
            latency=latency, jitter=jitter, drop_probability=drop_probability, seed=seed
        )
        if connections < 1:
            raise ServiceError(f"need at least one connection, got {connections}")
        self.address = (str(address[0]), int(address[1]))
        self._connections = [_TcpConnection(self) for _ in range(connections)]
        #: request_id -> (op, server) of every RPC awaiting its reply.
        self._pending: Dict[int, Tuple["_WireOp", int]] = {}
        self._next_request_id = 0
        #: Times a dropped connection was re-opened by a later send.
        self.reconnects = 0
        #: Optional latency tracker fed by the dispatcher.
        self.tracker: Optional[Any] = None

    async def connect(self) -> None:
        """Eagerly open every pooled connection (optional; sends also do it)."""
        for connection in self._connections:
            if not connection.connected:
                await connection._connect()

    async def aclose(self) -> None:
        """Close every pooled connection and fail nothing (idempotent)."""
        for connection in self._connections:
            await connection.aclose()

    def _dispatch_response(self, frame: Any) -> None:
        try:
            kind, request_id, payload = frame
            if kind != "rsp":
                raise ValueError(kind)
        except (TypeError, ValueError) as error:
            raise WireFormatError(f"malformed response frame: {frame!r}") from error
        entry = self._pending.get(request_id)
        if entry is None:
            return
        op, server = entry
        op.deliver(server, request_id, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"TcpTransport({self.address[0]}:{self.address[1]}, "
            f"connections={len(self._connections)}, calls={self.calls})"
        )


class _WireOp:
    """One fanned-out operation over the wire: shared replies, one deadline.

    Mirrors the batched dispatcher's ``_PendingOp`` with the one difference
    the wire forces: a silent remote server produces *no* event at all, so
    the deadline timer must be armed eagerly at op creation rather than
    lazily when the last fate comes in.
    """

    __slots__ = (
        "transport", "loop", "future", "replies", "outstanding",
        "misses", "timer", "start", "trace", "method",
    )

    def __init__(
        self,
        transport: "TcpTransport",
        loop: asyncio.AbstractEventLoop,
        timeout: Optional[float],
        misses: int,
    ) -> None:
        self.transport = transport
        self.loop = loop
        self.future = loop.create_future()
        self.replies: Dict[Any, Any] = {}
        self.outstanding: Dict[int, Any] = {}  # request_id -> server
        self.misses = misses
        self.start = loop.time()
        self.trace: Any = None
        self.method = ""
        self.timer = (
            loop.call_later(timeout, self._deadline) if timeout is not None else None
        )

    def deliver(self, server: Any, request_id: int, envelope: Any) -> None:
        self.outstanding.pop(request_id, None)
        self.transport._pending.pop(request_id, None)
        # Strip the ("ok", payload) reply envelope, as the in-process
        # dispatcher does.
        self.replies[server] = envelope[1]
        now = self.loop.time()
        tracker = self.transport.tracker
        if tracker is not None:
            tracker.observe(server, now - self.start)
        if self.trace is not None:
            self.trace.record(server, self.method, self.start, now, "ok")
        if not self.outstanding and (self.misses == 0 or self.timer is None):
            # Every sent RPC answered: resolve early.  With misses (drops),
            # the deadline timer resolves instead — a partially failed
            # operation costs its whole deadline, as in process.
            self._resolve()

    def _deadline(self) -> None:
        self.timer = None
        transport = self.transport
        transport.timed_out += len(self.outstanding)
        now = self.loop.time()
        if transport.tracker is not None:
            for server in self.outstanding.values():
                transport.tracker.penalize(server, now - self.start)
        if self.trace is not None:
            for server in self.outstanding.values():
                self.trace.record(server, self.method, self.start, now, "timeout")
        self._resolve()

    def _resolve(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        for request_id in self.outstanding:
            self.transport._pending.pop(request_id, None)
        self.outstanding = {}
        if not self.future.done():
            self.future.set_result(self.replies)


class TcpDispatcher:
    """Operation-level fan-out over a :class:`TcpTransport`.

    Implements the same ``fan_out`` interface as the in-process
    :class:`~repro.service.dispatch.BatchedDispatcher` — the quorum client
    accepts either — so one operation is **one** future and **one** deadline
    timer however many servers it touches, and all of its request frames are
    handed to the connection writers in a single burst (which the writer
    tasks coalesce into few socket writes).

    Drop simulation, counters and deadline semantics mirror the in-process
    dispatcher: drops are sampled per RPC from the transport RNG, a
    partially failed operation resolves at its deadline with whatever
    arrived, and every unanswered sent RPC increments ``timed_out`` exactly
    once.  A server that cannot be reached is silence: its RPCs cost the
    deadline, and the next send reconnects.
    """

    def __init__(self, transport: TcpTransport, tracker: Optional[Any] = None) -> None:
        self.transport = transport
        transport.tracker = tracker
        #: Interface parity with ``BatchedDispatcher``: the wire path has no
        #: (node, tick) delivery events, so this stays 0 in reports.
        self.flushes = 0
        #: Logical operations fanned out so far.
        self.ops = 0
        #: Read-repair frames piggybacked onto already-open connections.
        self.repairs_piggybacked = 0

    def enqueue_repair(
        self,
        server: int,
        variable: str,
        value: Any,
        timestamp: Any,
        signature: Optional[bytes],
    ) -> None:
        """Fire-and-forget one read-repair frame at ``server``.

        The frame rides an already-open pooled connection's outbound queue,
        coalescing with whatever RPC burst is in flight — no new round, no
        future, no deadline timer, and no ``calls`` accounting (the repair
        is overhead of a read that already completed).  The server's reply,
        if any, carries a request id nothing is waiting on and is silently
        discarded by :meth:`TcpTransport._dispatch_response`.  With no
        connection currently open the repair is skipped outright: opening a
        socket for it would be exactly the extra round piggybacking exists
        to avoid.
        """
        transport = self.transport
        connections = transport._connections
        transport._next_request_id += 1
        request_id = transport._next_request_id
        preferred = connections[request_id % len(connections)]
        connection = preferred if preferred.connected else next(
            (candidate for candidate in connections if candidate.connected), None
        )
        if connection is None:
            return
        tail = request_tail("repair", (variable, value, timestamp, signature))
        connection.enqueue(encode_request_frame(request_id, server, tail))
        self.repairs_piggybacked += 1

    @property
    def tracker(self) -> Optional[Any]:
        return self.transport.tracker

    @tracker.setter
    def tracker(self, value: Optional[Any]) -> None:
        self.transport.tracker = value

    async def fan_out(
        self,
        servers: Sequence[Any],
        method: str,
        args: tuple,
        timeout: Optional[float],
        trace: Optional[Any] = None,
    ) -> Dict[Any, Any]:
        """Issue ``method`` to every listed server; map responders to payloads."""
        if not servers:
            return {}
        self.ops += 1
        transport = self.transport
        loop = asyncio.get_running_loop()
        transport.calls += len(servers)
        drop_probability = transport.drop_probability
        rng_draw = transport.rng.random
        sent = []
        dropped = []
        misses = 0
        for server in servers:
            if drop_probability > 0.0 and rng_draw() < drop_probability:
                transport.dropped += 1
                misses += 1
                if trace is not None:
                    dropped.append(server)
                continue
            sent.append(server)
        # The op (and its deadline timer) starts *before* the injected
        # delay, so simulated latency counts against the deadline exactly
        # as in process.
        op = _WireOp(transport, loop, timeout, misses)
        if trace is not None:
            op.trace = trace
            op.method = method
            for server in dropped:
                # Sampled drops never hit the wire: zero-length spans.
                trace.record(server, method, op.start, op.start, "dropped")
        if transport.latency > 0.0:
            # One coalesced delay per operation, drawn from the transport's
            # stream and distribution.
            await asyncio.sleep(transport.draw_delay())
        connections = transport._connections
        stripes = len(connections)
        pending = transport._pending
        # The (method, args) payload is serialised once per op, not per
        # frame: only request_id and server differ between the q frames.
        tail = request_tail(method, args)
        trace_id = trace.trace_id if trace is not None else None
        for position, server in enumerate(sent):
            if op.future.done():
                # The deadline fired while this coroutine was suspended
                # (delay sleep or a reconnecting send): sending the rest
                # would only leak pending entries.  The unsent RPCs were
                # already counted in `calls`, so charge them as timeouts to
                # keep the drop/timeout columns partitioning the failures.
                transport.timed_out += len(sent) - position
                if trace is not None:
                    now = loop.time()
                    for unsent in sent[position:]:
                        trace.record(unsent, method, op.start, now, "unsent")
                break
            transport._next_request_id += 1
            request_id = transport._next_request_id
            op.outstanding[request_id] = server
            pending[request_id] = (op, server)
            remaining = (
                None if timeout is None else max(op.start + timeout - loop.time(), 0.001)
            )
            try:
                await connections[request_id % stripes].send(
                    encode_request_frame(request_id, server, tail, trace_id=trace_id),
                    connect_timeout=remaining,
                )
            except (ConnectionError, OSError):
                # Unreachable server: silence.  Counted as a *miss* too so
                # the op still resolves at its deadline (never early with
                # partial replies), exactly like a simulated drop.
                op.outstanding.pop(request_id, None)
                pending.pop(request_id, None)
                op.misses += 1
                transport.timed_out += 1
                if trace is not None:
                    trace.record(server, method, op.start, loop.time(), "unsent")
        if op.timer is None and not op.outstanding and not op.future.done():
            op._resolve()
        return await op.future
