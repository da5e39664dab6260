"""Async register frontends: the three read protocols over the RPC client.

Each frontend pairs an :class:`~repro.service.client.AsyncQuorumClient`
with one of the paper's read rules and produces the *same*
:class:`~repro.protocol.variable.ReadOutcome` /
:class:`~repro.protocol.variable.WriteOutcome` objects as the synchronous
registers, selected through the shared deterministic rule of
:mod:`repro.protocol.selection` and labelled through
:mod:`repro.protocol.classification` — so an outcome observed by the live
service means exactly what it means to both Monte-Carlo engines.

* :class:`AsyncRegister` — the benign Section 3.1 read (any reply competes);
* :class:`AsyncDisseminationRegister` — Section 4: writes are signed and
  unverifiable replies are discarded before selection;
* :class:`AsyncMaskingRegister` — Section 5: a value/timestamp pair needs at
  least ``k`` vouching votes from the read quorum.

:func:`async_register_for` resolves the frontend from a declarative
:class:`~repro.simulation.scenario.ScenarioSpec`, mirroring the spec's
sequential ``register_factory`` lowering.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.exceptions import ProtocolError
from repro.protocol.classification import classify_read_outcome
from repro.protocol.masking_variable import MaskingReadOutcome
from repro.protocol.selection import enumerate_credible_values, select_credible_value
from repro.protocol.signatures import SignatureScheme
from repro.protocol.timestamps import Timestamp, TimestampGenerator
from repro.protocol.variable import ReadOutcome, WriteOutcome
from repro.service.client import AsyncQuorumClient, ReadRpcResult
from repro.simulation.scenario import ScenarioSpec


class AsyncRegister:
    """Single-writer multi-reader register frontend (Section 3.1, async)."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        self.client = client
        self.name = str(name)
        self._timestamps = TimestampGenerator(writer_id)
        self._last_written: Optional[WriteOutcome] = None
        self.writes_performed = 0
        self.reads_performed = 0
        #: The :class:`~repro.obs.trace.QuorumTrace` of the most recent
        #: operation, when the client samples traces (``None`` otherwise).
        #: Callers annotate it in place — the load harness stamps the read's
        #: classification, the lock service its protocol step.
        self.last_trace: Optional[Any] = None
        #: Optional ``(timestamp, value)`` callback fired when a write is
        #: *issued*, before its RPCs fan out.  Concurrent observers (the load
        #: harness's safety accounting, a write-ahead log) need the pair the
        #: moment it can first reach a server, not when the write completes.
        self.on_issued: Optional[Callable[[Timestamp, Any], None]] = None

    # -- protocol hooks (overridden by the Byzantine variants) --------------------

    def _sign(self, value: Any, timestamp: Timestamp) -> Optional[bytes]:
        return None

    def _filter(self, result: ReadRpcResult) -> dict:
        """Which replies compete in selection (the protocol's read filter)."""
        return result.replies

    def _threshold(self) -> int:
        return 1

    # -- operations ---------------------------------------------------------------

    @property
    def last_write(self) -> Optional[WriteOutcome]:
        """The most recent write outcome (``None`` before the first write)."""
        return self._last_written

    async def write(self, value: Any) -> WriteOutcome:
        """Write ``value`` to a strategy-drawn quorum (repairing on failure)."""
        timestamp = self._timestamps.next()
        if self.on_issued is not None:
            self.on_issued(timestamp, value)
        result = await self.client.write(
            self.name, value, timestamp, self._sign(value, timestamp)
        )
        self.last_trace = result.trace
        outcome = WriteOutcome(
            quorum=result.quorum,
            timestamp=timestamp,
            acknowledged=result.acknowledged,
        )
        self._last_written = outcome
        self.writes_performed += 1
        return outcome

    def _annotate_selection(
        self, result: ReadRpcResult, competing: int, selected: Any
    ) -> None:
        """Record the read rule's inputs and verdict on the sampled trace."""
        trace = result.trace
        if trace is None:
            return
        selection = trace.selection or {}
        selection.update(
            rule=type(self).__name__,
            threshold=self._threshold(),
            replies=len(result.replies),
            competing=competing,
            verdict="selected" if selected is not None else "empty",
        )
        if selected is not None:
            selection["votes"] = selected.votes
        trace.selection = selection

    def _build_outcome(self, result: ReadRpcResult) -> ReadOutcome:
        competing = self._filter(result)
        selected = select_credible_value(competing, self._threshold())
        self._annotate_selection(result, len(competing), selected)
        if selected is None:
            return ReadOutcome(
                value=None,
                timestamp=None,
                quorum=result.quorum,
                reporting_servers=frozenset(),
                replies=len(result.replies),
            )
        return ReadOutcome(
            value=selected.value,
            timestamp=selected.timestamp,
            quorum=result.quorum,
            reporting_servers=selected.servers,
            replies=len(result.replies),
        )

    def _lagging_servers(self, result: ReadRpcResult, outcome: ReadOutcome) -> list:
        """Contacted servers that demonstrably (or plausibly) lack the value.

        Definite laggards — quorum members whose reply carried an *older*
        timestamp — come first so a small repair budget is spent where the
        lag is proven; quorum members with no value-bearing reply (empty
        copy, crashed, or silent) follow.  The client has already reduced
        every malformed reply to value-less, so each remaining timestamp is
        a :class:`~repro.protocol.timestamps.Timestamp` that orders against
        the settled one.
        """
        winning = outcome.reporting_servers
        stale: list = []
        unknown: list = []
        for server in sorted(result.quorum):
            if server in winning:
                continue
            stored = result.replies.get(server)
            if stored is None:
                unknown.append(server)
                continue
            if stored.timestamp is None or stored.timestamp < outcome.timestamp:
                stale.append(server)
        return stale + unknown

    def _piggyback_repair(self, result: ReadRpcResult, outcome: ReadOutcome) -> None:
        """Attach read-repair for this read's laggards to the next delivery."""
        if outcome.value is None or not outcome.reporting_servers:
            return
        lagging = self._lagging_servers(result, outcome)
        if not lagging:
            return
        # The payload is the winning record as a reporting server vouched for
        # it — signature included, so a dissemination replica re-verifies the
        # repair exactly as it would a write.
        donor = result.replies[next(iter(outcome.reporting_servers))]
        self.client.piggyback_repairs(
            self.name,
            outcome.value,
            outcome.timestamp,
            donor.signature,
            lagging,
            trace=result.trace,
        )

    async def read(self) -> ReadOutcome:
        """Read the register: filter, then deterministic highest-timestamp-wins."""
        result = await self.client.read(self.name)
        self.reads_performed += 1
        self.last_trace = result.trace
        outcome = self._build_outcome(result)
        if self.client.repair_budget > 0:
            self._piggyback_repair(result, outcome)
        return outcome

    async def read_credible(self) -> list:
        """Read the register but return *every* credible record, winner included.

        Applies the protocol's reply filter and vote threshold exactly as
        :meth:`read`, without collapsing to the highest timestamp.  The lock
        service needs the losing records: a competing holder's older record
        never wins selection against the reader's own newer write, yet it
        still means the lock is contested.
        """
        result = await self.client.read(self.name)
        self.reads_performed += 1
        self.last_trace = result.trace
        records = enumerate_credible_values(self._filter(result), self._threshold())
        if result.trace is not None:
            result.trace.selection = {
                "rule": type(self).__name__,
                "threshold": self._threshold(),
                "replies": len(result.replies),
                "competing": len(records),
                "verdict": "enumerated",
            }
        return records

    def observe_timestamp(self, timestamp: Timestamp) -> None:
        """Fast-forward this writer's clock past an observed timestamp.

        Multi-writer coordination protocols (the lock service) must write
        records that outrank whatever they just read, Lamport-style; the
        single-writer register protocol itself never needs this.
        """
        if isinstance(timestamp, Timestamp):
            self._timestamps.observe(timestamp)

    def classify_read(self, outcome: ReadOutcome) -> str:
        """Label a read against the last local write (shared classifier)."""
        if self._last_written is None:
            raise ProtocolError("no write has been performed yet")
        return classify_read_outcome(outcome, self._last_written)


#: Value types whose equality implies an identical signed encoding.
_MEMO_VALUE_TYPES = (str, bytes, int)


class AsyncDisseminationRegister(AsyncRegister):
    """Self-verifying data (Section 4): sign writes, discard forgeries."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        signatures: Optional[SignatureScheme] = None,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        super().__init__(client, name=name, writer_id=writer_id)
        self.signatures = signatures or SignatureScheme()
        self.forged_replies_rejected = 0

    def _sign(self, value: Any, timestamp: Timestamp) -> Optional[bytes]:
        return self.signatures.sign(self.name, value, timestamp)

    def _filter(self, result: ReadRpcResult) -> dict:
        # Most of a quorum echoes the same signed record, so each distinct
        # record is verified once per read.  A verdict is shared only when
        # equality pins the signed encoding down exactly: an exact-type
        # Timestamp of exact ints, a bytes signature and a value of one of
        # _MEMO_VALUE_TYPES.  Anything else gets a plain verify: 1, True
        # and 1.0 compare equal but sign differently, and so can equal
        # containers holding them.
        verified = {}
        verdicts = {}
        verify = self.signatures.verify
        for server, stored in result.replies.items():
            value, timestamp, signature = stored.value, stored.timestamp, stored.signature
            if not isinstance(timestamp, Timestamp):
                valid = False
            elif (
                type(value) in _MEMO_VALUE_TYPES
                and type(signature) is bytes
                and type(timestamp) is Timestamp
                and type(timestamp.counter) is int
                and type(timestamp.writer_id) is int
            ):
                key = (type(value), value, timestamp.counter, timestamp.writer_id, signature)
                valid = verdicts.get(key)
                if valid is None:
                    valid = verdicts[key] = verify(self.name, value, timestamp, signature)
            else:
                valid = verify(self.name, value, timestamp, signature)
            if valid:
                verified[server] = stored
            else:
                self.forged_replies_rejected += 1
        return verified


class AsyncMaskingRegister(AsyncRegister):
    """Arbitrary data (Section 5): ``>= k`` vouching votes per pair."""

    def __init__(
        self,
        client: AsyncQuorumClient,
        name: str = "x",
        writer_id: int = 0,
    ) -> None:
        if not hasattr(client.system, "read_threshold"):
            raise ProtocolError(
                "AsyncMaskingRegister requires a masking quorum system "
                "with a read_threshold"
            )
        super().__init__(client, name=name, writer_id=writer_id)
        # Cached once: ⌈k⌉ is a derived property on the system and this is
        # consulted on every read of the hot path.
        self._read_threshold = int(client.system.read_threshold)

    @property
    def read_threshold(self) -> int:
        """The vote count ``⌈k⌉`` a value needs to be accepted."""
        return self._read_threshold

    def _threshold(self) -> int:
        return self._read_threshold

    def _build_outcome(self, result: ReadRpcResult) -> MaskingReadOutcome:
        threshold = self._read_threshold
        competing = self._filter(result)
        selected = select_credible_value(competing, threshold)
        self._annotate_selection(result, len(competing), selected)
        if selected is None:
            return MaskingReadOutcome(
                value=None,
                timestamp=None,
                quorum=result.quorum,
                reporting_servers=frozenset(),
                replies=len(result.replies),
                votes=0,
                threshold=threshold,
            )
        return MaskingReadOutcome(
            value=selected.value,
            timestamp=selected.timestamp,
            quorum=result.quorum,
            reporting_servers=selected.servers,
            replies=len(result.replies),
            votes=selected.votes,
            threshold=threshold,
        )


def async_register_for(
    spec: ScenarioSpec,
    client: AsyncQuorumClient,
    name: str = "x",
    writer_id: Optional[int] = None,
) -> AsyncRegister:
    """Build the frontend a scenario's resolved register kind calls for.

    Mirrors :meth:`repro.simulation.scenario.ScenarioSpec.register_factory`,
    so one declarative spec describes a Monte-Carlo experiment *and* a live
    service deployment with identical read semantics.  ``writer_id``
    overrides the spec's writer identity (contending writers of one
    scenario each bind their own); all writers share the spec's signing
    key, so every writer's records verify under one dissemination scheme.
    """
    resolved_writer = spec.writer_id if writer_id is None else int(writer_id)
    kind = spec.resolved_register_kind()
    if kind == "masking":
        return AsyncMaskingRegister(client, name=name, writer_id=resolved_writer)
    if kind == "dissemination":
        return AsyncDisseminationRegister(
            client,
            signatures=SignatureScheme(spec.signing_key),
            name=name,
            writer_id=resolved_writer,
        )
    return AsyncRegister(client, name=name, writer_id=resolved_writer)
