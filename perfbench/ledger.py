"""Per-layer metrics of the traced run, computed from its spans and counters."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from spans import Recorder

#: ``(metric, unit, better)`` for every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.sample_us_per_quorum", "us", "lower"),
    ("selection.us_per_read", "us", "lower"),
    ("signatures.sign_us", "us", "lower"),
    ("signatures.verify_us", "us", "lower"),
    ("signatures.verify_per_read", "count", "lower"),
    ("signatures.rejected_per_read", "count", "lower"),
    ("register.read_self_us", "us", "lower"),
    ("register.write_self_us", "us", "lower"),
    ("client.read_wait_ms", "ms", "lower"),
    ("client.write_wait_ms", "ms", "lower"),
    ("client.rpcs_per_op", "count", "lower"),
    ("client.probe_fallbacks_per_op", "count", "lower"),
    ("client.probe_wait_ms", "ms", "lower"),
    ("dispatch.flushes_per_op.open", "count", "lower"),
    ("dispatch.rpcs_per_flush.open", "count", "higher"),
    ("dispatch.fan_out_wait_ms.open", "ms", "lower"),
    ("dispatch.flushes_per_op.closed", "count", "lower"),
    ("dispatch.rpcs_per_flush.closed", "count", "higher"),
    ("dispatch.fan_out_wait_ms.closed", "ms", "lower"),
    ("node.handle_us", "us", "lower"),
    ("node.handles_per_op", "count", "lower"),
    ("wire.encode_us_per_frame", "us", "lower"),
    ("wire.decode_us_per_frame", "us", "lower"),
    ("wire.frames_per_op", "count", "lower"),
    ("wire.bytes_per_op", "B", "lower"),
    ("net.fan_out_wait_ms", "ms", "lower"),
    ("net.reconnects", "count", "lower"),
    ("transport.timeouts_per_op", "count", "lower"),
    ("transport.drops_per_op", "count", "lower"),
    ("gossip.run_once_us", "us", "lower"),
    ("gossip.rounds_per_s", "1/s", "higher"),
    ("gossip.repairs_per_read", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("ledger.attributed_frac", "frac", "higher"),
    ("loop.unattributed_us_per_op", "us", "lower"),
)

#: Spans whose self time is processor time: every await inside them is
#: inside a wrapped child.  ``dispatch.fan_out`` and ``net.fan_out`` are
#: missing on purpose — their self time is mostly waiting for replies.
CPU_SPANS = frozenset((
    "core.sample", "selection", "signatures.sign", "signatures.verify",
    "register.read", "register.write", "client.read", "client.write",
    "client.probe", "dispatch.flush", "node.handle", "wire.encode_tail",
    "wire.encode_request", "wire.encode_response", "wire.decode",
    "gossip.run_once",
))


class _Totals:
    __slots__ = ("count", "duration", "self_time", "client_child", "a", "b")

    def __init__(self) -> None:
        self.count = 0
        self.duration = 0.0
        self.self_time = 0.0
        self.client_child = 0.0
        self.a = 0.0
        self.b = 0.0

    def mean(self, scale: float = 1.0) -> float:
        return self.duration / self.count * scale if self.count else 0.0


def span_totals(recorder: Recorder, windows: List[Tuple[float, float, int]]
                ) -> Dict[tuple, _Totals]:
    """Totals per ``(span name, label)`` of spans starting inside a window.

    ``windows`` are ``(start, end, label)`` perf_counter intervals; spans
    starting outside every window are left out.

    A ``signatures.sign`` call made by ``signatures.verify`` is filed as
    ``signatures.sign.in_verify`` so sign costs count writes only.
    """
    totals: Dict[tuple, _Totals] = defaultdict(_Totals)
    names = recorder.names
    verify = recorder.name_id("signatures.verify")
    sign = recorder.name_id("signatures.sign")
    for index in range(len(recorder)):
        start = recorder.start[index]
        for low, high, label in windows:
            if low <= start < high:
                break
        else:
            continue
        name_index = recorder.name[index]
        name = names[name_index]
        if name_index == sign and recorder.parent_name[index] == verify:
            name = "signatures.sign.in_verify"
        entry = totals[(name, label)]
        entry.count += 1
        entry.duration += recorder.end[index] - start
        entry.self_time += recorder.self_time[index]
        entry.client_child += recorder.client_child[index]
        entry.a += recorder.a[index]
        entry.b += recorder.b[index]
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, baseline, traced_open, traced_closed
                  ) -> Dict[str, float]:
    """Every per-layer metric of ``LAYER_METRICS``; 0 where a layer never ran."""
    phases = (traced_open, traced_closed)
    per_window = span_totals(recorder, [
        (low, high, label)
        for label, phase in enumerate(phases)
        for low, high in phase.windows
    ])
    both: Dict[str, _Totals] = defaultdict(_Totals)
    for (name, _), entry in per_window.items():
        total = both[name]
        for slot in _Totals.__slots__:
            setattr(total, slot, getattr(total, slot) + getattr(entry, slot))

    ops = sum(phase.attempted for phase in phases)
    reads = sum(phase.reads for phase in phases)
    cpu = sum(phase.cpu for phase in phases)
    seconds = sum(phase.wall for phase in phases)
    counters = traced_open.counters + traced_closed.counters

    def get(name: str) -> _Totals:
        return both.get(name) or _Totals()

    sample, sign, verify = get("core.sample"), get("signatures.sign"), get("signatures.verify")
    register_read, register_write = get("register.read"), get("register.write")
    encode = [get("wire.encode_request"), get("wire.encode_response")]
    decode = get("wire.decode")
    attributed = sum(
        entry.self_time for name, entry in both.items()
        if name in CPU_SPANS or name == "signatures.sign.in_verify"
    )
    metrics = {
        "core.sample_us_per_quorum": _ratio(sample.duration * 1e6, sample.a),
        "selection.us_per_read": _ratio(get("selection").duration * 1e6, reads),
        "signatures.sign_us": sign.mean(1e6),
        "signatures.verify_us": verify.mean(1e6),
        "signatures.verify_per_read": _ratio(verify.count, reads),
        "signatures.rejected_per_read": _ratio(verify.a, reads),
        "register.read_self_us": _ratio(
            (register_read.duration - register_read.client_child) * 1e6, register_read.count),
        "register.write_self_us": _ratio(
            (register_write.duration - register_write.client_child) * 1e6, register_write.count),
        "client.read_wait_ms": get("client.read").mean(1e3),
        "client.write_wait_ms": get("client.write").mean(1e3),
        "client.rpcs_per_op": _ratio(counters.rpc_calls, ops),
        "client.probe_fallbacks_per_op": _ratio(get("client.probe").count, ops),
        "client.probe_wait_ms": get("client.probe").mean(1e3),
        "node.handle_us": get("node.handle").mean(1e6),
        "node.handles_per_op": _ratio(get("node.handle").count, ops),
        "wire.encode_us_per_frame": _ratio(
            (get("wire.encode_tail").duration + sum(e.duration for e in encode)) * 1e6,
            sum(e.count for e in encode)),
        "wire.decode_us_per_frame": _ratio(decode.duration * 1e6, decode.b),
        "wire.frames_per_op": _ratio(decode.b, ops),
        "wire.bytes_per_op": _ratio(decode.a, ops),
        "net.fan_out_wait_ms": get("net.fan_out").mean(1e3),
        "net.reconnects": float(counters.reconnects),
        "transport.timeouts_per_op": _ratio(counters.rpc_timeouts, ops),
        "transport.drops_per_op": _ratio(counters.rpc_dropped, ops),
        "gossip.run_once_us": get("gossip.run_once").mean(1e6),
        "gossip.rounds_per_s": _ratio(counters.gossip_rounds, seconds),
        "gossip.repairs_per_read": _ratio(counters.repairs_piggybacked, reads),
        "trace.overhead_frac": _ratio(
            _ratio(traced_open.cpu, traced_open.attempted),
            _ratio(baseline.cpu, baseline.attempted)) - 1.0,
        "ledger.attributed_frac": _ratio(attributed, cpu),
        "loop.unattributed_us_per_op": _ratio((cpu - attributed) * 1e6, ops),
    }
    for index, (label, phase) in enumerate((("open", traced_open), ("closed", traced_closed))):
        flushes = phase.counters.dispatch_flushes
        fan_out = per_window.get(("dispatch.fan_out", index)) or _Totals()
        metrics[f"dispatch.flushes_per_op.{label}"] = _ratio(flushes, phase.attempted)
        metrics[f"dispatch.rpcs_per_flush.{label}"] = _ratio(phase.counters.rpc_calls, flushes)
        metrics[f"dispatch.fan_out_wait_ms.{label}"] = fan_out.mean(1e3)
    return {name: metrics[name] for name, _, _ in LAYER_METRICS}
