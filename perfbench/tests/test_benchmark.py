"""The benchmark's own tests: wrappers, span nesting, counters, inputs, metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import asyncio
import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

from driver import Phase, Run
from ledger import LAYER_METRICS
from spans import NODE_METHODS, TARGETS, Recorder, _resolve, install
from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parents[2]


# -- wrappers -----------------------------------------------------------------------


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def double(value):
        if value is None:
            raise ValueError("no value")
        return value * 2

    class Layer:
        async def fetch(self, value):
            await asyncio.sleep(0)
            if value is None:
                raise KeyError("missing")
            return [value]

    class Child(Layer):
        pass

    module.double = double
    module.Layer = Layer
    module.Child = Child
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


FAKE_TARGETS = (
    ("perfbench_fake_layer", "double", "fake.double", None),
    ("perfbench_fake_layer", "Layer.fetch", "fake.fetch", None),
    ("perfbench_fake_layer", "Child.fetch", "fake.child_fetch", None),
    ("perfbench_fake_layer", "Gone.method", "fake.gone", None),
)


def test_wrappers_pass_results_and_exceptions_through_and_restore(fake_module):
    originals = {
        "double": fake_module.double,
        "fetch": fake_module.Layer.__dict__["fetch"],
    }
    recorder = Recorder()
    patches = install(recorder, FAKE_TARGETS)
    assert patches.skipped == ["perfbench_fake_layer.Gone.method"]
    assert fake_module.double is not originals["double"]
    marker = object()
    assert fake_module.double(21) == 42
    assert fake_module.double([marker]) == [marker, marker]
    with pytest.raises(ValueError, match="no value"):
        fake_module.double(None)

    async def exercise():
        child = fake_module.Child()
        assert await child.fetch(marker) == [marker]
        with pytest.raises(KeyError):
            await fake_module.Layer().fetch(None)

    asyncio.run(exercise())
    names = [row[1] for row in recorder.rows()]
    assert names.count("fake.double") == 3
    # The inherited method is patched on the subclass too: Child.fetch's
    # wrapper calls Layer.fetch's wrapper, so one call nests two spans.
    assert names.count("fake.child_fetch") == 1
    assert names.count("fake.fetch") == 2

    patches.restore()
    assert fake_module.double is originals["double"]
    assert fake_module.Layer.__dict__["fetch"] is originals["fetch"]
    assert "fetch" not in vars(fake_module.Child)
    recorded = len(recorder)
    fake_module.double(1)
    assert len(recorder) == recorded


def test_every_program_target_resolves_and_restores():
    recorder = Recorder()
    originals = [_resolve(module, path)[2] for module, path, _, _ in TARGETS]
    patches = install(recorder)
    assert patches.skipped == []
    patches.restore()
    assert [_resolve(module, path)[2] for module, path, _, _ in TARGETS] == originals


# -- traced runs --------------------------------------------------------------------


def traced_run(workload, seed=3, open_seconds=0.4, closed_seconds=0.2):
    inputs = Inputs(workload, seed, open_seconds, closed_ops=2000, warmup_ops=200)
    recorder = Recorder()

    async def go():
        run = Run(workload, inputs, recorder)
        await run.setup()
        try:
            run.start_churn()
            await run.closed_loop(Phase("w"), 0.1, inputs.warmup_ops)
            patches = install(recorder)
            try:
                open_phase = await run.open_loop(Phase("t"), inputs.arrivals, inputs.open_ops)
                closed_phase = await run.closed_loop(
                    Phase("u"), closed_seconds, inputs.closed_ops)
            finally:
                patches.restore()
            assert run.unfinished_tasks() == 0
        finally:
            await run.teardown()
        return run, open_phase, closed_phase

    run, open_phase, closed_phase = asyncio.run(go())
    return run, recorder, open_phase.counters + closed_phase.counters


def spans_by_id(recorder):
    return {row[0]: row for row in recorder.rows()}


def check_nesting(recorder):
    spans = spans_by_id(recorder)
    children = 0
    for span_id, name, start, end, parent, op, _, _ in spans.values():
        assert start <= end
        if parent:
            children += 1
            _, parent_name, parent_start, parent_end, _, parent_op, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end, (name, parent_name)
            assert op == parent_op, (name, parent_name)
        if name.startswith(("register.", "client.")):
            assert op != 0  # an operation's own spans carry its id
    return children


@pytest.mark.parametrize("name", ["inproc-read-heavy", "tcp-signed-mixed"])
def test_spans_nest_inside_their_parents_and_carry_op_ids(name):
    run, recorder, _ = traced_run(WORKLOADS[name])
    assert run.labels["fabricated"] == 0
    assert check_nesting(recorder) > 0
    names = {row[1] for row in recorder.rows()}
    assert {"register.read", "client.read", "selection", "node.handle"} <= names


def test_wrapper_counts_agree_with_deployment_counters_in_process():
    # The churn deployment without drops or delay: probes, gossip and
    # repairs all happen, and every delivery event with a request in its
    # bucket hands at least one request to a node.
    workload = dataclasses.replace(
        WORKLOADS["inproc-churn-forgers"], latency=0.0, jitter=0.0, drop_probability=0.0
    )
    run, recorder, counters = traced_run(workload)
    spans = spans_by_id(recorder)
    count = {}
    total_a = {}
    for _, name, _, _, _, _, a, _ in spans.values():
        count[name] = count.get(name, 0) + 1
        total_a[name] = total_a.get(name, 0) + a
    repair = NODE_METHODS.index("repair") + 1
    repairs = sum(
        1 for _, name, _, _, _, _, a, _ in spans.values()
        if name == "node.handle" and int(a) == repair
    )
    assert total_a["dispatch.fan_out"] == counters.rpc_calls
    assert count["node.handle"] == counters.node_requests
    assert repairs == counters.repairs_piggybacked > 0
    assert count.get("client.probe", 0) == counters.probe_fallbacks > 0
    rounds = run.deployment.sharded.anti_entropy.rounds
    assert count["gossip.run_once"] * rounds == counters.gossip_rounds > 0
    delivering = {
        parent for _, name, _, _, parent, _, a, _ in spans.values()
        if name == "node.handle" and parent and int(a) != repair
    }
    assert all(spans[parent][1] == "dispatch.flush" for parent in delivering)
    assert len(delivering) == counters.dispatch_flushes
    check_nesting(recorder)


def test_wrapper_counts_agree_with_deployment_counters_over_tcp():
    _, recorder, counters = traced_run(WORKLOADS["tcp-signed-mixed"])
    fan_out = [row for row in recorder.rows() if row[1] == "net.fan_out"]
    handles = [row for row in recorder.rows() if row[1] == "node.handle"]
    assert sum(row[6] for row in fan_out) == counters.rpc_calls > 0
    assert len(handles) == counters.node_requests
    verify = [row for row in recorder.rows() if row[1] == "signatures.verify"]
    assert sum(row[6] for row in verify) > 0  # forged replies are rejected


# -- inputs and declared metrics --------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    workload = WORKLOADS["tcp-signed-mixed"]
    first, again, other = (Inputs(workload, seed, 1.0, 100, 10) for seed in (5, 5, 6))
    assert first.arrivals == again.arrivals and first.open_ops == again.open_ops
    assert first.closed_ops == again.closed_ops
    assert first.arrivals != other.arrivals
    writes = sum(op[0] for op in first.closed_ops)
    assert 0 < writes < len(first.closed_ops)


def test_benchmark_json_declares_what_the_benchmark_reports():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(metric) for metric in LAYER_METRICS
    ]
