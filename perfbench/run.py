"""The repository benchmark: one seeded workload against one live deployment.

Run from the repository root::

    python3 perfbench/run.py --workload inproc-read-heavy --seed 1 --seconds 30 --trace 0

An untraced run sets a deployment up several times (``setup_s`` is the
median, plus the median time of importing the package in a fresh
interpreter); a traced run sets it up once.  Each run warms up, then measures an open-loop phase (Poisson arrivals at the
workload's fixed rate, latency timed from each operation's intended send
time) and a closed-loop phase (64 operations in flight, for saturation
throughput).  ``--trace 1`` instead runs an untraced open phase as the
overhead baseline, then wraps every layer's entry points (see ``spans.py``)
for a traced open and closed phase, and reports the per-layer metrics of
``ledger.py``.

Every run checks the service's outputs: no fabricated or never-issued value
accepted, stale reads within the scenario's analytical ε (plus a 4σ
sampling margin), every phase completed reads, no operation raised or had
to be cancelled, ⊥ reads after a settled write stay within a small share,
and every attempted operation either completed or counted as failed.  The
last line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from ledger import LAYER_METRICS, layer_metrics
from spans import Recorder, install
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``(metric, unit)`` of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("fresh_read_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end figures every run prints but BENCHMARK.json does not declare.
#: The p99 latencies are set by 20-80 ms stalls of the whole process, so
#: from run to run they spread far wider than any bound a declared metric
#: may have; ``failed_op_frac`` and ``gen_lag_ms`` can read 0.
PRINTED_ONLY = (
    ("read_p99_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("failed_op_frac", "frac"),
    ("gen_lag_ms", "ms"),
)

#: Share of ``--seconds`` spent in the open-loop phase; the rest is closed loop.
OPEN_SHARE = 0.5
#: The open and closed phases alternate in this many segments each, so both
#: sample the whole run rather than one stretch of a machine whose speed
#: drifts from second to second.  A traced run measures its first open
#: segment untraced, as the baseline of ``trace.overhead_frac``.
CYCLES = 8
WARMUP_SECONDS = 0.5
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
CLOSED_OPS = 20_000
WARMUP_OPS = 2_000
#: A run whose open-loop generator sent its p99 operation later than this is
#: invalid: the schedule it claims to measure was not the one it ran.
GEN_LAG_LIMIT_S = 0.05
#: Stale reads may exceed ε by this many binomial standard deviations of the
#: observed fraction.  ε bounds the *expected* stale rate, and on
#: tcp-signed-mixed (3 random forgers) the expected rate equals ε, so a
#: finite run lands above ε about half the time with nothing wrong.
STALE_SIGMAS = 4.0
#: A masking read may return ⊥ when too few replies vouch for one value
#: (rare at k=2); such reads count as failed, up to this share of the
#: operations attempted.  Any other failure fails the run.
EMPTY_READ_LIMIT = 0.001
EMPTY_READ = "empty-after-settled-write"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import repro.api, repro.service.load, repro.experiments.serve; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return median(times)


def calibration_seconds() -> float:
    """A fixed pure-Python loop: tells a slower machine from slower code."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(300_000):
            total = (total + value * value) % 1_000_003
        times.append(time.perf_counter() - started)
    return median(times)


def machine_stamp() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    import numpy

    return {
        "cpu": model,
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


async def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    # The driver imports the package under test: only once ``main`` has put
    # its source on the path.
    from driver import Phase, Run, timed_setups

    loop_driver = type(asyncio.get_running_loop()).__name__
    open_seconds = seconds * OPEN_SHARE
    closed_seconds = seconds - open_seconds
    inputs = Inputs(workload, seed, open_seconds, CLOSED_OPS, WARMUP_OPS)

    # A traced run reports no set-up time, so it builds only the one deployment.
    setups = [] if trace else await timed_setups(workload, inputs, SETUP_REPEATS - 1)
    recorder = Recorder() if trace else None
    run = Run(workload, inputs, recorder)
    warmup, open_phase, closed_phase = Phase("w"), Phase("o"), Phase("c")
    baseline = Phase("b") if trace else open_phase
    patches = None
    slice_seconds = open_seconds / CYCLES
    try:
        started = time.perf_counter()
        await run.setup()
        setups.append(time.perf_counter() - started)
        run.start_churn()
        await run.closed_loop(warmup, WARMUP_SECONDS, inputs.warmup_ops)
        first = 0
        for cycle in range(CYCLES):
            low, high = cycle * slice_seconds, (cycle + 1) * slice_seconds
            last = bisect.bisect_left(inputs.arrivals, high)
            await run.open_loop(
                baseline if cycle == 0 else open_phase,
                [offset - low for offset in inputs.arrivals[first:last]],
                inputs.open_ops[first:last], first)
            first = last
            if trace and patches is None:
                patches = install(recorder)
            await run.closed_loop(closed_phase, closed_seconds / CYCLES, inputs.closed_ops)
        unfinished = run.unfinished_tasks()
    finally:
        if patches is not None:
            patches.restore()
        await run.teardown()

    labels = run.labels
    phases = [baseline, open_phase, closed_phase] if trace else [open_phase, closed_phase]
    reads = sum(labels[label] for label in ("fresh", "stale", "empty", "fabricated"))
    epsilon = float(run.scenario.system.epsilon)
    stale_limit = epsilon + STALE_SIGMAS * math.sqrt(epsilon * (1 - epsilon) / max(reads, 1))
    # Every open-loop segment, traced ones too: per-layer figures from a
    # generator that fell behind describe another load than the declared one.
    lag_p99 = percentile(open_phase.lags + (baseline.lags if trace else []), 0.99)
    every = [warmup] + phases
    failures: dict = {}
    for phase in every:
        for reason, count in phase.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    empty_reads = failures.pop(EMPTY_READ, 0)
    cancelled = failures.pop("undrained", 0)
    checks = {
        "no fabricated read accepted": labels["fabricated"] == 0,
        "every accepted value was issued": labels["unissued"] == 0,
        f"stale fraction <= epsilon {epsilon:.4g} + {STALE_SIGMAS:g} sigma":
            _ratio(labels["stale"], reads) <= stale_limit,
        "every phase completed operations and reads": all(
            phase.completed > 0 and phase.reads > 0 for phase in every),
        "no operation raised": not failures,
        f"reads of bottom after a settled write <= {EMPTY_READ_LIMIT:g} of attempted":
            empty_reads <= EMPTY_READ_LIMIT * sum(phase.attempted for phase in every),
        "attempted = completed + failed": all(
            phase.attempted == phase.completed + phase.failed for phase in every),
        "every operation task finished on its own before teardown":
            cancelled == 0 and unfinished == 0,
        f"generator p99 lag <= {GEN_LAG_LIMIT_S * 1e3:g} ms (run valid)":
            lag_p99 <= GEN_LAG_LIMIT_S,
    }
    report = {
        "phases": phases,
        "labels": labels,
        "reads": reads,
        "epsilon": epsilon,
        "checks": checks,
        "setups": setups,
        "lag_p99": lag_p99,
        "churn": run.churn_counters["injected"],
        "loop": loop_driver,
    }
    if trace:
        report["spans"] = recorder
        report["skipped"] = patches.skipped
        report["layers"] = layer_metrics(recorder, baseline, open_phase, closed_phase)
        return report
    attempted = open_phase.attempted + closed_phase.attempted
    report["end_to_end"] = {
        "throughput_ops_s": _ratio(closed_phase.completed, closed_phase.wall),
        "read_p50_ms": percentile(open_phase.read_latency, 0.50) * 1e3,
        "write_p50_ms": percentile(open_phase.write_latency, 0.50) * 1e3,
        "cpu_us_per_op": _ratio(open_phase.cpu * 1e6, open_phase.completed),
        "fresh_read_frac": _ratio(labels["fresh"], reads),
        "setup_s": median(setups),  # the caller adds the import time
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "read_p99_ms": percentile(open_phase.read_latency, 0.99) * 1e3,
        "write_p99_ms": percentile(open_phase.write_latency, 0.99) * 1e3,
        "failed_op_frac": _ratio(open_phase.failed + closed_phase.failed, attempted),
        "gen_lag_ms": lag_p99 * 1e3,
    }
    return report


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    imported = 0.0 if args.trace else import_seconds()
    stamp = machine_stamp()
    report = asyncio.run(measure(workload, args.seed, args.seconds, bool(args.trace)))

    print(f"# workload {workload.name}: {workload.why}")
    stamp["loop"] = report["loop"]
    stamp["calibration_ms"] = round(calibration_seconds() * 1e3, 3)
    print("# machine " + json.dumps(stamp, sort_keys=True))
    for phase in report["phases"]:
        print(f"# phase {phase.name}: attempted={phase.attempted} "
              f"completed={phase.completed} failed={phase.failed} {phase.failures} "
              f"wall={phase.wall:.3f}s cpu={phase.cpu:.3f}s "
              f"p99 lag={percentile(phase.lags, 0.99) * 1e3:.3f}ms")
        if phase.first_error:
            print(f"#   first error: {phase.first_error}")
    print(f"# reads {report['labels']} (epsilon {report['epsilon']:.4g}); "
          f"injected crashes {report['churn']}")
    for check, passed in report["checks"].items():
        print(f"# check {'ok  ' if passed else 'FAIL'} {check}")
    correct = all(report["checks"].values())
    phases = report["phases"]
    attempted = sum(phase.attempted for phase in phases[-2:])
    failed = sum(phase.failed for phase in phases[-2:])

    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{workload.name}-seed{args.seed}.spans.csv.gz"
        report["spans"].write(str(path))
        print(f"# {len(report['spans'])} spans written to {path}")
        if report["skipped"]:
            print(f"# targets not present in this version: {report['skipped']}")
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in report["layers"].items()}
    else:
        values = report["end_to_end"]
        print(f"# setup: import {imported:.4f}s + median of "
              f"{[round(t, 4) for t in report['setups']]}; "
              f"{len(phases[0].read_latency)} reads and "
              f"{len(phases[0].write_latency)} writes timed in the open loop")
        values["setup_s"] += imported
        for name, unit in PRINTED_ONLY:
            print(f"# {name} {values[name]:.6g} {unit} (not declared)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
