"""The benchmark's three deployments and the seeded inputs they receive.

Arrival rates are constants, not tuned per run.  Each is at most about a
third of what the same workload sustains *traced* on a 2-core x86 box (and a
sixth to a fifth of its untraced saturation throughput), so the open-loop
generator keeps its schedule even when tracing slows every operation or the
host gives the process only part of a core; the closed-loop phase finds
where the service saturates.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

#: Operations the closed-loop phase keeps in flight.
CLOSED_IN_FLIGHT = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: Callable[[], object]
    transport: str
    deadline: float
    keys: int
    key_skew: float
    write_fraction: float
    writers: int
    readers: int
    rate: float  # open-loop arrivals per second
    latency: float = 0.0
    jitter: float = 0.0
    drop_probability: float = 0.0
    anti_entropy: bool = False
    churn_crashes: int = 0
    churn_interval: float = 0.002


def _read_heavy_scenario():
    from repro.core.masking import ProbabilisticMaskingSystem
    from repro.simulation.scenario import ScenarioSpec

    return ScenarioSpec(system=ProbabilisticMaskingSystem(25, 10, 3))


def _signed_scenario():
    from repro.core.dissemination import ProbabilisticDisseminationSystem
    from repro.protocol.timestamps import Timestamp
    from repro.simulation.failures import FailureModel
    from repro.simulation.scenario import ScenarioSpec

    return ScenarioSpec(
        system=ProbabilisticDisseminationSystem(25, 10, 3),
        failure_model=FailureModel.colluding_forgers(
            3, "FORGED", Timestamp.forged_maximum()
        ),
    )


def _churn_scenario():
    from repro.experiments.serve import serve_scenario

    return serve_scenario()  # Rk(100, 30, b=3, k=5) with 3 max-timestamp forgers


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="inproc-read-heavy",
            why=(
                "in-process CPU path (client, dispatcher, node, selection, quorum "
                "sampling) with no wire and no waiting; a codec change must not move it"
            ),
            scenario=_read_heavy_scenario,
            transport="inproc",
            deadline=0.05,
            keys=1,
            key_skew=0.0,
            write_fraction=0.05,
            writers=4,
            readers=8,
            rate=2500.0,
        ),
        Workload(
            name="tcp-signed-mixed",
            why=(
                "localhost TCP with signed writes and HMAC-verified replies under "
                "colluding forgers; wire and net dominate the cost"
            ),
            scenario=_signed_scenario,
            transport="tcp",
            deadline=0.5,
            keys=16,
            key_skew=1.0,
            write_fraction=0.20,
            writers=4,
            readers=8,
            rate=300.0,
        ),
        Workload(
            name="inproc-churn-forgers",
            why=(
                "forgers, drops, rolling crashes, tight deadlines and anti-entropy: "
                "time goes to waiting, timeouts, probes, gossip and repair"
            ),
            scenario=_churn_scenario,
            transport="inproc",
            deadline=0.005,
            keys=4,
            key_skew=0.0,
            write_fraction=0.10,
            writers=4,
            readers=8,
            rate=300.0,
            latency=0.0002,
            jitter=0.0001,
            drop_probability=0.01,
            anti_entropy=True,
            churn_crashes=5,
            churn_interval=0.002,
        ),
    )
}


#: One operation: ``(is_write, key index, client index)``.  The client index
#: picks a writer for writes and a reader for reads.
Op = Tuple[bool, int, int]


class Inputs:
    """Every input of one run, drawn from the seed before anything is timed."""

    def __init__(self, workload: Workload, seed: int, open_seconds: float,
                 closed_ops: int, warmup_ops: int) -> None:
        from repro.service.load import key_weight_cdf

        rng = random.Random(seed)
        self._rng = rng
        self._workload = workload
        self._cdf = key_weight_cdf(workload.keys, workload.key_skew)
        self.deployment_seed = rng.randrange(2**31)
        self.churn_seed = rng.randrange(2**31)
        #: Open-loop send times, seconds from the phase start (Poisson).
        self.arrivals: List[float] = []
        now = rng.expovariate(workload.rate)
        while now < open_seconds:
            self.arrivals.append(now)
            now += rng.expovariate(workload.rate)
        self.open_ops = self._ops(len(self.arrivals))
        self.closed_ops = self._ops(closed_ops)
        self.warmup_ops = self._ops(warmup_ops)

    def _ops(self, count: int) -> List[Op]:
        rng, workload, cdf = self._rng, self._workload, self._cdf
        ops: List[Op] = []
        for _ in range(count):
            is_write = rng.random() < workload.write_fraction
            key = bisect.bisect_left(cdf, rng.random()) if workload.keys > 1 else 0
            clients = workload.writers if is_write else workload.readers
            ops.append((is_write, key, rng.randrange(clients)))
        return ops
