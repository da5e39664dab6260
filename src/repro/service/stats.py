"""Per-server latency statistics for the service layer.

:class:`EwmaLatencyTracker` keeps one exponentially weighted moving average
of observed RPC latency per replica server.  The dispatchers (in process
and over TCP) feed it two kinds of observations:

* :meth:`observe` — a reply arrived after ``seconds`` of event-loop time;
* :meth:`penalize` — the server missed (drop, crash, silence): the caller
  paid its whole deadline, which is exactly the cost the tracker records.

The tracker powers the service layer's **opt-in** latency-aware quorum
selection (:meth:`biased_quorum`): servers with lower latency estimates are
preferred via exact weighted sampling without replacement (Gumbel top-``k``
over ``log``-weights ``w ∝ 1/(ewma + floor)``).

.. warning::
   Latency-aware selection *deviates from the access strategy*.  The paper's
   ε guarantee — and in particular the ``|Q ∩ B|`` accounting of Lemma 5.7
   that the masking read threshold relies on — holds only for
   strategy-drawn quorums, so this mode trades the probabilistic guarantee
   for tail latency.  The service layer refuses it outright when the
   deployed scenario contains Byzantine servers and warns everywhere else;
   the strategy-faithful path stays the default.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Additive floor (seconds) under the inverse-latency weights, so a server
#: with a ~zero estimate cannot absorb the whole distribution.
WEIGHT_FLOOR = 1e-6


class EwmaLatencyTracker:
    """Per-server EWMA latency estimates over ``n`` replica servers.

    Parameters
    ----------
    n:
        Universe size (one estimate per server).
    alpha:
        EWMA smoothing factor in ``(0, 1]``: the weight of the newest
        observation.
    initial:
        Starting estimate for every server, in seconds.  A small optimistic
        value keeps unobserved servers attractive enough to be explored.
    """

    __slots__ = ("_n", "_alpha", "_ewma", "observations", "penalties")

    def __init__(self, n: int, alpha: float = 0.2, initial: float = 0.001) -> None:
        if n < 1:
            raise ConfigurationError(f"the tracker needs at least one server, got n={n}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1], got {alpha}")
        if initial <= 0.0:
            raise ConfigurationError(
                f"the initial latency estimate must be positive, got {initial}"
            )
        self._n = int(n)
        self._alpha = float(alpha)
        self._ewma = np.full(self._n, float(initial), dtype=np.float64)
        self.observations = 0
        self.penalties = 0

    @property
    def n(self) -> int:
        """Number of tracked servers."""
        return self._n

    @property
    def alpha(self) -> float:
        """The EWMA smoothing factor."""
        return self._alpha

    def estimate(self, server: int) -> float:
        """The current latency estimate of one server, in seconds."""
        return float(self._ewma[server])

    def estimates(self) -> List[float]:
        """A copy of all per-server estimates (report/debug use)."""
        return self._ewma.tolist()

    def _update(self, server: int, seconds: float) -> None:
        self._ewma[server] += self._alpha * (seconds - self._ewma[server])

    def observe(self, server: int, seconds: float) -> None:
        """Fold one successful RPC's observed latency into the estimate."""
        self.observations += 1
        self._update(server, seconds)

    def penalize(self, server: int, seconds: float) -> None:
        """Fold one missed RPC in: the caller paid ``seconds`` for nothing."""
        self.penalties += 1
        self._update(server, seconds)

    def biased_quorum(
        self,
        size: int,
        generator: Optional[np.random.Generator] = None,
        rng: Optional[random.Random] = None,
    ) -> Tuple[int, ...]:
        """Draw ``size`` distinct servers biased toward low latency.

        Exact weighted sampling without replacement with weights
        ``w_u ∝ 1 / (ewma_u + floor)`` via the Gumbel top-``k`` trick:
        perturb each server's ``log w_u`` with i.i.d. Gumbel noise and keep
        the ``size`` largest keys.  Returns a sorted tuple of server ids.
        """
        if not 0 < size <= self._n:
            raise ConfigurationError(
                f"quorum size must lie in (0, {self._n}], got {size}"
            )
        if generator is None:
            seed = rng.randrange(2**63) if rng is not None else None
            generator = np.random.default_rng(seed)
        keys = generator.gumbel(size=self._n) - np.log(self._ewma + WEIGHT_FLOOR)
        if size == self._n:
            chosen = np.arange(self._n)
        else:
            chosen = np.argpartition(-keys, size - 1)[:size]
            chosen.sort()
        return tuple(int(server) for server in chosen)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"EwmaLatencyTracker(n={self._n}, alpha={self._alpha}, "
            f"observations={self.observations}, penalties={self.penalties})"
        )
