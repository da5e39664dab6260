"""Network conditions of the asyncio service layer: latency, jitter, drops.

The Monte-Carlo engines evaluate the protocols over *sequentialised* trials;
the service layer instead runs genuinely concurrent clients on an asyncio
event loop, so the transport is where real interleaving (and its hazards)
enters the model.  :class:`AsyncTransport` holds what the dispatchers need
to decide each message's fate:

* the conditions — a delivery delay of ``latency ± jitter`` event-loop
  seconds and an independent per-message ``drop_probability``;
* the private random source both are drawn from, so a run is reproducible
  from the transport seed;
* the ``calls``/``dropped``/``timed_out`` counters every report reads.

Messages themselves travel through a dispatcher: the in-process
:class:`~repro.service.dispatch.BatchedDispatcher` or, over sockets, the
:class:`~repro.service.net.TcpDispatcher` in front of a
:class:`~repro.service.net.TcpTransport` (which extends this class with a
connection pool).  Either way a lost or overdue reply costs the caller its
operation deadline, never an unbounded wait.
"""

from __future__ import annotations

import random

from repro.exceptions import ConfigurationError


class AsyncTransport:
    """Network conditions, their random source and the failure counters.

    Parameters
    ----------
    latency:
        Mean one-way processing delay per delivery, in event-loop seconds
        (the request and reply legs are folded into one delay).
    jitter:
        Half-width of the uniform noise added to ``latency``.
    drop_probability:
        Probability that an RPC's request or reply is lost.
    seed:
        Seed of the transport's private random source (drops and jitter),
        making a single-transport run reproducible.
    """

    def __init__(
        self,
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if latency < 0.0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        if jitter < 0.0 or jitter > latency:
            raise ConfigurationError(
                f"jitter must lie in [0, latency={latency}], got {jitter}"
            )
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError(
                f"drop probability must lie in [0, 1), got {drop_probability}"
            )
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.drop_probability = float(drop_probability)
        self.rng = random.Random(seed)
        #: RPCs issued, RPCs lost to simulated drops, and RPCs that missed
        #: their deadline (late, silent or unsendable): the report's
        #: drop/timeout columns partition the failures.
        self.calls = 0
        self.dropped = 0
        self.timed_out = 0

    def draw_delay(self) -> float:
        """Draw one delivery delay (``latency ± jitter``) from the transport RNG."""
        if self.jitter:
            return self.latency + self.rng.uniform(-self.jitter, self.jitter)
        return self.latency
