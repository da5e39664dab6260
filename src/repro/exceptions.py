"""Exception hierarchy for the probabilistic quorum systems library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so a
caller can catch everything coming out of the library with a single handler
while still distinguishing configuration mistakes from runtime protocol
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A quorum system, strategy or protocol was constructed with invalid parameters.

    Examples: a quorum size larger than the universe, a Byzantine threshold
    ``b`` that exceeds what the construction supports, or a probability that
    is outside ``(0, 1)``.
    """


class StrategyError(ConfigurationError):
    """An access strategy is malformed (weights negative or not summing to one)."""


class QuorumPropertyError(ReproError):
    """A set system does not satisfy the quorum property it claims to satisfy.

    Raised by the verification helpers in :mod:`repro.quorum.verification`
    when, for example, two quorums of a "strict" system fail to intersect, or
    the overlap of a ``b``-masking system is smaller than ``2b + 1``.
    """


class QuorumUnavailableError(ReproError):
    """No live quorum could be assembled for an operation.

    Raised by the protocol layer when, after failures, the client cannot
    collect responses from every server of its chosen quorum.
    """


class ProtocolError(ReproError):
    """A replicated-data protocol violated one of its preconditions.

    Examples: two distinct writers using a single-writer register, or a
    client submitting a timestamp that is not monotonically increasing.
    """


class VerificationError(ProtocolError):
    """Self-verifying data failed verification (a forged or corrupted value)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent internal state."""


class ServiceError(ReproError):
    """The asyncio service layer failed outside the protocol's own semantics."""


class WireFormatError(ServiceError):
    """A socket-transport frame was malformed (bad tag, oversized, or truncated)."""


class ExperimentError(ReproError):
    """An experiment/benchmark harness was asked for an unknown table or figure."""
