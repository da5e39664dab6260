"""Simulated self-verifying data.

Dissemination quorum systems (Section 4) assume *self-verifying* data:
"data that servers can suppress but not undetectably alter (such as
digitally signed data)".  The only property the paper relies on is that a
faulty server cannot forge a value/timestamp pair it has never been given.

A real deployment would use public-key signatures; for an in-process
simulation a keyed hash (HMAC-SHA256) over a canonical encoding of the
variable name, value and timestamp provides exactly the same guarantee
against the simulated adversary, because Byzantine *servers* never learn the
writer's key (only clients hold it).  This substitution is recorded in
DESIGN.md.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import VerificationError
from repro.protocol.timestamps import Timestamp


@dataclass(frozen=True)
class SignedPayload:
    """A value/timestamp pair together with its signature."""

    variable: str
    value: Any
    timestamp: Timestamp
    signature: bytes


def _canonical_encoding(variable: str, value: Any, timestamp: Timestamp) -> bytes:
    """Deterministically encode the signed fields.

    ``json`` with sorted keys keeps the encoding canonical for the basic
    value types the protocols and applications use (strings, numbers,
    booleans, lists, dicts); anything else falls back to ``repr``, which is
    adequate for a simulation where both signer and verifier run in the same
    process.
    """
    try:
        value_part = json.dumps(value, sort_keys=True, default=repr)
    except TypeError:  # pragma: no cover - json with default=repr rarely fails
        value_part = repr(value)
    blob = {
        "variable": variable,
        "value": value_part,
        "counter": timestamp.counter,
        "writer": timestamp.writer_id,
    }
    return json.dumps(blob, sort_keys=True).encode("utf-8")


class SignatureScheme:
    """HMAC-based stand-in for the writer's digital signature.

    Parameters
    ----------
    key:
        The writer's secret.  Clients (writer and readers) hold it; simulated
        servers never see it, so Byzantine servers cannot produce valid
        signatures for values that were never written.
    """

    def __init__(self, key: bytes = b"probabilistic-quorums") -> None:
        if not key:
            raise VerificationError("the signing key must be non-empty")
        self._key = bytes(key)

    def sign(self, variable: str, value: Any, timestamp: Timestamp) -> bytes:
        """Sign a value/timestamp pair for a variable."""
        encoded = _canonical_encoding(variable, value, timestamp)
        return hmac.new(self._key, encoded, hashlib.sha256).digest()

    def signed_payload(self, variable: str, value: Any, timestamp: Timestamp) -> SignedPayload:
        """Convenience constructor returning the full :class:`SignedPayload`."""
        return SignedPayload(
            variable=variable,
            value=value,
            timestamp=timestamp,
            signature=self.sign(variable, value, timestamp),
        )

    def verify(
        self,
        variable: str,
        value: Any,
        timestamp: Timestamp,
        signature: Optional[bytes],
    ) -> bool:
        """Whether ``signature`` is the writer's signature on these fields.

        Anything but non-empty ``bytes`` — a Byzantine peer can put any
        value in the signature field — is simply not a valid signature.
        """
        if not isinstance(signature, bytes) or not signature:
            return False
        expected = self.sign(variable, value, timestamp)
        return hmac.compare_digest(expected, signature)

    def require_valid(
        self,
        variable: str,
        value: Any,
        timestamp: Timestamp,
        signature: Optional[bytes],
    ) -> None:
        """Raise :class:`VerificationError` unless the signature verifies."""
        if not self.verify(variable, value, timestamp, signature):
            raise VerificationError(
                f"signature verification failed for variable {variable!r} "
                f"at timestamp {timestamp}"
            )
