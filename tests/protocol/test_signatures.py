"""Tests for the simulated self-verifying data layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import VerificationError
from repro.protocol.signatures import SignatureScheme, SignedPayload
from repro.protocol.timestamps import Timestamp


class TestSignatureScheme:
    def test_sign_and_verify_round_trip(self):
        scheme = SignatureScheme(b"writer-key")
        ts = Timestamp(3, 1)
        signature = scheme.sign("x", {"value": 42}, ts)
        assert scheme.verify("x", {"value": 42}, ts, signature)

    def test_signed_payload_helper(self):
        scheme = SignatureScheme(b"writer-key")
        payload = scheme.signed_payload("x", "hello", Timestamp(1, 0))
        assert isinstance(payload, SignedPayload)
        assert scheme.verify(payload.variable, payload.value, payload.timestamp, payload.signature)

    def test_tampered_value_fails(self):
        scheme = SignatureScheme(b"writer-key")
        ts = Timestamp(3, 1)
        signature = scheme.sign("x", "honest", ts)
        assert not scheme.verify("x", "forged", ts, signature)

    def test_tampered_timestamp_fails(self):
        scheme = SignatureScheme(b"writer-key")
        signature = scheme.sign("x", "v", Timestamp(3, 1))
        assert not scheme.verify("x", "v", Timestamp(4, 1), signature)

    def test_wrong_variable_fails(self):
        scheme = SignatureScheme(b"writer-key")
        signature = scheme.sign("x", "v", Timestamp(3, 1))
        assert not scheme.verify("y", "v", Timestamp(3, 1), signature)

    def test_wrong_key_fails(self):
        ts = Timestamp(3, 1)
        signature = SignatureScheme(b"key-a").sign("x", "v", ts)
        assert not SignatureScheme(b"key-b").verify("x", "v", ts, signature)

    def test_missing_signature_fails(self):
        scheme = SignatureScheme(b"writer-key")
        assert not scheme.verify("x", "v", Timestamp(1, 0), None)
        assert not scheme.verify("x", "v", Timestamp(1, 0), b"")

    @pytest.mark.parametrize("signature", ["forged", [1], 7, 7.5, ("s",), bytearray(b"s")])
    def test_non_bytes_signature_fails_instead_of_raising(self, signature):
        """A Byzantine reply can carry anything in its signature field;
        it must be rejected, never crash the reader."""
        scheme = SignatureScheme(b"writer-key")
        assert not scheme.verify("x", "v", Timestamp(1, 0), signature)
        with pytest.raises(VerificationError):
            scheme.require_valid("x", "v", Timestamp(1, 0), signature)

    def test_require_valid(self):
        scheme = SignatureScheme(b"writer-key")
        ts = Timestamp(1, 0)
        signature = scheme.sign("x", "v", ts)
        scheme.require_valid("x", "v", ts, signature)
        with pytest.raises(VerificationError):
            scheme.require_valid("x", "other", ts, signature)

    def test_empty_key_rejected(self):
        with pytest.raises(VerificationError):
            SignatureScheme(b"")

    def test_non_json_values_are_signable(self):
        scheme = SignatureScheme(b"writer-key")
        ts = Timestamp(2, 0)
        value = frozenset({1, 2, 3})  # not JSON serialisable directly
        signature = scheme.sign("x", value, ts)
        assert scheme.verify("x", value, ts, signature)

    @given(
        st.text(min_size=1, max_size=10),
        st.one_of(st.integers(), st.text(max_size=20), st.lists(st.integers(), max_size=5)),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, variable, value, counter):
        scheme = SignatureScheme(b"prop-key")
        ts = Timestamp(counter, 0)
        signature = scheme.sign(variable, value, ts)
        assert scheme.verify(variable, value, ts, signature)
        # A different counter never verifies.
        assert not scheme.verify(variable, value, Timestamp(counter + 1, 0), signature)
