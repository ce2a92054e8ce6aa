"""Interner contracts: stable first-appearance codes."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.store import MISSING_CODE, Interner

IDS = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=8,
)


class TestInterner:
    def test_first_appearance_order(self):
        interner = Interner()
        assert interner.intern("b") == 0
        assert interner.intern("a") == 1
        assert interner.intern("b") == 0
        assert interner.values() == ("b", "a")
        assert len(interner) == 2
        assert "a" in interner and "z" not in interner

    def test_code_is_query_side(self):
        interner = Interner()
        interner.intern("x")
        assert interner.code("x") == 0
        assert interner.code("nope") == MISSING_CODE
        assert len(interner) == 1  # code() never interns

    def test_codes_bulk_lookup(self):
        interner = Interner()
        interner.intern_many(["a", "b"])
        codes = interner.codes(["b", "zz", "a"])
        assert codes.dtype == np.int32
        assert codes.tolist() == [1, MISSING_CODE, 0]

    def test_value_roundtrip(self):
        interner = Interner()
        for name in ("x", "y", "z"):
            interner.intern(name)
        assert [interner.value(c) for c in range(3)] == ["x", "y", "z"]

    @given(st.lists(IDS, max_size=40))
    def test_intern_many_equals_looped_intern(self, ids):
        looped = Interner()
        codes_a = [looped.intern(v) for v in ids]
        bulk = Interner()
        codes_b = bulk.intern_many(ids).tolist()
        assert codes_a == codes_b
        assert looped.values() == bulk.values()
        assert looped.canonical_bytes() == bulk.canonical_bytes()

    @given(st.lists(IDS, max_size=10), st.lists(IDS, max_size=40))
    def test_intern_many_after_seen_ids_equals_looped_intern(self, seen, ids):
        """All-seen batches take the lookup-only path, mixed ones the
        loop; both give the loop's codes and table."""
        looped, bulk = Interner(), Interner()
        for interner in (looped, bulk):
            for v in seen:
                interner.intern(v)
        codes = [looped.intern(v) for v in ids]
        assert bulk.intern_many(ids).tolist() == codes
        assert looped.values() == bulk.values()

    @given(st.lists(IDS, max_size=40), st.integers(0, 39))
    def test_canonical_bytes_chunking_invariant(self, ids, split):
        """Interning the same stream in any call pattern encodes the
        same — the substrate of store snapshot/merge byte-identity."""
        split = min(split, len(ids))
        one = Interner()
        one.intern_many(ids)
        two = Interner()
        two.intern_many(ids[:split])
        for v in ids[split:]:
            two.intern(v)
        assert one.canonical_bytes() == two.canonical_bytes()

    def test_canonical_bytes_orders_matter(self):
        a, b = Interner(), Interner()
        a.intern_many(["x", "y"])
        b.intern_many(["y", "x"])
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_empty_canonical_bytes(self):
        assert Interner().canonical_bytes() == (0).to_bytes(8, "little")
