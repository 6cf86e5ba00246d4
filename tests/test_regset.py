"""Tests for repro.dataflow.regset, including algebraic property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.regset import (
    EMPTY_SET,
    FULL_MASK,
    TRACKED_MASK,
    UNIVERSE,
    RegisterSet,
    construction_count,
    iter_mask,
    mask_of,
    sorted_names,
)
from repro.isa.registers import Register


class TestConstruction:
    def test_empty(self):
        assert not RegisterSet()
        assert len(RegisterSet()) == 0

    def test_from_names(self):
        s = RegisterSet(["t0", "sp"])
        assert "t0" in s and "sp" in s and "t1" not in s

    def test_from_registers_and_indices(self):
        s = RegisterSet([Register(3), 5])
        assert 3 in s and 5 in s

    def test_from_mask(self):
        assert RegisterSet.from_mask(0b101) == RegisterSet([0, 2])

    def test_from_mask_range_checked(self):
        with pytest.raises(ValueError):
            RegisterSet.from_mask(1 << 64)
        with pytest.raises(ValueError):
            RegisterSet.from_mask(-1)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            RegisterSet([64])

    def test_constants(self):
        assert EMPTY_SET.mask == 0
        assert UNIVERSE.mask == FULL_MASK
        assert len(UNIVERSE) == 64
        # TRACKED excludes the two hardwired zero registers.
        assert bin(TRACKED_MASK).count("1") == 62
        assert not (TRACKED_MASK >> 31) & 1
        assert not (TRACKED_MASK >> 63) & 1


class TestAlgebra:
    def test_union(self):
        assert RegisterSet([1]) | RegisterSet([2]) == RegisterSet([1, 2])

    def test_intersection(self):
        assert RegisterSet([1, 2]) & RegisterSet([2, 3]) == RegisterSet([2])

    def test_difference(self):
        assert RegisterSet([1, 2]) - RegisterSet([2]) == RegisterSet([1])

    def test_symmetric_difference(self):
        assert RegisterSet([1, 2]) ^ RegisterSet([2, 3]) == RegisterSet([1, 3])

    def test_complement(self):
        assert RegisterSet([0]).complement() == UNIVERSE - RegisterSet([0])

    def test_varargs_union_intersection(self):
        a, b, c = RegisterSet([1]), RegisterSet([2]), RegisterSet([3])
        assert a.union(b, c) == RegisterSet([1, 2, 3])
        assert RegisterSet([1, 2, 3]).intersection(
            RegisterSet([1, 2]), RegisterSet([2, 3])
        ) == RegisterSet([2])

    def test_add_remove_are_persistent(self):
        s = RegisterSet([1])
        t = s.add(2)
        u = t.remove(1)
        assert s == RegisterSet([1])
        assert t == RegisterSet([1, 2])
        assert u == RegisterSet([2])

    def test_subset_superset_disjoint(self):
        small, big = RegisterSet([1]), RegisterSet([1, 2])
        assert small.issubset(big) and big.issuperset(small)
        assert not big.issubset(small)
        assert small.isdisjoint(RegisterSet([3]))
        assert not small.isdisjoint(big)


class TestPresentation:
    def test_iteration_sorted(self):
        regs = list(RegisterSet([5, 1, 3]))
        assert [r.index for r in regs] == [1, 3, 5]

    def test_names(self):
        assert RegisterSet(["v0", "sp"]).names() == frozenset({"v0", "sp"})

    def test_repr(self):
        assert repr(RegisterSet(["t0"])) == "{t0}"
        assert repr(EMPTY_SET) == "{}"

    def test_hashable(self):
        assert len({RegisterSet([1]), RegisterSet([1]), RegisterSet([2])}) == 2

    def test_equality_against_other_types(self):
        assert RegisterSet([1]) != "not a set"


class TestHelpers:
    def test_mask_of(self):
        assert mask_of(["r0", "r2"]) == 0b101

    def test_iter_mask(self):
        assert list(iter_mask(0b1011)) == [0, 1, 3]
        assert list(iter_mask(0)) == []


    def test_sorted_names_constructs_no_set(self):
        before = construction_count()
        assert sorted_names(mask_of(["sp", "a0", "f3", "r15"])) == (
            "a0", "f3", "fp", "sp"
        )
        assert construction_count() == before

    def test_sorted_names_rejects_foreign_masks(self):
        for mask in (-1, FULL_MASK + 1):
            with pytest.raises(ValueError, match="register file"):
                sorted_names(mask)


masks = st.integers(min_value=0, max_value=FULL_MASK)


@given(masks)
def test_property_sorted_names_is_the_rendered_set(mask):
    """The memoized rendering is what the payload used to compute."""
    assert list(sorted_names(mask)) == sorted(RegisterSet.from_mask(mask).names())


@given(masks, masks)
def test_property_de_morgan(a, b):
    sa, sb = RegisterSet.from_mask(a), RegisterSet.from_mask(b)
    assert (sa | sb).complement() == sa.complement() & sb.complement()
    assert (sa & sb).complement() == sa.complement() | sb.complement()


@given(masks, masks, masks)
def test_property_distributivity(a, b, c):
    sa, sb, sc = (RegisterSet.from_mask(m) for m in (a, b, c))
    assert sa & (sb | sc) == (sa & sb) | (sa & sc)
    assert sa | (sb & sc) == (sa | sb) & (sa | sc)


@given(masks, masks)
def test_property_difference_via_complement(a, b):
    sa, sb = RegisterSet.from_mask(a), RegisterSet.from_mask(b)
    assert sa - sb == sa & sb.complement()


@given(masks)
def test_property_iteration_matches_mask(a):
    s = RegisterSet.from_mask(a)
    rebuilt = 0
    for register in s:
        rebuilt |= 1 << register.index
    assert rebuilt == a
    assert len(s) == bin(a).count("1")


@given(masks, masks)
def test_property_subset_consistency(a, b):
    sa, sb = RegisterSet.from_mask(a), RegisterSet.from_mask(b)
    assert sa.issubset(sb) == ((sa | sb) == sb)
    assert sa.isdisjoint(sb) == (len(sa & sb) == 0)
