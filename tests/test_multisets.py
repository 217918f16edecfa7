"""Multiset calculus on N and N^2: canonical forms and comparison orders."""

import json
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassmult.multisets import (
    diff_profile,
    difference,
    formal_diff_leq,
    iota,
    is_nonvanishing,
    multiset_order_leq,
    negative_part,
    nmul,
    pairs,
    pairs_from_json,
    positive_part,
    proj,
    sign,
    termwise_leq,
    union,
)
from oracles import termwise_less

values = st.lists(st.integers(min_value=1, max_value=9), max_size=6)
points = st.lists(
    st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
    max_size=6,
)


def test_nmul_sorts_and_keeps_repeats():
    assert nmul([3, 1, 3, 2]) == (1, 2, 3, 3)
    assert nmul([]) == ()


def test_pairs_sorts_lexicographically():
    assert pairs([(3, 1), (1, 7), (1, 2)]) == ((1, 2), (1, 7), (3, 1))


def test_sign_classifies_points():
    assert sign((1, 5)) == -1
    assert sign((5, 1)) == 1
    assert sign((4, 4)) == 0


def test_sign_parts():
    U = pairs([(1, 5), (5, 1), (2, 2), (3, 6)])
    assert negative_part(U) == ((1, 5), (3, 6))
    assert positive_part(U) == ((5, 1),)
    assert not is_nonvanishing(U)
    assert is_nonvanishing(negative_part(U) + positive_part(U))


def test_proj_components():
    U = pairs([(1, 5), (3, 6), (3, 2)])
    assert proj(U, 1) == (1, 3, 3)
    assert proj(U, 2) == (2, 5, 6)
    with pytest.raises(ValueError):
        proj(U, 3)


def test_union_and_difference():
    # |E| = 7, and the two derived multisets, with letters a..d read as 1..4
    E = nmul([1, 2, 2, 2, 3, 3, 3])
    F = nmul([2, 2, 3, 4])
    assert len(E) == 7
    assert union(E, F) == (1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4)
    assert difference(E, F) == (1, 2, 3, 3)


def test_difference_truncates_at_zero():
    assert difference((1,), (1, 1, 2)) == ()


@given(values, values)
def test_difference_matches_counter_subtraction(A, B):
    assert difference(A, B) == tuple(sorted((Counter(A) - Counter(B)).elements()))


def test_termwise_leq():
    assert termwise_leq((1, 3, 4), (2, 3, 5))
    assert not termwise_leq((1, 4), (2, 3))
    assert termwise_leq((), ())
    with pytest.raises(ValueError):
        termwise_leq((1,), (1, 2))
    # the termwise (Bruhat) order on d-subsets, as grassmannian.triples reads it
    assert termwise_leq((1, 2, 3, 5), (1, 5, 6, 8))
    assert termwise_leq((1, 5, 6, 8), (3, 6, 8, 9))
    assert not termwise_leq((3, 6, 8, 9), (1, 5, 6, 8))
    with pytest.raises(ValueError, match="termwise comparison requires equal degrees"):
        termwise_leq((1, 2), (1, 2, 3))


def test_termwise_less_is_strict_and_false_on_empty():
    assert termwise_less((1, 2), (2, 3))
    assert not termwise_less((1, 3), (2, 3))
    assert not termwise_less((), ())


def termwise_by_counting(A, B):
    # a_i <= b_i for all i  <=>  |A restricted to <=z| >= |B restricted to <=z| for all z
    return all(sum(a <= z for a in A) >= sum(b <= z for b in B) for z in set(A) | set(B))


@given(values, values)
def test_termwise_implementations_agree(A, B):
    # the sorted comparison in termwise_leq against the counting criterion
    B = B[: len(A)] + A[len(B):]
    assert termwise_leq(A, B) == termwise_by_counting(A, B)
    assert termwise_leq(A, A)
    if termwise_leq(A, B) and termwise_leq(B, A):
        assert sorted(A) == sorted(B)


def test_profiles_decide_the_order_on_formal_differences_exhaustive():
    """Every pair of rows (p, q) of equal-size subsets of 1..6 with at
    most 3 elements, 661 rows: profile dominance is formal_diff_leq on
    all 436,921 ordered pairs, and on the 140 rows whose p and q are
    disjoint, as a table's rows are, a profile >= 0 is termwise_less."""
    rows = [
        (p, q)
        for k in range(1, 4)
        for p in combinations(range(1, 7), k)
        for q in combinations(range(1, 7), k)
    ]
    profiles = [diff_profile(p, q, 6) for p, q in rows]
    disjoint = 0
    for (p, q), h in zip(rows, profiles):
        if not set(p) & set(q):
            assert (min(h) >= 0) == termwise_less(p, q), (p, q)
            disjoint += 1
        for (r, s), g in zip(rows, profiles):
            dominates = all(a >= b for a, b in zip(h, g))
            assert dominates == formal_diff_leq(p, q, r, s), (p, q, r, s)
    assert (len(rows), disjoint) == (661, 140)
    # repeated entries, as in a bound's projections, count with multiplicity
    assert diff_profile((1, 1, 3), (2, 4, 4), 4) == (2, 1, 2, 0)


def test_formal_diff_examples():
    # first/last row comparison of an eight-row pair, spelled out by hand:
    # {1,3} + {4,5,7,9} = {1,3,4,5,7,9} <= {2,3,5,5,7,9} = {2,3,5,7} + {5,9}
    assert formal_diff_leq((1, 3), (5, 9), (2, 3, 5, 7), (4, 5, 7, 9))
    assert not formal_diff_leq((2, 3, 5, 7), (4, 5, 7, 9), (1, 3), (5, 9))
    with pytest.raises(ValueError):
        formal_diff_leq((1,), (), (), ())


@given(values, values, st.integers(min_value=1, max_value=9))
def test_formal_diff_shift_invariance(A, C, x):
    # adding the same entry to both sides of a difference changes nothing
    A, B = nmul(A), nmul(C[: len(A)] + A[len(C):])
    before = formal_diff_leq(A, (), B, ())
    assert formal_diff_leq(A + (x,), (x,), B, ()) == before
    assert formal_diff_leq(A, (), B + (x,), (x,)) == before


def test_multiset_order_prefers_wider_pairs():
    # (1,3) <= (1,2): pushing the second component up moves a negative
    # point down in the order.
    assert multiset_order_leq(((1, 3),), ((1, 2),))
    assert not multiset_order_leq(((1, 2),), ((1, 3),))
    assert multiset_order_leq((), ())


@given(points)
def test_multiset_order_reflexive(U):
    U = pairs(U)
    assert multiset_order_leq(U, U)


@given(points, points)
def test_multiset_order_antitone_under_iota(U, V):
    U, V = pairs(U), pairs(V[: len(U)] + U[len(V):])
    assert multiset_order_leq(U, V) == multiset_order_leq(iota(V), iota(U))


@given(points)
def test_iota_is_an_involution(U):
    U = pairs(U)
    assert iota(iota(U)) == U
    assert proj(iota(U), 1) == proj(U, 2)


def test_json_roundtrip():
    U = pairs([(1, 5), (3, 2), (1, 5)])
    assert pairs_from_json(json.loads(json.dumps(U))) == U


@pytest.mark.parametrize("data", [[[1.5, 2]], [["1", "2"]], [[True, 2]]])
def test_json_refuses_entries_that_are_not_integers(data):
    with pytest.raises(ValueError):
        pairs_from_json(data)
