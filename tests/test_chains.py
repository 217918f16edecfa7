import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grassmult.chains import canonicalize, chain_bounded, chain_order_leq, completely_disjointed
from grassmult.grassmannian import beta_grid, build_bound_multisets
from grassmult.multisets import iota, multiset_order_leq, pairs
from oracles import (
    chain_order_leq_diagonal,
    depth,
    index_leq,
    is_negative_twisted_chain,
    is_positive_twisted_chain,
    meet,
    negative_twisted_chains,
    prec,
    trianglelefteq_pt,
)


def test_point_relations():
    assert prec((4, 7), (2, 8))
    assert not prec((2, 8), (4, 7))
    assert not prec((1, 7), (3, 6))
    assert trianglelefteq_pt((3, 6), (2, 8))
    assert trianglelefteq_pt((3, 6), (3, 6))
    assert not trianglelefteq_pt((2, 8), (3, 6))
    assert meet((1, 7), (3, 6)) == (3, 6)
    assert meet((1, 7), (3, 8)) == (3, 7)
    with pytest.raises(ValueError):
        prec((2, 1), (1, 2))
    with pytest.raises(ValueError):
        meet((1, 2), (3, 3))


def test_completely_disjointed():
    assert completely_disjointed([(1, 4), (2, 5)])
    assert not completely_disjointed([(1, 4), (2, 4)])
    assert not completely_disjointed([(1, 4), (4, 5)])
    assert completely_disjointed([])


def test_twisted_chain_predicates():
    assert is_negative_twisted_chain([(1, 4), (2, 3)])  # nested: prec
    assert is_negative_twisted_chain([(1, 2), (3, 4)])  # meet (3,2) not negative
    assert not is_negative_twisted_chain([(1, 3), (2, 4)])  # meet (2,3) negative
    assert is_negative_twisted_chain(())
    assert not is_negative_twisted_chain([(2, 1)])
    assert is_positive_twisted_chain([(4, 1), (3, 2)])
    assert not is_positive_twisted_chain([(3, 1), (4, 2)])


def canonicalize_by_search(T):
    """Permutation-search twin of canonicalize for negative T: against
    the second components ascending, the lex-largest ordering of the
    first components that keeps every point below the diagonal."""
    seconds = sorted(f for _, f in T)
    perms = itertools.permutations(sorted(e for e, _ in T))
    return pairs(zip(max(p for p in perms if all(e < f for e, f in zip(p, seconds))), seconds))


def test_canonicalize_golden():
    T = pairs([(1, 4), (2, 5), (3, 7), (6, 8)])
    want = ((1, 8), (2, 5), (3, 4), (6, 7))
    assert canonicalize(T) == want
    assert canonicalize_by_search(T) == want
    # already-canonical input is a fixed point
    assert canonicalize(want) == want


def test_canonicalize_positive_through_swap():
    T = pairs([(4, 1), (5, 2), (7, 3), (8, 6)])
    assert canonicalize(T) == pairs([(8, 1), (5, 2), (4, 3), (7, 6)])


def test_canonicalize_errors():
    assert canonicalize(()) == ()
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (1, 3)))  # repeated coordinate
    with pytest.raises(ValueError):
        canonicalize(((1, 2), (4, 3)))  # mixed signs
    with pytest.raises(ValueError, match="pair entries must be integers"):
        canonicalize(((1.5, 3), (1.5, 4)))  # checked before disjointness


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("point", [(0, 2), (2, 0)], ids=["negative", "positive"])
@pytest.mark.parametrize("slot", [0, 1], ids=["e", "f"])
def test_canonicalize_refuses_a_non_integer_coordinate(bad, point, slot):
    p = list(point)
    p[slot] = bad
    with pytest.raises(ValueError, match="pair entries must be integers"):
        canonicalize((tuple(p),))


def rand_negative_disjointed(rng, m):
    coords = rng.sample(range(1, 13), 2 * m)
    rng.shuffle(coords)
    pts = []
    for i in range(m):
        e, f = coords[2 * i], coords[2 * i + 1]
        pts.append((min(e, f), max(e, f)))
    return pairs(pts)


def test_canonicalize_matches_brute_force():
    rng = random.Random(11)
    for m in range(1, 6):
        for _ in range(60):
            T = rand_negative_disjointed(rng, m)
            assert canonicalize(T) == canonicalize_by_search(T)
            assert is_negative_twisted_chain(canonicalize(T))
            assert is_positive_twisted_chain(canonicalize(iota(T)))


def test_canonicalize_arranges_every_small_set_exhaustive():
    """Every completely disjointed, uniform-sign set of at most 3 points
    with coordinates <= 7 has a canonical twisted chain on the same
    projections."""
    points = [(e, f) for e in range(1, 8) for f in range(1, 8) if e != f]
    checked = 0
    for k in range(4):
        for T in itertools.combinations(points, k):
            if not completely_disjointed(T) or len({e < f for e, f in T}) > 1:
                continue
            C = canonicalize(T)
            assert is_negative_twisted_chain(C) or is_positive_twisted_chain(C), T
            assert [sorted(x) for x in zip(*C)] == [sorted(x) for x in zip(*T)], T
            checked += 1
    assert checked == 463  # 1 + 42 + 2 * 3 * C(7, 4) + 2 * 15 * C(7, 6)


def test_bound_multisets_are_twisted_chains():
    # every lower chain (gamma = beta) and every upper chain
    # (alpha = beta) of every fixed point with n <= 7
    lower = upper = 0
    for n in range(2, 8):
        for d in range(1, n):
            indices = list(itertools.combinations(range(1, n + 1), d))
            for beta in indices:
                grid = beta_grid(beta, n)
                for theta in indices:
                    if index_leq(theta, beta):
                        Ttil, Wtil = build_bound_multisets(theta, beta, grid)
                        assert is_negative_twisted_chain(Ttil) and Wtil == ()
                        lower += 1
                    if index_leq(beta, theta):
                        Ttil, Wtil = build_bound_multisets(beta, theta, grid)
                        assert Ttil == () and is_positive_twisted_chain(Wtil)
                        upper += 1
    assert lower == upper == 2040


NESTED = pairs([(1, 17), (3, 13), (5, 9), (6, 7), (11, 12), (14, 16)])


def test_depth_golden():
    assert [depth(NESTED, x) for x in NESTED] == [1, 2, 3, 4, 3, 2]
    assert depth((), (1, 2)) == 0
    with pytest.raises(ValueError):
        depth(NESTED, (2, 1))
    with pytest.raises(ValueError):
        depth(((2, 1),), (1, 2))


def test_order_dispatch_table():
    neg, pos = {(1, 2)}, {(2, 1)}
    assert chain_order_leq(set(), set())
    assert not chain_order_leq(set(), neg)
    assert chain_order_leq(neg, set())
    assert chain_order_leq(set(), pos)
    assert not chain_order_leq(pos, set())
    assert chain_order_leq(neg, pos)
    with pytest.raises(ValueError):
        chain_order_leq(pos, neg)
    with pytest.raises(ValueError):
        chain_order_leq({(1, 2), (2, 1)}, neg)


def test_order_golden():
    R = pairs([(2, 8), (3, 6)])
    assert chain_order_leq(R, {(2, 5), (2, 6), (3, 6)})
    assert chain_order_leq(R, {(2, 5)})  # deep enough at every point it has
    assert not chain_order_leq(R, {(3, 7), (2, 8)})  # depth 2 at (3,7), R has 1
    assert chain_order_leq(R, set(R))
    # positive side goes through the swap
    W = pairs([(3, 1), (9, 5)])
    assert chain_order_leq({(2, 1), (3, 1), (7, 5), (9, 5)}, W)
    assert not chain_order_leq({(4, 1)}, W)  # outside both anchors' reach


def test_three_orders_agree_on_twisted_chains():
    chains = negative_twisted_chains(6)
    for R in chains:
        for S in chains:
            if len(R) != len(S):
                continue
            via_depth = chain_order_leq(set(R), set(S))
            assert via_depth == multiset_order_leq(R, S)
            assert via_depth == chain_order_leq_diagonal(R, S)
            # and the swapped comparison for the positive versions
            assert via_depth == chain_order_leq(set(iota(S)), set(iota(R)))


def test_diagonal_criterion_requires_twisted_chains():
    with pytest.raises(ValueError):
        chain_order_leq_diagonal(((1, 3), (2, 4)), ())


def test_chain_bounded():
    Ttil = pairs([(2, 8), (3, 6)])
    Wtil = pairs([(3, 1), (9, 5)])
    U = pairs(
        [(2, 5), (2, 6), (2, 8), (3, 8), (4, 8), (7, 8)]
        + [(3, 5), (3, 6), (4, 6)]
        + [(2, 1), (3, 1)]
        + [(7, 5), (9, 5), (9, 6), (9, 8)]
    )
    assert chain_bounded(U, Ttil, Wtil)
    assert chain_bounded((), Ttil, Wtil)
    assert not chain_bounded(((9, 8),), Ttil, ())


@given(
    st.sets(
        st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
        max_size=5,
    )
)
def test_depth_order_is_reflexive_and_monotone(X):
    X = {p for p in X if p[0] < p[1]}
    assert chain_order_leq(X, X)
    for p in X:
        # enlarging the left side, or shrinking the right, preserves the order
        assert chain_order_leq(X, X - {p})
