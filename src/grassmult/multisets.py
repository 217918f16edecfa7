"""Multisets on N and N^2, and the comparison orders built on them.

A multiset on N is stored as a sorted tuple of integers, of any sign; a
multiset on N^2 as a sorted tuple of (e, f) pairs.  Both carry
repetitions.  Infinite multisets (formal differences A - B) are never
materialized: comparisons against them reduce to counting inequalities.
check_integers and check_bounds: one function per shared point rule.
"""

from itertools import accumulate


def nmul(values) -> tuple[int, ...]:
    """Canonical multiset on N: a sorted tuple."""
    return tuple(sorted(values))


def pairs(points) -> tuple[tuple[int, int], ...]:
    """Canonical multiset on N^2: a sorted tuple of (e, f) pairs."""
    return tuple(sorted((e, f) for e, f in points))


def sign(point) -> int:
    """-1 if e < f (negative), +1 if e > f (positive), 0 on the diagonal."""
    e, f = point
    return (e > f) - (e < f)


def check_integers(U):
    """The one integer rule for points, for every door that takes them:
    raises ValueError for a coordinate that is not an int (or is a bool)."""
    if any(type(c) is not int for u in U for c in u):
        raise ValueError("pair entries must be integers")


def check_bounds(T, W):
    """The one sign rule of a bound pair, for grassmannian.sides and both
    bounded_by tests: raises ValueError unless every point of the lower
    bound T is negative and every point of the upper bound W positive."""
    if any(sign(t) >= 0 for t in T):
        raise ValueError("lower bound must be a negative multiset")
    if any(sign(w) <= 0 for w in W):
        raise ValueError("upper bound must be a positive multiset")


def negative_part(U):
    return pairs(u for u in U if sign(u) < 0)


def positive_part(U):
    return pairs(u for u in U if sign(u) > 0)


def is_nonvanishing(U) -> bool:
    """True iff no point of U lies on the diagonal of N^2."""
    return all(sign(u) != 0 for u in U)


def proj(U, k: int) -> tuple[int, ...]:
    """The multiset of first (k=1) or second (k=2) components of U."""
    if k not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    return nmul(u[k - 1] for u in U)


def iota(U):
    """Swap the components of every point; exchanges negative and positive."""
    return pairs((f, e) for e, f in U)


def union(A, B):
    """Disjoint union of two multisets (same kind)."""
    return tuple(sorted(A + B))


def difference(A, B):
    """Multiset difference A \\ B, truncated at zero multiplicity."""
    out = sorted(A)
    for b in B:
        if b in out:
            out.remove(b)
    return tuple(out)


def termwise_leq(A, B) -> bool:
    """Termwise order on equal-degree multisets on N: a_i <= b_i after sorting."""
    if len(A) != len(B):
        raise ValueError("termwise comparison requires equal degrees")
    return all(a <= b for a, b in zip(sorted(A), sorted(B)))


def formal_diff_leq(A, B, C, D) -> bool:
    """Order on formal differences: A - B <= C - D.

    Both differences are against the infinite complement convention, so
    the comparison reduces to the termwise order on the finite unions:
    A - B <= C - D  <=>  A + D <= C + B termwise.
    """
    if len(A) + len(D) != len(C) + len(B):
        raise ValueError("formal differences of unequal degree are incomparable")
    return termwise_leq(union(A, D), union(C, B))


def diff_profile(A, B, n: int) -> tuple[int, ...]:
    """The prefix-count profile of the formal difference A - B of two
    multisets on 1..n: h(t) = #{a in A: a <= t} - #{b in B: b <= t} for
    t = 1..n.

    It is exact for formal_diff_leq.  X <= Y termwise, for X and Y of
    one degree, exactly when X has at least as many entries <= t as Y
    at every t.  So A - B <= C - D, that is A + D <= C + B termwise,
    exactly when diff_profile(A, B, n) is at least diff_profile(C, D, n)
    at every t = 1..n: the counts agree below 1, and above n when the
    degrees match.  For disjoint sets p and q of one size, the
    profile of (p, q) is >= 0 everywhere exactly when p < q termwise:
    disjoint entries never tie.
    """
    delta = [0] * (n + 1)
    for a in A:
        delta[a] += 1
    for b in B:
        delta[b] -= 1
    return tuple(accumulate(delta[1:]))


def multiset_order_leq(U, V) -> bool:
    """The order on multisets on N^2: U <= V iff U(1) - U(2) <= V(1) - V(2)."""
    return formal_diff_leq(proj(U, 1), proj(U, 2), proj(V, 1), proj(V, 2))


def pairs_from_json(data):
    """A multiset on N^2 from a JSON list of [e, f] pairs; check_integers
    refuses an entry that is not an integer (a float, a string, a bool)."""
    points = [(e, f) for e, f in data]
    check_integers(points)
    return pairs(points)
