"""Twisted chains and their ballot match (arrange), and the depth order
on negative (and, via the component swap, positive) subsets of N^2.

The point relations, the twisted-chain predicates and the diagonal
criterion for the depth order are test oracles in tests/oracles.py.
"""

from .multisets import check_integers, iota, negative_part, positive_part, sign


def completely_disjointed(T) -> bool:
    """All 2m coordinates across both components are distinct."""
    coords = [c for p in T for c in p]
    return len(coords) == len(set(coords))


def arrange(lows, highs):
    """The ballot match of two sorted, disjoint lists: in ascending order
    each high takes the largest still-free low below it.  Returns the
    sorted tuple of (low, high) pairs, or None if some high finds no free
    low.  The highs below h took one low below h each, so h finds one
    exactly when more lows than highs lie below it: the match succeeds iff
    every prefix holds at least as many lows as highs.  For d-subsets,
    a <= b termwise iff every prefix holds at least as many entries of a
    as of b; the common entries count on both sides, so a <= b iff
    arrange(a minus b, b minus a) is not None."""
    free, arranged, i = [], [], 0
    for h in highs:
        while i < len(lows) and lows[i] < h:
            free.append(lows[i])
            i += 1
        if not free:
            return None
        arranged.append((free.pop(), h))
    return tuple(sorted(arranged))


def canonicalize(T):
    """The canonical twisted chain with the same two projections as T.

    Among all arrangements of T's first components against its second
    components that keep every point strictly below the diagonal (or
    strictly above, for positive T), returns the lex-least one: listed
    with second components ascending, first components are compared
    largest-first.  That is arrange of the smaller coordinates against
    the larger, which never fails here; a positive T is swapped back.
    Raises ValueError for a coordinate that is not an int
    (multisets.check_integers), then unless T is a completely
    disjointed, uniform-sign set of nonvanishing points."""
    pts = list(T)
    check_integers(pts)
    if not completely_disjointed(pts):
        raise ValueError("multiset is not completely disjointed")
    signs = {sign(p) for p in pts}
    if len(signs) > 1:
        raise ValueError("expected a uniform-sign set of nonvanishing points")
    chain = arrange(sorted(map(min, pts)), sorted(map(max, pts)))
    return iota(chain) if 1 in signs else chain


def chain_depth(R, x) -> int:
    """The depth kernel: longest prec-chain within the part of R weakly
    above x, on raw (e, f) tuples.  Checks no signs; callers validate
    once at their boundary that R and x are negative."""
    xe, xf = x
    pts = sorted({u for u in R if u[0] <= xe and u[1] >= xf}, key=lambda p: p[1])
    best = []
    for e, f in pts:
        longest = 0
        for (g, h), b in zip(pts, best):
            if h < f and g > e and b > longest:
                longest = b
        best.append(longest + 1)
    return max(best, default=0)


def _depth_leq(R, S) -> bool:
    return all(chain_depth(R, x) >= chain_depth(S, x) for x in set(S))


def _label(X):
    signs = {sign(p) for p in X}
    if not signs:
        return "empty"
    if signs == {-1}:
        return "negative"
    if signs == {1}:
        return "positive"
    raise ValueError("subset mixes signs or touches the diagonal")


def chain_order_leq(R, S) -> bool:
    """The depth order: R is below S when depth in R dominates depth in
    S at every point of S.  Positive subsets are compared by swapping
    components and sides; a negative R is below any positive S; the
    order is not defined from a positive R to a negative S.
    """
    r, s = _label(R), _label(S)
    if r == "positive" and s == "negative":
        raise ValueError("no order from a positive subset to a negative one")
    if r == "negative" and s == "positive":
        return True
    if "positive" in (r, s):
        return _depth_leq(iota(S), iota(R))
    return _depth_leq(R, S)


def chain_bounded(U, R, S) -> bool:
    """U is chain-bounded by (R, S) when R is below the underlying set
    of its negative part and the underlying set of its positive part is
    below S."""
    return chain_order_leq(R, set(negative_part(U))) and chain_order_leq(
        set(positive_part(U)), S
    )
