"""Twisted chains, the canonical arrangement, and the depth order on
negative (and, via the component swap, positive) subsets of N^2.

The point relations, the twisted-chain predicates and the diagonal
criterion for the depth order are test oracles in tests/oracles.py.
"""

from .multisets import iota, negative_part, pairs, positive_part, sign


def completely_disjointed(T) -> bool:
    """All 2m coordinates across both components are distinct."""
    coords = [c for p in T for c in p]
    return len(coords) == len(set(coords))


def canonicalize(T):
    """The canonical twisted chain with the same two projections as T.

    Among all arrangements of T's first components against its second
    components that keep every point strictly below the diagonal (or
    strictly above, for positive T), returns the lex-least one: listed
    with second components ascending, first components are compared
    largest-first.  A positive T gives iota(canonicalize(iota(T))).
    Raises ValueError if T is not completely disjointed or not a
    uniform-sign set of nonvanishing points.
    """
    pts = list(T)
    if not pts:
        return ()
    if not completely_disjointed(pts):
        raise ValueError("multiset is not completely disjointed")
    signs = {sign(p) for p in pts}
    if signs != {-1} and signs != {1}:
        raise ValueError("expected a uniform-sign set of nonvanishing points")
    # Read in increasing order, each point's larger coordinate closes and
    # takes the latest open smaller one: the largest free one below it.
    # Every closing coordinate up to c has its own point's smaller one
    # below it, so one is always free.
    closing = {max(p) for p in pts}
    free, arranged = [], []
    for c in sorted([c for p in pts for c in p]):
        if c in closing:
            arranged.append((free.pop(), c))
        else:
            free.append(c)
    return pairs(arranged) if signs == {-1} else iota(arranged)


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
