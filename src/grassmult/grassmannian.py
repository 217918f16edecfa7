"""Index combinatorics for the Grassmannian of d-planes in n-space:
d-subsets, lengths, the grid attached to a fixed subset beta, the
bound multisets of a Richardson variety at the fixed point of beta, and
the two one-sided problems they split into.
"""

from collections import namedtuple

from .chains import canonicalize
from .multisets import difference, iota, pairs

BetaGrid = namedtuple("BetaGrid", ["beta", "complement", "n"])
BetaGrid.__doc__ = "A fixed column set beta, its complement (the rows), and the ambient n."


def validate_index(elems, n: int):
    """Canonicalize a d-subset of {1..n} to a sorted tuple."""
    t = tuple(sorted(elems))
    if len(set(t)) != len(t) or not t or t[0] < 1 or t[-1] > n:
        raise ValueError("expected distinct integers in 1..%d" % n)
    return t


def length(a) -> int:
    """Sum of the entries minus the minimum possible sum."""
    d = len(a)
    return sum(a) - d * (d + 1) // 2


def index_leq(a, b) -> bool:
    """Componentwise comparison of two sorted index sets."""
    if len(a) != len(b):
        raise ValueError("indices have different sizes")
    return all(x <= y for x, y in zip(sorted(a), sorted(b)))


def complement(beta, n: int):
    beta = set(beta)
    return tuple(x for x in range(1, n + 1) if x not in beta)


def beta_grid(beta, n: int) -> BetaGrid:
    beta = validate_index(beta, n)
    return BetaGrid(beta, complement(beta, n), n)


def in_grid(p, grid: BetaGrid) -> bool:
    return p[0] in grid.complement and p[1] in grid.beta


def negative_region(grid: BetaGrid):
    return {(e, f) for e in grid.complement for f in grid.beta if e < f}


def theta_to_rs(theta, beta):
    """The bijection theta -> (theta minus beta, beta minus theta); its
    inverse is a test oracle in tests/oracles.py."""
    return difference(theta, beta), difference(beta, theta)


def build_bound_multisets(alpha, gamma, grid: BetaGrid):
    """The canonical twisted chains bounding the Richardson variety of
    (alpha, gamma) at the fixed point of beta.

    The lower chain pairs alpha minus beta against beta minus alpha
    below the diagonal; the upper chain pairs gamma minus beta against
    beta minus gamma above it.  Raises ValueError unless
    alpha <= beta <= gamma, the nonemptiness condition.
    """
    beta, n = grid.beta, grid.n
    alpha = validate_index(alpha, n)
    gamma = validate_index(gamma, n)
    if not (index_leq(alpha, beta) and index_leq(beta, gamma)):
        raise ValueError("empty Richardson data: need alpha <= beta <= gamma")
    Ra, Sa = theta_to_rs(alpha, beta)
    Rg, Sg = theta_to_rs(gamma, beta)
    Ttil = canonicalize(pairs(zip(Ra, Sa)))
    Wtil = canonicalize(pairs(zip(Rg, Sg)))
    return Ttil, Wtil


def sides(Ttil, Wtil, grid: BetaGrid):
    """The two one-sided problems of the pair, each a lower bound on the
    negative points of a grid: the negative side, then the positive side
    swapped by iota onto the dual grid, where beta and its complement
    trade places."""
    return ((Ttil, grid), (iota(Wtil), BetaGrid(grid.complement, grid.beta, grid.n)))
