"""Index combinatorics for the Grassmannian of d-planes in n-space:
d-subsets, lengths, the grid attached to a fixed subset beta, the
bound chains of a Richardson variety at beta (one chains.arrange
each), and the two one-sided problems they split into.

richardson is the one place that checks a Richardson triple: every
subcommand and library entry point that takes (alpha, beta, gamma, n, d)
goes through it, and triples lists every triple that it accepts.
"""

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, combinations

from .chains import arrange
from .multisets import check_bounds, difference, iota, termwise_leq

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


def complement(beta, n: int):
    beta = set(beta)
    return tuple(x for x in range(1, n + 1) if x not in beta)


def beta_grid(beta, n: int) -> BetaGrid:
    beta = validate_index(beta, n)
    return BetaGrid(beta, complement(beta, n), n)


def in_grid(p, grid: BetaGrid) -> bool:
    return p[0] in grid.complement and p[1] in grid.beta


def check_in_grid(points, grid: BetaGrid):
    """The one grid rule for points: raises ValueError for the first
    point off the grid (in_grid), named as given."""
    for p in points:
        if not in_grid(p, grid):
            raise ValueError("point %r is not in the grid regions" % (p,))


def negative_region(grid: BetaGrid):
    return {(e, f) for e in grid.complement for f in grid.beta if e < f}


def theta_to_rs(theta, beta):
    """The bijection theta -> (theta minus beta, beta minus theta); its
    inverse is a test oracle in tests/oracles.py."""
    return difference(theta, beta), difference(beta, theta)


def build_bound_multisets(alpha, gamma, grid: BetaGrid):
    """The canonical twisted chains bounding the Richardson variety of
    (alpha, gamma) at the fixed point of beta: chains.arrange of alpha
    minus beta against beta minus alpha, and of beta minus gamma against
    gamma minus beta, swapped above the diagonal.  Each match is its
    pair's order test.  Raises ValueError for a bad index, alpha then
    gamma; then unless each has beta's size and alpha <= beta <= gamma."""
    beta, n = grid.beta, grid.n
    alpha, gamma = validate_index(alpha, n), validate_index(gamma, n)
    chains = []
    for low, high in ((alpha, beta), (beta, gamma)):
        if len(low) != len(high):
            raise ValueError("indices have different sizes")
        chain = arrange([x for x in low if x not in high], [x for x in high if x not in low])
        if chain is None:
            raise ValueError("empty Richardson data: need alpha <= beta <= gamma")
        chains.append(chain)
    return chains[0], iota(chains[1])


def _check_dimensions(n: int, d: int):
    if not 0 < d < n:
        raise ValueError("need 0 < d < n, got d=%d and n=%d" % (d, n))


def richardson(alpha, beta, gamma, n: int, d: int):
    """The bounds and the grid of the Richardson variety of (alpha,
    gamma) at the fixed point of beta: (Ttil, Wtil, grid).

    Raises ValueError unless 0 < d < n, each index is a d-subset of
    1..n, and alpha <= beta <= gamma.  beta_grid validates beta, and
    build_bound_multisets alpha, gamma and, by its two matches, the order.
    """
    _check_dimensions(n, d)
    for name, index in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if len(index) != d:
            raise ValueError("%s has %d entries, not d=%d" % (name, len(index), d))
    grid = beta_grid(beta, n)
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    return Ttil, Wtil, grid


class _Triples(Sequence):
    """The triples of triples(n, d), in its order, indexed from 0
    without listing them, so that random.sample, which reads only len
    and such indices, draws from them directly.  Per beta it keeps the
    alphas below and the gammas above (multisets.termwise_leq), and the
    running count of the triples up to that beta: index i finds its
    beta by bisect on the counts, then its alpha and gamma by divmod."""

    def __init__(self, indices):
        self.blocks = [
            (beta, [a for a in indices if termwise_leq(a, beta)], [g for g in indices if termwise_leq(beta, g)])
            for beta in indices
        ]
        self.ends = list(accumulate(len(alphas) * len(gammas) for _, alphas, gammas in self.blocks))

    def __len__(self):
        return self.ends[-1]

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError("triple index out of range")
        b = bisect_right(self.ends, i)
        beta, alphas, gammas = self.blocks[b]
        a, g = divmod(i - (self.ends[b - 1] if b else 0), len(gammas))
        return alphas[a], beta, gammas[g]


def triples(n: int, d: int):
    """Every Richardson triple alpha <= beta <= gamma of d-subsets of
    1..n, beta outermost, each index in lexicographic order, as a
    sequence (_Triples).  Raises ValueError unless 0 < d < n."""
    _check_dimensions(n, d)
    return _Triples(list(combinations(range(1, n + 1), d)))


def sides(Ttil, Wtil, grid: BetaGrid):
    """The two one-sided problems of the pair, each a lower bound on the
    negative points of a grid: the negative side, then the positive side
    swapped by iota onto the dual grid, where beta and its complement
    trade places.  The one check of the whole pair: raises ValueError
    for an anchor off the caller's grid (check_in_grid), then for one of
    the wrong sign (multisets.check_bounds)."""
    check_in_grid((*Ttil, *Wtil), grid)
    check_bounds(Ttil, Wtil)
    return ((Ttil, grid), (iota(Wtil), BetaGrid(grid.complement, grid.beta, grid.n)))
