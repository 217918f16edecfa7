"""Monomial order on the grid variables, symbolic minors and their
initial terms, and the two counting sides of the Groebner-basis
verification: monomials avoiding the forbidden chain initial terms
versus standard monomials (bounded semistandard bitableaux).
"""

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

from .brsk import brsk, multiset_bounded_by
from .grassmannian import (
    BetaGrid,
    beta_grid,
    build_bound_multisets,
    negative_region,
    positive_region,
    theta_to_rs,
    validate_index,
)
from .multisets import formal_diff_leq, pairs, proj, termwise_less
from .multiplicity import maximal_bounded_subsets
from .tableaux import bitableau_bounded_by

SignedMinor = namedtuple("SignedMinor", ["R", "S", "sign", "expansion"])
SignedMinor.__doc__ = (
    "A minor indexed by rows R and columns S, normalized so the chain "
    "monomial carries coefficient +1; sign records the normalization."
)

GroebnerReport = namedtuple(
    "GroebnerReport", ["per_degree", "counts_equal", "witness_degree", "brsk_injective"]
)


def variable_less(p, q) -> bool:
    """x_{ij} < x_{i'j'} when i < i', or i = i' and j > j'."""
    return p[0] < q[0] or (p[0] == q[0] and p[1] > q[1])


def monomial_less(m1, m2) -> bool:
    """Lexicographic comparison, reading exponents from the largest
    variable down."""
    c1, c2 = Counter(pairs(m1)), Counter(pairs(m2))
    for v in sorted(set(c1) | set(c2), key=lambda p: (-p[0], p[1])):
        if c1[v] != c2[v]:
            return c1[v] < c2[v]
    return False


def chain_monomial(R, S):
    """The monomial of the chain pairing R ascending against S
    descending."""
    if len(R) != len(S):
        raise ValueError("row and column sets must have equal size")
    return pairs(zip(sorted(R), sorted(S, reverse=True)))


def expand_theta_minor(theta, grid: BetaGrid):
    """Permutation expansion of the minor on rows theta of the matrix
    whose beta rows are unit rows and whose remaining entries are the
    grid variables.  Returns a map monomial -> coefficient."""
    theta = validate_index(theta, grid.n)
    beta = grid.beta
    if len(theta) != len(beta):
        raise ValueError("theta must have the same size as beta")
    d = len(beta)
    unit_col = {b: k for k, b in enumerate(beta)}
    expansion = {}
    for sigma in permutations(range(d)):
        term = []
        for row_pos, i in enumerate(theta):
            k = sigma[row_pos]
            if i in unit_col:
                if unit_col[i] != k:
                    break
            else:
                term.append((i, beta[k]))
        else:
            mono = pairs(term)
            sgn = _perm_sign(sigma)
            assert mono not in expansion
            expansion[mono] = sgn
    return expansion


def _perm_sign(sigma) -> int:
    sgn = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sgn = -sgn
    return sgn


def signed_minor(theta, grid: BetaGrid) -> SignedMinor:
    """The minor of theta, renormalized so that the chain monomial of
    (theta minus beta, beta minus theta) has coefficient +1."""
    expansion = expand_theta_minor(theta, grid)
    R, S = theta_to_rs(theta, grid.beta)
    sgn = expansion[chain_monomial(R, S)]
    assert sgn in (1, -1)
    return SignedMinor(R, S, sgn, {m: c * sgn for m, c in expansion.items()})


def initial_term(f: SignedMinor):
    """Largest monomial of the expansion; it is always the chain
    monomial of (R, S)."""
    if not f.expansion:
        raise ValueError("zero minor has no initial term")
    best = None
    for mono in f.expansion:
        if best is None or monomial_less(best, mono):
            best = mono
    assert best == chain_monomial(f.R, f.S)
    assert f.expansion[best] == 1
    return best


def bounded_multisets_of_degree(Ttil, Wtil, grid: BetaGrid, m: int):
    """All degree-m multisets on the grid bounded by the pair."""
    out = []
    points = sorted(negative_region(grid) | positive_region(grid))
    for combo in combinations_with_replacement(points, m):
        if multiset_bounded_by(combo, Ttil, Wtil):
            out.append(pairs(combo))
    return out


def count_monomials_outside_initial(alpha, gamma, grid: BetaGrid, m: int) -> int:
    """Number of degree-m monomials on the grid divisible by no
    forbidden chain monomial: the degree-m multisets bounded by the
    pair, since a monomial avoids every forbidden chain exactly when
    all the chains in its support are bounded."""
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    return len(bounded_multisets_of_degree(Ttil, Wtil, grid, m))


def _signed_rows(grid: BetaGrid):
    """Every possible bitableau row on the grid, tagged by its sign."""
    rows = []
    for k in range(1, min(len(grid.beta), len(grid.complement)) + 1):
        for p in combinations(grid.complement, k):
            for q in combinations(grid.beta, k):
                if termwise_less(p, q):
                    rows.append((p, q, -1))
                elif termwise_less(q, p):
                    rows.append((p, q, 1))
    return rows


def count_standard_monomials(alpha, gamma, grid: BetaGrid, m: int) -> int:
    """Number of degree-m nonvanishing semistandard bitableaux on the
    grid bounded by the pair, generated by extending row by row."""
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    T1, T2 = proj(Ttil, 1), proj(Ttil, 2)
    W1, W2 = proj(Wtil, 1), proj(Wtil, 2)
    rows = _signed_rows(grid)

    @lru_cache(maxsize=None)
    def closes(p, q):
        return formal_diff_leq(p, q, W1, W2)

    @lru_cache(maxsize=None)
    def extend(prev, remaining):
        p0, q0, s0 = prev
        total = 1 if remaining == 0 and closes(p0, q0) else 0
        for p, q, s in rows:
            if len(p) > remaining or s < s0:
                continue
            if formal_diff_leq(p0, q0, p, q):
                total += extend((p, q, s), remaining - len(p))
        return total

    if m == 0:
        return 1
    total = 0
    for p, q, s in rows:
        if len(p) <= m and formal_diff_leq(T1, T2, p, q):
            total += extend((p, q, s), m - len(p))
    return total


def verify_groebner(alpha, gamma, grid: BetaGrid, m_max: int) -> GroebnerReport:
    """Compare the two counts for every degree up to m_max and check
    that bounded RSK is injective from bounded multisets into bounded
    bitableaux at each degree."""
    per_degree = []
    witness = None
    injective = True
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    for m in range(m_max + 1):
        bounded = bounded_multisets_of_degree(Ttil, Wtil, grid, m)
        a = len(bounded)
        b = count_standard_monomials(alpha, gamma, grid, m)
        per_degree.append((m, a, b))
        if a != b and witness is None:
            witness = m
        seen = set()
        for U in bounded:
            B = brsk(U)
            if B in seen or not bitableau_bounded_by(B, Ttil, Wtil):
                injective = False
            seen.add(B)
    return GroebnerReport(tuple(per_degree), witness is None, witness, injective)


def dimension_and_degree(alpha, beta, gamma, n: int, d: int, cap: int = 24):
    """Dimension and degree of the Richardson variety: the maximal size
    of a square-free bounded monomial and the number attaining it."""
    alpha, beta, gamma = (validate_index(x, n) for x in (alpha, beta, gamma))
    if not (0 < d < n) or {len(alpha), len(beta), len(gamma)} != {d}:
        raise ValueError("indices must be d-subsets with 0 < d < n")
    grid = beta_grid(beta, n)
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    count, max_degree = maximal_bounded_subsets(Ttil, Wtil, grid, cap=cap)
    return max_degree, count
