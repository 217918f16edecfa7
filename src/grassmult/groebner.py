"""Monomial order on the grid variables, symbolic minors and their
initial terms, and the two counting sides of the Groebner-basis
verification: monomials avoiding the forbidden chain initial terms
versus standard monomials (bounded semistandard bitableaux).

Both counting sides split by sign.  A bounded multiset is a negative
part bounded below by Ttil joined to a positive part bounded above by
Wtil, and a bounded bitableau is a negative half bounded below by Ttil
stacked on a positive half bounded above by Wtil.  iota turns the
positive problem into a negative one on the dual grid, where beta and
its complement trade places, bounded below by iota(Wtil)
(grassmannian.sides).  So every count is one negative-side computation
with one lower bound, run on each side, and the degree-m count of the
pair is the convolution a(m) = sum over i + j = m of N-(i) * N+(j).

A multiset is bounded exactly when its support is, so both count
and verify read one face search per side, multiplicity.bounded_faces,
which lists the bounded supports in brsk's insertion order.  count
tallies its faces by size: a face of size k is the support of
C(m-1, k-1) multisets of degree m, and H(m) = sum over k of
f_k C(m-1, k-1), with H(0) = 1.  Since the chain initial terms
generate the initial ideal, H is the Hilbert function of the tangent
cone (count_monomials_outside_initial).  verify lists the multisets
themselves from the same faces: each multiset's brsk image is its
predecessor's grown by one insertion (bounded_images).  A side's
standard monomials are the chains of one table of rows shared by every
degree (_standard_table): it counts them, and verify checks each brsk
image as a chain of it.  The table keys its rows by their prefix-count
profiles (multisets.diff_profile), which name them and in which the
order on formal differences is pointwise dominance.  One search gives
the rows and their order: it grows profiles one value of t at a time
and drops every prefix that no row above a given bound extends
(_standard_rows).  Run from the bound it lists the rows, and from each
row the rows that may follow it, each run about n steps per row it
keeps, not one test per pair of subsets of the complement and of beta,
nor one per pair of rows; verify walks each image's rows through the
table, one lookup each.
bounded_multisets_of_degree lists the mixed multisets of one degree by
testing each with brsk.multiset_bounded_by; tests/oracles.py keeps a
walk over each side's bounded supports, joined, as its oracle.
"""

from collections import Counter, namedtuple
from itertools import combinations_with_replacement, permutations, product
from math import comb

from .brsk import insert_pair, multiset_bounded_by
from .grassmannian import BetaGrid, richardson, sides, theta_to_rs, validate_index
from .multisets import diff_profile, pairs, proj
from .multiplicity import bounded_faces, maximal_bounded_subsets

SignedMinor = namedtuple("SignedMinor", ["R", "S", "sign", "expansion"])
SignedMinor.__doc__ = (
    "A minor indexed by rows R and columns S, normalized so the chain "
    "monomial carries coefficient +1; sign records the normalization."
)

GroebnerReport = namedtuple(
    "GroebnerReport", ["per_degree", "counts_equal", "witness_degree", "brsk_injective"]
)


def monomial_key(m):
    """The lexicographic monomial order as a sort key: m's variables,
    x_{ij} written (i, -j), sorted largest first, so that keys compare
    exponents from the largest variable down.  x_{ij} < x_{i'j'} when
    i < i', or i = i' and j > j'.  tests/oracles.py keeps monomial_less
    as its oracle."""
    return sorted(((i, -j) for i, j in m), reverse=True)


def chain_monomial(R, S):
    """The monomial of the chain pairing R ascending against S
    descending."""
    if len(R) != len(S):
        raise ValueError("row and column sets must have equal size")
    return pairs(zip(sorted(R), sorted(S, reverse=True)))


def expand_theta_minor(theta, grid: BetaGrid):
    """Permutation expansion of the minor on rows theta of the matrix
    whose beta rows are unit rows and whose remaining entries are the
    grid variables.  Returns a map monomial -> coefficient.

    A beta row of theta has its 1 in its own unit column, so the only
    permutations with a nonzero term match the rows theta minus beta
    with the columns beta minus theta: r! terms for r rows, not d!.
    Distinct matchings give distinct monomials, and every coefficient
    is +1 or -1.  tests/oracles.py keeps the expansion over all d!
    permutations as the oracle.
    """
    theta = validate_index(theta, grid.n)
    beta = grid.beta
    if len(theta) != len(beta):
        raise ValueError("theta must have the same size as beta")
    unit_col = {b: k for k, b in enumerate(beta)}
    sigma = [unit_col.get(i) for i in theta]
    slots = [pos for pos, k in enumerate(sigma) if k is None]
    free = [k for k, b in enumerate(beta) if b not in theta]
    expansion = {}
    for cols in permutations(free):
        for pos, k in zip(slots, cols):
            sigma[pos] = k
        expansion[pairs((theta[pos], beta[k]) for pos, k in zip(slots, cols))] = _perm_sign(sigma)
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
    return SignedMinor(R, S, sgn, {m: c * sgn for m, c in expansion.items()})


def initial_term(f: SignedMinor):
    """Largest monomial of the expansion (monomial_key); it is always the
    chain monomial of (R, S), with coefficient +1.  tests/test_groebner.py
    checks both over every theta of every small grid."""
    if not f.expansion:
        raise ValueError("zero minor has no initial term")
    return max(f.expansion, key=monomial_key)


def bounded_images(T, grid: BetaGrid, m_max: int):
    """Every nonempty multiset on the negative points of the grid
    bounded below by T, of degree at most m_max, with its
    brsk.brsk_negative image: yields (U, (P, Q)), U in brsk's insertion
    order.

    One walk of multiplicity.bounded_faces(T, grid, m_max).  Its faces
    come in preorder and list their points in insertion order, so the
    multisets supported on a face S + (p,) are those supported on S
    followed by j >= 1 copies of p, and brsk inserts those copies last.
    Each image of S is copied to mutable rows once and grown by
    brsk.insert_pair one copy of p at a time: one insertion per
    multiset, not one per pair, and no bumping record.  The images at
    each size of the current branch are kept on a stack.
    """
    _check_degree(m_max)
    stack = [[((), (), ())]]  # per face size: (U, P, Q) for the face's multisets of degree < m_max
    for k, p in bounded_faces(T, grid, m_max):
        del stack[k:]
        grown = []
        a, b = p
        for U, P, Q in stack[-1]:
            P, Q = [list(row) for row in P], [list(row) for row in Q]
            for _ in range(len(U), m_max):
                insert_pair(P, Q, a, b)
                U += (p,)
                image = (tuple(map(tuple, P)), tuple(map(tuple, Q)))
                yield U, image
                if len(U) < m_max:
                    grown.append((U, *image))
        stack.append(grown)


def _check_degree(m: int):
    """The one rule of a degree bound: raises ValueError if m < 0."""
    if m < 0:
        raise ValueError("degree bound must be nonnegative")


def _convolve(negative, positive):
    """a(m) = sum over i + j = m of N-(i) * N+(j), for every degree m."""
    return [sum(negative[i] * positive[m - i] for i in range(m + 1)) for m in range(len(negative))]


def bounded_multisets_of_degree(Ttil, Wtil, grid: BetaGrid, m: int):
    """All degree-m multisets on the grid that brsk.multiset_bounded_by
    accepts as bounded by the pair (grassmannian.sides checks it), in
    combinations_with_replacement order over the sorted grid points."""
    sides(Ttil, Wtil, grid)
    _check_degree(m)
    points = sorted(product(grid.complement, grid.beta))
    return [U for U in combinations_with_replacement(points, m) if multiset_bounded_by(U, Ttil, Wtil)]


def count_monomials_outside_initial(Ttil, Wtil, grid: BetaGrid, m_max: int):
    """Numbers of monomials on the grid divisible by no forbidden chain
    monomial, for every degree 0..m_max: the multisets bounded by the
    pair, since a monomial avoids every forbidden chain exactly when
    all the chains in its support are bounded.  Each side's count is
    H(m) = sum over k of f_k C(m-1, k-1), H(0) = 1, where f_k counts the
    faces of size k that multiplicity.bounded_faces lists up to size
    m_max, since a larger face supports no multiset of degree m_max or
    less; the two sides' counts are convolved.  No multiset is built,
    so it runs on a grid of any size when m_max is small."""
    _check_degree(m_max)
    counts = []
    for T, side in sides(Ttil, Wtil, grid):
        f = Counter(k for k, _ in bounded_faces(T, side, m_max))
        counts.append(
            [1] + [sum(fk * comb(m - 1, k - 1) for k, fk in f.items()) for m in range(1, m_max + 1)]
        )
    return _convolve(*counts)


def _standard_table(T, side: BetaGrid, m_max: int):
    """One side's standard monomials as a table on the rows'
    prefix-count profiles (multisets.diff_profile): (root, below, counts).

    Its rows are the negative rows (p, q) of the side's grid, p strictly
    below q termwise, of at most m_max boxes, that lie above T; root is
    the profile of (T(1), T(2)).  A row's profile rises exactly at p, in
    the complement, and falls exactly at q, in beta, so it names its
    row.  below maps root to {row: profile} for every row, and each
    row's profile to that map for the rows that may come after the row,
    so the standard monomials are the walks from root through below.
    counts[r] is the number of chains of r boxes, r = 0..m_max, from one
    recursion on profiles shared by every degree.

    The order on formal differences is pointwise dominance of profiles,
    and a row is negative exactly when its profile is >= 0.  So one
    search gives the rows and their order: _standard_rows from root
    lists the rows, and from a row's profile the rows after it, at a
    cost that grows with the rows kept, not with the C(n-d, k) * C(d, k)
    pairs (p, q) of each size k nor with the pairs of rows.  below
    stores each row and profile once, as the root search built them.
    tests/oracles.py keeps the table built from formal_diff_leq on every
    candidate row tuple as the oracle.
    """
    root = diff_profile(proj(T, 1), proj(T, 2), side.n)
    rows = dict(_standard_rows(root, side, m_max))
    own = {row: (row, h) for row, h in rows.items()}
    below = {root: rows}
    for h in rows.values():
        below[h] = dict(own[row] for row, _ in _standard_rows(h, side, m_max))
    ways = [dict.fromkeys(below, 1)]  # ways[r][h]: completions after profile h with r boxes left
    for r in range(1, m_max + 1):
        layer = dict.fromkeys(below, 0)
        for h, after in below.items():
            for (p, _), g in after.items():
                if len(p) <= r:
                    layer[h] += ways[r - len(p)][g]
        ways.append(layer)
    return root, below, [layer[root] for layer in ways]


def _standard_rows(root, side: BetaGrid, m_max: int):
    """The rows of _standard_table with their profiles: ((p, q), h) for
    every nonempty row of at most m_max boxes whose profile h satisfies
    0 <= h <= root.  root is any bound's profile: the table's root, for
    its rows, or a row's, for the rows that may come after that row.

    One sweep over t = 1..n grows every live prefix of a row by t: into
    p (t in the complement, h rises by 1), into q (t in beta, h falls by
    1) or into neither.  A prefix dies as soon as h(t) < 0,
    h(t) > root(t), |p| > m_max, or h(t) exceeds the beta entries after
    t, since it could never return to 0; so every prefix alive at t = n
    ends at h(n) = 0.  A row's profile rises only at complement entries
    and falls only at beta entries, by one at each, and so does the
    root's when the bound's coordinates are distinct, as a twisted
    chain's are; then every live prefix extends to a row or to the
    empty one, and the sweep grows at most n (rows + 1) prefixes.
    """
    beta = set(side.beta)
    left = len(beta)  # beta entries after t
    prefixes = [(0, (), (), ())]  # (h(t), p, q, h) per live prefix
    for t in range(1, side.n + 1):
        in_beta = t in beta
        left -= in_beta
        cap = min(root[t - 1], left)
        grown = []
        for level, p, q, h in prefixes:
            if level <= cap:
                grown.append((level, p, q, h + (level,)))
            if in_beta:
                if 0 < level <= cap + 1:
                    grown.append((level - 1, p, q + (t,), h + (level - 1,)))
            elif level < cap and len(p) < m_max:
                grown.append((level + 1, p + (t,), q, h + (level + 1,)))
        prefixes = grown
    return [((p, q), h) for _, p, q, h in prefixes if p]


def count_standard_monomials(Ttil, Wtil, grid: BetaGrid, m_max: int):
    """Numbers of nonvanishing semistandard bitableaux on the grid
    bounded by the pair, for every degree 0..m_max.

    Termwise dominance adds over unions, so a negative row lies below
    any positive row and below Wtil, and Ttil below any positive row.
    A bounded bitableau is then a negative half whose first row lies
    above Ttil stacked on a positive half whose last row lies below
    Wtil, and the counts are the convolution of the chain counts of the
    two sides' tables (_standard_table).
    """
    _check_degree(m_max)
    return _convolve(*(_standard_table(T, side, m_max)[2] for T, side in sides(Ttil, Wtil, grid)))


def verify_groebner(Ttil, Wtil, grid: BetaGrid, m_max: int) -> GroebnerReport:
    """Compare the numbers of multisets and of standard monomials on
    the grid bounded by the pair (Ttil, Wtil) for every degree up to
    m_max, and check that bounded RSK is injective from bounded
    multisets into bounded bitableaux at each degree.  Takes the
    arguments of the two counts, count_monomials_outside_initial and
    count_standard_monomials; grassmannian.richardson builds them from
    a triple.

    brsk stacks the bitableau of a multiset's negative side on that of
    its positive side, and every row says which side it came from, so
    brsk is injective and bounded on the pairs exactly when it is on
    each side.  Each side's bounded multisets come with their
    brsk_negative images from one face search (bounded_images), and its
    table of standard monomials is built once.  Each image, all
    negative, must be a chain of the table: a semistandard bitableau on
    the side's grid above its bound.  Its rows zip(P, Q) are walked from
    the root through the table's below maps, a row missing from the map
    it is looked up in ending the walk as no chain.  Images are told
    apart by the profiles their walks visit: a profile names one row,
    so a chain's profiles name its rows, and an image that is not a
    chain fails anyway, so this is the verdict of comparing the
    bitableaux.  tests/oracles.py keeps the check of every mixed
    multiset as the oracle.
    """
    pair = sides(Ttil, Wtil, grid)
    _check_degree(m_max)
    bounded, standard = [], []
    injective = True
    for T, side in pair:
        root, below, counts = _standard_table(T, side, m_max)
        standard.append(counts)
        found = [1] + [0] * m_max
        images = set()
        for U, (P, Q) in bounded_images(T, side, m_max):
            found[len(U)] += 1
            h, walk = root, []
            for row in zip(P, Q):
                h = below[h].get(row)
                if h is None:
                    injective = False
                    break
                walk.append(h)
            walk = tuple(walk)
            if len(P) != len(Q) or walk in images:
                injective = False
            images.add(walk)
        bounded.append(found)
    per_degree = tuple(zip(range(m_max + 1), _convolve(*bounded), _convolve(*standard)))
    witness = next((m for m, a, b in per_degree if a != b), None)
    return GroebnerReport(per_degree, witness is None, witness, injective)


def dimension_and_degree(alpha, beta, gamma, n: int, d: int):
    """Dimension and degree of the Richardson variety: the maximal size
    of a square-free bounded monomial and the number attaining it: the
    largest face size of the complex of bounded subsets and its number
    of faces, read from one search of each side's faces
    (multiplicity.bounded_faces) by
    multiplicity.maximal_bounded_subsets.  grassmannian.richardson
    checks the triple and builds its bounds.  Refuses grids above
    multiplicity.GRID_CAP points."""
    count, max_degree = maximal_bounded_subsets(*richardson(alpha, beta, gamma, n, d))
    return max_degree, count
