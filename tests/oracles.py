"""Reference code the tests check grassmult against.

Second algorithms for what the library computes once, the point
relations behind twisted chains, the termwise order on index sets, the
positive region of a grid, the bounds of a Richardson point by the
greedy arrangement of each chain, the floor and the ceiling of an
anchor, the path-count matrix from one grid table per source, the face
search that scans a face for each candidate, the f-vector of one side
and the joint face search over both signs, the truncation of a tableau
at a bound, the classification of bitableaux and their row-by-row split
into signed parts, a checker for the boundedness lemma of bounded RSK,
the monomial order compared exponent by exponent, the walk over one
side's bounded supports and its join across the two sides,
the Groebner verification of every mixed multiset, the table of
standard monomials on row tuples, and the twisted chains and perturbed
bitableaux the test files sweep over.  No CLI subcommand, demo or
benchmark workload reaches any of it, so it lives with the tests and
not in src/grassmult.
"""

from collections import Counter
from itertools import combinations, permutations, product

from grassmult.brsk import brsk, brsk_negative, brsk_trace, multiset_bounded_by
from grassmult.chains import chain_depth, chain_order_leq, completely_disjointed
from grassmult.grassmannian import BetaGrid, in_grid, negative_region, sides, theta_to_rs, validate_index
from grassmult.groebner import GroebnerReport, count_standard_monomials
from grassmult.multisets import (
    formal_diff_leq,
    iota,
    is_nonvanishing,
    negative_part,
    pairs,
    positive_part,
    proj,
    sign,
    union,
)
from grassmult.tableaux import bitableau, bitableau_bounded_by, row_strict, tableau

# Twisted chains: the point relations and the chain predicates.


def _same_negative(u, v):
    if sign(u) >= 0 or sign(v) >= 0:
        raise ValueError("expected negative points")


def prec(u, v) -> bool:
    """(e,f) strictly precedes (g,h) when f < h and e > g."""
    _same_negative(u, v)
    return u[1] < v[1] and u[0] > v[0]


def trianglelefteq_pt(u, v) -> bool:
    """Weak version of prec: f <= h and e >= g."""
    _same_negative(u, v)
    return u[1] <= v[1] and u[0] >= v[0]


def meet(u, v):
    """Componentwise (max of firsts, min of seconds)."""
    _same_negative(u, v)
    return (max(u[0], v[0]), min(u[1], v[1]))


def is_negative_twisted_chain(T) -> bool:
    pts = list(set(T))
    if any(sign(p) >= 0 for p in pts):
        return False
    if not completely_disjointed(pts):
        return False
    for i, u in enumerate(pts):
        for v in pts[i + 1 :]:
            if not (prec(u, v) or prec(v, u) or sign(meet(u, v)) >= 0):
                return False
    return True


def is_positive_twisted_chain(T) -> bool:
    pts = set(T)
    return all(sign(p) > 0 for p in pts) and is_negative_twisted_chain(iota(pts))


def depth(R, x) -> int:
    """Longest prec-chain within the part of R weakly above x.

    Both R and x must be negative; positive data goes through the
    component swap first.
    """
    if sign(x) >= 0 or any(sign(u) >= 0 for u in R):
        raise ValueError("depth is defined for negative data")
    return chain_depth(R, x)


def chain_order_leq_diagonal(R, S) -> bool:
    """The depth order, decided only at the points (z, z+1): compare the
    counts of elements straddling each z.  Valid for negative twisted
    chains; the oracle for chains.chain_order_leq.
    """
    if not (is_negative_twisted_chain(R) and is_negative_twisted_chain(S)):
        raise ValueError("diagonal criterion applies to negative twisted chains")
    zs = {c for p in list(R) + list(S) for c in p}
    for z in range(1, max(zs, default=1) + 1):
        r = sum(1 for e, f in set(R) if e <= z < f)
        s = sum(1 for e, f in set(S) if e <= z < f)
        if r < s:
            return False
    return True


# Index sets and path families.


def index_leq(a, b) -> bool:
    """Componentwise comparison of two sorted index sets."""
    if len(a) != len(b):
        raise ValueError("indices have different sizes")
    return all(x <= y for x, y in zip(sorted(a), sorted(b)))


def positive_region(grid):
    """The grid points above the diagonal, the mirror of
    grassmannian.negative_region; the library reaches them through the
    swap onto the dual grid (grassmannian.sides)."""
    return {(e, f) for e in grid.complement for f in grid.beta if e > f}


def rs_to_theta(R, S, beta):
    """The inverse of grassmannian.theta_to_rs."""
    R, S, beta = set(R), set(S), set(beta)
    if not S <= beta or R & beta or len(R) != len(S):
        raise ValueError("expected R disjoint from beta and S inside beta, equal sizes")
    return tuple(sorted((beta - S) | R))


def bound_multisets_by_canonicalize(alpha, gamma, grid):
    """grassmannian.build_bound_multisets as it was before chains.arrange:
    two index_leq tests, then the greedy arrangement of the zipped
    theta_to_rs points of each index, in which each point's larger
    coordinate, read in increasing order, takes the largest free smaller
    one below it.  Shares no code with chains.arrange."""
    beta, n = grid.beta, grid.n
    alpha = validate_index(alpha, n)
    gamma = validate_index(gamma, n)
    if not (index_leq(alpha, beta) and index_leq(beta, gamma)):
        raise ValueError("empty Richardson data: need alpha <= beta <= gamma")
    chains = []
    for theta in (alpha, gamma):
        pts = pairs(zip(*theta_to_rs(theta, beta)))
        closing = {max(p) for p in pts}
        free, arranged = [], []
        for c in sorted([c for p in pts for c in p]):
            if c in closing:
                arranged.append((free.pop(), c))
            else:
                free.append(c)
        chains.append(iota(arranged) if pts and sign(pts[0]) > 0 else pairs(arranged))
    return tuple(chains)


def _require_region(r, grid):
    if not in_grid(r, grid) or sign(r) == 0:
        raise ValueError("point %r is not in the grid regions" % (r,))


def floor_pt(r, grid):
    """Extremal grid point of the row of r, on the far side of the
    staircase boundary: the smallest admissible column for a negative
    point, the largest for a positive one.  The oracle for the first
    corner of multiplicity._axes."""
    _require_region(r, grid)
    e, f = r
    if sign(r) < 0:
        return (e, min(y for y in grid.beta if e < y))
    return (e, max(y for y in grid.beta if y < e))


def ceil_pt(r, grid):
    """Extremal grid point of the column of r: the largest admissible
    row for a negative point, the smallest for a positive one.  The
    oracle for the last corner of multiplicity._axes."""
    _require_region(r, grid)
    e, f = r
    if sign(r) < 0:
        return (max(x for x in grid.complement if x < f), f)
    return (min(x for x in grid.complement if x > f), f)


def canonical_path(r, grid):
    """The path that starts at floor(r), walks along the row of r to r,
    and then along the column of r to ceil(r)."""
    e, f = r
    f0, e1 = floor_pt(r, grid)[1], ceil_pt(r, grid)[0]
    cols = sorted((y for y in grid.beta if min(f0, f) <= y <= max(f0, f)), reverse=f0 > f)
    rows = sorted((x for x in grid.complement if min(e, e1) <= x <= max(e, e1)), reverse=e > e1)
    return tuple((e, y) for y in cols) + tuple((x, f) for x in rows[1:])


def table_path_count_matrix(anchors, grid):
    """multiplicity._path_count_matrix as it was before the one-line
    walk, its oracle: each anchor's corners from floor_pt and ceil_pt,
    and one grid table per source, a copy of the line of counts after
    every row, up to the farthest ceiling, from which each sink is read."""
    row_at = {x: i for i, x in enumerate(grid.complement)}
    col_at = {y: j for j, y in enumerate(grid.beta)}
    sources, sinks = [], []
    for r in sorted(anchors):
        (e0, f0), (e1, f1) = floor_pt(r, grid), ceil_pt(r, grid)
        sources.append((row_at[e0], col_at[f0]))
        sinks.append((row_at[e1], col_at[f1]))
    last_row = max(i for i, _ in sinks)
    span_end = max(j for _, j in sinks) + 1
    matrix = []
    for i0, j0 in sources:
        span = grid.beta[j0:span_end]
        line = [1] + [0] * (len(span) - 1)  # a virtual row entering the floor
        table = []
        for x in grid.complement[i0 : last_row + 1]:
            left = 0
            for k, y in enumerate(span):
                left = left + line[k] if x < y else 0
                line[k] = left
            table.append(line[:])
        matrix.append([table[i - i0][j - j0] if i >= i0 and j >= j0 else 0 for i, j in sinks])
    return matrix


def decompose_bounded_subset(U, R):
    """Partition a subset U lying above the twisted chain R: the part
    of an anchor r collects the points of U weakly below r whose depth
    in U equals the depth of r in R.  Positive data is decomposed
    through the component swap."""
    U, R = set(U), set(R)
    signs = {sign(p) for p in U | R}
    if signs == {1}:
        swapped = decompose_bounded_subset(iota(U), iota(R))
        return {tuple(reversed(r)): iota(part) for r, part in swapped.items()}
    if signs - {-1}:
        raise ValueError("expected uniform-sign nonvanishing data")
    if not chain_order_leq(R, U):
        raise ValueError("the twisted chain is not below the subset")
    level = {r: chain_depth(R, r) for r in R}
    return {
        r: tuple(sorted(u for u in U if trianglelefteq_pt(u, r) and chain_depth(U, u) == level[r]))
        for r in sorted(R)
    }


def _face_candidates(T, grid):
    """The candidates of the face searches below, built apart from
    multiplicity._face_points, which says why they work: the grid's
    negative points sorted by (-f, -e), each with T's depth at it as its
    limit, without the points of limit 0."""
    points = sorted(negative_region(grid), key=lambda p: (-p[1], -p[0]))
    return [(p, limit) for p, limit in ((p, chain_depth(T, p)) for p in points) if limit]


def f_vector(T, grid):
    """The f-vector of the complex of subsets of the grid's negative
    points that are chain-bounded below by T: entry k counts its faces
    of size k, for every k up to the largest face.

    The search of multiplicity.bounded_faces, uncapped, over
    _face_candidates(T, grid), each candidate p tested on its own: here
    by one chain_depth call on the face with p added, where
    bounded_faces keeps the face's depths on its stack.
    maximal_bounded_subsets ran it for each side's top entry before it
    tallied bounded_faces.
    """
    points = _face_candidates(T, grid)
    f = [1]
    face = []  # the face's points, in order
    chosen = []  # indices of the face's points, ascending
    i = 0
    while True:
        if i < len(points):
            p, limit = points[i]
            face.append(p)
            if chain_depth(face, p) <= limit:
                chosen.append(i)
                if len(face) == len(f):
                    f.append(0)
                f[len(face)] += 1
            else:
                face.pop()
            i += 1
        elif chosen:
            i = chosen.pop() + 1
            face.pop()
        else:
            return f


def scanning_bounded_faces(T, grid, max_size):
    """multiplicity.bounded_faces as it was before the prefix maxima,
    its oracle: the same search, yielding (size, last point) in the same
    preorder, with the depths of the face's points kept on the stack and
    each candidate p = (e, f) tested by a scan of every face point for
    the largest depth with row < e and column > f, over
    _face_candidates(T, grid)."""
    points = _face_candidates(T, grid)
    face = []  # (row, column, depth) of the face's points, in order
    chosen = []  # indices of the face's points, ascending
    i = 0
    while True:
        if i < len(points) and len(face) < max_size:
            (e, f), limit = points[i]
            depth = 1 + max((d for g, h, d in face if g < e and h > f), default=0)
            if depth <= limit:
                face.append((e, f, depth))
                chosen.append(i)
                yield len(face), (e, f)
            i += 1
        elif chosen:
            i = chosen.pop() + 1
            face.pop()
        else:
            return


def joint_maximal_bounded_subsets(Ttil, Wtil, grid):
    """The face search that multiplicity.maximal_bounded_subsets ran
    before it searched each sign side on its own (f_vector): one
    depth-first search over the faces of the whole grid, each point
    tagged with its side, counting the faces of maximal size.  Within a
    side every point comes after the points weakly above it, so a
    candidate is one chain_depth test at that point.  Returns (number of
    such faces, their size)."""

    def above_first(p):
        return (-p[1], p[0])

    points = [(0, p) for p in sorted(negative_region(grid), key=above_first)]
    points += [(1, p) for p in sorted(iota(positive_region(grid)), key=above_first)]
    bounds = (tuple(Ttil), iota(Wtil))
    limit = [chain_depth(bounds[s], p) for s, p in points]
    faces = ([], [])  # the current face, one list of raw tuples per side
    chosen = []  # indices of its points, ascending
    best, count, i = 0, 1, 0
    while True:
        if i < len(points):
            s, p = points[i]
            faces[s].append(p)
            if chain_depth(faces[s], p) <= limit[i]:
                chosen.append(i)
                if len(chosen) > best:
                    best, count = len(chosen), 0
                count += len(chosen) == best
            else:
                faces[s].pop()
            i += 1
        elif chosen:
            i = chosen.pop()
            faces[points[i][0]].pop()
            i += 1
        else:
            return count, best


# Tableaux: semistandard on a bound by truncating first, the oracle for
# the one-pass tableaux.semistandard_below.


def is_young_semistandard(P) -> bool:
    """Row strict, row lengths weakly decreasing, columns weakly increasing down.

    Trailing empty rows are ignored; an empty row above a nonempty one
    disqualifies.
    """
    if not row_strict(P):
        return False
    rows = list(P)
    while rows and not rows[-1]:
        rows.pop()
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            return False
        for j in range(len(rows[i + 1])):
            if rows[i][j] > rows[i + 1][j]:
                return False
    return all(rows[i] for i in range(len(rows)))


def truncate_below(P, b: int):
    """The tableau P^{<b}: every entry >= b removed, rows kept in place."""
    if not row_strict(P):
        raise ValueError("tableau must be row strict")
    return tableau(tuple(x for x in row if x < b) for row in P)


# Bitableaux: the predicates behind tableaux.split_parts, one row or
# one bitableau at a time.


def termwise_less(A, B) -> bool:
    """Strict termwise order: a_i < b_i for all i.  False on empty multisets."""
    if len(A) != len(B):
        raise ValueError("termwise comparison requires equal degrees")
    if not A:
        return False
    return all(a < b for a, b in zip(sorted(A), sorted(B)))


def classify_row(p_row, q_row) -> int:
    """-1 for a negative row, +1 for positive, 0 for neither."""
    if termwise_less(p_row, q_row):
        return -1
    if termwise_less(q_row, p_row):
        return 1
    return 0


def size(P) -> int:
    return sum(len(row) for row in P)


def bidegree(B) -> int:
    return size(B[0])


def is_semistandard_bitableau(B) -> bool:
    """Row strict with weakly increasing row differences P_i - Q_i."""
    P, Q = bitableau(*B)
    return (
        row_strict(P)
        and row_strict(Q)
        and all(formal_diff_leq(P[i], Q[i], P[i + 1], Q[i + 1]) for i in range(len(P) - 1))
    )


def classify_bitableau(B) -> str:
    """'negative', 'positive', 'nonvanishing', or 'neither'.

    Every row must compare strictly one way or the other for the
    bitableau to be nonvanishing; uniform rows refine the class.  The
    empty bitableau counts as nonvanishing.
    """
    labels = [classify_row(p, q) for p, q in zip(*bitableau(*B))]
    if any(s == 0 for s in labels):
        return "neither"
    if labels and all(s == -1 for s in labels):
        return "negative"
    if labels and all(s == 1 for s in labels):
        return "positive"
    return "nonvanishing"


def split_parts_by_rows(B):
    """The row-by-row form of tableaux.split_parts, its oracle: label
    every row, check the pairs through formal_diff_leq, then check
    separately that the negative rows precede the positive ones (a test
    the one-pass split_parts proves redundant)."""
    P, Q = bitableau(*B)
    labels = [classify_row(p, q) for p, q in zip(P, Q)]
    if any(s == 0 for s in labels) or not is_semistandard_bitableau((P, Q)):
        raise ValueError("expected a nonvanishing semistandard bitableau")
    i = 0
    while i < len(labels) and labels[i] == -1:
        i += 1
    if any(s == -1 for s in labels[i:]):
        raise ValueError("negative rows must precede positive rows")
    return (P[:i], Q[:i]), (P[i:], Q[i:])


# The boundedness lemma of bounded RSK.


class PreconditionError(ValueError):
    """The input multiset was not bounded to begin with."""


def _verify_negative_side(V, T) -> bool:
    """Check boundedness is preserved along the insertion of a negative
    multiset V bounded below by T, rebuilding a witness chain for every
    first-row entry below min(Q_1) at every prefix."""
    chains = []
    prefix = set()
    for step in brsk_trace(V):
        a, b = step.pair
        prefix.add((a, b))
        new_row, new_col = step.record.new_box
        if new_row == 1:
            low = new_col
            keep_rest = []
        else:
            low = step.record.route[0][1]
            keep_rest = chains[low:]
        if low - 1 > len(chains):
            return False
        grown = (chains[low - 2] if low >= 2 else []) + [(a, b)]
        chains = chains[: low - 1] + [grown] + keep_rest
        P1, Q1 = step.P[0], step.Q[0]
        if len(chains) != sum(1 for x in P1 if x < Q1[0]):
            return False
        for j, C in enumerate(chains, 1):
            if len(C) != j or C[-1][0] != P1[j - 1]:
                return False
            if any(u not in prefix for u in C):
                return False
            if any(not (C[k][0] < C[k + 1][0] and C[k][1] > C[k + 1][1]) for k in range(len(C) - 1)):
                return False
        if not bitableau_bounded_by((step.P, step.Q), T, ()):
            return False
    return bitableau_bounded_by(brsk_negative(V), T, ())


def verify_boundedness_preservation(U, T, W) -> bool:
    """Check that bounded RSK carries a multiset bounded by T, W to a
    bitableau bounded by T, W, validating the prefix witness chains on
    both signed parts.  Raises PreconditionError if U is not bounded by
    T, W in the first place; returns False only if the preserved
    boundedness itself fails.
    """
    if not is_nonvanishing(U):
        raise ValueError("multiset has vanishing points")
    if not multiset_bounded_by(U, T, W):
        raise PreconditionError("input multiset is not bounded by the given pair")
    if not _verify_negative_side(negative_part(U), pairs(T)):
        return False
    if not _verify_negative_side(iota(positive_part(U)), iota(W)):
        return False
    return bitableau_bounded_by(brsk(U), T, W)


# The Groebner side: minors and the counting verification.


def monomial_less(m1, m2) -> bool:
    """Lexicographic comparison, reading exponents from the largest
    variable down.  x_{ij} < x_{i'j'} when i < i', or i = i' and j > j'."""
    c1, c2 = Counter(pairs(m1)), Counter(pairs(m2))
    for v in sorted(set(c1) | set(c2), key=lambda p: (-p[0], p[1])):
        if c1[v] != c2[v]:
            return c1[v] < c2[v]
    return False


def expand_theta_minor_all_permutations(theta, grid):
    """The permutation expansion of the minor on rows theta, trying all
    d! permutations and keeping those whose term does not vanish.  The
    oracle for groebner.expand_theta_minor."""
    theta = validate_index(theta, grid.n)
    beta = grid.beta
    if len(theta) != len(beta):
        raise ValueError("theta must have the same size as beta")
    unit_col = {b: k for k, b in enumerate(beta)}
    expansion = {}
    for sigma in permutations(range(len(beta))):
        term = []
        for row_pos, i in enumerate(theta):
            k = sigma[row_pos]
            if i in unit_col:
                if unit_col[i] != k:
                    break
            else:
                term.append((i, beta[k]))
        else:
            inversions = sum(a > b for a, b in combinations(sigma, 2))
            expansion[pairs(term)] = (-1) ** inversions
    return expansion


def side_walk(T, grid: BetaGrid, m_max: int):
    """The multisets on the negative points of the grid bounded below
    by T, as one list per degree 0..m_max, each a sorted tuple.

    A multiset is bounded exactly when its support is, so the walk is a
    depth-first search over the bounded supports, in the shape of
    multiplicity.bounded_faces: a support grows only by points after its
    last one in sorted order, up to m_max points, each candidate is one
    multiset_bounded_by test, and a candidate that fails is never
    extended.  A support of k points gives its multisets of every degree
    m from k to m_max, the support plus m - k more of its points: those
    of S + (p,) are those of S followed by j >= 1 copies of p, which
    stay sorted since p comes after every point of S.
    """
    if m_max < 0:
        raise ValueError("degree bound must be nonnegative")
    points = sorted(negative_region(grid))
    by_degree = [[()]] + [[] for _ in range(m_max)]
    support = ()
    chosen = []  # indices of the support's points, ascending
    exact = [[()]]  # per support on the stack, the multisets it is the support of
    i = 0
    while True:
        if i < len(points) and len(support) < m_max:
            candidate = support + (points[i],)
            if multiset_bounded_by(candidate, T, ()):
                support = candidate
                chosen.append(i)
                exact.append(
                    [U + (points[i],) * j for U in exact[-1] for j in range(1, m_max - len(U) + 1)]
                )
                for U in exact[-1]:
                    by_degree[len(U)].append(U)
            i += 1
        elif chosen:
            i = chosen.pop() + 1
            support = support[:-1]
            exact.pop()
        else:
            return by_degree


def bounded_multisets_by_walk(Ttil, Wtil, grid, m):
    """All degree-m multisets on the grid bounded by the pair, sorted:
    each multiset of one side's walk joined to each of the other side's,
    swapped back by iota.  The oracle for
    groebner.bounded_multisets_of_degree, which tests every multiset of
    the degree."""
    negative, positive = (side_walk(T, side, m) for T, side in sides(Ttil, Wtil, grid))
    return sorted(
        union(neg, iota(pos))
        for i in range(m + 1)
        for neg in negative[i]
        for pos in positive[m - i]
    )


def verify_groebner_per_multiset(Ttil, Wtil, grid, m_max):
    """The counting verification run on every bounded multiset, mixed
    ones included: count each degree's list, and put each multiset
    through brsk and the full bound check.  The oracle for
    groebner.verify_groebner, which solves the two one-sided problems
    and convolves their counts."""
    bounded = [bounded_multisets_by_walk(Ttil, Wtil, grid, m) for m in range(m_max + 1)]
    standard = count_standard_monomials(Ttil, Wtil, grid, m_max)
    per_degree = []
    witness = None
    injective = True
    for m, (multisets, b) in enumerate(zip(bounded, standard)):
        a = len(multisets)
        per_degree.append((m, a, b))
        if a != b and witness is None:
            witness = m
        seen = set()
        for U in multisets:
            B = brsk(U)
            if B in seen or not bitableau_bounded_by(B, Ttil, Wtil):
                injective = False
            seen.add(B)
    return GroebnerReport(tuple(per_degree), witness is None, witness, injective)


def standard_table_by_rows(T, side, m_max):
    """One side's table of standard monomials on row tuples, compared by
    formal_diff_leq pair by pair: (root, follow, counts).  root is
    (T(1), T(2)), follow maps the root and each negative row (p, q) of
    at most m_max boxes above the root to the set of rows that may come
    next, and counts[r] is the number of chains of r boxes from the
    root.  The oracle for groebner's table on profiles."""
    root = (proj(T, 1), proj(T, 2))
    rows = [
        (p, q)
        for k in range(1, min(len(side.complement), len(side.beta), m_max) + 1)
        for p in combinations(side.complement, k)
        for q in combinations(side.beta, k)
        if termwise_less(p, q) and formal_diff_leq(*root, p, q)
    ]
    follow = {row: {r for r in rows if formal_diff_leq(*row, *r)} for row in [root, *rows]}
    ways = []  # ways[r][row]: completions after row with r boxes left
    for r in range(m_max + 1):
        ways.append(
            {
                row: int(r == 0)
                + sum(ways[r - len(nxt[0])][nxt] for nxt in nexts if len(nxt[0]) <= r)
                for row, nexts in follow.items()
            }
        )
    return root, follow, [layer[root] for layer in ways]


# Sweep domains.


def negative_twisted_chains(bound):
    """All negative twisted chains with coordinates <= bound, plus the
    empty chain.  A chain of m points uses 2m distinct coordinates, so
    sizes beyond bound // 2 cannot occur."""
    pts = [(e, f) for e in range(1, bound) for f in range(e + 1, bound + 1)]
    chains = (c for m in range(1, bound // 2 + 1) for c in combinations(pts, m))
    return [()] + [pairs(c) for c in chains if is_negative_twisted_chain(c)]


def perturbations(B):
    """B, each B with two row pairs swapped, and each B with one entry
    moved by 1."""
    P, Q = B
    yield B
    for i, j in combinations(range(len(P)), 2):
        order = list(range(len(P)))
        order[i], order[j] = j, i
        yield tuple(P[k] for k in order), tuple(Q[k] for k in order)
    for h, half in enumerate(B):
        for i, row in enumerate(half):
            for k, step in product(range(len(row)), (-1, 1)):
                moved = list(half)
                moved[i] = row[:k] + (row[k] + step,) + row[k + 1 :]
                yield (tuple(moved), Q) if h == 0 else (P, tuple(moved))
