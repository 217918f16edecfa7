"""Lattice paths on the grid attached to beta, disjoint path families,
and multiplicities of Richardson varieties at fixed points, together
with the bounded-subset oracle for the dimension and the degree.

The multiplicity counts the families of pairwise disjoint paths, one
per anchor.  count_families takes it as a Lindstrom-Gessel-Viennot
determinant of single-path counts on each sign side, the positive one
through grassmannian.sides on the dual grid, in exact integers and in
time polynomial in n.  enumerate_paths and enumerate_families list the
paths and families on the caller's grid, for drawing; the backtracking
count over them that the determinant replaced is the test oracle in
tests/test_multiplicity.py.

maximal_bounded_subsets reaches the same count without the paths, from
the complex of chain-bounded subsets of the grid.  Negative points are
bounded by Ttil alone and positive points by Wtil alone, so that
complex is the join of two one-sided complexes, split by
grassmannian.sides.  One depth-first search, bounded_faces, walks the
faces of a side over one list of its points (_face_points), in brsk's
insertion order, up to a size cap, from the prefix maxima of a face's
depths over the rows, kept on its stack.  maximal_bounded_subsets runs it uncapped and keeps
each side's largest face size and its number of faces: the dimension
and the degree are the sum of the two sizes and the product of the two
counts.  groebner.count_monomials_outside_initial tallies its faces by
size for the Hilbert function of the tangent cone, and
groebner.verify_groebner walks them to list each side's bounded
multisets.  tests/oracles.py keeps scanning_bounded_faces, the same
search with a scan of the face per candidate, f_vector, the same search
with one chain_depth call per candidate, and the joint search over both
sides before it; tests/test_multiplicity.py keeps the size-descending
scan over every subset before that.
"""

from bisect import bisect_left, bisect_right
from itertools import accumulate, combinations
from math import prod

from .brsk import lex_key
from .chains import chain_depth
from .grassmannian import BetaGrid, check_in_grid, negative_region, richardson, sides
from .multisets import sign

# An uncapped face search is exponential in the grid size; maximal_bounded_subsets
# refuses larger grids.
GRID_CAP = 24


def _axes(r, grid: BetaGrid):
    """Rows and columns of the staircase rectangle of r, in walking order
    from its floor (rows[0], cols[0]) to its ceiling (rows[-1], cols[-1]):
    the complement and beta entries between min(r) and max(r), ascending
    for a negative point, descending for a positive one.  Refuses a point
    off the grid (grassmannian.check_in_grid, as sides does a pair)."""
    check_in_grid((r,), grid)
    lo, hi, step = min(r), max(r), -sign(r)
    rows = [x for x in grid.complement if lo <= x <= hi]
    cols = [y for y in grid.beta if lo <= y <= hi]
    return rows[::step], cols[::step]


def enumerate_paths(r, grid: BetaGrid):
    """Every monotone staircase from floor(r) to ceil(r).

    All of them have the same number of points as the canonical path
    (along the row of r, then its column), and none contains a
    two-element chain.
    """
    rows, cols = _axes(r, grid)
    s = sign(r)
    out = []
    stack = [(0, 0, ((rows[0], cols[0]),))]
    while stack:  # depth first, a step along the row before a step down the column
        i, j, acc = stack.pop()
        if i == len(rows) - 1 and j == len(cols) - 1:
            out.append(acc)
            continue
        if i + 1 < len(rows) and sign((rows[i + 1], cols[j])) == s:
            stack.append((i + 1, j, acc + ((rows[i + 1], cols[j]),)))
        if j + 1 < len(cols) and sign((rows[i], cols[j + 1])) == s:
            stack.append((i, j + 1, acc + ((rows[i], cols[j + 1]),)))
    return out


def _path_count_matrix(anchors, grid: BetaGrid):
    """Entry (i, j) counts the monotone staircases from the floor of r_i
    to the ceiling of r_j in the negative region, for negative anchors
    in sorted order.  A positive side's matrix on the dual grid is the
    transpose of its matrix on the caller's grid, with the same
    determinant.

    grassmannian.sides has refused anchors off the grid, so bisect finds
    the corners: the floor of (e, f) is row e at the first column above
    e, its ceiling the last row below f at column f.  Each source walks
    one line of counts by grid column down the rows to the lowest
    ceiling, adding along each row from the first column above it (the
    cells left of that are positive, and no later row reads them), and
    copies each sink's count into its matrix row as the sink's row
    finishes.  A sink above the source is never reached and one left of
    it reads a column the walk never writes, so both read 0."""
    rows, cols = grid.complement, grid.beta
    anchors = sorted(anchors)
    sinks_at = [[] for _ in rows]  # per row: (matrix column, grid column) of its sinks
    for s, (_, f) in enumerate(anchors):
        sinks_at[bisect_left(rows, f) - 1].append((s, bisect_left(cols, f)))
    last_row = max(i for i, sinks in enumerate(sinks_at) if sinks)
    span_end = bisect_left(cols, max(f for _, f in anchors)) + 1
    walk = [(bisect_right(cols, x), sinks) for x, sinks in zip(rows[: last_row + 1], sinks_at)]
    matrix = []
    for e, _ in anchors:
        i0 = bisect_left(rows, e)
        line = [0] * span_end  # counts by grid column; none left of the floor
        line[walk[i0][0]] = 1  # a virtual row entering the floor
        counts = [0] * len(anchors)
        for k, sinks in walk[i0:]:
            line[k:] = accumulate(line[k:])
            for s, j in sinks:
                counts[s] = line[j]
        matrix.append(counts)
    return matrix


def _bareiss_det(m) -> int:
    """Determinant of a nonempty square integer matrix by fraction-free
    Gaussian elimination (Bareiss): every division is exact.  Works on
    m in place."""
    k = len(m)
    det_sign, prev = 1, 1
    for c in range(k - 1):
        if m[c][c] == 0:
            p = next((r for r in range(c + 1, k) if m[r][c]), None)
            if p is None:
                return 0
            m[c], m[p] = m[p], m[c]
            det_sign = -det_sign
        for r in range(c + 1, k):
            for j in range(c + 1, k):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return det_sign * m[-1][-1]


def _crossing(anchors) -> bool:
    """Whether two negative anchors (e, f) and (g, h) cross: e < g < f < h.
    The floor of the second then lies on the staircase between the
    floor and the ceiling of the first, and its ceiling beyond, so
    every path of the second meets every path of the first."""
    return any(e < g < f < h for (e, f), (g, h) in combinations(sorted(anchors), 2))


def _side_count(anchors, grid: BetaGrid) -> int:
    """Disjoint families for negative anchors.  Without a crossing, the
    anchors form a twisted chain up to shared coordinates (which give
    equal rows or columns, hence 0), so they sit on the staircase in
    non-permuting order and the Lindstrom-Gessel-Viennot determinant
    counts the families."""
    if not anchors:
        return 1
    if _crossing(anchors):
        return 0
    return _bareiss_det(_path_count_matrix(anchors, grid))


def count_families(Ttil, Wtil, grid: BetaGrid) -> int:
    """Number of families of pairwise disjoint paths, one per anchor.

    grassmannian.sides checks the pair and splits it.  Each side is
    counted by the determinant det[N(floor r_i -> ceil r_j)] of
    single-path counts N, taken exactly by fraction-free elimination;
    the negative and positive anchors live on opposite sides of the
    staircase, so the two counts are multiplied.  With k anchors on a
    side the path counts take O(k n^2) time, with one line of n counts
    per source (_path_count_matrix), and the determinant O(k^3).  The
    backtracking count over enumerate_paths that this replaced is the
    test oracle in tests/test_multiplicity.py; the matrix built from one
    grid table per source before the one-line walk is
    tests/oracles.table_path_count_matrix.
    """
    return prod(_side_count(T, side) for T, side in sides(Ttil, Wtil, grid))


def enumerate_families(Ttil, Wtil, grid: BetaGrid):
    """All disjoint families, as maps anchor -> path, after grassmannian.sides
    checks the pair as for count_families; one joint search fixes their order."""
    sides(Ttil, Wtil, grid)
    anchors = sorted((*Ttil, *Wtil), key=lambda r: (min(r), max(r)))
    anchor_paths = [(r, enumerate_paths(r, grid)) for r in anchors]
    families = []
    stack = [(0, frozenset(), ())]
    while stack:  # depth first, the paths of each anchor in their listed order
        idx, used, acc = stack.pop()
        if idx == len(anchor_paths):
            families.append(dict(acc))
            continue
        r, paths = anchor_paths[idx]
        for path in reversed(paths):
            if used.isdisjoint(path):
                stack.append((idx + 1, used.union(path), acc + ((r, path),)))
    return families


def multiplicity(alpha, beta, gamma, n: int, d: int) -> int:
    """Multiplicity of the Richardson variety of (alpha, gamma) at the
    torus-fixed point of beta, by counting disjoint path families.
    grassmannian.richardson checks the triple and builds its bounds."""
    return count_families(*richardson(alpha, beta, gamma, n, d))


def _face_points(T, grid: BetaGrid):
    """The grid's negative points in brsk's insertion order (brsk.lex_key:
    columns descending, rows descending within a column), each with T's
    depth at it (chains.chain_depth): a list of (point, limit).  A point
    of limit 0 is in no face and dropped.  T must be negative, as
    grassmannian.sides checks; a positive side goes through it onto the
    dual grid first.

    bounded_faces walks this list.  Chain-boundedness is closed under
    taking subsets, so a face grows only by points after its last one,
    and a candidate that fails is never extended.  A point p is bounded
    within a face when the face's depth at p, the longest chain of face
    points weakly above p, is at most its limit.  In this order, adding
    p changes no earlier point's depth.  An earlier point q with p
    weakly above it is in p's column, since a point of a larger column
    than q would come before q.  So p, in the same column with a smaller
    row, can only start a chain weakly above q, and q can take its
    place there.  So a face's points keep the depths they had when they
    were added, and a face with p added is bounded exactly when p is.

    The depth at p = (e, f) is 1 + the largest depth of a face point
    with row < e and column > f: a longest chain weakly above p can be
    taken to start at p, since p has the smallest column and the largest
    row of the points weakly above it.  In this order the column test
    follows from the row test.  An earlier point in p's column has a
    larger row than e, so an earlier point with row < e is in a column
    right of f.  So the depth at p is 1 + the largest depth of the
    face's points in rows above e.
    """
    limits = ((p, chain_depth(T, p)) for p in sorted(negative_region(grid), key=lex_key))
    return [(p, limit) for p, limit in limits if limit]


def bounded_faces(T, grid: BetaGrid, max_size):
    """The nonempty faces of the complex of subsets of the grid's
    negative points that are chain-bounded below by T, of at most
    max_size points: yields (size, last point) for each, in the preorder
    of a depth-first search over _face_points(T, grid), so the face of a
    yielded (k, p) is the face of size k - 1 yielded last, with p added.
    A face's points come in the order brsk inserts them.

    A candidate p = (e, f) is accepted when 1 + the largest depth of a
    face point in a row above e is at most its limit (_face_points says
    why that depth is p's and why it stays right).  A face keeps the
    prefix maxima of its points' depths over the row ranks: entry r is
    the largest depth of its points in the r topmost rows, 0 if none.
    So a candidate of row rank r costs one lookup, entry r, and
    accepting it copies the maxima with the entries after r that are
    below the new depth raised to it, a run that bisect finds since the
    maxima ascend.  The stack keeps each face point's index with the
    maxima of the face before it, for the way back.
    """
    rank = {x: r for r, x in enumerate(grid.complement)}
    points = [(rank[p[0]], limit, p) for p, limit in _face_points(T, grid)]
    maxima = [0] * (len(rank) + 1)  # the prefix maxima of the face
    stack = []  # (index, the maxima of the face before it) per face point, in order
    i = 0
    while True:
        if i < len(points) and len(stack) < max_size:
            r, limit, p = points[i]
            below = maxima[r]
            if below < limit:
                end = bisect_right(maxima, below, r + 1)
                stack.append((i, maxima))
                maxima = maxima[: r + 1] + [below + 1] * (end - r - 1) + maxima[end:]
                yield len(stack), p
            i += 1
        elif stack:
            i, maxima = stack.pop()
            i += 1
        else:
            return


def maximal_bounded_subsets(Ttil, Wtil, grid: BetaGrid):
    """The faces of maximal size of the complex of subsets of the grid
    that are chain-bounded by (Ttil, Wtil).  Returns (number of such
    subsets, that maximal size).  Refuses, after grassmannian.sides has
    checked the pair, grids with more than GRID_CAP points.

    The complex is the join of its negative side, bounded by Ttil, and
    its positive side, bounded by Wtil: a face is a face of each side.
    So bounded_faces searches each side once, uncapped, and the side's
    largest face size and number of faces of that size are kept; the
    count is the product of the two numbers and the size the sum of the
    two sizes.  The search costs the sum of the two sides' face counts,
    not their product.
    """
    halves = sides(Ttil, Wtil, grid)
    size = len(grid.beta) * len(grid.complement)
    if size > GRID_CAP:
        raise ValueError("grid has %d points, above the cap %d" % (size, GRID_CAP))
    count, best = 1, 0
    for T, side in halves:
        top, faces = 0, 1  # the largest face size so far, and its faces
        for k, _ in bounded_faces(T, side, size):
            if k > top:
                top, faces = k, 0
            faces += k == top
        count *= faces
        best += top
    return count, best


def render_family(family, grid: BetaGrid) -> str:
    """ASCII picture of one family: complement labels down the side,
    beta labels across the top, anchors as x (or * when a path runs
    through the anchor's cell), other path points as o, and the
    staircase between the sign regions drawn dotted."""
    anchors = set(family)
    on_path = {p for path in family.values() for p in path}
    w = max([len(str(v)) for v in grid.beta + grid.complement] + [1])
    lines = [" " * (w + 2) + " ".join(str(f).rjust(w) for f in grid.beta) + "  "]
    for e in grid.complement:
        cells = []
        for f in grid.beta:
            p = (e, f)
            if p in anchors:
                mark = "*" if p in on_path else "x"
            else:
                mark = "o" if p in on_path else "."
            cells.append(mark.rjust(w))
        row = ""
        for f, cell in zip(grid.beta, cells):
            row += (":" if f > e > max(
                (y for y in grid.beta if y < f), default=0
            ) else " ") + cell
        boundary = ":" if e > max(grid.beta) else " "
        lines.append(str(e).rjust(w) + " " + row + boundary)
    return "\n".join(lines)
