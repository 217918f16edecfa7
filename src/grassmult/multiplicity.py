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
insertion order, up to a size cap, from the depths of a face's points
kept on its stack.  maximal_bounded_subsets runs it uncapped and keeps
each side's largest face size and its number of faces: the dimension
and the degree are the sum of the two sizes and the product of the two
counts.  groebner.count_monomials_outside_initial tallies its faces by
size for the Hilbert function of the tangent cone, and
groebner.verify_groebner walks them to list each side's bounded
multisets.  tests/oracles.py keeps f_vector, the same search with one
chain_depth call per candidate, and the joint search over both sides
before it; tests/test_multiplicity.py keeps the size-descending scan
over every subset before that.
"""

from itertools import combinations
from math import prod

from .brsk import lex_key
from .chains import chain_depth
from .grassmannian import BetaGrid, in_grid, negative_region, richardson, sides
from .multisets import sign

# An uncapped face search is exponential in the grid size; maximal_bounded_subsets
# refuses larger grids.
GRID_CAP = 24


def _axes(r, grid: BetaGrid):
    """Rows and columns of the staircase rectangle of r, in walking order
    from its floor (rows[0], cols[0]) to its ceiling (rows[-1], cols[-1]):
    the complement and beta entries between min(r) and max(r), ascending
    for a negative point, descending for a positive one.  Refuses a point
    off the grid, for enumerate_paths; grassmannian.sides checks a pair."""
    if not in_grid(r, grid):
        raise ValueError("point %r is not in the grid regions" % (r,))
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
    in sorted order.  One grid table per source, up to the farthest
    ceiling.  A positive side's matrix on the dual grid is the transpose
    of its matrix on the caller's grid, with the same determinant."""
    row_at = {x: i for i, x in enumerate(grid.complement)}
    col_at = {y: j for j, y in enumerate(grid.beta)}
    sources, sinks = [], []
    for r in sorted(anchors):
        rows, cols = _axes(r, grid)
        sources.append((row_at[rows[0]], col_at[cols[0]]))
        sinks.append((row_at[rows[-1]], col_at[cols[-1]]))
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
    side that costs O(k n^2) for the path counts and O(k^3) for the
    determinant.  The backtracking count over enumerate_paths that this
    replaced is the test oracle in tests/test_multiplicity.py.
    """
    return prod(_side_count(T, side) for T, side in sides(Ttil, Wtil, grid))


def enumerate_families(Ttil, Wtil, grid: BetaGrid):
    """All disjoint families, as maps anchor -> path."""
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

    Testing a candidate p = (e, f) takes the depths of the face's points,
    kept on the stack (_face_points says why they stay right): p is
    accepted when 1 + the largest depth of a face point with row < e
    and column > f is at most its limit.  A longest chain weakly above p
    can be taken to start at p, since p has the smallest column and the
    largest row of the points weakly above it.
    """
    points = _face_points(T, grid)
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
