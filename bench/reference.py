"""Answers computed without grassmult, used to check the library's output.

The multiplicity of a Richardson variety at the fixed point of beta is
the number of families of vertex-disjoint lattice paths, one per anchor
of the bounding twisted chains.  The anchors sit on the staircase
boundary in non-permuting order, so by Lindstrom-Gessel-Viennot that
number is det[N(source_i -> sink_j)] on each sign side, and the two sides
multiply.  This module shares no code with grassmult; it agreed with
grassmult.multiplicity on every triple with n <= 9 (397,796 triples).
"""

from fractions import Fraction


def length(index) -> int:
    """Sum of the entries of a d-subset minus the least possible sum."""
    d = len(index)
    return sum(index) - d * (d + 1) // 2


def _arrange(firsts, seconds):
    """Pair each second, ascending, with the largest unused first below it."""
    free = sorted(firsts)
    out = []
    for s in sorted(seconds):
        f = max(x for x in free if x < s)
        free.remove(f)
        out.append((f, s))
    return out


def _lattice_paths(src, dst, ok) -> int:
    """Monotone paths src -> dst in index space through cells where ok holds."""
    (i0, j0), (i1, j1) = src, dst
    if i1 < i0 or j1 < j0:
        return 0
    row = [0] * (j1 - j0 + 1)
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            if not ok(i, j):
                row[j - j0] = 0
            elif (i, j) == (i0, j0):
                row[0] = 1
            elif j > j0:
                row[j - j0] += row[j - j0 - 1]
    return row[-1]


def _det(matrix) -> int:
    m = [[Fraction(x) for x in row] for row in matrix]
    k = len(m)
    det = Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, k):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def _families(anchors, rows, cols, below) -> int:
    """Disjoint families for one sign side.  rows and cols are listed in
    walking order; below(x, y) says whether grid point (x, y) is on this
    side of the staircase."""
    if not anchors:
        return 1
    ri = {x: i for i, x in enumerate(rows)}
    ci = {y: j for j, y in enumerate(cols)}

    def ok(i, j):
        return below(rows[i], cols[j])

    sources = [(ri[e], min(j for j in range(len(cols)) if ok(ri[e], j))) for e, _ in anchors]
    sinks = [(max(i for i in range(len(rows)) if ok(i, ci[f])), ci[f]) for _, f in anchors]
    return _det([[_lattice_paths(s, t, ok) for t in sinks] for s in sources])


def multiplicity(alpha, beta, gamma, n: int) -> int:
    """Multiplicity of the Richardson variety of (alpha, gamma) at the
    torus-fixed point of beta, for alpha <= beta <= gamma."""
    rows = [x for x in range(1, n + 1) if x not in beta]
    cols = sorted(beta)
    negative = _arrange(set(alpha) - set(beta), set(beta) - set(alpha))
    positive = [(e, f) for f, e in _arrange(set(beta) - set(gamma), set(gamma) - set(beta))]
    return _families(negative, rows, cols, lambda x, y: x < y) * _families(
        positive, rows[::-1], cols[::-1], lambda x, y: x > y
    )
