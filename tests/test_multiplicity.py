"""Path families on the beta grid and the multiplicity count."""

import gc
import importlib
import math
import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from grassmult.chains import chain_bounded
from grassmult.grassmannian import (
    beta_grid,
    build_bound_multisets,
    in_grid,
    length,
    negative_region,
    sides,
    triples,
)
from grassmult.multiplicity import (
    _axes,
    _bareiss_det,
    _path_count_matrix,
    bounded_faces,
    count_families,
    enumerate_families,
    enumerate_paths,
    maximal_bounded_subsets,
    multiplicity,
    render_family,
)
from grassmult.multisets import pairs
from oracles import (
    canonical_path,
    ceil_pt,
    decompose_bounded_subset,
    f_vector,
    floor_pt,
    joint_maximal_bounded_subsets,
    positive_region,
    scanning_bounded_faces,
    table_path_count_matrix,
)

MULTIPLICITY_MODULE = importlib.import_module("grassmult.multiplicity")
GRID9 = beta_grid((1, 5, 6, 8), 9)
ALPHA9, GAMMA9 = (1, 2, 3, 5), (3, 6, 8, 9)


def count_disjoint(anchor_paths, used=frozenset()) -> int:
    """Backtracking oracle: the families of pairwise disjoint paths that
    take one path from each list, found by trying every path of the
    first list against every family of the rest."""
    if not anchor_paths:
        return 1
    total = 0
    for path in anchor_paths[0]:
        pts = set(path)
        if not pts & used:
            total += count_disjoint(anchor_paths[1:], used | pts)
    return total


def backtrack_families(Ttil, Wtil, grid) -> int:
    """The count that count_families computed before the determinant:
    backtracking over enumerate_paths, one sign side at a time."""
    return count_disjoint([enumerate_paths(r, grid) for r in Ttil]) * count_disjoint(
        [enumerate_paths(r, grid) for r in Wtil]
    )


def scan_maximal_bounded_subsets(Ttil, Wtil, grid):
    """The scan that maximal_bounded_subsets made before the face
    search: every subset of the grid, largest first, tested by
    chain_bounded until some size has a bounded subset.  Returns
    (number of bounded subsets of that size, the size)."""
    points = sorted(negative_region(grid) | positive_region(grid))
    for k in range(len(points), -1, -1):
        count = sum(1 for subset in combinations(points, k) if chain_bounded(subset, Ttil, Wtil))
        if count:
            return count, k


def check_anchor_postconditions(Ttil, Wtil, grid):
    """What build_bound_multisets and enumerate_paths guarantee: lower
    anchors negative, upper ones positive, all on the grid; the paths
    of an anchor all as long as its canonical path, which is one of
    them."""
    assert all(e < f for e, f in Ttil) and all(e > f for e, f in Wtil)
    assert all(in_grid(p, grid) for p in Ttil + Wtil)
    for r in Ttil + Wtil:
        paths = enumerate_paths(r, grid)
        assert {len(p) for p in paths} == {len(canonical_path(r, grid))}
        assert canonical_path(r, grid) in paths


def test_floor_and_ceil():
    cases = {
        (2, 8): ((2, 5), (7, 8)),
        (3, 6): ((3, 5), (4, 6)),
        (3, 1): ((3, 1), (2, 1)),
        (9, 5): ((9, 8), (7, 5)),
    }
    for r, (fl, ce) in cases.items():
        assert floor_pt(r, GRID9) == fl
        assert ceil_pt(r, GRID9) == ce
    with pytest.raises(ValueError):
        floor_pt((5, 5), GRID9)
    with pytest.raises(ValueError):
        ceil_pt((2, 4), GRID9)  # 4 is not a column of the grid


def test_axes_run_from_floor_to_ceil_exhaustive():
    # the first and last corners of every region point's rectangle, on
    # every grid with n <= 9, against the floor and ceiling oracles
    checked = 0
    for n in range(2, 10):
        for d in range(1, n):
            for beta in combinations(range(1, n + 1), d):
                grid = beta_grid(beta, n)
                for r in negative_region(grid) | positive_region(grid):
                    rows, cols = _axes(r, grid)
                    assert (rows[0], cols[0]) == floor_pt(r, grid)
                    assert (rows[-1], cols[-1]) == ceil_pt(r, grid)
                    checked += 1
    assert checked == 14846
    for r in ((5, 5), (2, 4)):  # on the diagonal; 4 is not a column of the grid
        with pytest.raises(ValueError):
            _axes(r, GRID9)
        with pytest.raises(ValueError):
            enumerate_paths(r, GRID9)


def test_enumerate_paths_nine():
    r1 = enumerate_paths((2, 8), GRID9)
    assert len(r1) == 6
    assert canonical_path((2, 8), GRID9) == ((2, 5), (2, 6), (2, 8), (3, 8), (4, 8), (7, 8))
    assert canonical_path((2, 8), GRID9) in r1
    # no path leaves the sign region: (7,5) and (7,6) are above the diagonal
    assert all(all(e < f for e, f in path) for path in r1)
    assert enumerate_paths((3, 6), GRID9) == [
        ((3, 5), (3, 6), (4, 6)),
        ((3, 5), (4, 5), (4, 6)),
    ]
    assert enumerate_paths((3, 1), GRID9) == [((3, 1), (2, 1))]
    assert enumerate_paths((9, 5), GRID9) == [
        ((9, 8), (9, 6), (9, 5), (7, 5)),
        ((9, 8), (9, 6), (7, 6), (7, 5)),
    ]


def test_six_families():
    Ttil, Wtil = build_bound_multisets(ALPHA9, GAMMA9, GRID9)
    assert (Ttil, Wtil) == (((2, 8), (3, 6)), ((3, 1), (9, 5)))
    r1A = ((2, 5), (2, 6), (2, 8), (3, 8), (4, 8), (7, 8))
    r1B = ((2, 5), (2, 6), (3, 6), (3, 8), (4, 8), (7, 8))
    r2A = ((3, 5), (3, 6), (4, 6))
    r2B = ((3, 5), (4, 5), (4, 6))
    s1 = ((3, 1), (2, 1))
    s2A = ((9, 8), (9, 6), (9, 5), (7, 5))
    s2B = ((9, 8), (9, 6), (7, 6), (7, 5))
    want = [
        {(2, 8): a, (3, 6): b, (3, 1): s1, (9, 5): c}
        for a, b, c in [
            (r1A, r2A, s2A),
            (r1A, r2B, s2A),
            (r1B, r2B, s2A),
            (r1A, r2A, s2B),
            (r1A, r2B, s2B),
            (r1B, r2B, s2B),
        ]
    ]
    got = enumerate_families(Ttil, Wtil, GRID9)
    assert len(got) == 6
    assert sorted(sorted(f.items()) for f in got) == sorted(sorted(f.items()) for f in want)
    # the per-side product against the joint backtracking of enumerate_families
    assert count_families(Ttil, Wtil, GRID9) == len(got)
    for fam in got:
        pts = [p for path in fam.values() for p in path]
        assert len(pts) == len(set(pts)) == 15
        assert chain_bounded(pts, Ttil, Wtil)


def test_multiplicity_product_law():
    full = multiplicity(ALPHA9, (1, 5, 6, 8), GAMMA9, 9, 4)
    lower_only = multiplicity((1, 2, 3, 4), (1, 5, 6, 8), GAMMA9, 9, 4)
    upper_only = multiplicity(ALPHA9, (1, 5, 6, 8), (6, 7, 8, 9), 9, 4)
    assert (full, lower_only, upper_only) == (6, 2, 3)
    assert full == lower_only * upper_only


def test_degenerate_anchor_has_one_path():
    # with the identity lower index, (4,5) is its own floor and ceiling
    Tid, _ = build_bound_multisets((1, 2, 3, 4), GAMMA9, GRID9)
    assert Tid == ((2, 8), (3, 6), (4, 5))
    assert floor_pt((4, 5), GRID9) == ceil_pt((4, 5), GRID9) == (4, 5)
    assert enumerate_paths((4, 5), GRID9) == [((4, 5),)]


def test_count_families_matches_backtracking_exhaustive():
    checked = mismatches = 0
    for d in (1, 2, 3):
        for n in range(d + 1, 9):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                check_anchor_postconditions(Ttil, Wtil, grid)
                mismatches += count_families(Ttil, Wtil, grid) != backtrack_families(Ttil, Wtil, grid)
                checked += 1
                # decompose_bounded_subset splits a family back into its paths
                family = enumerate_families(Ttil, Wtil, grid)[0]
                for R in (Ttil, Wtil):
                    parts = decompose_bounded_subset(pairs(p for r in R for p in family[r]), R)
                    assert {r: sorted(part) for r, part in parts.items()} == {
                        r: sorted(family[r]) for r in R
                    }
    assert (checked, mismatches) == (24153, 0)


def test_count_families_matches_backtracking_sampled():
    rng = random.Random(20050511)
    checked = 0
    while checked < 500:
        n = rng.randint(9, 14)
        d = rng.randint(2, n - 2)
        beta = sorted(rng.sample(range(1, n + 1), d))
        alpha, gamma = [], [n + 1] * (d + 1)
        for i in range(d):
            alpha.append(rng.randint(alpha[-1] + 1 if alpha else 1, beta[i]))
        for i in reversed(range(d)):
            gamma[i] = rng.randint(beta[i], gamma[i + 1] - 1)
        grid = beta_grid(beta, n)
        Ttil, Wtil = build_bound_multisets(alpha, gamma[:d], grid)
        if max(len(Ttil), len(Wtil)) > 4:
            continue
        check_anchor_postconditions(Ttil, Wtil, grid)
        assert count_families(Ttil, Wtil, grid) == backtrack_families(Ttil, Wtil, grid)
        checked += 1


def test_count_families_on_any_anchors():
    # every multiset of at most three anchors of one sign, twisted chain
    # or not: crossing anchors and shared coordinates give no family
    checked = 0
    for region in (negative_region(GRID9), positive_region(GRID9)):
        for k in (1, 2, 3):
            for A in combinations_with_replacement(sorted(region), k):
                Ttil, Wtil = (A, ()) if A[0][0] < A[0][1] else ((), A)
                assert count_families(Ttil, Wtil, GRID9) == backtrack_families(Ttil, Wtil, GRID9)
                checked += 1
    assert checked == 2 * (10 + 55 + 220)


def test_count_families_with_a_zero_pivot():
    # (2,5) and (2,6) share their floor (2,5): the first two rows are
    # equal, so after the first elimination step the second pivot is 0
    # and the third row is swapped in; the determinant is 0
    anchors = ((2, 5), (2, 6), (3, 5))
    assert _path_count_matrix(anchors, GRID9) == [[1, 3, 1], [1, 3, 1], [1, 2, 1]]
    assert count_families(anchors, (), GRID9) == 0 == backtrack_families(anchors, (), GRID9)
    # a repeated anchor repeats a row and a column: after the first
    # step the second column is 0 from the pivot down
    anchors = ((2, 8), (2, 8), (3, 6))
    assert _path_count_matrix(anchors, GRID9) == [[6, 6, 3], [6, 6, 3], [3, 3, 2]]
    assert count_families(anchors, ((9, 5),), GRID9) == 0 == backtrack_families(anchors, (), GRID9)
    # the positive side: (7,1) and (7,5) share their floor (7,6); its
    # matrix is taken on the dual grid, the transpose of the one on GRID9
    anchors = ((7, 1), (7, 5), (9, 8))
    _, (swapped, dual) = sides((), anchors, GRID9)
    assert _path_count_matrix(swapped, dual) == [[1, 1, 3], [1, 1, 2], [0, 0, 1]]
    assert count_families((), anchors, GRID9) == 0 == backtrack_families((), anchors, GRID9)


def test_path_count_matrix_matches_the_tables_exhaustive():
    # the one-line walk against the grid table per source it replaced, on
    # both sides of every triple with n <= 8, then on every multiset of
    # at most three anchors of one sign on GRID9: repeated anchors,
    # shared floors and crossings included
    checked = 0
    for n in range(2, 9):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                for T, side in sides(*build_bound_multisets(alpha, gamma, grid), grid):
                    if T:
                        got = _path_count_matrix(T, side)
                        assert got == table_path_count_matrix(T, side), (alpha, beta, gamma)
                        checked += 1
    assert checked == 129316
    checked = 0
    for region in (negative_region(GRID9), positive_region(GRID9)):
        for k in (1, 2, 3):
            for A in combinations_with_replacement(sorted(region), k):
                for T, side in sides(*((A, ()) if A[0][0] < A[0][1] else ((), A)), GRID9):
                    if T:
                        assert _path_count_matrix(T, side) == table_path_count_matrix(T, side), A
                        checked += 1
    assert checked == 2 * (10 + 55 + 220)


def test_bareiss_matches_leibniz():
    def leibniz(m):
        k = len(m)
        total = 0
        for perm in permutations(range(k)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(k), 2))
            term = (-1) ** inversions
            for i, j in enumerate(perm):
                term *= m[i][j]
            total += term
        return total

    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    rng = random.Random(7)
    for _ in range(500):
        k = rng.randint(1, 5)
        m = [[rng.choice((0, 0, 0, 1, 2, -3)) for _ in range(k)] for _ in range(k)]
        assert _bareiss_det([row[:] for row in m]) == leibniz(m)


def test_multiplicity_reaches_n_forty():
    # the full Grassmannian is smooth: multiplicity 1 at every fixed point,
    # here with ten anchors on each side
    alpha, gamma = tuple(range(1, 21)), tuple(range(21, 41))
    for beta in (tuple(range(11, 31)), tuple(range(1, 40, 2))):
        assert multiplicity(alpha, beta, gamma, 40, 20) == 1


def test_count_families_validates_anchor_signs():
    with pytest.raises(ValueError):
        count_families(((3, 1),), (), GRID9)
    with pytest.raises(ValueError):
        count_families((), ((2, 8),), GRID9)


def test_maximal_bounded_subsets_oracle():
    Ttil, Wtil = build_bound_multisets(ALPHA9, GAMMA9, GRID9)
    count, degree = maximal_bounded_subsets(Ttil, Wtil, GRID9)
    assert (count, degree) == (6, 15)
    assert degree == length(GAMMA9) - length(ALPHA9)
    assert count == count_families(Ttil, Wtil, GRID9)


def test_maximal_bounded_subsets_empty_bounds():
    small = beta_grid((1, 3), 4)
    assert maximal_bounded_subsets((), (), small) == (1, 0)
    with pytest.raises(ValueError):
        maximal_bounded_subsets((), (), beta_grid((2, 7, 8, 9, 12, 13, 16, 17), 17))


def test_face_search_matches_the_scan_exhaustive():
    # the per-side search against the joint search it replaced and the
    # subset scan before that
    checked = mismatches = 0
    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                got = maximal_bounded_subsets(Ttil, Wtil, grid)
                mismatches += got != joint_maximal_bounded_subsets(Ttil, Wtil, grid)
                mismatches += got != scan_maximal_bounded_subsets(Ttil, Wtil, grid)
                checked += 1
    assert (checked, mismatches) == (2606, 0)


def test_face_search_matches_the_scan_on_any_anchors():
    # the 199 bounds on two small grids that no Richardson variety
    # gives: at most two anchors a side, twisted chain or not
    compared = 0
    for beta, n in (((2, 4), 5), ((3, 5), 7)):
        grid = beta_grid(beta, n)
        given = {build_bound_multisets(a, c, grid) for a, b, c in triples(n, len(beta)) if b == grid.beta}
        neg, pos = sorted(negative_region(grid)), sorted(positive_region(grid))
        for Ttil in (A for k in (0, 1, 2) for A in combinations(neg, k)):
            for Wtil in (A for k in (0, 1, 2) for A in combinations(pos, k)):
                if (Ttil, Wtil) in given:
                    continue
                got = maximal_bounded_subsets(Ttil, Wtil, grid)
                assert got == joint_maximal_bounded_subsets(Ttil, Wtil, grid), (Ttil, Wtil)
                assert got == scan_maximal_bounded_subsets(Ttil, Wtil, grid), (Ttil, Wtil)
                compared += 1
    assert compared == 199
    # and every such bound with an anchor off the first grid is refused:
    # 5 is one of its rows, not a column
    grid = beta_grid((2, 4), 5)
    neg, pos = sorted(negative_region(grid)), sorted(positive_region(grid))
    lowers = [A for k in (0, 1, 2) for A in combinations(neg + [(1, 5), (3, 5)], k)]
    uppers = [A for k in (0, 1, 2) for A in combinations(pos + [(5, 1)], k)]
    off_grid = [(T, W) for T in lowers for W in uppers if not all(in_grid(r, grid) for r in T + W)]
    for Ttil, Wtil in off_grid:
        with pytest.raises(ValueError, match="is not in the grid regions"):
            maximal_bounded_subsets(Ttil, Wtil, grid)
    assert len(off_grid) == 127


def faces_by_size(T, grid, max_size):
    """The sizes of the faces that bounded_faces yields, counted, the
    empty face included.  A cap of the side's point count is no cap."""
    f = [1]
    for k, _ in bounded_faces(T, grid, max_size):
        if k == len(f):
            f.append(0)
        f[k] += 1
    return f


def test_size_cap_truncates_the_f_vector_exhaustive():
    # a cap on the size of the faces bounded_faces lists drops the larger
    # faces and changes no count of the smaller ones, at every cap, on
    # both sides of every triple, against the f_vector oracle
    checked = 0
    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                for T, side in sides(*build_bound_multisets(alpha, gamma, grid), grid):
                    f = f_vector(T, side)
                    assert f[0] == 1 and all(f)
                    for cap in range(len(f) + 1):
                        assert faces_by_size(T, side, cap) == f[: cap + 1], (alpha, beta, gamma, cap)
                    checked += 1
    assert checked == 2 * 2606


def test_bounded_faces_counts_the_faces_f_vector_counts_exhaustive():
    """Every side of every triple with n <= 7 and every d, uncapped and
    capped at 1, 2 and 3 points: the search on the depths kept on its
    stack, in insertion order, yields as many faces of each size as the
    f_vector oracle, with one chain_depth test per candidate, counts; a
    cap keeps the sizes up to it.  maximal_bounded_subsets, given the
    side alone, reads the oracle's top entry and size off the same
    search."""
    checked = 0
    for n in range(2, 8):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                for T, side in sides(*build_bound_multisets(alpha, gamma, grid), grid):
                    f = f_vector(T, side)
                    assert faces_by_size(T, side, len(negative_region(side))) == f, (alpha, beta, gamma)
                    for cap in (1, 2, 3):
                        assert faces_by_size(T, side, cap) == f[: cap + 1], (alpha, beta, gamma, cap)
                    assert maximal_bounded_subsets(T, (), side) == (f[-1], len(f) - 1), (alpha, beta, gamma)
                    checked += 1
    assert checked == 26716


def test_bounded_faces_matches_the_scan_exhaustive():
    # the search on prefix maxima against the scan of the face it
    # replaced: the same (size, last point) sequence, in order, on both
    # sides of every triple with n <= 7, capped at 1 to 4 points and
    # uncapped
    checked = 0
    for n in range(2, 8):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                for T, side in sides(*build_bound_multisets(alpha, gamma, grid), grid):
                    for cap in (1, 2, 3, 4, len(negative_region(side))):
                        got = list(bounded_faces(T, side, cap))
                        assert got == list(scanning_bounded_faces(T, side, cap)), (alpha, beta, gamma, cap)
                    checked += 1
    assert checked == 26716


def test_f_vector_of_a_side_its_bound_cuts_nothing_is_binomial():
    # at beta = (4, 5, 6) the lowest alpha bounds the nine points of the
    # negative side by the chain (3,4), (2,5), (1,6), and every subset
    # of them is a face; an empty bound leaves only the empty face
    grid = beta_grid((4, 5, 6), 6)
    Ttil, Wtil = build_bound_multisets((1, 2, 3), (4, 5, 6), grid)
    assert (sorted(Ttil), Wtil) == ([(1, 6), (2, 5), (3, 4)], ())
    assert len(negative_region(grid)) == 9
    binomial = [math.comb(9, k) for k in range(10)]
    assert faces_by_size(Ttil, grid, 9) == f_vector(Ttil, grid) == binomial
    assert faces_by_size(Ttil, grid, 3) == [1, 9, 36, 84]
    assert maximal_bounded_subsets(Ttil, Wtil, grid) == (1, 9)
    assert faces_by_size((), grid, 9) == f_vector((), grid) == [1]
    assert maximal_bounded_subsets((), (), grid) == (1, 0)


def test_maximal_bounded_subsets_calls_chain_depth_once_per_point(monkeypatch):
    # one chain_depth call per negative point of each side, for the
    # point's limit, and none per candidate: bounded_faces keeps the
    # depths of a face's points on its stack
    calls = []
    real = MULTIPLICITY_MODULE.chain_depth

    def counted(R, x):
        calls.append(x)
        return real(R, x)

    monkeypatch.setattr(MULTIPLICITY_MODULE, "chain_depth", counted)
    checked = 0
    for alpha, beta, gamma in triples(7, 3):
        grid = beta_grid(beta, 7)
        Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
        calls.clear()
        maximal_bounded_subsets(Ttil, Wtil, grid)
        points = sum(len(negative_region(side)) for _, side in sides(Ttil, Wtil, grid))
        assert len(calls) == points, (alpha, beta, gamma)
        checked += 1
    assert checked == 4116


def test_maximal_bounded_subsets_validates_anchor_signs():
    Ttil, Wtil = build_bound_multisets(ALPHA9, GAMMA9, GRID9)
    for lower, upper in ((Wtil, Wtil), (Ttil, Ttil), (Ttil + ((4, 4),), Wtil), (Ttil, ((5, 5),))):
        with pytest.raises(ValueError):
            maximal_bounded_subsets(lower, upper, GRID9)


def test_enumeration_leaves_no_reference_cycles():
    grid = beta_grid(range(8, 15), 14)
    Ttil, Wtil = build_bound_multisets(ALPHA9, GAMMA9, GRID9)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            enumerate_paths((1, 14), grid)
        enumerate_families(Ttil, Wtil, GRID9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_render_family():
    Ttil, Wtil = build_bound_multisets(ALPHA9, GAMMA9, GRID9)
    fam = enumerate_families(Ttil, Wtil, GRID9)[0]
    assert render_family(fam, GRID9) == "\n".join(
        [
            "   1 5 6 8  ",
            "2  o:o o * ",
            "3  *:o * o ",
            "4  .:. o o ",
            "7  . o .:o ",
            "9  . * o o:",
        ]
    )
    # no two of the six families draw the same picture
    fams = enumerate_families(Ttil, Wtil, GRID9)
    assert len({render_family(f, GRID9) for f in fams}) == 6


SEVENTEEN = beta_grid((2, 7, 8, 9, 12, 13, 16, 17), 17)
ALPHA17 = (1, 2, 3, 5, 6, 8, 11, 14)
GAMMA17 = (2, 9, 11, 13, 14, 15, 16, 17)

# one nonintersecting family drawn on the 17-column grid, anchor by anchor
FAMILY17 = {
    (1, 17): [(1, 2), (1, 7), (1, 8), (1, 9), (1, 12), (3, 12), (4, 12), (4, 13),
              (4, 16), (5, 16), (6, 16), (6, 17), (10, 17), (11, 17), (14, 17), (15, 17)],
    (3, 13): [(3, 7), (4, 7), (4, 8), (4, 9), (5, 9), (5, 12), (6, 12), (6, 13),
              (10, 13), (11, 13)],
    (5, 9): [(5, 7), (5, 8), (6, 8), (6, 9)],
    (6, 7): [(6, 7)],
    (11, 12): [(11, 12)],
    (14, 16): [(14, 16), (15, 16)],
    (15, 7): [(10, 7), (11, 7), (14, 7), (14, 8), (15, 8), (15, 9), (15, 12), (15, 13)],
    (11, 8): [(10, 8), (11, 8), (11, 9)],
    (14, 12): [(14, 12), (14, 13)],
}


def test_seventeen_grid_family():
    Ttil, Wtil = build_bound_multisets(ALPHA17, GAMMA17, SEVENTEEN)
    assert Ttil == ((1, 17), (3, 13), (5, 9), (6, 7), (11, 12), (14, 16))
    assert Wtil == ((11, 8), (14, 12), (15, 7))
    assert [len(canonical_path(r, SEVENTEEN)) for r in Ttil] == [16, 10, 4, 1, 1, 2]
    assert [len(canonical_path(r, SEVENTEEN)) for r in Wtil] == [3, 2, 8]
    pts = [p for path in FAMILY17.values() for p in path]
    assert len(pts) == len(set(pts)) == 47 == length(GAMMA17) - length(ALPHA17)
    for r, path in FAMILY17.items():
        assert len(path) == len(canonical_path(r, SEVENTEEN))
        assert set(path) in [set(p) for p in enumerate_paths(r, SEVENTEEN)]
    assert chain_bounded(pts, Ttil, Wtil)


def test_decompose_recovers_the_paths():
    Ttil, Wtil = build_bound_multisets(ALPHA17, GAMMA17, SEVENTEEN)
    neg = pairs(p for path in FAMILY17.values() for p in path if p[0] < p[1])
    pos = pairs(p for path in FAMILY17.values() for p in path if p[0] > p[1])
    for R, U in ((Ttil, neg), (Wtil, pos)):
        parts = decompose_bounded_subset(U, R)
        assert set(parts) == set(R)
        for r, part in parts.items():
            assert sorted(part) == sorted(FAMILY17[r])


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose_bounded_subset(((1, 2), (2, 1)), ((1, 2),))  # mixed signs
    with pytest.raises(ValueError):
        decompose_bounded_subset(((3, 7), (2, 8)), ((2, 8),))  # chain not below
