"""Path families on the beta grid and the multiplicity count."""

import pytest

from grassmult.chains import chain_bounded
from grassmult.grassmannian import beta_grid, build_bound_multisets, length
from grassmult.multiplicity import (
    canonical_path,
    ceil_pt,
    count_families,
    decompose_bounded_subset,
    enumerate_families,
    enumerate_paths,
    floor_pt,
    maximal_bounded_subsets,
    multiplicity,
    render_family,
)
from grassmult.multisets import pairs

GRID9 = beta_grid((1, 5, 6, 8), 9)
ALPHA9, GAMMA9 = (1, 2, 3, 5), (3, 6, 8, 9)


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
