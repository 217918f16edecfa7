import itertools
import random

import pytest

from grassmult.grassmannian import (
    beta_grid,
    build_bound_multisets,
    complement,
    in_grid,
    length,
    negative_region,
    richardson,
    sides,
    theta_to_rs,
    triples,
    validate_index,
)
from grassmult.groebner import (
    bounded_multisets_of_degree,
    count_monomials_outside_initial,
    count_standard_monomials,
    dimension_and_degree,
    verify_groebner,
)
from grassmult.multiplicity import count_families, enumerate_families, maximal_bounded_subsets, multiplicity
from oracles import bound_multisets_by_canonicalize, index_leq, positive_region, rs_to_theta


def test_validate_index():
    assert validate_index([3, 1, 2], 5) == (1, 2, 3)
    for bad in ([], [0, 1], [1, 1], [6]):
        with pytest.raises(ValueError):
            validate_index(bad, 5)


def test_length():
    assert length((1, 2, 3, 4)) == 0
    assert length((1, 2, 3, 5)) == 1
    assert length((3, 6, 8, 9)) == 16
    assert length((6, 7, 8, 9)) == 20


def test_grid_regions():
    grid = beta_grid((1, 5, 6, 8), 9)
    assert grid.complement == (2, 3, 4, 7, 9)
    assert complement((2, 5, 7), 7) == (1, 3, 4, 6)
    assert in_grid((2, 5), grid) and not in_grid((5, 5), grid)
    neg, pos = negative_region(grid), positive_region(grid)
    assert len(neg) + len(pos) == len(grid.beta) * len(grid.complement)
    assert (2, 8) in neg and (9, 5) in pos and not neg & pos


def test_theta_rs_bijection():
    beta = (2, 5, 7)
    assert theta_to_rs((1, 4, 5), beta) == ((1, 4), (2, 7))
    assert rs_to_theta((1, 4), (2, 7), beta) == (1, 4, 5)
    with pytest.raises(ValueError):
        rs_to_theta((2,), (5,), beta)  # R must avoid beta
    with pytest.raises(ValueError):
        rs_to_theta((1,), (3,), beta)  # S must lie inside beta
    beta6 = (2, 4, 6)
    for theta in itertools.combinations(range(1, 7), 3):
        R, S = theta_to_rs(theta, beta6)
        assert rs_to_theta(R, S, beta6) == theta


def test_bound_multisets_small():
    grid = beta_grid((1, 5, 6, 8), 9)
    Ttil, Wtil = build_bound_multisets((1, 2, 3, 5), (3, 6, 8, 9), grid)
    assert Ttil == ((2, 8), (3, 6))
    assert Wtil == ((3, 1), (9, 5))
    # the identity and the top index give chains on one side only
    Tid, Wid = build_bound_multisets((1, 2, 3, 4), (3, 6, 8, 9), grid)
    assert Tid == ((2, 8), (3, 6), (4, 5))
    assert Wid == ((3, 1), (9, 5))
    Ttop, Wtop = build_bound_multisets((1, 2, 3, 5), (6, 7, 8, 9), grid)
    assert Ttop == ((2, 8), (3, 6))
    assert Wtop == ((7, 5), (9, 1))
    same, none = build_bound_multisets(grid.beta, grid.beta, grid)
    assert same == () and none == ()


def test_bound_multisets_large():
    grid = beta_grid((2, 7, 8, 9, 12, 13, 16, 17), 17)
    Ttil, Wtil = build_bound_multisets(
        (1, 2, 3, 5, 6, 8, 11, 14), (2, 9, 11, 13, 14, 15, 16, 17), grid
    )
    assert Ttil == ((1, 17), (3, 13), (5, 9), (6, 7), (11, 12), (14, 16))
    assert Wtil == ((11, 8), (14, 12), (15, 7))


def test_bound_multisets_rejects_empty_richardson():
    grid = beta_grid((1, 5, 6, 8), 9)
    with pytest.raises(ValueError):
        build_bound_multisets((3, 6, 8, 9), (1, 2, 3, 5), grid)


def outcome(*args):
    """The bounds that build_bound_multisets and its greedy oracle build
    from args, or the message of the ValueError that each raises."""
    found = []
    for build in (build_bound_multisets, bound_multisets_by_canonicalize):
        try:
            found.append(build(*args))
        except ValueError as e:
            found.append("ValueError: %s" % e)
    return found


def test_bound_multisets_match_the_greedy_oracle_exhaustive():
    # every (alpha, beta, gamma) of d-subsets with n <= 7, ordered or not
    checked = refused = 0
    for n in range(2, 8):
        for d in range(1, n):
            indices = list(itertools.combinations(range(1, n + 1), d))
            for beta in indices:
                grid = beta_grid(beta, n)
                for alpha in indices:
                    for gamma in indices:
                        new, old = outcome(alpha, gamma, grid)
                        assert new == old, (alpha, beta, gamma)
                        refused += isinstance(new, str)
                        checked += 1
    assert (checked, refused) == (122796, 109438)


def test_bound_multisets_of_other_sizes_match_the_greedy_oracle_exhaustive():
    # alpha or gamma with d - 1 or d + 1 entries, n <= 6, every one
    # refused: the size error of alpha comes before its order error, and
    # both before gamma's
    checked = 0
    messages = set()
    for n in range(2, 7):
        for d in range(1, n):
            sized = {k: list(itertools.combinations(range(1, n + 1), k)) for k in (d - 1, d, d + 1)}
            for beta in sized[d]:
                grid = beta_grid(beta, n)
                for ka, kg in itertools.product(sized, repeat=2):
                    if ka == kg == d:
                        continue
                    for alpha in sized[ka]:
                        for gamma in sized[kg]:
                            new, old = outcome(alpha, gamma, grid)
                            assert new == old, (alpha, beta, gamma)
                            messages.add(new.split(" in ")[0])
                            checked += 1
    assert checked == 105930
    assert messages == {
        "ValueError: expected distinct integers",
        "ValueError: indices have different sizes",
        "ValueError: empty Richardson data: need alpha <= beta <= gamma",
    }


def draw_index(rng, n, d):
    return tuple(sorted(rng.sample(range(1, n + 1), d)))


def test_bound_multisets_match_the_greedy_oracle_on_large_triples():
    # 20,000 seeded triples at n = 10..20: even draws in order (the
    # termwise minimum, median and maximum of three d-subsets), odd ones
    # redrawn until they are out of order
    rng = random.Random(26)
    refused = 0
    for i in range(20000):
        n = rng.randint(10, 20)
        d = rng.randint(1, n - 1)
        triple = [draw_index(rng, n, d) for _ in range(3)]
        if i % 2 == 0:
            triple = list(zip(*map(sorted, zip(*triple))))
        while i % 2 and index_leq(triple[0], triple[1]) and index_leq(triple[1], triple[2]):
            triple = [draw_index(rng, n, d) for _ in range(3)]
        alpha, beta, gamma = triple
        new, old = outcome(alpha, gamma, beta_grid(beta, n))
        assert new == old, triple
        refused += isinstance(new, str)
    assert refused == 10000


def test_richardson_builds_the_grid_and_bounds():
    Ttil, Wtil, grid = richardson((1, 2, 3, 5), (8, 1, 6, 5), (3, 6, 8, 9), 9, 4)
    assert grid == beta_grid((1, 5, 6, 8), 9)
    assert (Ttil, Wtil) == (((2, 8), (3, 6)), ((3, 1), (9, 5)))
    assert richardson((1, 3), (2, 4), (4, 5), 5, 2)  # the triple REFUSED breaks


# Each line breaks one rule of a Richardson triple of 2-subsets of 1..5.
REFUSED = [
    ((1, 3), (2, 4), (4, 5), 5, 0),  # d <= 0
    ((1, 3), (2, 4), (4, 5), 5, -1),
    ((1, 3), (2, 4), (4, 5), 2, 2),  # d >= n
    ((1, 3), (2, 4), (4, 5), 5, 6),
    ((1,), (2, 4), (4, 5), 5, 2),  # an index without d entries
    ((1, 3), (2, 4, 5), (4, 5), 5, 2),
    ((1, 3), (2, 4), (), 5, 2),
    ((0, 3), (2, 4), (4, 5), 5, 2),  # an entry outside 1..n
    ((1, 3), (2, 4), (4, 6), 5, 2),
    ((1, 3), (2, 9), (4, 5), 5, 2),
    ((1, 1), (2, 4), (4, 5), 5, 2),  # a repeated entry
    ((2, 5), (2, 4), (4, 5), 5, 2),  # alpha not <= beta
    ((1, 3), (2, 4), (1, 5), 5, 2),  # beta not <= gamma
]


@pytest.mark.parametrize("call", [richardson, multiplicity, dimension_and_degree])
@pytest.mark.parametrize("args", REFUSED)
def test_a_bad_triple_is_refused(call, args):
    with pytest.raises(ValueError):
        call(*args)


def test_triples():
    assert list(triples(3, 1)) == [
        ((1,), (1,), (1,)),
        ((1,), (1,), (2,)),
        ((1,), (1,), (3,)),
        ((1,), (2,), (2,)),
        ((1,), (2,), (3,)),
        ((2,), (2,), (2,)),
        ((2,), (2,), (3,)),
        ((1,), (3,), (3,)),
        ((2,), (3,), (3,)),
        ((3,), (3,), (3,)),
    ]
    assert sum(1 for _ in triples(6, 3)) == 980
    for n, d in ((4, 0), (4, -1), (4, 4), (3, 5), (1, 1)):
        with pytest.raises(ValueError):
            triples(n, d)


def test_triples_index_in_order_and_sample_as_their_list():
    # the sequence against the nested filter that listed the triples
    # before it, and its indices against its list: random.sample draws
    # the same triples from either, so verify --sample keeps its picks
    checked = 0
    for n in range(2, 8):
        for d in range(1, n):
            indices = list(itertools.combinations(range(1, n + 1), d))
            listed = [
                (alpha, beta, gamma)
                for beta in indices
                for alpha in indices
                if index_leq(alpha, beta)
                for gamma in indices
                if index_leq(beta, gamma)
            ]
            sequence = triples(n, d)
            assert list(sequence) == listed and len(sequence) == len(listed)
            assert [sequence[i] for i in range(len(sequence))] == listed
            for i in (-1, len(listed)):
                with pytest.raises(IndexError):
                    sequence[i]
            for seed in range(5):
                for k in (1, 3, 50):
                    k = min(k, len(listed))
                    assert random.Random(seed).sample(sequence, k) == random.Random(seed).sample(listed, k)
                    checked += 1
    assert checked == 21 * 5 * 3


TTIL5, WTIL5, GRID5 = richardson((1, 3), (2, 4), (4, 5), 5, 2)


@pytest.mark.parametrize(
    "lower, upper",
    [
        (WTIL5, TTIL5),
        (TTIL5 + ((4, 4),), WTIL5),
        (TTIL5, WTIL5 + ((2, 2),)),
        (TTIL5 + ((1, 5),), WTIL5),
        (TTIL5, WTIL5 + ((5, 1),)),
    ],
    ids=["swapped", "diagonal-lower", "diagonal-upper", "off-grid-lower", "off-grid-upper"],
)
@pytest.mark.parametrize(
    "call, extra",
    [
        pytest.param(call, extra, id=call.__name__)
        for call, extra in (
            (sides, ()),
            (count_families, ()),
            (enumerate_families, ()),
            (maximal_bounded_subsets, ()),
            (count_monomials_outside_initial, (3,)),
            (count_standard_monomials, (3,)),
            (verify_groebner, (3,)),
            (bounded_multisets_of_degree, (2,)),
        )
    ],
)
def test_anchors_of_the_wrong_sign_are_refused(call, extra, lower, upper):
    # grassmannian.sides checks the pair's regions and signs for every
    # entry point that splits it: 5 is a row of GRID5, not a column, so
    # (1, 5) and (5, 1) are off the grid though of the right sign
    with pytest.raises(ValueError):
        call(lower, upper, GRID5, *extra)
