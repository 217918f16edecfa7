import gc
import itertools
import math
import random

import pytest

from grassmult import groebner
from grassmult.brsk import brsk, brsk_negative, lex_key, lex_sort, multiset_bounded_by
from grassmult.grassmannian import (
    beta_grid,
    build_bound_multisets,
    negative_region,
    richardson,
    sides,
    theta_to_rs,
    triples,
)
from grassmult.groebner import (
    bounded_multisets_of_degree,
    chain_monomial,
    count_monomials_outside_initial,
    count_standard_monomials,
    dimension_and_degree,
    expand_theta_minor,
    initial_term,
    monomial_key,
    signed_minor,
    verify_groebner,
)
from grassmult.multisets import (
    diff_profile,
    formal_diff_leq,
    multiset_order_leq,
    negative_part,
    pairs,
    positive_part,
    proj,
    termwise_leq,
)
from grassmult.tableaux import bitableau_bounded_by
from oracles import (
    bounded_multisets_by_walk,
    expand_theta_minor_all_permutations,
    index_leq,
    monomial_less,
    positive_region,
    rs_to_theta,
    side_walk,
    standard_table_by_rows,
    verify_groebner_per_multiset,
)


def test_variable_order():
    # one-variable monomials compare as their variables
    assert monomial_key(((1, 2),)) < monomial_key(((4, 7),))  # row dominates
    assert monomial_key(((1, 7),)) < monomial_key(((1, 2),))  # same row: larger column is smaller
    assert not monomial_key(((1, 2),)) < monomial_key(((1, 2),))


def test_monomial_order_prefers_chain_pairings():
    assert monomial_key(((1, 2), (4, 7))) < monomial_key(((1, 7), (4, 2)))
    assert not monomial_key(((1, 7), (4, 2))) < monomial_key(((1, 2), (4, 7)))
    assert not monomial_key(((1, 2),)) < monomial_key(((1, 2),))
    # a variable beats its absence
    assert monomial_key(()) < monomial_key(((1, 2),))


def test_monomial_key_matches_the_exponent_order_exhaustive():
    # every ordered pair of the 220 monomials of degree <= 3 in the nine
    # variables x_ij, 1 <= i, j <= 3; distinct monomials get distinct
    # keys, and a key does not depend on the order the variables come in
    variables = list(itertools.product(range(1, 4), repeat=2))
    monomials = [m for k in range(4) for m in itertools.combinations_with_replacement(variables, k)]
    keys = [monomial_key(m) for m in monomials]
    assert len({tuple(key) for key in keys}) == len(monomials) == 220
    assert all(monomial_key(m[::-1]) == key for m, key in zip(monomials, keys))
    compared = 0
    for m1, k1 in zip(monomials, keys):
        for m2, k2 in zip(monomials, keys):
            assert (k1 < k2) == monomial_less(m1, m2), (m1, m2)
            compared += 1
    assert compared == 48400


def test_chain_monomial():
    assert chain_monomial((1, 4), (2, 7)) == ((1, 7), (4, 2))
    with pytest.raises(ValueError):
        chain_monomial((1,), (2, 7))


def test_two_by_two_minor():
    grid = beta_grid((2, 5, 7), 7)
    f = signed_minor((1, 4, 5), grid)
    assert (f.R, f.S, f.sign) == ((1, 4), (2, 7), 1)
    assert f.expansion == {((1, 2), (4, 7)): -1, ((1, 7), (4, 2)): 1}
    assert initial_term(f) == ((1, 7), (4, 2))


def test_beta_minor_is_constant_one():
    grid = beta_grid((2, 5, 7), 7)
    f = signed_minor((2, 5, 7), grid)
    assert f.expansion == {(): 1}
    assert initial_term(f) == ()


def test_minor_shape_validation():
    grid = beta_grid((2, 5, 7), 7)
    with pytest.raises(ValueError):
        expand_theta_minor((1, 4), grid)


def test_initial_terms_whole_grid():
    # every minor of every fixed point with n <= 6, expanded over the
    # matchings of R with S and, in the oracle, over all permutations
    checked = 0
    for n in range(2, 7):
        for d in range(1, n):
            indices = list(itertools.combinations(range(1, n + 1), d))
            for beta in indices:
                grid = beta_grid(beta, n)
                for theta in indices:
                    R, S = theta_to_rs(theta, beta)
                    expansion = expand_theta_minor(theta, grid)
                    assert expansion == expand_theta_minor_all_permutations(theta, grid)
                    # one monomial per matching of R with S: no two collide
                    assert len(expansion) == math.factorial(len(R))
                    assert set(expansion.values()) <= {1, -1}
                    f = signed_minor(theta, grid)
                    assert f.sign in (1, -1)
                    lead = initial_term(f)
                    assert lead == chain_monomial(R, S)
                    assert f.expansion[lead] == 1
                    checked += 1
    assert checked == 1262


def test_expansion_of_a_nine_by_nine_minor_with_one_row_outside_beta():
    # one matching, so one term, where the oracle tries 9! permutations
    grid = beta_grid(range(1, 10), 18)
    theta = (1, 2, 3, 4, 5, 6, 7, 8, 10)
    expansion = expand_theta_minor(theta, grid)
    assert expansion == expand_theta_minor_all_permutations(theta, grid) == {((10, 9),): 1}
    assert signed_minor(theta, grid).expansion == {((10, 9),): 1}


def test_bitableau_rows_name_minors():
    grid = beta_grid((3, 5, 6), 6)
    Ttil, Wtil = build_bound_multisets((1, 2, 4), (4, 5, 6), grid)
    U = pairs([(2, 6), (4, 5), (4, 5), (1, 5), (1, 3), (4, 3)])
    assert multiset_bounded_by(U, Ttil, Wtil)
    P, Q = brsk(U)
    thetas = [rs_to_theta(p, q, grid.beta) for p, q in zip(P, Q)]
    assert thetas == [(1, 3, 4), (1, 3, 6), (2, 4, 6), (4, 5, 6)]


def test_bounded_multisets_of_degree():
    grid = beta_grid((1, 4), 4)
    Ttil, Wtil = build_bound_multisets((1, 2), (3, 4), grid)
    assert bounded_multisets_of_degree(Ttil, Wtil, grid, 0) == [()]
    ms1 = bounded_multisets_of_degree(Ttil, Wtil, grid, 1)
    assert all(len(U) == 1 for U in ms1)
    assert len(ms1) == 4


def test_standard_monomial_count_degree_one():
    # degree-one standard monomials are the minors theta with
    # alpha <= theta <= gamma differing from beta in exactly one element
    for n, d in ((4, 2), (5, 2)):
        indices = list(itertools.combinations(range(1, n + 1), d))
        for alpha, beta, gamma in triples(n, d):
            grid = beta_grid(beta, n)
            direct = sum(
                1
                for theta in indices
                if index_leq(alpha, theta)
                and index_leq(theta, gamma)
                and len(set(theta) - set(beta)) == 1
            )
            Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
            assert count_standard_monomials(Ttil, Wtil, grid, 1)[1] == direct
            assert count_monomials_outside_initial(Ttil, Wtil, grid, 1)[1] == direct


def test_counts_agree_on_a_full_richardson():
    report = verify_groebner(*richardson((1, 2), (1, 4), (3, 4), 4, 2), 3)
    assert report.per_degree == ((0, 1, 1), (1, 4, 4), (2, 10, 10), (3, 20, 20))
    assert report.counts_equal
    assert report.witness_degree is None
    assert report.brsk_injective


def test_counts_agree_on_the_six_grid():
    bounds = richardson((1, 2, 4), (3, 5, 6), (4, 5, 6), 6, 3)
    for m in range(4):
        assert count_monomials_outside_initial(*bounds, m)[m] == (
            count_standard_monomials(*bounds, m)[m]
        )


def test_dimension_and_degree():
    assert dimension_and_degree((1, 2, 3, 5), (1, 5, 6, 8), (3, 6, 8, 9), 9, 4) == (15, 6)
    assert dimension_and_degree((1, 2), (1, 4), (3, 4), 4, 2) == (4, 1)
    # 4 x 6 = 24 grid points are searched, 5 x 5 = 25 are refused
    low4, low5 = (1, 2, 3, 4), (1, 2, 3, 4, 5)
    assert dimension_and_degree(low4, low4, low4, 10, 4) == (0, 1)
    with pytest.raises(ValueError, match="grid has 25 points, above the cap 24"):
        dimension_and_degree(low5, low5, (6, 7, 8, 9, 10), 10, 5)


def count_by_sieve(alpha, gamma, grid, m):
    """Degree-m monomials on the grid divisible by no forbidden chain
    monomial, by sieving every monomial against every forbidden chain.
    Nonempty chains (rows strictly increasing, columns strictly
    decreasing) are grown point by point in sorted order."""
    Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
    points = sorted(negative_region(grid) | positive_region(grid))
    chains = [()]
    for p in points:
        chains += [C + (p,) for C in chains if not C or (p[0] > C[-1][0] and p[1] < C[-1][1])]
    forbidden = [
        set(C)
        for C in chains[1:]
        if not multiset_order_leq(Ttil, negative_part(C))
        or not multiset_order_leq(positive_part(C), Wtil)
    ]
    monomials = itertools.combinations_with_replacement(points, m)
    return sum(not any(C <= set(mono) for C in forbidden) for mono in monomials)


def test_sieve_matches_bounded_multisets():
    checked = 0
    for n in (3, 4, 5):
        for alpha, beta, gamma in triples(n, 2):
            grid = beta_grid(beta, n)
            Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
            for m in range(5):
                assert count_monomials_outside_initial(Ttil, Wtil, grid, m)[m] == (
                    count_by_sieve(alpha, gamma, grid, m)
                ), (alpha, beta, gamma, m)
            checked += 1
    assert checked == 235


# The mixed-sign per-degree count of standard monomials.  It shares no
# code with the side tables it checks.


def signed_rows(grid):
    """Rows (p, q, sign): equal-size subsets of the rows and the columns
    of the grid, p strictly below q termwise (sign -1) or above (+1)."""
    rows = []
    for k in range(1, min(len(grid.beta), len(grid.complement)) + 1):
        for p in itertools.combinations(grid.complement, k):
            for q in itertools.combinations(grid.beta, k):
                if all(a < b for a, b in zip(p, q)):
                    rows.append((p, q, -1))
                elif all(a > b for a, b in zip(p, q)):
                    rows.append((p, q, 1))
    return rows


def standard_monomials_of_degree(Ttil, Wtil, grid, m):
    """Degree-m bounded semistandard bitableaux, extended row by row
    from the top with a memo of its own for this degree alone."""
    T1, T2 = proj(Ttil, 1), proj(Ttil, 2)
    W1, W2 = proj(Wtil, 1), proj(Wtil, 2)
    rows = signed_rows(grid)
    memo = {}

    def extend(prev, remaining):
        if (prev, remaining) not in memo:
            p0, q0, s0 = prev
            total = int(remaining == 0 and formal_diff_leq(p0, q0, W1, W2))
            for p, q, s in rows:
                if len(p) <= remaining and s >= s0 and formal_diff_leq(p0, q0, p, q):
                    total += extend((p, q, s), remaining - len(p))
            memo[prev, remaining] = total
        return memo[prev, remaining]

    if m == 0:
        return 1
    return sum(
        extend((p, q, s), m - len(p))
        for p, q, s in rows
        if len(p) <= m and formal_diff_leq(T1, T2, p, q)
    )


def test_rows_of_opposite_signs_and_the_bounds_are_ordered_exhaustive():
    """The lemma behind convolving the two sides' standard monomials, on
    every grid with n <= 6: every negative row lies below every positive
    row, every Ttil below every positive row, and every negative row
    below every Wtil, under the order on formal differences."""
    row_pairs = checked = 0
    for n in range(2, 7):
        for d in range(1, n):
            for beta in itertools.combinations(range(1, n + 1), d):
                rows = signed_rows(beta_grid(beta, n))
                for p, q, s in rows:
                    for p2, q2, s2 in rows:
                        if (s, s2) == (-1, 1):
                            assert formal_diff_leq(p, q, p2, q2), (beta, n)
                            row_pairs += 1
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                T1, T2 = proj(Ttil, 1), proj(Ttil, 2)
                W1, W2 = proj(Wtil, 1), proj(Wtil, 2)
                for p, q, s in signed_rows(grid):
                    if s == 1:
                        assert formal_diff_leq(T1, T2, p, q), (alpha, beta, gamma)
                    else:
                        assert formal_diff_leq(p, q, W1, W2), (alpha, beta, gamma)
                checked += 1
    assert (row_pairs, checked) == (1496, 2606)


def test_one_pass_matches_the_filter_and_per_degree_counts_exhaustive():
    """Every triple with n <= 6 and every d, degrees m <= 4 (m <= 3 at
    n = 6): the join of the two side walks of tests/oracles.py lists
    exactly the library filter's multisets in the same order, the
    convolution of the face counts counts them, and the convolution of
    the two side tables gives the mixed per-degree count of standard
    monomials."""
    cases = 0
    for n in range(2, 7):
        m_max = 3 if n == 6 else 4
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                joined = count_monomials_outside_initial(Ttil, Wtil, grid, m_max)
                counts = count_standard_monomials(Ttil, Wtil, grid, m_max)
                assert len(joined) == len(counts) == m_max + 1
                for m in range(m_max + 1):
                    case = (alpha, beta, gamma, m)
                    filtered = bounded_multisets_of_degree(Ttil, Wtil, grid, m)
                    assert bounded_multisets_by_walk(Ttil, Wtil, grid, m) == filtered, case
                    assert joined[m] == len(filtered), case
                    assert counts[m] == standard_monomials_of_degree(Ttil, Wtil, grid, m), case
                    cases += 1
    assert cases == 10958


def test_f_vector_counts_match_the_side_walks_exhaustive():
    """Every triple with n <= 6 and every d, degrees m <= 4: the counts
    from the two sides' faces tallied by size, the f-vectors of
    bounded_faces capped at 4 points, H(m) = sum over k of f_k C(m-1, k-1),
    are the numbers of multisets each side's walk lists, convolved."""
    checked = 0
    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                neg, pos = (
                    [len(ms) for ms in side_walk(T, side, 4)] for T, side in sides(Ttil, Wtil, grid)
                )
                walked = [sum(neg[i] * pos[m - i] for i in range(m + 1)) for m in range(5)]
                counted = count_monomials_outside_initial(Ttil, Wtil, grid, 4)
                assert counted == walked, (alpha, beta, gamma)
                checked += 1
    assert checked == 2606


def test_standard_table_matches_the_row_tuple_oracle_exhaustive():
    """Every side of every triple with n <= 6 and every d at every
    m_max <= 4, and of every (7, 3) triple at m_max = 3: the table on
    profiles has the oracle's rows, under each row's profile the rows
    the oracle lets follow it, and the oracle's counts."""
    cases = [(n, d, range(5)) for n in range(2, 7) for d in range(1, n)] + [(7, 3, [3])]
    checked = 0
    for n, d, m_maxes in cases:
        for alpha, beta, gamma in triples(n, d):
            for T, side in sides(*richardson(alpha, beta, gamma, n, d)):
                for m_max in m_maxes:
                    _assert_table_matches_oracle(T, side, m_max, (alpha, beta, gamma))
                    checked += 1
    assert checked == 34292


def test_standard_table_matches_the_row_tuple_oracle_on_random_larger_triples():
    """Both sides of seeded random triples with 8 <= n <= 12, every d,
    at every m_max <= 3: beyond the exhaustive range, where the rows'
    profiles are longer and the bounds have more points."""
    rng = random.Random(2029)
    checked = 0
    for n in range(8, 13):
        for d in range(2, n - 1):
            for _ in range(3):
                alpha, beta, gamma = _random_triple(rng, n, d)
                for T, side in sides(*richardson(alpha, beta, gamma, n, d)):
                    for m_max in range(4):
                        _assert_table_matches_oracle(T, side, m_max, (alpha, beta, gamma))
                        checked += 1
    assert checked == 840


def _random_triple(rng, n, d):
    """A random Richardson triple of d-subsets of 1..n, drawn without
    listing triples(n, d): a random beta, then random d-subsets until
    one lies below it and one above it, termwise."""
    def draw(keep=lambda index: True):
        while True:
            index = tuple(sorted(rng.sample(range(1, n + 1), d)))
            if keep(index):
                return index

    beta = draw()
    return draw(lambda alpha: termwise_leq(alpha, beta)), beta, draw(lambda gamma: termwise_leq(beta, gamma))


def _assert_table_matches_oracle(T, side, m_max, triple):
    """The table is keyed by the profiles of the oracle's root and of
    each of its rows; under each key it maps the rows the oracle lets
    follow, each to its profile, all shared with the root's map; its
    counts are the oracle's."""
    root, below, counts = groebner._standard_table(T, side, m_max)
    by_rows_root, follow, expected = standard_table_by_rows(T, side, m_max)
    case = (*triple, T, m_max)
    profile = {row: diff_profile(*row, side.n) for row in follow}
    assert root == profile[by_rows_root], case
    assert set(below) == set(profile.values()), case
    for row, nexts in follow.items():
        after = below[profile[row]]
        assert after == {r: profile[r] for r in nexts}, case
        assert all(h is below[root][r] for r, h in after.items()), case
    assert counts == expected, case


def test_verify_by_sides_matches_the_per_multiset_oracle_exhaustive():
    """Every triple with n <= 6 and every d, m_max = 4 (3 at n = 6): the
    join of the two sides gives the report of putting every mixed
    multiset through brsk and the full bound check."""
    checked = 0
    for n in range(2, 7):
        m_max = 3 if n == 6 else 4
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                bounds = richardson(alpha, beta, gamma, n, d)
                report = verify_groebner(*bounds, m_max)
                oracle = verify_groebner_per_multiset(*bounds, m_max)
                assert report == oracle, (alpha, beta, gamma)
                assert report.counts_equal and report.brsk_injective
                checked += 1
    assert checked == 2606


def test_verify_holds_on_a_30_15_triple_through_degree_4():
    """A (30, 15) triple, far past the exhaustive sweeps, at m_max = 4:
    the counts agree in every degree, at the values the all-pairs table
    gave, and brsk is injective into the standard monomials."""
    alpha = (1, 3, 5, 6, 9, 13, 15, 16, 19, 20, 22, 23, 24, 25, 28)
    beta = (3, 4, 5, 7, 9, 13, 15, 16, 19, 20, 22, 23, 25, 26, 28)
    gamma = (3, 4, 5, 8, 10, 15, 16, 17, 19, 20, 22, 23, 25, 26, 30)
    report = verify_groebner(*richardson(alpha, beta, gamma, 30, 15), 4)
    assert report.per_degree == tuple((m, c, c) for m, c in enumerate((1, 15, 119, 665, 2940)))
    assert report.counts_equal and report.brsk_injective


def test_side_images_match_the_walk_and_brsk_negative_exhaustive():
    """Every triple with n <= 6 and every d, m_max = 4: the multisets
    that bounded_images lists for each side are, degree by degree, those
    of that side's walk, each in insertion order and with its
    brsk_negative image."""
    checked = listed = 0
    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                for T, side in sides(*richardson(alpha, beta, gamma, n, d)):
                    by_degree = [[()]] + [[] for _ in range(4)]
                    for U, image in groebner.bounded_images(T, side, 4):
                        assert U == lex_sort(U), (T, side, U)
                        assert image == brsk_negative(U), (T, side, U)
                        by_degree[len(U)].append(tuple(sorted(U)))
                        listed += 1
                    walk = side_walk(T, side, 4)
                    assert [sorted(ms) for ms in by_degree] == [sorted(ms) for ms in walk], (T, side)
                checked += 1
    assert (checked, listed) == (2606, 162386)


def test_verify_tests_each_support_once_exhaustive(monkeypatch):
    """Every triple with n <= 5 and every d, m_max = 4: verify runs one
    face search per side, capped at m_max points, and it yields
    supports alone, sets of distinct points, each once, and exactly the
    bounded supports of at most m_max points."""
    searches = []
    real = groebner.bounded_faces

    def recorded(T, grid, max_size):
        face, supports = [], []
        searches.append(((T, grid, max_size), supports))
        for k, p in real(T, grid, max_size):
            del face[k - 1 :]
            face.append(p)
            supports.append(tuple(face))
            yield k, p

    monkeypatch.setattr(groebner, "bounded_faces", recorded)
    checked = 0
    for n in range(2, 6):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                bounds = richardson(alpha, beta, gamma, n, d)
                searches.clear()
                verify_groebner(*bounds, 4)
                assert [args for args, _ in searches] == [(T, side, 4) for T, side in sides(*bounds)]
                for (T, side, _), mine in searches:
                    points = sorted(negative_region(side))
                    case = (alpha, beta, gamma, T)
                    assert all(len(set(U)) == len(U) for U in mine), case
                    assert len(set(map(frozenset, mine))) == len(mine), case
                    bounded = {
                        frozenset(U)
                        for k in range(1, 5)
                        for U in itertools.combinations(points, k)
                        if multiset_bounded_by(U, T, ())
                    }
                    assert set(map(frozenset, mine)) == bounded, case
                checked += 1
    assert checked == 534


# A triple bounded on both sides: (1, 3) <= (2, 4) <= (3, 5), n = 5.
SIDED = richardson((1, 3), (2, 4), (3, 5), 5, 2)


def walked_on(side, grid):
    """Whether a point is one that verify walks on the given side: the
    negative side walks the grid's negative points, whose first
    coordinate is in the complement of beta, and the positive side the
    swapped positive points, whose first coordinate is in beta."""
    return lambda u: (u[0] in grid.beta) == (side == 1)


def every_support(points, max_size, start=0, size=0):
    """Every nonempty set of at most max_size of the points, as
    bounded_faces yields faces: (size, last point), in preorder."""
    for i in range(start, len(points)):
        yield size + 1, points[i]
        if size + 1 < max_size:
            yield from every_support(points, max_size, i + 1, size + 1)


def breaking_images(monkeypatch, on_side, broken):
    """Make verify's source of (multiset, image) pairs send each
    multiset U whose points are on_side to broken(U, image)."""
    real = groebner.bounded_images

    def images(T, grid, m_max):
        for U, image in real(T, grid, m_max):
            yield U, (broken(U, image) if on_side(U[0]) else image)

    monkeypatch.setattr(groebner, "bounded_images", images)


@pytest.mark.parametrize("side", [-1, 1])
def test_verify_reports_an_unbounded_side(monkeypatch, side):
    """Let the face search of one side accept every support: the
    bitableaux of the unbounded multisets break that side's lower
    bound."""
    grid = SIDED[2]
    assert verify_groebner(*SIDED, 3).brsk_injective
    real, on_side = groebner.bounded_faces, walked_on(side, grid)

    def search(T, grid, max_size):
        points = sorted(negative_region(grid), key=lex_key)
        if points and on_side(points[0]):
            return every_support(points, max_size)
        return real(T, grid, max_size)

    monkeypatch.setattr(groebner, "bounded_faces", search)
    report = verify_groebner(*SIDED, 3)
    assert not report.brsk_injective
    assert not report.counts_equal and report.witness_degree == 1


@pytest.mark.parametrize("side", [-1, 1])
def test_verify_reports_a_collision_on_one_side(monkeypatch, side):
    """Send every multiset of one side to the image of its least point
    repeated: every image is still bounded, but two multisets of degree
    2 share one."""
    breaking_images(
        monkeypatch,
        walked_on(side, SIDED[2]),
        lambda U, image: brsk_negative(sorted(U)[:1] * len(U)),
    )
    report = verify_groebner(*SIDED, 3)
    assert not report.brsk_injective
    assert report.counts_equal


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize(
    "broken",
    [
        lambda P, Q: (P[::-1], Q[::-1]),  # in two different rows, the first not below the next
        lambda P, Q: (P, Q[:-1]),  # halves with different numbers of rows
        lambda P, Q: (P, Q + Q[-1:]),  # one row more in Q: zip(P, Q) reads every row of P
    ],
    ids=["rows_reversed", "last_q_row_dropped", "last_q_row_repeated"],
)
def test_verify_reports_an_image_that_is_not_a_bitableau_chain(monkeypatch, side, broken):
    """Break every image of one side: verify reports a mismatch and
    lets no exception escape."""
    breaking_images(monkeypatch, walked_on(side, SIDED[2]), lambda U, image: broken(*image))
    report = verify_groebner(*SIDED, 3)
    assert not report.brsk_injective
    assert report.counts_equal


# A triple whose bounds let some one-box rows off the grid through:
# (1, 2) <= (2, 4) <= (4, 5), n = 5.
LOOSE = richardson((1, 2), (2, 4), (4, 5), 5, 2)


@pytest.mark.parametrize(
    "side, U, row", [(0, ((1, 4),), ((2,), (4,))), (1, ((2, 5),), ((3,), (5,)))]
)
def test_verify_reports_an_image_off_the_side_grid(monkeypatch, side, U, row):
    """Send one multiset of one side to a one-row bitableau whose entry
    in P is not in the side's complement.  The row is negative and
    above the side's bound, so only the side's table refuses it."""
    T, grid = sides(*LOOSE)[side]
    B = ((row[0],), (row[1],))
    assert row[0][0] not in grid.complement and bitableau_bounded_by(B, T, ())
    assert verify_groebner(*LOOSE, 3).brsk_injective
    breaking_images(monkeypatch, lambda u: True, lambda V, image: B if tuple(sorted(V)) == U else image)
    report = verify_groebner(*LOOSE, 3)
    assert not report.brsk_injective
    assert report.counts_equal


def test_one_pass_on_the_nine_grid():
    grid = beta_grid((1, 5, 6, 8), 9)
    Ttil, Wtil = build_bound_multisets((1, 2, 3, 5), (3, 6, 8, 9), grid)
    filtered = [bounded_multisets_of_degree(Ttil, Wtil, grid, m) for m in range(4)]
    assert [len(ms) for ms in filtered] == [1, 17, 152, 951]
    assert filtered[3] == bounded_multisets_by_walk(Ttil, Wtil, grid, 3)
    assert count_monomials_outside_initial(Ttil, Wtil, grid, 3) == [1, 17, 152, 951]
    assert count_standard_monomials(Ttil, Wtil, grid, 3) == [1, 17, 152, 951]


def test_one_pass_rejects_a_negative_degree():
    grid = beta_grid((1, 4), 4)
    Ttil, Wtil = build_bound_multisets((1, 2), (3, 4), grid)
    with pytest.raises(ValueError):
        bounded_multisets_of_degree(Ttil, Wtil, grid, -1)
    with pytest.raises(ValueError):
        count_monomials_outside_initial(Ttil, Wtil, grid, -1)
    with pytest.raises(ValueError):
        count_standard_monomials(Ttil, Wtil, grid, -1)
    with pytest.raises(ValueError):
        verify_groebner(Ttil, Wtil, grid, -1)


def test_counting_leaves_no_reference_cycles():
    grid = beta_grid((2, 5), 6)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            verify_groebner(*build_bound_multisets((1, 2), (5, 6), grid), grid, 4)
            count_standard_monomials(*build_bound_multisets((1, 2), (5, 6), grid), grid, 4)[4]
        assert gc.collect() == 0
    finally:
        gc.enable()
