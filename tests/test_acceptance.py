"""Acceptance suite: one test per shipped guarantee, timed where promised.

Each test prints a single summary line on success; a failure shows up as
the corresponding FAILED line in a verbose run.  Frozen counts (numbers
of cases swept) guard against the domains silently shrinking.
"""

import random
import time
from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement

from grassmult.brsk import brsk, brsk_negative, brsk_trace, multiset_bounded_by, rbrsk
from grassmult.chains import chain_order_leq
from grassmult.grassmannian import beta_grid, length, richardson, triples
from grassmult.groebner import (
    chain_monomial,
    dimension_and_degree,
    initial_term,
    signed_minor,
    verify_groebner,
)
from grassmult.multiplicity import multiplicity
from grassmult.multisets import iota, multiset_order_leq, pairs
from grassmult.tableaux import (
    BumpingRecord,
    bounded_insert,
    reverse_bounded_insert,
    tableau,
)
from oracles import (
    chain_order_leq_diagonal,
    negative_twisted_chains,
    rs_to_theta,
    verify_boundedness_preservation,
)


SEVEN = pairs([(7, 8), (2, 8), (6, 7), (4, 7), (1, 7), (3, 6), (2, 4)])
SEVEN_SNAPSHOTS = [
    (((7,),), ((8,),)),
    (((2,), (7,)), ((8,), (8,))),
    (((2, 6), (7,)), ((7, 8), (8,))),
    (((2, 4), (6, 7)), ((7, 8), (7, 8))),
    (((1, 4), (2, 7), (6,)), ((7, 8), (7, 8), (7,))),
    (((1, 3), (2, 4, 7), (6,)), ((7, 8), (6, 7, 8), (7,))),
    (((1, 2), (2, 3, 4, 7), (6,)), ((7, 8), (4, 6, 7, 8), (7,))),
]


def test_criterion_01_seven_pair_golden_run():
    B = brsk_negative(SEVEN)
    trace = list(brsk_trace(SEVEN))
    assert B == (((1, 2), (2, 3, 4, 7), (6,)), ((7, 8), (4, 6, 7, 8), (7,)))
    assert [(step.P, step.Q) for step in trace] == SEVEN_SNAPSHOTS
    best = min(_timed(lambda: list(brsk_trace(SEVEN))) for _ in range(5))
    assert best < 1e-3
    print("criterion 01 PASS: golden run with all 7 snapshots, %.0f us" % (best * 1e6))


def _timed(thunk):
    t0 = time.perf_counter()
    thunk()
    return time.perf_counter() - t0


def test_criterion_02_bounded_insertion_golden():
    P = tableau([[1, 2, 4, 7], [1, 5, 8], [3, 6, 7, 8, 9], [4, 6]])
    out, record = bounded_insert(P, 3, 6)
    assert out == tableau([[1, 2, 3, 7], [1, 4, 8], [3, 5, 6, 7, 8, 9], [4, 6]])
    assert record == BumpingRecord(route=((1, 3), (2, 2), (3, 2)), new_box=(3, 2))
    assert reverse_bounded_insert(out, 6, record.new_box) == (P, 3)
    print("criterion 02 PASS: bounded insertion golden with bumping route")


def test_criterion_03_multiplicity_product_law():
    t0 = time.perf_counter()
    alpha, beta, gamma, n, d = (1, 2, 3, 5), (1, 5, 6, 8), (3, 6, 8, 9), 9, 4
    full = multiplicity(alpha, beta, gamma, n, d)
    # Relaxing alpha to the identity leaves the plain Schubert variety of
    # gamma; relaxing gamma to the top leaves the opposite one of alpha.
    schubert = multiplicity((1, 2, 3, 4), beta, gamma, n, d)
    opposite = multiplicity(alpha, beta, (6, 7, 8, 9), n, d)
    elapsed = time.perf_counter() - t0
    assert (full, schubert, opposite) == (6, 2, 3)
    assert full == schubert * opposite
    assert elapsed < 1.0
    print("criterion 03 PASS: multiplicity 6 = 2 * 3 in %.3fs" % elapsed)


def test_criterion_04_bijection_roundtrips():
    t0 = time.perf_counter()
    # Exhaustive: every negative multiset with entries <= 6, degree <= 5.
    pts = [(e, f) for e in range(1, 6) for f in range(e + 1, 7)]
    seen = set()
    count = 0
    for m in range(6):
        for U in combinations_with_replacement(pts, m):
            U = pairs(U)
            B = brsk_negative(U)
            assert rbrsk(B) == U
            seen.add(B)
            count += 1
    # Injectivity makes the composite on the bitableau side an identity
    # over the image as well.
    assert count == len(seen) == 15504

    # Random: seeded nonvanishing multisets on the 5x5 grid off the
    # diagonal, mixed signs, through the split-and-reassemble inverse.
    rng = random.Random(104)
    grid = [(e, f) for e in range(1, 6) for f in range(1, 6) if e != f]
    for _ in range(10**4):
        U = pairs(rng.choices(grid, k=rng.randint(1, 8)))
        B = brsk(U)
        assert rbrsk(B) == U
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("criterion 04 PASS: 15504 exhaustive + 10000 random roundtrips in %.1fs" % elapsed)


def test_criterion_05_boundedness_preservation():
    t0 = time.perf_counter()
    neg_bounds = [set(T) for T in negative_twisted_chains(4)]
    pos_bounds = [{(f, e) for e, f in T} for T in neg_bounds]
    assert len(neg_bounds) == len(pos_bounds) == 9
    grid = [(e, f) for e in range(1, 5) for f in range(1, 5) if e != f]
    multis = [
        pairs(U) for m in range(5) for U in combinations_with_replacement(grid, m)
    ]
    assert len(multis) == 1820
    bounded_cases = 0
    for U in multis:
        for T in neg_bounds:
            for W in pos_bounds:
                if multiset_bounded_by(U, T, W):
                    assert verify_boundedness_preservation(U, T, W)
                    bounded_cases += 1
    assert bounded_cases == 21635
    print(
        "criterion 05 PASS: %d bounded cases preserved in %.1fs"
        % (bounded_cases, time.perf_counter() - t0)
    )


def test_criterion_06_order_equivalences():
    t0 = time.perf_counter()
    chains = negative_twisted_chains(8)
    assert len(chains) == 323
    total = same_degree = 0
    for R in chains:
        for S in chains:
            a = chain_order_leq(set(R), set(S))
            assert a == chain_order_leq_diagonal(set(R), set(S))
            assert a == chain_order_leq(set(iota(S)), set(iota(R)))
            if len(R) == len(S):
                # The multiset order compares formal differences and is
                # only defined degree by degree.
                assert a == multiset_order_leq(R, S)
                same_degree += 1
            total += 1
    assert total == 323**2 and same_degree == 40181
    print(
        "criterion 06 PASS: %d pairs (%d same-degree) agree in %.1fs"
        % (total, same_degree, time.perf_counter() - t0)
    )


def test_criterion_07_degreewise_monomial_counts():
    t0 = time.perf_counter()
    checked = 0
    for n in (3, 4, 5):
        for alpha, beta, gamma in triples(n, 2):
            report = verify_groebner(*richardson(alpha, beta, gamma, n, 2), 4)
            assert report.counts_equal, (alpha, beta, gamma)
            assert report.brsk_injective, (alpha, beta, gamma)
            assert report.witness_degree is None
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 235
    assert elapsed < 300.0
    print("criterion 07 PASS: %d triples, degrees <= 4, in %.1fs" % (checked, elapsed))


def test_criterion_08_path_families_match_subset_oracle():
    t0 = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        for n in range(d + 1, 8):
            for alpha, beta, gamma in triples(n, d):
                max_degree, count = dimension_and_degree(alpha, beta, gamma, n, d)
                assert max_degree == length(gamma) - length(alpha)
                assert count == multiplicity(alpha, beta, gamma, n, d)
                checked += 1
    assert checked == 7401
    print(
        "criterion 08 PASS: %d triples, paths == maximal subsets, in %.0fs"
        % (checked, time.perf_counter() - t0)
    )


def test_criterion_09_initial_terms_are_chain_monomials():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for d in range(1, n):
            for beta in combinations(range(1, n + 1), d):
                grid = beta_grid(beta, n)
                for k in range(1, min(3, d, n - d) + 1):
                    for R in combinations(grid.complement, k):
                        for S in combinations(beta, k):
                            f = signed_minor(rs_to_theta(R, S, beta), grid)
                            assert initial_term(f) == chain_monomial(R, S)
                            checked += 1
    assert checked == 4452
    # The two-by-two witness: R = {1, 4}, S = {2, 7} leads with x17 x42.
    f = signed_minor(rs_to_theta((1, 4), (2, 7), (2, 5, 7)), beta_grid((2, 5, 7), 7))
    assert initial_term(f) == pairs([(1, 7), (4, 2)])
    print(
        "criterion 09 PASS: %d minors lead with their chain monomial, %.1fs"
        % (checked, time.perf_counter() - t0)
    )


def ordinary_rsk(U):
    """Sign-oblivious insertion: pairs in lex order (second coordinate
    descending, then first descending), plain Schensted row insertion of
    the first coordinate, the second recorded at the left end of the new
    box's row.  Kept independent of the library's insertion code."""
    P, Q = [], []
    for e, f in sorted(U, key=lambda p: (-p[1], -p[0])):
        cur, i = e, 0
        while True:
            if i == len(P):
                P.append([cur])
                Q.append([f])
                break
            row = P[i]
            j = bisect_left(row, cur)
            if j == len(row):
                row.append(cur)
                Q[i].insert(0, f)
                break
            cur, row[j] = row[j], cur
            i += 1
    return tuple(tuple(r) for r in P), tuple(tuple(r) for r in Q)


def textbook_insertion_columns(U):
    """Column shape of the classical weak-row insertion of the biword
    sorted by (f, e); cross-checks the P side through transposition."""
    P = []
    for f, e in sorted((f, e) for e, f in U):
        cur, i = e, 0
        while True:
            if i == len(P):
                P.append([cur])
                break
            j = bisect_right(P[i], cur)
            if j == len(P[i]):
                P[i].append(cur)
                break
            cur, P[i][j] = P[i][j], cur
            i += 1
    width = max((len(r) for r in P), default=0)
    return tuple(tuple(r[i] for r in P if len(r) > i) for i in range(width))


def test_criterion_10_extreme_column_sets_reduce_to_ordinary_rsk():
    t0 = time.perf_counter()
    rng = random.Random(110)
    checked = 0
    for d in (1, 2, 3):
        for n in range(d + 1, 7):
            low = tuple(range(1, d + 1))
            high = tuple(range(n - d + 1, n + 1))
            neg_grid = sorted(beta_grid(high, n).complement)
            neg_pts = [(e, f) for e in neg_grid for f in high]
            pos_pts = [(e, f) for f in low for e in range(d + 1, n + 1)]
            cases = lambda pts: [
                pairs(U) for m in (1, 2, 3) for U in combinations_with_replacement(pts, m)
            ] + [pairs(rng.choices(pts, k=rng.randint(1, 7))) for _ in range(100)]
            for U in cases(neg_pts):
                # Negative extreme: the bound never truncates, so the
                # bounded correspondence is ordinary insertion on the nose.
                assert brsk(U) == ordinary_rsk(U)
                assert brsk(U)[0] == textbook_insertion_columns(U)
                checked += 1
            for U in cases(pos_pts):
                # Positive extreme: same algorithm after the coordinate
                # swap, presented with the positive row convention
                # (tableaux swapped, rows listed in reverse).
                Pn, Qn = ordinary_rsk(tuple((f, e) for e, f in U))
                assert brsk(U) == (tuple(reversed(Qn)), tuple(reversed(Pn)))
                checked += 1
    print(
        "criterion 10 PASS: %d multisets on extreme grids, %.1fs"
        % (checked, time.perf_counter() - t0)
    )
