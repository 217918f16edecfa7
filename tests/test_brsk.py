"""The bounded insertion correspondence and its inverse."""

import importlib
import itertools
import random
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmult.brsk import (
    brsk,
    brsk_negative,
    brsk_trace,
    lex_sort,
    multiset_bounded_by,
    rbrsk,
)
from grassmult.chains import chain_bounded
from grassmult.cli import main
from grassmult.grassmannian import beta_grid, build_bound_multisets, negative_region, triples
from grassmult.multisets import (
    iota,
    multiset_order_leq,
    negative_part,
    pairs,
    pairs_from_json,
    positive_part,
)
from grassmult.tableaux import (
    BumpingRecord,
    bitableau_bounded_by,
    iota_bitableau,
    row_strict,
    semistandard_below,
    split_parts,
)
from oracles import (
    PreconditionError,
    classify_bitableau,
    is_semistandard_bitableau,
    is_young_semistandard,
    negative_twisted_chains,
    perturbations,
    positive_region,
    termwise_less,
    truncate_below,
    verify_boundedness_preservation,
)

# the package binds the function brsk over the submodule's name
BRSK_MODULE = importlib.import_module("grassmult.brsk")

SEVEN = pairs([(7, 8), (2, 8), (6, 7), (4, 7), (1, 7), (3, 6), (2, 4)])

# (P, Q) after each insertion, in insertion order
SEVEN_SNAPSHOTS = [
    (((7,),), ((8,),)),
    (((2,), (7,)), ((8,), (8,))),
    (((2, 6), (7,)), ((7, 8), (8,))),
    (((2, 4), (6, 7)), ((7, 8), (7, 8))),
    (((1, 4), (2, 7), (6,)), ((7, 8), (7, 8), (7,))),
    (((1, 3), (2, 4, 7), (6,)), ((7, 8), (6, 7, 8), (7,))),
    (((1, 2), (2, 3, 4, 7), (6,)), ((7, 8), (4, 6, 7, 8), (7,))),
]


def test_lex_order():
    assert lex_sort(SEVEN) == ((7, 8), (2, 8), (6, 7), (4, 7), (1, 7), (3, 6), (2, 4))
    with pytest.raises(ValueError):
        lex_sort(((2, 1),))


@pytest.mark.parametrize("bad", [1.5, True, "1"])
@pytest.mark.parametrize("point", [(None, 3), (0, None), (None, 0), (3, None)], ids=["neg-e", "neg-f", "pos-e", "pos-f"])
def test_forward_doors_refuse_entries_that_are_not_integers(point, bad):
    # multisets.check_integers states the rule for every forward door; brsk
    # runs it before its vanishing test, lex_sort for each half
    U = (tuple(bad if c is None else c for c in point),)
    for door in (brsk, brsk_negative, lambda U: list(brsk_trace(U))):
        with pytest.raises(ValueError, match="^pair entries must be integers$"):
            door(U)


def test_forward_doors_read_a_generator_as_its_list():
    # each door reads U once, so a one-shot iterable is not used up by
    # the input checks before the pairs are inserted
    mixed = [(1, 2), (3, 1)]
    assert brsk(p for p in mixed) == brsk(mixed) == (((1,), (3,)), ((2,), (1,)))
    assert brsk_negative(p for p in SEVEN) == brsk_negative(SEVEN) == SEVEN_SNAPSHOTS[-1]
    assert list(brsk_trace(p for p in SEVEN)) == list(brsk_trace(SEVEN))
    assert lex_sort(p for p in SEVEN) == lex_sort(SEVEN)


def test_seven_point_insertion_with_snapshots():
    B = brsk_negative(SEVEN)
    trace = list(brsk_trace(SEVEN))
    assert [(step.P, step.Q) for step in trace] == SEVEN_SNAPSHOTS
    assert tuple(step.pair for step in trace) == lex_sort(SEVEN)
    assert B == SEVEN_SNAPSHOTS[-1]
    assert classify_bitableau(B) == "negative"


def test_seven_point_reverse():
    assert rbrsk(brsk_negative(SEVEN)) == SEVEN


def test_rbrsk_rejects_bad_input():
    with pytest.raises(ValueError):
        rbrsk((((1, 9),), ((2, 5),)))  # a row that is neither negative nor positive
    with pytest.raises(ValueError):
        rbrsk((((1, 2), (2,)), ((3, 4),)))  # shape mismatch


def test_brsk_mixed_golden():
    U = pairs([(2, 6), (4, 5), (4, 5), (1, 5), (1, 3), (4, 3)])
    P, Q = brsk(U)
    assert P == ((1, 4), (1,), (2, 4), (4,))
    assert Q == ((5, 6), (5,), (3, 5), (3,))
    grid = beta_grid((3, 5, 6), 6)
    Ttil, Wtil = build_bound_multisets((1, 2, 4), (4, 5, 6), grid)
    assert multiset_bounded_by(U, Ttil, Wtil)
    assert bitableau_bounded_by((P, Q), Ttil, Wtil)


def test_brsk_rejects_diagonal_points():
    with pytest.raises(ValueError):
        brsk(((2, 2),))


def negative_multisets(bound, degree):
    pts = [(e, f) for e in range(1, bound) for f in range(e + 1, bound + 1)]
    for m in range(degree + 1):
        for combo in itertools.combinations_with_replacement(pts, m):
            yield pairs(combo)


def test_roundtrip_exhaustive_small():
    for U in negative_multisets(4, 3):
        B = brsk_negative(U)
        assert rbrsk(B) == U
        assert brsk_negative(rbrsk(B)) == B


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)),
        max_size=7,
    )
)
def test_roundtrip_random_nonvanishing(raw):
    U = pairs((e, f) for e, f in raw if e != f)
    B = brsk(U)
    assert rbrsk(B) == U


def test_entries_may_be_zero_or_negative(capsys):
    """The entries are any integers: tableau(), --pairs and
    pairs_from_json refuse none below 1, and rbrsk undoes brsk on them
    as on positive ones."""
    U = pairs(((0, 1), (-3, 2), (2, -1), (5, 0)))
    B = brsk(U)
    assert B == (((-3, 0), (2,), (5,)), ((1, 2), (0,), (-1,)))
    assert rbrsk(B) == U
    assert pairs_from_json([[0, 1], [-3, 2]]) == ((-3, 2), (0, 1))
    assert main(["brsk", "--pairs", "0,1 -3,2"]) == 0
    assert capsys.readouterr().out == "P:\n-3 0\nQ:\n1 2\n"


def test_multiset_bounded_by():
    U = ((1, 2),)
    assert multiset_bounded_by(U, ((1, 2),), ())
    assert multiset_bounded_by(U, ((1, 3),), ())
    assert not multiset_bounded_by(U, ((2, 3),), ())
    assert not multiset_bounded_by(U, (), ())
    assert multiset_bounded_by((), (), ())
    with pytest.raises(ValueError):
        multiset_bounded_by(U, ((2, 1),), ())  # lower bound on the wrong side
    with pytest.raises(ValueError):
        multiset_bounded_by(U, (), ((1, 2),))


def test_bounded_by_checks_every_chain():
    # a two-point bound, the twisted chain (2,3) < (1,4): the crossing
    # points of U form no chain, and each alone is bounded by T
    T = ((1, 4), (2, 3))
    good = pairs([(1, 3), (2, 4)])
    assert multiset_bounded_by(good, T, ())
    # the two-point chain {(2,5),(3,4)} inside U needs a two-point lower bound
    bad = pairs([(2, 5), (3, 4)])
    assert not multiset_bounded_by(bad, ((1, 2),), ())


def test_verify_boundedness_preservation():
    grid = beta_grid((1, 5, 6, 8), 9)
    Ttil, Wtil = build_bound_multisets((1, 2, 3, 5), (3, 6, 8, 9), grid)
    U = pairs([(2, 5), (2, 6), (3, 6), (3, 8), (4, 8), (7, 8), (3, 1), (2, 1)])
    assert verify_boundedness_preservation(U, Ttil, Wtil)


def test_verify_requires_bounded_input():
    with pytest.raises(PreconditionError):
        verify_boundedness_preservation(((1, 2),), (), ())


def test_insertion_preserves_bounds_small_sweep():
    rng = random.Random(7)
    bounds = negative_twisted_chains(4)
    multisets = list(negative_multisets(4, 3))
    for T in bounds:
        for U in rng.sample(multisets, 40):
            if multiset_bounded_by(U, T, ()):
                assert verify_boundedness_preservation(U, T, ())


# The per-step oracle for the insertion loop of brsk_negative: every step
# splits P at the bound, Schensted-inserts into the part below it,
# reassembles the rows, and places b at the left of the new box's row of
# Q, rebuilding both tableaux as tuples.  It shares no code with the
# library's insertion kernel.


def bounded_insert_by_parts(P, a, b):
    lower = [[x for x in row if x < b] for row in P]
    upper = [[x for x in row if x >= b] for row in P]
    route = []
    cur, i = a, 0
    while True:
        if i == len(lower):
            lower.append([cur])
            upper.append([])
            new_box = (i + 1, 1)
            break
        j = bisect_left(lower[i], cur)
        if j == len(lower[i]):
            lower[i].append(cur)
            new_box = (i + 1, j + 1)
            break
        route.append((i + 1, j + 1))
        cur, lower[i][j] = lower[i][j], cur
        i += 1
    route.append(new_box)
    rows = tuple(tuple(lo + up) for lo, up in zip(lower, upper))
    return rows, BumpingRecord(tuple(route), new_box)


def place_left(Q, row, b):
    rows = [list(r) for r in Q]
    if row == len(rows) + 1:
        rows.append([b])
    else:
        rows[row - 1].insert(0, b)
    return tuple(map(tuple, rows))


def brsk_negative_by_steps(U):
    """((P, Q), [(pair, record, P, Q) after each step])."""
    P, Q = (), ()
    steps = []
    for a, b in lex_sort(U):
        P, record = bounded_insert_by_parts(P, a, b)
        Q = place_left(Q, record.new_box[0], b)
        steps.append(((a, b), record, P, Q))
    return (P, Q), steps


def brsk_by_steps(U):
    (Pn, Qn), _ = brsk_negative_by_steps(negative_part(U))
    Pp, Qp = iota_bitableau(brsk_negative_by_steps(iota(positive_part(U)))[0])
    return (Pn + Pp, Qn + Qp)


# The per-step oracle for the loop of rbrsk: every step truncates P at
# the bound, checks the truncation is a Young tableau, splits every row at
# the bound, reverse-bumps through the lower parts, reassembles the rows
# and removes b from Q, rebuilding both tableaux as tuples.  It shares no
# code with the library's reverse kernel.


def reverse_insert_by_parts(P, b, new_box):
    if not is_young_semistandard(truncate_below(P, b)):
        raise ValueError("tableau must be semistandard on the bound")
    i, j = new_box
    if not (1 <= i <= len(P)):
        raise ValueError("new box outside the tableau")
    lower = [[x for x in row if x < b] for row in P]
    upper = [[x for x in row if x >= b] for row in P]
    if not lower[i - 1] or j != len(lower[i - 1]):
        raise ValueError("new box must be the rightmost entry below the bound in its row")
    if i < len(lower) and len(lower[i - 1]) - 1 < len(lower[i]):
        raise ValueError("removing the new box breaks the truncated shape")
    cur = lower[i - 1].pop()
    for k in range(i - 2, -1, -1):
        idx = bisect_right(lower[k], cur) - 1
        if idx < 0:
            raise ValueError("no entry available to reverse-bump")
        cur, lower[k][idx] = lower[k][idx], cur
    rows = [lower[k] + upper[k] for k in range(len(P))]
    if rows and not rows[-1] and i == len(P):
        rows.pop()
    return tuple(map(tuple, rows)), cur


def reverse_negative_by_steps(P, Q):
    """The pairs undone from a negative bitableau, last inserted first."""
    emitted = []
    while any(Q):
        b = min(x for row in Q for x in row)
        i = max(idx + 1 for idx, row in enumerate(Q) if b in row)
        j = sum(1 for x in P[i - 1] if x < b)
        P, a = reverse_insert_by_parts(P, b, (i, j))
        rows = [list(r) for r in Q]
        rows[i - 1].remove(b)
        if rows and not rows[-1] and len(rows) > len(P):
            rows.pop()
        Q = tuple(map(tuple, rows))
        emitted.append((a, b))
    return emitted


@contextmanager
def recorded_emissions():
    """The pairs rbrsk emits, in order: each call of the reverse kernel
    takes b and gives back a."""
    emitted = []
    original = BRSK_MODULE.reverse_insert_rows

    def recording(rows, b, i):
        a = original(rows, b, i)
        emitted.append((a, b))
        return a

    BRSK_MODULE.reverse_insert_rows = recording
    try:
        yield emitted
    finally:
        BRSK_MODULE.reverse_insert_rows = original


@contextmanager
def checked_kernel_inputs():
    """The bounds of the reverse kernel's calls that rbrsk makes, in
    order.  Before each call it asserts that the rows are semistandard
    on the bound, the check that the kernel leaves to its callers and
    that split_parts' test implies (brsk._reverse_negative proves it)."""
    calls = []
    original = BRSK_MODULE.reverse_insert_rows

    def checked(rows, b, i):
        assert semistandard_below(rows, b), (rows, b)
        calls.append(b)
        return original(rows, b, i)

    BRSK_MODULE.reverse_insert_rows = checked
    try:
        yield calls
    finally:
        BRSK_MODULE.reverse_insert_rows = original


def check_against_steps(U):
    """The kernel against the per-step oracle, each traced step against
    brsk_negative of the pairs inserted so far, the postconditions that brsk,
    brsk_negative and rbrsk do not re-check, and rbrsk undoing brsk on
    the whole multiset, mixed and positive ones included."""
    B = brsk(U)
    assert B == brsk_by_steps(U)
    assert rbrsk(B) == U
    assert is_semistandard_bitableau(B)
    assert classify_bitableau(B) != "neither"
    for half in (negative_part(U), iota(positive_part(U))):
        P, Q = brsk_negative(half)
        expected, steps = brsk_negative_by_steps(half)
        assert (P, Q) == expected
        trace = []
        order = lex_sort(half)
        for k, step in enumerate(brsk_trace(half), 1):
            assert brsk_negative(order[:k]) == (step.P, step.Q)
            trace.append(tuple(step))
        assert trace == steps
        assert row_strict(Q)
        assert classify_bitableau((P, Q)) == ("negative" if half else "nonvanishing")
        with recorded_emissions() as emitted:
            assert rbrsk((P, Q)) == half
        assert emitted == list(reversed(lex_sort(half))) == reverse_negative_by_steps(P, Q)


def test_kernel_matches_per_step_oracle_exhaustive():
    """Every nonvanishing multiset of degree <= 4 on the 5 x 5 grid."""
    grid = [(e, f) for e in range(1, 6) for f in range(1, 6) if e != f]
    count = 0
    for m in range(5):
        for U in itertools.combinations_with_replacement(grid, m):
            check_against_steps(pairs(U))
            count += 1
    assert count == 10626


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12)),
        min_size=5,
        max_size=24,
    )
)
def test_kernel_matches_per_step_oracle_random(raw):
    check_against_steps(pairs((e, f) for e, f in raw if e != f))


def test_rbrsk_matches_per_step_oracle_on_every_small_negative_bitableau():
    """Every bitableau that split_parts accepts as negative, with entries
    <= 5, at most 3 rows, at most 3 boxes per row and at most 5 boxes:
    rbrsk gives the oracle's pairs or, like the oracle, refuses a
    bitableau that is not an image of brsk.  Every refused one has an
    entry in both P and Q, so it fits on no beta grid (P's entries in
    the complement, Q's in beta); every accepted one whose P and Q
    entries are disjoint is an image."""
    rows = [
        (p, q)
        for m in range(1, 4)
        for p in itertools.combinations(range(1, 6), m)
        for q in itertools.combinations(range(1, 6), m)
        if termwise_less(p, q)
    ]
    count = refused = on_grid = 0
    with checked_kernel_inputs() as calls:
        for r in range(1, 4):
            for chosen in itertools.product(rows, repeat=r):
                if sum(len(p) for p, _ in chosen) > 5:
                    continue
                B = tuple(p for p, _ in chosen), tuple(q for _, q in chosen)
                try:
                    negative, positive = split_parts(B)
                except ValueError:
                    continue
                if positive[0]:
                    continue
                count += 1
                shared = {x for row in B[0] for x in row} & {x for row in B[1] for x in row}
                try:
                    expected = pairs(reverse_negative_by_steps(*B))
                except ValueError:
                    with pytest.raises(ValueError, match="not an image of brsk"):
                        rbrsk(B)
                    assert shared, B
                    refused += 1
                    continue
                assert rbrsk(B) == expected, B
                assert brsk(expected) == B
                on_grid += not shared
    assert (count, refused, on_grid, len(calls)) == (2569, 794, 453, 8850)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12)),
        max_size=20,
    )
)
def test_rbrsk_matches_per_step_oracle_on_perturbed_images(raw):
    """Every perturbation of a brsk image of a mixed multiset of up to 20
    points on the 12 x 12 grid that split_parts accepts: rbrsk gives
    the per-step oracle's multiset, one kernel call per box, or, like
    the oracle, refuses a bitableau that is not an image of brsk.
    Every kernel call gets rows semistandard on its bound."""
    for B in perturbations(brsk(pairs((e, f) for e, f in raw if e != f))):
        try:
            negative, positive = split_parts(B)
        except ValueError:
            continue
        with checked_kernel_inputs() as calls:
            try:
                neg, pos = (reverse_negative_by_steps(*half) for half in (negative, iota_bitableau(positive)))
            except ValueError:
                with pytest.raises(ValueError, match="not an image of brsk"):
                    rbrsk(B)
                continue
            assert rbrsk(B) == pairs(neg + list(iota(pos))), B
        assert len(calls) == sum(map(len, B[0]))


def chains_of(points):
    """All nonempty chains in a set of points: first components strictly
    increasing while second components strictly decrease."""
    pts = sorted(set(points))
    out = []

    def extend(chain, start):
        for k in range(start, len(pts)):
            e, f = pts[k]
            if not chain or (e > chain[-1][0] and f < chain[-1][1]):
                nxt = chain + [(e, f)]
                out.append(tuple(nxt))
                extend(nxt, k + 1)

    extend([], 0)
    return out


@lru_cache(maxsize=None)
def lower_side_by_chains(T, points):
    return all(multiset_order_leq(T, D) for D in chains_of(points))


@lru_cache(maxsize=None)
def upper_side_by_chains(W, points):
    return all(multiset_order_leq(E, W) for E in chains_of(points))


def bounded_by_chains(U, T, W):
    """The definition: T <= D for every chain D of the negative points of
    U and E <= W for every chain E of its positive points."""
    return lower_side_by_chains(T, negative_part(U)) and upper_side_by_chains(
        W, positive_part(U)
    )


@pytest.mark.parametrize(
    "U, T",
    [
        (((1, 3),), ((1, 2), (2, 3))),
        (((1, 4),), ((1, 3), (2, 4))),
    ],
    ids=["shared_coordinate", "crossing"],
)
def test_multiset_bounded_by_refuses_bounds_that_are_not_twisted_chains(U, T):
    """Against a bound T that is not a twisted chain, the chain
    definition can bound U where the depth order does not; so such a
    bound, on either side, is refused."""
    assert bounded_by_chains(U, T, ())
    assert not chain_bounded(U, T, ())
    with pytest.raises(ValueError, match="^bounds must be twisted chains$"):
        multiset_bounded_by(U, T, ())
    with pytest.raises(ValueError, match="^bounds must be twisted chains$"):
        multiset_bounded_by(iota(U), (), iota(T))


def test_multiset_bounded_by_matches_chain_enumeration():
    """Every multiset of degree <= 3 on the grid of every Richardson
    triple with n <= 6.  Boundedness reads only the underlying set, so
    each (bounds, support) case is checked once."""
    cases = set()
    for n in range(2, 7):
        for d in range(1, n):
            for alpha, beta, gamma in triples(n, d):
                grid = beta_grid(beta, n)
                Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
                points = sorted(negative_region(grid) | positive_region(grid))
                for m in range(4):
                    for U in itertools.combinations(points, m):
                        cases.add((U, Ttil, Wtil))
    assert len(cases) == 141521
    hits = 0
    for U, Ttil, Wtil in cases:
        got = multiset_bounded_by(U, Ttil, Wtil)
        assert got == bounded_by_chains(U, Ttil, Wtil), (U, Ttil, Wtil)
        hits += got
    assert 0 < hits < len(cases)
