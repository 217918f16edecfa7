import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmult.brsk import brsk, rbrsk
from grassmult.multisets import nmul, pairs, union
from grassmult.tableaux import (
    BumpingRecord,
    bitableau,
    bitableau_bounded_by,
    bounded_insert,
    insert_rows,
    iota_bitableau,
    render,
    reverse_bounded_insert,
    reverse_insert_rows,
    row_strict,
    semistandard_below,
    split_parts,
    tableau,
    tableau_from_json,
)
from oracles import (
    bidegree,
    classify_bitableau,
    classify_row,
    is_semistandard_bitableau,
    is_young_semistandard,
    perturbations,
    size,
    split_parts_by_rows,
    truncate_below,
)

# a row-strict notched tableau whose row lengths jump around
NOTCHED = tableau(
    [[2, 3, 4, 6], [7, 8], [1, 6, 7, 9], [6, 8, 9], [3, 4, 5, 6, 7], [2, 3, 4, 5, 7, 9]]
)

YOUNG = tableau([[1, 2, 4, 5, 6], [1, 3, 4, 7, 8], [2, 3, 5], [2, 6], [2, 7], [9]])


def test_row_strict_notched_example():
    assert row_strict(NOTCHED)
    assert not is_young_semistandard(NOTCHED)
    assert not row_strict([[1, 1]])


def test_young_semistandard_example():
    assert is_young_semistandard(YOUNG)
    # column condition: weakly increasing downward
    assert not is_young_semistandard([[2], [1]])
    assert is_young_semistandard([[1], [1]])
    # an empty row above a nonempty one disqualifies
    assert not is_young_semistandard([[], [1]])
    assert is_young_semistandard([[1], []])
    assert is_young_semistandard(())


def test_truncation():
    P = tableau([[1, 2, 4, 6], [2, 3, 6], [2, 4, 5, 7, 8], [3], [4, 5]])
    assert truncate_below(P, 5) == tableau([[1, 2, 4], [2, 3], [2, 4], [3], [4]])
    assert truncate_below(P, 6) == tableau([[1, 2, 4], [2, 3], [2, 4, 5], [3], [4, 5]])
    assert semistandard_below(P, 5)
    assert not semistandard_below(P, 6)
    with pytest.raises(ValueError):
        truncate_below([[1, 1]], 5)


# Schensted row insertion is bounded insertion with a bound above every entry.


def test_schensted_insert_bumps_along_rows():
    R = tableau([[1, 2, 4], [1, 5], [3], [4]])
    out, record = bounded_insert(R, 3, 6)
    assert out == tableau([[1, 2, 3], [1, 4], [3, 5], [4]])
    assert record.route == ((1, 3), (2, 2), (3, 2))
    assert record.new_box == (3, 2)


def test_schensted_insert_requires_young():
    with pytest.raises(ValueError):
        bounded_insert(NOTCHED, 1, 10)


def test_bounded_insert_golden():
    P = tableau([[1, 2, 4, 7], [1, 5, 8], [3, 6, 7, 8, 9], [4, 6]])
    assert truncate_below(P, 6) == tableau([[1, 2, 4], [1, 5], [3], [4]])
    out, record = bounded_insert(P, 3, 6)
    assert out == tableau([[1, 2, 3, 7], [1, 4, 8], [3, 5, 6, 7, 8, 9], [4, 6]])
    assert record == BumpingRecord(route=((1, 3), (2, 2), (3, 2)), new_box=(3, 2))
    back, a = reverse_bounded_insert(out, 6, record.new_box)
    assert (back, a) == (P, 3)


def test_insert_rows_bumps_in_place_below_the_bound():
    rows = [[1, 2, 4, 7], [1, 5, 8], [3, 6, 7, 8, 9], [4, 6]]
    first = rows[0]
    record = insert_rows(rows, 3, 6)
    assert rows == [[1, 2, 3, 7], [1, 4, 8], [3, 5, 6, 7, 8, 9], [4, 6]]
    assert rows[0] is first
    assert record == BumpingRecord(route=((1, 3), (2, 2), (3, 2)), new_box=(3, 2))
    # with a bound above every entry all of them take part, and a value
    # bumped out of the last row starts a new one
    rows = [[2, 9], [3]]
    assert insert_rows(rows, 1, 10) == BumpingRecord(route=((1, 1), (2, 1), (3, 1)), new_box=(3, 1))
    assert rows == [[1, 9], [2], [3]]


def small_row_strict_tableaux():
    """Every row-strict tableau of at most 3 rows with entries <= 5."""
    rows = [row for m in range(6) for row in itertools.combinations(range(1, 6), m)]
    return (P for r in range(4) for P in itertools.product(rows, repeat=r))


def test_semistandard_on_matches_truncation_oracle():
    """The one-pass check against truncating first, on every row-strict
    tableau of at most 3 rows with entries <= 5, at every bound."""
    count = 0
    for P in small_row_strict_tableaux():
        for b in range(1, 7):
            assert semistandard_below(P, b) == is_young_semistandard(truncate_below(P, b)), (P, b)
            count += 1
    assert count == 6 * (1 + 32 + 32**2 + 32**3)
    # semistandard_below reads row-strict rows; bounded_insert checks that first
    with pytest.raises(ValueError, match="^tableau must be row strict$"):
        bounded_insert(((2, 1),), 1, 5)


def test_reverse_insert_rows_bumps_in_place_below_the_bound():
    rows = [[1, 2, 3, 7], [1, 4, 8], [3, 5, 6, 7, 8, 9], [4, 6]]
    first = rows[0]
    assert reverse_insert_rows(rows, 6, 3) == 3
    assert rows == [[1, 2, 4, 7], [1, 5, 8], [3, 6, 7, 8, 9], [4, 6]]
    assert rows[0] is first
    # with a bound above every entry all of them take part, and an
    # emptied row stays in the list
    rows = [[1, 9], [2], [3]]
    assert reverse_insert_rows(rows, 10, 3) == 1
    assert rows == [[2, 9], [3], []]


@pytest.mark.parametrize(
    "rows, b, i",
    [
        ([[1, 2], [6]], 5, 2),  # no entry below the bound in the row
        ([[1, 2], [1, 3]], 5, 1),  # the row below is as long below the bound
    ],
)
def test_reverse_insert_rows_refuses_before_changing_a_row(rows, b, i):
    before = [list(row) for row in rows]
    with pytest.raises(ValueError):
        reverse_insert_rows(rows, b, i)
    assert rows == before


def reverse_outcome(rows, b, i):
    try:
        return reverse_insert_rows(rows, b, i)
    except ValueError as error:
        return str(error)


def test_reverse_insert_rows_reads_an_empty_row_below_as_a_missing_one():
    """brsk._reverse_negative trims no row: on every tableau of the small
    sweep, at every bound it is semistandard on and from every row, a
    trailing empty row changes neither the value bumped out, nor the
    refusal, nor the rows above it."""
    count = refused = 0
    for P in small_row_strict_tableaux():
        for b in range(1, 7):
            if not semistandard_below(P, b):
                continue
            for i in range(1, len(P) + 1):
                rows = [list(row) for row in P]
                padded = [list(row) for row in P] + [[]]
                outcome = reverse_outcome(rows, b, i)
                assert reverse_outcome(padded, b, i) == outcome, (P, b, i)
                assert padded == rows + [[]], (P, b, i)
                count += 1
                refused += isinstance(outcome, str)
    assert (count, refused) == (236588, 175689)


def test_bounded_insert_preconditions():
    P = tableau([[1, 2, 4, 7], [1, 5, 8], [3, 6, 7, 8, 9], [4, 6]])
    with pytest.raises(ValueError):
        bounded_insert(P, 7, 6)  # value not below the bound
    bad = tableau([[1, 2, 4, 6], [2, 3, 6], [2, 4, 5, 7, 8], [3], [4, 5]])
    with pytest.raises(ValueError):
        bounded_insert(bad, 1, 6)  # truncation at 6 is not a Young tableau


@pytest.mark.parametrize(
    "wrapper, args",
    [
        (bounded_insert, ([["a"]], 1, 5)),  # a bad entry in P
        (bounded_insert, ([[1, 3]], "2", 5)),  # a bad inserted value
        (reverse_bounded_insert, ([[1.5]], 5, (1, 1))),
        (reverse_bounded_insert, ([[True]], 5, (1, 1))),
    ],
)
def test_one_step_wrappers_refuse_entries_that_are_not_integers(wrapper, args):
    before = json.dumps(args)
    with pytest.raises(ValueError, match="^tableau entries must be integers$"):
        wrapper(*args)
    assert json.dumps(args) == before


def test_reverse_bounded_insert_refuses_rows_not_semistandard_on_the_bound():
    # 2 above 1: the kernel leaves this check to its callers, and
    # reverse_bounded_insert makes it before it copies a row
    rows = [[2, 3], [1]]
    with pytest.raises(ValueError, match="tableau must be semistandard on the bound"):
        reverse_bounded_insert(rows, 5, (2, 1))
    assert rows == [[2, 3], [1]]
    with pytest.raises(ValueError, match="tableau must be row strict"):
        reverse_bounded_insert([[3, 2]], 5, (1, 0))


def test_reverse_bounded_insert_rejects_wrong_box():
    out = tableau([[1, 2, 3, 7], [1, 4, 8], [3, 5, 6, 7, 8, 9], [4, 6]])
    with pytest.raises(ValueError):
        reverse_bounded_insert(out, 6, (1, 2))  # not rightmost below the bound
    with pytest.raises(ValueError):
        reverse_bounded_insert(out, 6, (9, 1))


def test_reverse_drops_row_created_by_insert():
    P = tableau([[2], [3]])
    out, record = bounded_insert(P, 1, 9)
    assert out == tableau([[1], [2], [3]]) and record.new_box == (3, 1)
    assert reverse_bounded_insert(out, 9, (3, 1)) == (P, 1)


def entries(P):
    return nmul(x for row in P for x in row)


@st.composite
def insertion_runs(draw):
    b = draw(st.integers(min_value=3, max_value=9))
    values = draw(st.lists(st.integers(min_value=1, max_value=b - 1), min_size=1, max_size=8))
    return b, values


@given(insertion_runs())
def test_bounded_insert_reverse_roundtrip(run):
    b, values = run
    P = ()
    for a in values:
        nxt, record = bounded_insert(P, a, b)
        assert row_strict(nxt) and semistandard_below(nxt, b)
        assert entries(nxt) == union(entries(P), (a,))
        assert reverse_bounded_insert(nxt, b, record.new_box) == (P, a)
        P = nxt


@st.composite
def notched_runs(draw):
    """Rows semistandard on a bound b, with entries >= b after the
    prefix of each row, and a value a < b to insert."""
    b = draw(st.integers(min_value=2, max_value=9))
    rows = []
    for a in draw(st.lists(st.integers(min_value=1, max_value=b - 1), max_size=8)):
        insert_rows(rows, a, b)
    rows += [[] for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    for row in rows:
        row += sorted(draw(st.sets(st.integers(min_value=b, max_value=12), max_size=3)))
    return rows, draw(st.integers(min_value=1, max_value=b - 1)), b


@given(notched_runs())
def test_reverse_insert_rows_undoes_insert_rows(run):
    rows, a, b = run
    before = [list(row) for row in rows]
    record = insert_rows(rows, a, b)
    i = record.new_box[0]
    assert reverse_insert_rows(rows, b, i) == a
    if i > len(before):
        assert rows.pop() == []
    assert rows == before


EIGHT_P = tableau(
    [[1, 3], [2, 3, 5, 7], [2], [3, 4, 6], [4, 5], [6], [4, 6, 7], [7, 9]]
)
EIGHT_Q = tableau(
    [[5, 9], [4, 5, 7, 9], [8], [4, 6, 7], [5, 7], [5], [3, 5, 6], [2, 7]]
)


def test_eight_row_bitableau_classification():
    B = bitableau(EIGHT_P, EIGHT_Q)
    assert bidegree(B) == size(EIGHT_P) == 18
    assert is_semistandard_bitableau(B)
    assert classify_bitableau(B) == "nonvanishing"
    labels = [classify_row(p, q) for p, q in zip(*B)]
    assert labels == [-1] * 5 + [1] * 3


def test_split_parts():
    B = bitableau(EIGHT_P, EIGHT_Q)
    neg, pos = split_parts(B)
    assert neg == (EIGHT_P[:5], EIGHT_Q[:5])
    assert pos == (EIGHT_P[5:], EIGHT_Q[5:])
    assert classify_bitableau(neg) == "negative"
    assert classify_bitableau(pos) == "positive"
    with pytest.raises(ValueError):
        split_parts((((1, 9),), ((2, 5),)))  # a row that is neither


def split_outcome(split, B):
    """What split does with B: its parts, or the message of its ValueError."""
    try:
        return split(B)
    except ValueError as err:
        return str(err)


def test_split_parts_matches_the_row_by_row_oracle_exhaustive():
    """Every bitableau with entries in 1..4 and at most 2 boxes a row:
    of at most 2 rows whose rows are any tuples of one length, in any
    order and with repeats, and of 3 strictly increasing rows.  The one
    pass gives the oracle's parts or its message.  Where every row is
    strict and has a sign and a positive row sits directly above a
    negative one, the semistandard check alone refuses: that is why
    split_parts needs no test that the negative rows come first."""
    rows = [
        (p, q)
        for k in range(3)
        for p in itertools.product(range(1, 5), repeat=k)
        for q in itertools.product(range(1, 5), repeat=k)
    ]
    strict = [(p, q) for p, q in rows if row_strict((p, q))]
    label = {row: classify_row(*row) if row in strict else 0 for row in rows}
    chosen_rows = itertools.chain(
        *(itertools.product(rows, repeat=r) for r in range(3)), itertools.product(strict, repeat=3)
    )
    count = accepted = flipped = 0
    for chosen in chosen_rows:
        B = tuple(p for p, _ in chosen), tuple(q for _, q in chosen)
        outcome = split_outcome(split_parts, B)
        assert outcome == split_outcome(split_parts_by_rows, B), B
        count += 1
        accepted += not isinstance(outcome, str)
        labels = [label[row] for row in chosen]
        if 0 not in labels and (1, -1) in zip(labels, labels[1:]):
            assert outcome == "expected a nonvanishing semistandard bitableau", B
            flipped += 1
    assert (count, accepted, flipped) == (223680, 2471, 7056)


mixed_points = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12)),
    max_size=20,
)


@settings(max_examples=400, deadline=None)
@given(mixed_points)
def test_split_parts_matches_the_row_by_row_oracle_on_perturbed_images(raw):
    """Every perturbation of a brsk image of a mixed multiset of up to 20
    points on the 12 x 12 grid: the one pass agrees with the oracle."""
    for B in perturbations(brsk(pairs((e, f) for e, f in raw if e != f))):
        assert split_outcome(split_parts, B) == split_outcome(split_parts_by_rows, B), B


def test_classify_edge_cases():
    assert classify_bitableau(((), ())) == "nonvanishing"
    assert classify_row((1, 9), (2, 5)) == 0
    with pytest.raises(ValueError):
        bitableau([[1, 2]], [[1]])


def test_iota_bitableau():
    B = bitableau(EIGHT_P, EIGHT_Q)
    flipped = iota_bitableau(B)
    assert flipped == (tuple(reversed(EIGHT_Q)), tuple(reversed(EIGHT_P)))
    assert iota_bitableau(flipped) == B
    assert classify_bitableau(flipped) == "nonvanishing"
    neg, pos = split_parts(B)
    assert classify_bitableau(iota_bitableau(neg)) == "positive"


def test_bitableau_bounded_by():
    B = (((1,),), ((2,),))
    assert bitableau_bounded_by(B, ((1, 2),), ())
    # (2,3) is not below (1,2) in the multiset order
    assert not bitableau_bounded_by(B, ((2, 3),), ())
    assert not bitableau_bounded_by(B, (), ())  # empty lower bound, negative row
    assert bitableau_bounded_by(((), ()), (), ())
    pos = (((2,),), ((1,),))
    assert not bitableau_bounded_by(pos, (), ())  # empty upper bound, positive row
    assert bitableau_bounded_by(pos, (), ((2, 1),))
    with pytest.raises(ValueError):
        bitableau_bounded_by(B, ((2, 1),), ())  # lower bound must be negative
    with pytest.raises(ValueError):
        bitableau_bounded_by(B, (), ((1, 2),))  # upper bound must be positive


def test_rows_bounded_by_is_the_kernel_on_projections():
    # bitableau_bounded_by reads its bounds only through the projections
    # (T(1), T(2)) and (W(1), W(2)), against the first and last rows
    rows = [r for k in (1, 2) for r in itertools.combinations(range(1, 6), k)]
    bitableaux = [((p,), (q,)) for p in rows for q in rows if len(p) == len(q)]
    lowers = (((1, 3), (2, 4)), ((1, 4), (2, 3)))  # both project to (1, 2), (3, 4)
    uppers = (((3, 1), (4, 2)), ((4, 1), (3, 2)))  # both project to (3, 4), (1, 2)
    seen = set()
    for B in bitableaux:
        answers = {bitableau_bounded_by(B, T, W) for T in lowers for W in uppers}
        assert len(answers) == 1, B
        seen |= answers
    assert seen == {True, False}
    with pytest.raises(ValueError):
        bitableau_bounded_by((((1,), (1,)), ((2,), (3,))), ((1, 2),), ())  # not semistandard


def test_render_and_json():
    P = tableau([[1, 2], [3]])
    assert render(P) == "1 2\n3"
    assert tableau_from_json(json.loads(json.dumps(NOTCHED))) == NOTCHED


@pytest.mark.parametrize(
    "data", [[[1.5, 2]], [["1", "2"]], [[True, 2]], {"12": 0}, {"": 0}, [3]]
)
def test_tableau_json_refuses_entries_that_are_not_integers(data):
    with pytest.raises(ValueError):
        tableau_from_json(data)


@pytest.mark.parametrize("entry", [1.5, 3.0, "1", True, False, None])
def test_tableau_refuses_entries_that_are_not_integers(entry):
    # no coercion: 1.5 is not truncated, "1" not parsed, True not 1
    with pytest.raises(ValueError, match="tableau entries must be integers"):
        tableau([[entry, 5]])
    with pytest.raises(ValueError, match="tableau entries must be integers"):
        is_semistandard_bitableau((((entry,),), ((3,),)))
    with pytest.raises(ValueError, match="tableau entries must be integers"):
        rbrsk((((entry,),), ((3,),)))
    assert rbrsk((((1,),), ((3,),))) == ((1, 3),)
