"""The bounded RSK correspondence between nonvanishing multisets on N^2
and nonvanishing semistandard notched bitableaux, with its inverse and
the boundedness test for multisets.  The checker of the boundedness
lemma along an insertion is a test oracle in tests/oracles.py.
"""

from collections import namedtuple

from .chains import chain_bounded, completely_disjointed
from .multisets import check_bounds, check_integers, is_nonvanishing, pairs, sign
from .tableaux import insert_rows, reverse_insert_rows, split_parts

BrskStep = namedtuple("BrskStep", ["pair", "record", "P", "Q"])
BrskStep.__doc__ = "One insertion: the pair fed in, its BumpingRecord, and the snapshot after."


def lex_key(p):
    """Sort key of brsk's insertion order: second components weakly
    decreasing, ties broken by weakly decreasing first components.
    multiplicity.bounded_faces lists a side's points in this order too."""
    return (-p[1], -p[0])


def lex_sort(U):
    """Pairs of a negative multiset in lex_key order, by a stable sort.
    Forward insertion's one input check: it refuses a coordinate that is
    not an int (multisets.check_integers), then a point with e >= f.
    U is read once, so a one-shot iterable is sorted whole."""
    U = tuple(U)
    check_integers(U)
    if any(sign(u) >= 0 for u in U):
        raise ValueError("expected a negative multiset")
    return tuple(sorted(U, key=lex_key))


def _frozen(rows):
    return tuple(map(tuple, rows))


def brsk_negative(U):
    """Insert a negative multiset pair by pair: returns (P, Q).

    lex_sort validates U once; insert_pair then runs each step on
    mutable rows of P and Q, which are frozen once at the end.  The lex
    order keeps P semistandard on each next bound, so no step
    re-validates.  That Q is row-strict and (P, Q) negative or empty are
    proved, so the result is not re-checked either.  tests/test_brsk.py
    asserts both, and checks this loop against the per-step oracle:
    bounded insertion by splitting P at the bound, then a left placement
    in Q, rebuilding both tableaux at every step.
    """
    P, Q = [], []
    for a, b in lex_sort(U):
        insert_pair(P, Q, a, b)
    return _frozen(P), _frozen(Q)


def brsk_trace(U):
    """The steps of brsk_negative(U), one BrskStep per pair.

    lex_sort checks U once.  Like brsk_negative, it runs the kernel
    tableaux.insert_rows on its own mutable rows, here with the bumping
    record, places b in Q as insert_pair does, and yields frozen
    snapshots.  brsk --trace and demos/insertion_walkthrough.py read it;
    tests/test_brsk.py runs insert_pair beside it and compares the
    tableaux after every pair.
    """
    P, Q = [], []
    for a, b in lex_sort(U):
        record = insert_rows(P, a, b)
        _place_left(Q, record.new_box[0], b)
        yield BrskStep((a, b), record, _frozen(P), _frozen(Q))


def insert_pair(P, Q, a: int, b: int):
    """One step of brsk_negative on the mutable rows P and Q, in place:
    bounded-insert a into P below b (tableaux.insert_rows), then place
    b in Q (_place_left).  Asks the kernel for the row of the new box
    alone, not a bumping record.  Checks nothing: the caller feeds the
    pairs in lex_sort order, which keeps P semistandard on each next
    bound.  groebner.bounded_images grows the image of a multiset by a
    last pair with it.
    """
    _place_left(Q, insert_rows(P, a, b, record=False), b)


def _place_left(Q, row: int, b: int):
    """Put b at the left end of row `row` (1-indexed) of the mutable rows
    Q, the row of the box that the insertion of b's pair created in P;
    a row one past the last starts a new row."""
    if row > len(Q):
        Q.append([b])
    else:
        Q[row - 1].insert(0, b)


def _reverse_negative(P, Q):
    """The pairs that brsk_negative inserted to build the negative
    bitableau (P, Q), one that split_parts accepts, in the reverse of
    lex_sort's insertion order.

    Each step takes the minimum entry b of Q off the left end of the
    lowest row of Q that it heads, and runs tableaux.reverse_insert_rows
    from that row of P, which refuses a box that cannot come out.  Both
    tableaux are copied to mutable rows once; an emptied trailing row
    pair is dropped, an emptied row above others is kept and skipped.
    tests/test_brsk.py checks this loop against the per-step oracle,
    which rebuilds both tableaux at every step.

    The kernel does not check that P is semistandard on b; split_parts'
    test implies it before every step.  (1) On sorted rows of one size,
    the test that a pair is in order with the pair above says: for every
    t, #(P_{k-1} <= t) + #(Q_k <= t) >= #(P_k <= t) + #(Q_{k-1} <= t).
    (2) With b = min Q, no entry of Q is <= t for t < b, so for those t
    it says that P's rows below b weakly shorten and their columns
    weakly rise: P is semistandard on b.  (3) A step takes b off row i of
    Q and x < b off row i of P, and swaps entries below b in the rows
    above.  For t < b, reverse-bumping a corner keeps P semistandard
    below b; for t >= b, only row i of P and row i of Q lose one count
    each, so every inequality still holds.  (4) By induction the test
    holds before every step.  The swap that rbrsk applies to the positive
    half keeps the test as it is, so that half is covered too;
    tests/test_brsk.py asserts the check before every kernel call.
    """
    P = [list(row) for row in P]
    Q = [list(row) for row in Q]
    emitted = []
    while True:
        b = None
        for k, row in enumerate(Q, 1):
            if row and (b is None or row[0] <= b):
                b, i = row[0], k
        if b is None:
            return emitted
        emitted.append((reverse_insert_rows(P, b, i), b))
        del Q[i - 1][0]
        if i == len(Q) and not Q[-1]:
            Q.pop()
            P.pop()


def rbrsk(B):
    """Invert brsk on its image: the multiset U with brsk(U) == B, for a
    bitableau B that is negative, positive or mixed.

    split_parts validates B in one walk over its row pairs (every pair
    strict, of one sign and in order with the pair above) and cuts it
    at its first positive row.  The negative half is undone directly; the
    positive half, as brsk built it, through the component swap:
    reversing its rows and trading P and Q makes it negative, and its
    pairs are swapped back.  Each half's pairs come out in the reverse
    of lex_sort's insertion order, a proved property that
    tests/test_brsk.py asserts; one sort makes the multiset canonical.
    Not every bitableau that split_parts accepts is an image of brsk
    (P = ((1, 2), (1,)), Q = ((2, 3), (3,)) is not); a step that cannot
    be undone is a ValueError saying so.  On one beta grid, P's entries
    in the complement and Q's in beta, acceptance by split_parts is
    exact on the sweep of tests/test_brsk.py: every refused bitableau
    there has an entry in both P and Q.  Off a grid the rule is an open
    question.
    """
    negative, (P, Q) = split_parts(B)
    try:
        from_negative = _reverse_negative(*negative)
        from_positive = _reverse_negative(reversed(Q), reversed(P))
    except ValueError:
        raise ValueError("the bitableau is not an image of brsk") from None
    return pairs(from_negative + [(f, e) for e, f in from_positive])


def brsk(U):
    """Bounded RSK of a nonvanishing multiset.

    The negative part is inserted directly, the positive part through
    the component swap: insert the swapped multiset, then reverse the
    rows and trade P and Q, as rbrsk undoes it.  Negative rows go on
    top.  U is checked for int coordinates (multisets.check_integers),
    then for diagonal points; each half (sign_halves) goes to
    brsk_negative as a plain list, which lex_sort checks and sorts
    once.  The result is proved a nonvanishing semistandard bitableau;
    tests/test_brsk.py asserts it, no call does.  U is read into a tuple
    once, so a one-shot iterable gives the bitableau of its list.
    """
    U = tuple(U)
    check_integers(U)
    if not is_nonvanishing(U):
        raise ValueError("multiset has vanishing points")
    negative, swapped = sign_halves(U)
    Pn, Qn = brsk_negative(negative)
    P, Q = brsk_negative(swapped)
    return (Pn + Q[::-1], Qn + P[::-1])


def sign_halves(U):
    """The two negative multisets that brsk inserts for the nonvanishing
    multiset U, as plain lists in U's order: its negative points, and
    its positive points swapped (e, f) -> (f, e).  brsk --trace prints
    their insertions."""
    return [u for u in U if u[0] < u[1]], [(f, e) for e, f in U if e > f]


def multiset_bounded_by(U, T, W) -> bool:
    """Boundedness of a multiset between a negative multiset T and a
    positive multiset W: every chain C in the underlying set of U must
    satisfy T <= C^- and C^+ <= W in the multiset order.

    T and W must be twisted chains, as the bounds of a Richardson
    variety are (grassmannian.build_bound_multisets).  The multiset
    order then agrees with the depth order on chains, so the test is
    chains.chain_bounded on the support of U: polynomial time, not one
    comparison per chain.  For other bounds the two can differ: U =
    {(1, 3)} passes the chain condition against T = {(1, 2), (2, 3)}
    but not the depth order.  So a bound that is not completely
    disjointed (chains.completely_disjointed), as that T is not, is a
    ValueError, after multisets.check_bounds has refused bounds of the
    wrong sign.  tests/test_brsk.py keeps the enumeration of every
    chain as its oracle.
    """
    check_bounds(T, W)
    if not (completely_disjointed(T) and completely_disjointed(W)):
        raise ValueError("bounds must be completely disjointed")
    return chain_bounded(U, T, W)
