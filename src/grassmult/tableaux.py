"""Notched tableaux, bounded insertion, and semistandard notched bitableaux.

A notched tableau is a sequence of rows, each a strictly increasing list
of integers of any sign; rows may be empty, and row lengths need not
decrease.  Rows and columns are 1-indexed everywhere.  Column entries
weakly increase downward in a semistandard Young tableau (the transpose
of the more common convention, so insertion bumps along rows).

Each direction of insertion runs one kernel that works in place on a
list of mutable rows.  Forward, insert_rows bumps a value in:
brsk.brsk_trace runs it on its own rows for each bumping record, and
brsk.brsk_negative on its own rows for the row of the new box alone,
both on input that brsk.lex_sort checks once (groebner.bounded_images
runs the same insertion on row bitmasks, a grid's rows only);
bounded_insert checks its input and runs it on a copy, the checked
one-step door.  Backward, reverse_insert_rows takes the rightmost entry
below the bound out of a row and bumps a value out:
reverse_bounded_insert runs it as bounded_insert runs insert_rows, and
brsk.rbrsk on one copy of P's rows for each pair it takes back, in an
order read off Q by one sort, after split_parts has checked the
bitableau.  Only the benchmark and the tests call the two doors.
Neither kernel checks that its rows are semistandard on the bound; the
order of brsk's pairs keeps them so, and split_parts' test those of
rbrsk (brsk._reverse_negative).
Schensted insertion is bounded insertion with a bound above every entry.
A bitableau's one semistandard rule is _row_signs, which split_parts and
bitableau_bounded_by both run.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain
from operator import gt, le, lt

from .multisets import check_bounds, formal_diff_leq, proj

BumpingRecord = namedtuple("BumpingRecord", ["route", "new_box"])
BumpingRecord.__doc__ = """Boxes bumped by an insertion, ending with the new box.

Coordinates are (row, column), 1-indexed, and are valid both in the
truncated tableau where the insertion ran and in the full tableau
(entries below the bound precede the rest in each row).
"""


def tableau(rows) -> tuple[tuple[int, ...], ...]:
    """Normalize rows to a tuple of integer tuples.  Entries are not
    coerced: one whose type is not int (a float, a string, True or
    False) is a ValueError."""
    P = tuple(map(tuple, rows))
    if any(type(x) is not int for x in chain.from_iterable(P)):
        raise ValueError("tableau entries must be integers")
    return P


def row_strict(P) -> bool:
    return all(all(row[j] < row[j + 1] for j in range(len(row) - 1)) for row in P)


def semistandard_below(rows, b: int) -> bool:
    """True iff the entries below b of row-strict rows form a
    semistandard Young tableau: those prefixes weakly shorten downward
    (so an empty one is followed only by empty ones) and their columns
    weakly increase downward.  One pass that builds nothing.
    """
    above = None
    for row in rows:
        n = bisect_left(row, b)
        if above is not None:
            if n > width:
                return False
            for j in range(n):
                if above[j] > row[j]:
                    return False
        above, width = row, n
    return True


def insert_rows(rows, a: int, b: int, record: bool = True):
    """The insertion kernel: Schensted-insert a into the entries below b
    of a list of mutable rows, in place, and return the BumpingRecord.

    Each row is a strictly increasing list whose entries below b form a
    prefix; a row either takes the inserted value at the end of that
    prefix or bumps the smallest prefix entry >= it into the next row,
    and a value bumped out of the last row starts a new row.  With b
    above every entry this is Schensted row insertion.  Checks nothing:
    callers validate once that a < b and that the rows are semistandard
    on b.

    bounded_insert and brsk.brsk_trace report the whole record.
    brsk.brsk_negative needs only the new box's row (1-indexed), to
    place b in Q: with record false the kernel builds no route and
    returns it.
    """
    route = [] if record else None
    cur = a
    i = 0
    while i < len(rows):
        row = rows[i]
        hi = bisect_left(row, b)
        j = bisect_left(row, cur, 0, hi)
        if j == hi:
            row.insert(j, cur)
            break
        if record:
            route.append((i + 1, j + 1))
        cur, row[j] = row[j], cur
        i += 1
    else:
        rows.append([cur])
        j = 0
    if not record:
        return i + 1
    new_box = (i + 1, j + 1)
    route.append(new_box)
    return BumpingRecord(tuple(route), new_box)


def bounded_insert(P, a: int, b: int):
    """Bounded insertion P <-_b a.

    Entries >= b stay where they are, a is Schensted-inserted into the
    Young tableau of the entries below b, and each row keeps its entries
    >= b to the right (insert_rows on a copy of P, frozen unchecked).
    Checks its input once: integer entries and a, a < b, P row strict
    and semistandard on b.  tests/test_brsk.py keeps its
    split-insert-reassemble form as the per-step oracle of it and of
    brsk.brsk_negative.
    """
    P = tableau(P)
    if type(a) is not int:
        raise ValueError("tableau entries must be integers")
    if a >= b:
        raise ValueError("inserted value must be below the bound")
    if not row_strict(P):
        raise ValueError("tableau must be row strict")
    if not semistandard_below(P, b):
        raise ValueError("tableau must be semistandard on the bound")
    rows = [list(row) for row in P]
    record = insert_rows(rows, a, b)
    return tuple(map(tuple, rows)), record


def reverse_insert_rows(rows, b: int, i: int) -> int:
    """The reverse kernel: take the rightmost entry below b out of row i
    (1-indexed) of a list of mutable row-strict rows, reverse-bump it up
    through the entries below b of the rows above, in place, and return
    the value bumped out of the first row.

    Each row above gives up its greatest entry below b that is at most
    the value coming up and takes that value in its place.  An emptied
    row stays in the list; the kernel reads only row i, the rows above
    it and the entries below b of row i + 1, so an empty row i + 1
    reads as a missing one.  Like insert_rows it leaves the check that
    the rows are semistandard on b to its callers.  It refuses, as a
    ValueError and before it changes a row, an empty new box and a
    removal that breaks the truncated shape; a reverse bump with no
    entry to take it, which such rows never give, is one too, raised
    after rows have changed.
    """
    row = rows[i - 1]
    hi = bisect_left(row, b)
    if not hi:
        raise ValueError("new box must be the rightmost entry below the bound in its row")
    if i < len(rows) and bisect_left(rows[i], b) >= hi:
        raise ValueError("removing the new box breaks the truncated shape")
    cur = row.pop(hi - 1)
    for k in range(i - 2, -1, -1):
        row = rows[k]
        j = bisect_right(row, cur) - 1
        if j < 0:
            raise ValueError("no entry available to reverse-bump")
        cur, row[j] = row[j], cur
    return cur


def reverse_bounded_insert(Pp, b: int, new_box):
    """Invert bounded insertion given the bound and the new box.

    The new box must name the rightmost entry below b in its row; a
    trailing row that the removal empties is dropped (the forward
    insertion made it).  Checks Pp and freezes the result as
    bounded_insert does.  Returns (P, a) with bounded_insert(P, a, b)
    reproducing the input (reverse_insert_rows on a copy of Pp).
    """
    Pp = tableau(Pp)
    if not row_strict(Pp):
        raise ValueError("tableau must be row strict")
    i, j = new_box
    if not (1 <= i <= len(Pp)):
        raise ValueError("new box outside the tableau")
    if j != bisect_left(Pp[i - 1], b):
        raise ValueError("new box must be the rightmost entry below the bound in its row")
    if not semistandard_below(Pp, b):
        raise ValueError("tableau must be semistandard on the bound")
    rows = [list(row) for row in Pp]
    a = reverse_insert_rows(rows, b, i)
    if i == len(rows) and not rows[-1]:
        rows.pop()
    return tuple(map(tuple, rows)), a


def bitableau(P, Q):
    """A pair of notched tableaux of equal shape."""
    P, Q = tableau(P), tableau(Q)
    if len(P) != len(Q) or any(len(p) != len(q) for p, q in zip(P, Q)):
        raise ValueError("bitableau halves must have equal shape")
    return (P, Q)


def _row_signs(P, Q):
    """The sign of each row pair (p, q) of a bitableau of one shape: -1 if
    p < q termwise, +1 if p > q, 0 if neither or empty.  None if it is
    not semistandard: a row does not strictly increase, or a pair is out
    of order with the one above, P_{i-1} - Q_{i-1} <= P_i - Q_i failing
    (formal_diff_leq's rule on the sorted rows).  The one such rule."""
    signs = []
    above = None
    for p, q in zip(P, Q):
        if not (all(map(lt, p, p[1:])) and all(map(lt, q, q[1:]))):
            return None
        if above and not all(map(le, sorted(above[0] + q), sorted(p + above[1]))):
            return None
        signs.append(-1 if p and all(map(lt, p, q)) else 1 if p and all(map(gt, p, q)) else 0)
        above = p, q
    return signs


def split_parts(B):
    """Cut a nonvanishing semistandard bitableau (no row of sign 0 in
    _row_signs) at its first positive row; anything else is one
    ValueError.  The negative rows come first with no test of their own:
    a positive pair (p', q') directly above a negative pair (p, q) is
    never in order, which needs p' + q <= p + q' termwise, as sum(p') >
    sum(q') and sum(q) > sum(p).  tests/oracles.py keeps the row-by-row
    split_parts_by_rows as its oracle."""
    P, Q = bitableau(*B)
    signs = _row_signs(P, Q)
    if signs is None or 0 in signs:
        raise ValueError("expected a nonvanishing semistandard bitableau")
    i = signs.count(-1)
    return (P[:i], Q[:i]), (P[i:], Q[i:])


def iota_bitableau(B):
    """Reverse the rows of (Q, P) of a checked bitableau; exchanges
    negative and positive parts.  Only tests and the benchmark call it."""
    P, Q = bitableau(*B)
    return (tuple(reversed(Q)), tuple(reversed(P)))


def bitableau_bounded_by(B, T, W) -> bool:
    """Boundedness of a semistandard bitableau between a negative multiset
    T and a positive multiset W on N^2:

        T(1) - T(2) <= P_1 - Q_1   and   P_r - Q_r <= W(1) - W(2).

    An empty bitableau is bounded by anything; an empty T rules out a
    negative first row, an empty W a positive last row.  Refuses, as a
    ValueError, bounds of the wrong sign (multisets.check_bounds) and a
    bitableau that is not semistandard.
    """
    P, Q = bitableau(*B)
    check_bounds(T, W)
    if _row_signs(P, Q) is None:
        raise ValueError("expected a semistandard bitableau")
    if not P:
        return True
    return formal_diff_leq(proj(T, 1), proj(T, 2), P[0], Q[0]) and formal_diff_leq(
        P[-1], Q[-1], proj(W, 1), proj(W, 2)
    )


def render(P) -> str:
    """One row per line, entries space-separated."""
    return "\n".join(" ".join(str(x) for x in row) for row in P)


def tableau_from_json(data):
    """A tableau from a JSON list of integer rows; anything else (an
    object in place of a list, or an entry that is a float, a string,
    true or false) is a ValueError."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("a tableau is a list of rows")
    return tableau(data)
