"""Walk a seven-pair multiset through bounded insertion, one pair at a
time, then run the reverse correspondence and recover the input."""

from grassmult.brsk import brsk_negative, brsk_trace, lex_sort, rbrsk
from grassmult.multisets import pairs
from grassmult.tableaux import render

U = pairs([(7, 8), (2, 8), (6, 7), (4, 7), (1, 7), (3, 6), (2, 4)])

if __name__ == "__main__":
    print("multiset:", " ".join("%d,%d" % p for p in U))
    print("insertion order:", " ".join("%d,%d" % p for p in lex_sort(U)))
    print()
    for step in brsk_trace(U):
        a, b = step.pair
        print("insert %d bounded by %d  (new box at row %d, column %d)"
              % (a, b, step.record.new_box[0], step.record.new_box[1]))
        for name, side in (("P", step.P), ("Q", step.Q)):
            pad = "\n    ".join(render(side).splitlines())
            print("  %s %s" % (name, pad))
        print()
    print("reverse recovers the multiset:", rbrsk(brsk_negative(U)) == U)
