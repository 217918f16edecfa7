"""Check the initial-ideal counting argument on one small Richardson
variety: list the signed minors with their leading monomials, then
compare monomial counts degree by degree."""

from grassmult.grassmannian import richardson, theta_to_rs
from grassmult.groebner import (
    dimension_and_degree,
    initial_term,
    signed_minor,
    verify_groebner,
)
from grassmult.multiplicity import enumerate_families
from itertools import combinations

ALPHA, BETA, GAMMA, N, D = (1, 3), (2, 4), (4, 5), 5, 2

if __name__ == "__main__":
    Ttil, Wtil, grid = richardson(ALPHA, BETA, GAMMA, N, D)
    print("alpha=%s beta=%s gamma=%s, %d-planes in %d-space" % (ALPHA, BETA, GAMMA, D, N))
    print()
    print("signed minors and their leading monomials:")
    for theta in combinations(range(1, N + 1), D):
        R, S = theta_to_rs(theta, BETA)
        if len(R) != len(S) or not R:
            continue
        f = signed_minor(theta, grid)
        lead = initial_term(f)
        print("  theta=%s  R=%s S=%s  %d terms, leads with %s"
              % (theta, R, S, len(f.expansion), " ".join("x%d%d" % m for m in lead)))
    print()
    report = verify_groebner(Ttil, Wtil, grid, 4)
    print("m  bounded multisets  standard monomials")
    for m, outside, standard in report.per_degree:
        print("%d  %17d  %18d" % (m, outside, standard))
    print("counts agree:", report.counts_equal, " injective:", report.brsk_injective)
    print()
    max_degree, count = dimension_and_degree(ALPHA, BETA, GAMMA, N, D)
    print("largest square-free bounded degree %d, attained %d times" % (max_degree, count))
    fam = enumerate_families(Ttil, Wtil, grid)[0]
    sample = sorted(p for path in fam.values() for p in path)
    print("one witness:", " ".join("%d,%d" % p for p in sample))
