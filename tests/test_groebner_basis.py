"""An independent check of the Groebner theorem: sympy computes a lex
Groebner basis of the Richardson ideal on the grid, and its leading
monomials must generate the ideal of the forbidden chain monomials.
Skipped when sympy is not installed."""

import itertools

import pytest

from grassmult.grassmannian import beta_grid, build_bound_multisets, triples
from grassmult.groebner import count_monomials_outside_initial, count_standard_monomials
from oracles import index_leq

sympy = pytest.importorskip("sympy")


def richardson_ideal(alpha, gamma, grid):
    """The variables of the grid, largest first in the order of
    groebner.monomial_key (larger row first, then smaller column), and
    the minors of the rows theta outside [alpha, gamma] of the n x d
    matrix whose beta rows are unit rows and whose other entries are
    the variables, each a determinant computed by sympy."""
    points = sorted(
        ((e, f) for e in grid.complement for f in grid.beta), key=lambda p: (-p[0], p[1])
    )
    x = {p: sympy.Symbol("x_%d_%d" % p) for p in points}
    beta = grid.beta
    row = {
        i: [int(i == b) for b in beta] if i in beta else [x[i, b] for b in beta]
        for i in range(1, grid.n + 1)
    }
    minors = [
        sympy.Matrix([row[i] for i in theta]).det()
        for theta in itertools.combinations(range(1, grid.n + 1), len(beta))
        if not (index_leq(alpha, theta) and index_leq(theta, gamma))
    ]
    return points, [x[p] for p in points], minors


def chain_monomials(alpha, gamma, grid, points):
    """Exponent vectors of the chain monomials of the forbidden thetas:
    theta minus beta ascending paired with beta minus theta descending."""
    out = set()
    for theta in itertools.combinations(range(1, grid.n + 1), len(grid.beta)):
        if index_leq(alpha, theta) and index_leq(theta, gamma):
            continue
        R = sorted(set(theta) - set(grid.beta))
        S = sorted(set(grid.beta) - set(theta), reverse=True)
        chain = set(zip(R, S))
        out.add(tuple(int(p in chain) for p in points))
    return out


def divides(a, b):
    return all(i <= j for i, j in zip(a, b))


def outside_count(generators, variables, m):
    """Degree-m monomials in the variables divisible by no generator."""
    return sum(
        not any(divides(g, mono) for g in generators)
        for mono in (
            tuple(c.count(k) for k in range(variables))
            for c in itertools.combinations_with_replacement(range(variables), m)
        )
    )


def test_leading_monomials_generate_the_chain_ideal():
    """Every triple with n <= 6 and every d: the leading monomials of a
    lex Groebner basis of the minors and the forbidden chain monomials
    generate the same monomial ideal, and its Hilbert function in
    degrees <= 3 is both the count of bounded multisets and the count of
    standard monomials, each the convolution of the two sides' counts."""
    checked = 0
    for n, d in ((n, d) for n in range(2, 7) for d in range(1, n)):
        for alpha, beta, gamma in triples(n, d):
            grid = beta_grid(beta, n)
            points, gens, minors = richardson_ideal(alpha, gamma, grid)
            polys = sympy.groebner(minors, *gens, order="lex").polys if minors else []
            leading = {p.monoms(order="lex")[0] for p in polys}
            chains = chain_monomials(alpha, gamma, grid, points)
            case = (alpha, beta, gamma)
            assert all(any(divides(c, lm) for c in chains) for lm in leading), case
            assert all(any(divides(lm, c) for lm in leading) for c in chains), case
            Ttil, Wtil = build_bound_multisets(alpha, gamma, grid)
            hilbert = [outside_count(leading, len(points), m) for m in range(4)]
            assert hilbert == count_monomials_outside_initial(Ttil, Wtil, grid, 3), case
            assert hilbert == count_standard_monomials(Ttil, Wtil, grid, 3), case
            checked += 1
    assert checked == 2606
