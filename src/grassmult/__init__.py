"""Bounded RSK, twisted chains, and multiplicities of Richardson
varieties at torus-fixed points of the Grassmannian."""

from .brsk import brsk, brsk_negative, multiset_bounded_by, rbrsk
from .chains import canonicalize, chain_bounded, chain_order_leq
from .grassmannian import beta_grid, build_bound_multisets, index_leq, length
from .groebner import (
    count_monomials_outside_initial,
    count_standard_monomials,
    dimension_and_degree,
    initial_term,
    signed_minor,
    verify_groebner,
)
from .multiplicity import count_families, enumerate_paths, maximal_bounded_subsets, multiplicity
from .multisets import iota, multiset_order_leq, pairs
from .tableaux import bounded_insert, reverse_bounded_insert

__all__ = [
    "brsk",
    "brsk_negative",
    "rbrsk",
    "multiset_bounded_by",
    "canonicalize",
    "chain_bounded",
    "chain_order_leq",
    "beta_grid",
    "build_bound_multisets",
    "index_leq",
    "length",
    "count_monomials_outside_initial",
    "count_standard_monomials",
    "dimension_and_degree",
    "initial_term",
    "signed_minor",
    "verify_groebner",
    "count_families",
    "enumerate_paths",
    "maximal_bounded_subsets",
    "multiplicity",
    "iota",
    "multiset_order_leq",
    "pairs",
    "bounded_insert",
    "reverse_bounded_insert",
]
