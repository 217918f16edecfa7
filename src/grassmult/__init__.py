"""Bounded RSK, twisted chains, and multiplicities of Richardson
varieties at torus-fixed points of the Grassmannian."""

from .brsk import brsk, rbrsk
from .grassmannian import beta_grid, build_bound_multisets
from .groebner import dimension_and_degree
from .multiplicity import multiplicity
from .multisets import pairs

__all__ = [
    "brsk",
    "rbrsk",
    "beta_grid",
    "build_bound_multisets",
    "dimension_and_degree",
    "multiplicity",
    "pairs",
]
