"""Exact desk-scale homological invariants of p-adic algebras."""

__version__ = "0.1.0"

from .algebra import (AlgebraElement, AlgebraPresentation, GrowthProfile,
                      filtration_degree, normalize, profile_check_diam_laws,
                      profile_diamond, profile_product)
from .scalars import INF, PrimeConfig, Residue, Scalar, is_unit, reduce_mod, val

__all__ = [
    "AlgebraElement", "AlgebraPresentation", "GrowthProfile",
    "PrimeConfig", "Residue", "Scalar", "INF",
    "filtration_degree", "is_unit", "normalize",
    "profile_check_diam_laws", "profile_diamond", "profile_product",
    "reduce_mod", "val",
]
