"""Exact desk-scale homological invariants of p-adic algebras."""

__version__ = "0.1.0"

from .algebra import (AlgebraPresentation, GrowthProfile,
                      profile_check_diam_laws, profile_diamond,
                      profile_product)
from .scalars import INF, PrimeConfig, Scalar, val

__all__ = [
    "AlgebraPresentation", "GrowthProfile", "PrimeConfig", "Scalar", "INF",
    "profile_check_diam_laws", "profile_diamond", "profile_product", "val",
]
