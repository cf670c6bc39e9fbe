"""Exact arithmetic over Z localized at a prime p.

The coefficient ring V is modeled by rationals with nonnegative p-adic
valuation, its fraction field F by arbitrary rationals.  A scalar is an
``int`` or a ``fractions.Fraction`` (``Scalar``): structure constants are
integers, so a Fraction appears only where a division does, and the JSON
boundary refuses floats.  ``Residue`` mirrors V/p^N where finite precision
is actually wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeValuation

#: Valuation of zero.
INF = math.inf

#: The exact scalar types: an int, or a Fraction where a division made one.
Scalar = int | Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeConfig:
    """The uniformiser p and the default precision for residue arithmetic."""

    p: int
    default_precision: int = 16

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.default_precision < 1:
            raise ValueError("precision must be >= 1")


@dataclass(frozen=True)
class Residue:
    """An integer modulo p^N together with the precision N.

    The value is stored normalized, 0 <= value < p^N; the prime is not
    recorded, so the range check happens where p is known (reduce_mod) and
    only nonnegativity is enforced here.
    """

    value: int
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.value < 0:
            raise ValueError("residues are stored normalized")


def _int_val(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(s, cfg: PrimeConfig):
    """p-adic valuation of a rational scalar; ``INF`` for zero."""
    s = Fraction(s)
    if s == 0:
        return INF
    return _int_val(s.numerator, cfg.p) - _int_val(s.denominator, cfg.p)


def is_unit(s, cfg: PrimeConfig) -> bool:
    """True iff s is a unit of V, i.e. has valuation exactly 0."""
    return val(s, cfg) == 0


def reduce_mod(s, N: int, cfg: PrimeConfig) -> Residue:
    """Image of a valuation->=0 scalar in V/p^N.

    The denominator is inverted modulo p^N; a scalar with negative
    valuation has no image and raises :class:`NegativeValuation`.
    """
    s = Fraction(s)
    v = val(s, cfg)
    if v is not INF and v < 0:
        raise NegativeValuation(f"val_{cfg.p}({s}) = {v} < 0")
    q = cfg.p ** N
    value = s.numerator * pow(s.denominator, -1, q) % q
    return Residue(value, N)
