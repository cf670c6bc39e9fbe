"""Exact arithmetic over Z localized at a prime p.

The coefficient ring V is modeled by rationals with nonnegative p-adic
valuation, its fraction field F by arbitrary rationals.  A scalar is an
``int`` or a ``fractions.Fraction`` (``Scalar``): structure constants are
integers, so a Fraction appears only where a division does, and the JSON
boundary and the form constructor refuse floats and bools.  A form keeps
no Fraction at all: it holds integer numerators over one denominator
(:class:`hacalc.ncforms.Form`), and its valuations are v_p(numerator) -
v_p(denominator), read with the integer valuation below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


#: The primes accepted are below this bound; trial division by _is_prime
#: up to sqrt(p) then takes milliseconds, not years.
PRIME_BOUND = 2 ** 32


@dataclass(frozen=True)
class PrimeConfig:
    """The uniformiser p and the precision N of idempotent lifts mod p^N."""

    p: int
    default_precision: int = 16

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise ValueError(f"p must be below 2^32, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.default_precision < 1:
            raise ValueError("precision must be >= 1")


def _int_val(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(s: Scalar, cfg: PrimeConfig):
    """p-adic valuation of an int or a Fraction; ``INF`` for zero.

    Anything else raises ValueError: a float would be valued as its
    binary fraction, not as the rational it stands for.
    """
    if type(s) is not int and type(s) is not Fraction:
        raise ValueError(f"val takes an int or a Fraction, got {s!r}")
    if not s:
        return INF
    return _int_val(s.numerator, cfg.p) - _int_val(s.denominator, cfg.p)
