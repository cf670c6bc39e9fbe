import random
from fractions import Fraction

import pytest

from hacalc.scalars import INF, PrimeConfig, val

CFG5 = PrimeConfig(5)


def test_prime_config_validation():
    with pytest.raises(ValueError):
        PrimeConfig(4)
    with pytest.raises(ValueError):
        PrimeConfig(5, 0)
    assert PrimeConfig(2).default_precision == 16


def test_val_examples():
    assert val(50, CFG5) == 2  # 50 = 2 * 5^2
    assert val(Fraction(1, 5), CFG5) == -1
    assert val(0, CFG5) is INF
    assert val(Fraction(0), CFG5) is INF


@pytest.mark.parametrize("s", [0.1, 0.0, 2.0, True, False, "5", None])
def test_val_refuses_inexact_scalars(s):
    """A float would be valued as its binary fraction (0.1 has v_2 = -55
    where 1/10 has -1), and a bool is not a scalar."""
    with pytest.raises(ValueError, match="int or a Fraction"):
        val(s, PrimeConfig(2))


def _random_scalars(n, seed=0):
    rng = random.Random(seed)
    for _ in range(n):
        yield (Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1,
                        rng.randint(1, 10 ** 6)),
               Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1,
                        rng.randint(1, 10 ** 6)))


def test_valuation_multiplicative_10k():
    for a, b in _random_scalars(10 ** 4):
        assert val(a * b, CFG5) == val(a, CFG5) + val(b, CFG5)


def test_valuation_ultrametric():
    for a, b in _random_scalars(3000, seed=1):
        va, vb, vs = val(a, CFG5), val(b, CFG5), val(a + b, CFG5)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)
