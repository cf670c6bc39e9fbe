import math
import random
from fractions import Fraction
from operator import add, sub

import pytest

from hacalc.algebra import AlgebraPresentation, GrowthProfile
from hacalc.checks import (presentations, random_even_form,
                           suite_fedosov_growth, suite_tube_closure)
from hacalc.ncforms import Form
from hacalc.scalars import INF, PrimeConfig, val
from hacalc.tube import (EvenForm, TubeParams, _min_component_val,
                         _shift_minimum, _split_minimum, dm_member,
                         fedosov_even,
                         floor_estimates, form_in_module, jdegree,
                         tube_member)

POLY = AlgebraPresentation.polynomial()
CFG = PrimeConfig(5)
T = POLY.generator_monomial("t")
ONE = POLY.one()


def _even(parts):
    return EvenForm(POLY, parts)


def test_jdegree_examples():
    x0 = _even({0: Form(POLY, 0, {(T,): 1})})
    assert jdegree(x0) == 0
    dtdt = _even({2: Form(POLY, 2, {(ONE, T, T): 1})})
    assert jdegree(dtdt) == 1
    assert jdegree(_even({})) is INF


def test_tube_member_examples():
    quad = _even({4: Form(POLY, 4, {(ONE, T, T, T, T): Fraction(1, 5)})})
    assert tube_member(quad, 2, CFG)       # bound -floor(2/2) = -1
    assert not tube_member(quad, 3, CFG)   # bound 0
    integral = _even({0: Form(POLY, 0, {(T,): 7}),
                      2: Form(POLY, 2, {(ONE, T, T): 3})})
    for m in range(1, 6):
        assert tube_member(integral, m, CFG)


def test_dm_member_examples():
    prof = GrowthProfile.filtration(1, 24)
    x3 = _even({6: Form(POLY, 6,
                        {(ONE,) + (T,) * 6: Fraction(1, 5)})})
    assert dm_member(x3, TubeParams(2, Fraction(1, 3), 0, prof), CFG)
    assert not dm_member(x3, TubeParams(2, Fraction(1, 4), 0, prof), CFG)
    # supported outside M: slot degree 2 against the F_1 profile
    t2 = (2,)
    bad = _even({2: Form(POLY, 2, {(ONE, t2, T): 1})})
    assert not dm_member(bad, TubeParams(2, Fraction(1, 3), 3, prof), CFG)
    wide = GrowthProfile.filtration(2, 24)
    assert dm_member(bad, TubeParams(2, Fraction(1, 3), 3, wide), CFG)


def test_dm_member_exponent_matches_the_fraction_formula():
    """The integer exponent min(n // m, floor(alpha n) + f) of dm_member is
    floor(min(n/m, alpha n + f)): a coefficient p^-e passes exactly when
    e is at most that floor."""
    prof = GrowthProfile.filtration(1, 24)
    parts = {(n, e): _even({2 * n: Form(POLY, 2 * n, {
        (ONE,) + (T,) * (2 * n): Fraction(1, 5 ** e)})})
        for n in range(9) for e in range(10)}
    for m in range(1, 5):
        alphas = {Fraction(a, b) for b in range(1, 13)
                  for a in range(1, b) if Fraction(a, b) < Fraction(1, m)}
        for alpha in alphas:
            for f in range(4):
                P = TubeParams(m, alpha, f, prof)
                for n in range(9):
                    want = math.floor(min(Fraction(n, m), alpha * n + f))
                    assert dm_member(parts[n, want], P, CFG)
                    assert not dm_member(parts[n, want + 1], P, CFG)


def test_form_in_module_reads_the_profile_slotwise():
    prof = GrowthProfile((0, 1, 2))  # cap 2
    t2, t3 = (2,), (3,)

    def inside(terms, shift=0):
        form = Form(POLY, len(next(iter(terms))) - 1, terms)
        return form_in_module(form, prof, CFG, shift)

    # a head or d-slot past the cap is refused at any shift
    assert not inside({(t3,): 1}, shift=99)
    assert not inside({(ONE, t3): 1}, shift=99)
    assert not inside({(T, T, t3): 1}, shift=99)
    # the unit head is free; any other head pays its degree's requirement
    assert inside({(ONE, T): 5}) and not inside({(ONE, T): 1})
    assert inside({(T, T): 25}) and not inside({(T, T): 5})
    # shift lowers the bar by exactly its value: need 2 + 2 = 4
    for c, v in ((1, 0), (Fraction(1, 5), -1), (125, 3)):
        assert inside({(t2, t2): c}, shift=4 - v)
        assert not inside({(t2, t2): c}, shift=3 - v)


def _in_module_by_coefficient(form, profile, cfg, shift):
    """form_in_module read coefficient by coefficient with scalars.val:
    the oracle of the numerator-over-denominator route."""
    A = form.presentation
    for key, c in form.terms.items():
        need = sum(profile[A.degree(m)] for m in key[1:])
        if not A.is_unit_monomial(key[0]):
            need += profile[A.degree(key[0])]
        if val(c, cfg) + shift < need:
            return False
    return True


@pytest.mark.parametrize("p", [5, 7])
def test_tube_valuations_against_per_coefficient_val(p):
    cfg = PrimeConfig(p)
    profiles = [GrowthProfile.filtration(2, 12),
                GrowthProfile(tuple(d // 2 for d in range(13))),
                GrowthProfile((0, 1, 1, 2, 0, 3, 1))]
    seen_vals, seen_verdicts = set(), set()
    for name, A in presentations().items():
        rng = random.Random(p * 100 + len(name))
        for _ in range(40):
            x = random_even_form(A, 3, 3, rng, cfg)
            y = random_even_form(A, 2, 2, rng, cfg)
            for form in (x, x.scale(p ** rng.randint(1, 3)),
                         fedosov_even(x, y)):
                for n in form.degrees():
                    f = form.component(n)
                    want = min((val(c, cfg) for c in f.terms.values()),
                               default=INF)
                    assert _min_component_val(f, cfg) == want, (name, f)
                    seen_vals.add(want)
                    for prof in profiles:
                        for shift in range(-2, 5):
                            got = form_in_module(f, prof, cfg, shift)
                            assert got == _in_module_by_coefficient(
                                f, prof, cfg, shift), (name, f, shift)
                            seen_verdicts.add(got)
    assert seen_verdicts == {True, False}
    assert {-2, -1, 0, 1, 2} <= seen_vals


def test_fedosov_even_examples():
    x = _even({0: Form(POLY, 0, {(T,): 1})})
    prod = fedosov_even(x, x)
    assert str(prod.component(0)) == "t^2"
    assert str(prod.component(2)) == "-d(t) d(t)"
    omega2 = _even({2: Form(POLY, 2, {(T, T, T): 1})})
    prod2 = fedosov_even(omega2, omega2)
    assert set(prod2.degrees()) <= {4, 6}
    one = _even({0: Form(POLY, 0, {(ONE,): 1})})
    assert fedosov_even(one, omega2) == omega2


def test_floor_estimates():
    assert floor_estimates(50).ok
    assert floor_estimates(200).ok


def _scan_floor_minima(m, N):
    """The exhaustive minima behind floor_estimates at level m.

    For n = 1..N: the min over 0 <= j < n of floor(j/m) + floor((n-1-j)/m)
    and the first j attaining it; for a = 0..N//2: the min over
    a <= b <= N - a of floor((a+b)/m) - floor(b/m) and the first b
    attaining it.
    """
    F = [x // m for x in range(N + 1)]
    split = []
    for n in range(1, N + 1):
        rhs = list(map(add, F[:n], F[n - 1::-1]))
        low = min(rhs)
        split.append((low, rhs.index(low)))
    shift = []
    for a in range(N // 2 + 1):
        gaps = list(map(sub, F[2 * a:], F[a:]))
        low = min(gaps)
        shift.append((low, a + gaps.index(low)))
    return split, shift


@pytest.mark.parametrize("N", [51, 200])
def test_floor_minima_against_scan(N):
    for m in range(1, N + 1):
        split, shift = _scan_floor_minima(m, N)
        assert [_split_minimum(m, n) for n in range(1, N + 1)] == split, m
        assert [_shift_minimum(m, a, N)
                for a in range(N // 2 + 1)] == shift, m


def test_tube_closure_suite():
    res = suite_tube_closure(CFG, 150, seed=7)
    assert res.passed, res.detail


def test_fedosov_growth_suite():
    res = suite_fedosov_growth(CFG, 60, seed=7)
    assert res.passed, res.detail


def test_jdegree_superadditive_random():
    rng = random.Random(3)
    for name, A in presentations().items():
        for _ in range(80):
            x = random_even_form(A, 2, 2, rng, CFG)
            y = random_even_form(A, 2, 2, rng, CFG)
            z = fedosov_even(x, y)
            if jdegree(z) is not INF:
                assert jdegree(z) >= jdegree(x) + jdegree(y), name


def test_tube_params_validation():
    prof = GrowthProfile.filtration(1, 10)
    with pytest.raises(ValueError):
        TubeParams(2, Fraction(1, 2), 0, prof)  # alpha = 1/m not allowed
    with pytest.raises(ValueError):
        TubeParams(0, Fraction(1, 3), 0, prof)
    with pytest.raises(ValueError):
        TubeParams(2, Fraction(1, 3), -1, prof)
    # a float slope would be its binary value, a string no number at all
    for alpha in (0.1, "1/5", 0.25, None):
        with pytest.raises(ValueError, match="Fraction"):
            TubeParams(2, alpha, 0, prof)
    for m in (2.0, 1.5, True, "2", Fraction(2)):
        with pytest.raises(ValueError, match="level"):
            TubeParams(m, Fraction(1, 5), 0, prof)
    # dm_member reads floor(alpha n + f) as floor(alpha n) + f
    for f in (1.5, 1.0, Fraction(1), True):
        with pytest.raises(ValueError, match="natural number"):
            TubeParams(2, Fraction(1, 3), f, prof)


@pytest.mark.parametrize("parts", [
    {1: Form(POLY, 1, {(T, T): 1})},
    {0: Form(POLY, 0, {(T,): 1}), 3: Form(POLY, 3, {(T, T, T, T): 1})},
], ids=["odd-only", "even-and-odd"])
def test_even_form_refuses_odd_parts(parts):
    with pytest.raises(ValueError, match="even forms only"):
        EvenForm(POLY, parts)
