"""The seeded generators draw the stream of the plain reference code.

The references below are the generators as first written, with
``randrange``/``randint``, a list copy of each window and a ``Fraction``
per coefficient.  The generators of ``hacalc.checks`` and
``hacalc.groebner`` draw from cached sequences with ``chooser(rng)``,
which calls only ``rng.getrandbits``: it draws getrandbits(k), k =
len(seq).bit_length(), until the draw is below len(seq), the rule of
``Random.choice`` and ``randrange``.  The generators must give equal forms
(``num`` and ``den``, tuples in the same order) or equal terms, and leave
the ``Random`` in an equal state, so every ``ha check`` report stays what
the references made it; the chooser itself is checked against
``Random.choice``.
"""

import random
from fractions import Fraction

import pytest

from hacalc import checks
from hacalc.algebra import GrowthProfile, chooser
from hacalc.checks import (presentations, random_even_form, random_form,
                           random_monomial, random_monomial_form)
from hacalc.groebner import IntPoly, _keys, _random_poly
from hacalc.ncforms import Form
from hacalc.scalars import PrimeConfig
from hacalc.tube import EvenForm

SEEDS = (0, 1, 7, 31, 2024)


# -- the reference generators -------------------------------------------------


def ref_random_monomial(A, max_deg, rng):
    monos = A.monomials_up_to(max_deg)
    return monos[rng.randrange(len(monos))]


def ref_random_nonunit_monomial(A, max_deg, rng):
    while True:
        m = ref_random_monomial(A, max_deg, rng)
        if not A.is_unit_monomial(m):
            return m


def ref_random_form(A, degree, max_deg, rng, terms=2):
    out = {}
    for _ in range(terms):
        head = ref_random_monomial(A, max_deg, rng)
        slots = tuple(ref_random_nonunit_monomial(A, max_deg, rng)
                      for _ in range(degree))
        c = rng.choice([-2, -1, 1, 2, Fraction(1, 2), 3])
        key = (head,) + slots
        out[key] = out.get(key, 0) + c
    return Form(A, degree, out)


def ref_random_monomial_form(A, profile, degree, rng):
    reach = max((d for d in range(profile.cap + 1) if profile[d] == 0),
                default=0)
    pool = [m for m in A.monomials_up_to(reach)
            if profile[A.degree(m)] == 0]
    nonunit = [m for m in pool if not A.is_unit_monomial(m)]
    head = pool[rng.randrange(len(pool))]
    slots = tuple(nonunit[rng.randrange(len(nonunit))]
                  for _ in range(degree))
    return Form(A, degree, {(head,) + slots: Fraction(1)})


def ref_random_even_form(A, max_level, max_deg, rng, cfg):
    parts = {}
    for n in rng.sample(range(max_level + 1), k=min(2, max_level + 1)):
        scale = Fraction(1, cfg.p ** rng.randint(0, 2))
        f = ref_random_form(A, 2 * n, max_deg, rng).scale(scale)
        if not f.is_zero():
            parts[2 * n] = f
    return EvenForm(A, parts)


def ref_random_poly(nvars, max_deg, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * nvars
        if nvars:  # a constant has no exponents to draw
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
    return IntPoly._trusted(nvars, terms)


# -- comparisons --------------------------------------------------------------


def _assert_same_form(got: Form, want: Form):
    assert got.degree == want.degree
    assert got.den == want.den
    assert list(got.num.items()) == list(want.num.items())
    assert all(type(c) is int for c in got.num.values())


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("name", list(presentations()))
def test_random_form_draws_the_reference_stream(name):
    A = presentations()[name]
    for seed in SEEDS:
        rng, ref = _pair(seed)
        for degree in range(4):
            for max_deg in range(1, 5):
                for terms in (1, 2, 3):
                    _assert_same_form(
                        random_form(A, degree, max_deg, rng, terms),
                        ref_random_form(A, degree, max_deg, ref, terms))
                assert random_monomial(A, max_deg, rng) \
                    == ref_random_monomial(A, max_deg, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", list(presentations()))
def test_random_even_form_draws_the_reference_stream(name):
    A = presentations()[name]
    for p in (2, 5, 7):
        cfg = PrimeConfig(p)
        for seed in SEEDS:
            rng, ref = _pair(seed)
            for max_level in range(4):
                for max_deg in range(1, 4):
                    got = random_even_form(A, max_level, max_deg, rng, cfg)
                    want = ref_random_even_form(A, max_level, max_deg, ref,
                                                cfg)
                    assert list(got.parts) == list(want.parts)
                    for n in want.parts:
                        _assert_same_form(got.parts[n], want.parts[n])
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", list(presentations()))
def test_random_monomial_form_draws_the_reference_stream(name):
    """The pools are built as ``suite_fedosov_growth`` builds them."""
    A = presentations()[name]
    for k in (1, 2):
        profile = GrowthProfile.filtration(k, 30)
        reach = max((d for d in range(profile.cap + 1) if profile[d] == 0),
                    default=0)
        pool = tuple(m for m in A.monomials_up_to(reach)
                     if profile[A.degree(m)] == 0)
        nonunit = tuple(m for m in pool if not A.is_unit_monomial(m))
        for seed in SEEDS:
            rng, ref = _pair(seed)
            for degree in range(5):
                for _ in range(3):
                    _assert_same_form(
                        random_monomial_form(A, pool, nonunit, degree, rng),
                        ref_random_monomial_form(A, profile, degree, ref))
            assert rng.getstate() == ref.getstate()


def test_fedosov_growth_pools_match_the_reference(monkeypatch):
    """Each plan of ``suite_fedosov_growth`` draws from the pool the
    reference rebuilt on every draw, for M = F_1."""
    seen = []
    plain = checks.random_monomial_form

    def recorded(A, pool, nonunit, degree, rng):
        seen.append((A, pool, nonunit))
        return plain(A, pool, nonunit, degree, rng)

    monkeypatch.setattr(checks, "random_monomial_form", recorded)
    assert checks.suite_fedosov_growth(PrimeConfig(5), 2, 0).passed
    assert {A.kind for A, _, _ in seen} \
        == {"polynomial", "free", "laurent", "plane_curve"}
    profile = GrowthProfile.filtration(1, 30)
    for A, pool, nonunit in seen:
        assert type(pool) is tuple and type(nonunit) is tuple
        want = [m for m in A.monomials_up_to(1)
                if profile[A.degree(m)] == 0]
        assert list(pool) == want
        assert list(nonunit) == [m for m in want
                                 if not A.is_unit_monomial(m)]


@pytest.mark.parametrize("nvars", range(4))
def test_random_poly_draws_the_reference_stream(nvars):
    """The drawn keys, read back as exponent vectors, are the reference's
    terms in the reference's order."""
    keys = _keys(nvars)
    for seed in range(40):
        rng, ref = _pair(seed)
        for max_deg in range(4):
            steps = tuple(range(max_deg + 1))
            for _ in range(3):
                got = keys.terms(_random_poly(steps, keys.units,
                                              chooser(rng)))
                want = ref_random_poly(nvars, max_deg, ref)
                assert list(got.items()) == list(want.terms.items())
        assert rng.getstate() == ref.getstate()


# -- the chooser --------------------------------------------------------------


def test_chooser_draws_what_random_choice_draws():
    """Every length from 1 to 70 (each bit length up to 7, the powers of
    two and their neighbours among them), tuples and ranges alike."""
    for seed in SEEDS:
        rng, ref = _pair(seed)
        choice = chooser(rng)
        for n in range(1, 71):
            for seq in (tuple(range(100, 100 + n)), range(-n, 2 * n, 3)):
                for _ in range(20):
                    assert choice(seq) == ref.choice(seq)
            assert rng.getstate() == ref.getstate()


class _BoundedBits(random.Random):
    """A ``Random`` whose ``getrandbits`` fails after 1,000 calls, so a
    chooser that loops on an empty sequence fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("getrandbits called 1,000 times")
        return super().getrandbits(k)


def test_chooser_refuses_an_empty_sequence():
    rng = _BoundedBits(0)
    choice = chooser(rng)
    for empty in ((), [], range(0), range(5, 5)):
        with pytest.raises(IndexError):
            choice(empty)
    assert rng.calls == 0
    assert choice((7,)) == 7 and rng.calls >= 1
