import random
from fractions import Fraction

import pytest

from hacalc.algebra import (INF, AlgebraPresentation, GrowthProfile,
                            profile_check_diam_laws, profile_diamond,
                            profile_product, profile_sum)
from hacalc.ncforms import Form, form_multiply
from words import word_of

POLY = AlgebraPresentation.polynomial()
LAURENT = AlgebraPresentation.laurent()
CURVE = AlgebraPresentation.plane_curve([0, -1, 0, 1])  # y^2 = x^3 - x
FREE = AlgebraPresentation.free(["a", "b"])


def normalize(word, A):
    """Normal form of a raw word over the presentation's symbols, as a
    0-form: the product of its letters by ``form_multiply``.

    Symbols are generator names; for laurent presentations the formal
    inverse is written ``t^-1``.  The empty word normalizes to the unit.
    """
    result = Form(A, 0, {(A.one(),): 1}) if A.unital else None
    for sym in word:
        if A.kind == "laurent" and sym == f"{A.generators[0]}^-1":
            m = (-1,)
        else:
            m = A.generator_monomial(sym)
        e = Form(A, 0, {(m,): 1})
        result = e if result is None else form_multiply(result, e)
    if result is None:
        raise ValueError("empty word over a non-unital presentation")
    return result


def filtration_degree(x):
    """Least n with every monomial of the 0-form x of filtration degree
    <= n; the zero form has none (ValueError)."""
    return max(x.presentation.degree(m) for m, in x.terms)


def test_normalize_examples():
    assert str(normalize(["t", "t^-1"], LAURENT)) == "1"
    assert str(normalize(["y", "y"], CURVE)) == "-x + x^3"
    assert str(normalize(["a", "b"], FREE)) == "a*b"


def test_normalize_idempotent_and_multiplicative():
    rng = random.Random(0)
    for A, alphabet in [(POLY, ["t"]), (LAURENT, ["t", "t^-1"]),
                        (CURVE, ["x", "y"]), (FREE, ["a", "b"])]:
        for _ in range(200):
            w1 = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
            w2 = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
            u, v = normalize(w1, A), normalize(w2, A)
            assert normalize(w1 + w2, A) == form_multiply(u, v)


def test_filtration_degree_examples():
    t3_plus_2t = normalize(["t"] * 3, POLY) + normalize(["t"], POLY).scale(2)
    assert filtration_degree(t3_plus_2t) == 3
    assert filtration_degree(normalize(["t^-1"] * 2, LAURENT)) == 2
    ab_ba = normalize(["a", "b"], FREE) + normalize(["b", "a"], FREE)
    assert filtration_degree(ab_ba) == 2
    with pytest.raises(ValueError):
        filtration_degree(Form(POLY, 0))


def test_curve_monomial_weights():
    # the relation y^2 = x^3 - x lets two generators produce x^3, so the
    # weight of x^i is min over m of 2m + max(0, i - 3m)
    expected = [0, 1, 2, 2, 3, 4, 4, 5, 6, 6]
    got = [CURVE.degree((i, 0)) for i in range(10)]
    assert got == expected
    assert CURVE.degree((3, 1)) == 3


def _weight_by_trades(d, i):
    """Oracle: the weight of x^i on y^2 = f(x), deg f = d, as the least
    cost over m trades of x^d for y^2: 2m + max(0, i - dm)."""
    return min(2 * m + max(0, i - d * m) for m in range(i // d + 2))


@pytest.mark.parametrize("d", range(1, 9))
def test_curve_weight_closed_form_matches_the_trades(d):
    A = AlgebraPresentation.plane_curve([1] + [0] * (d - 1) + [1])
    for i in range(1000):
        w = _weight_by_trades(d, i)
        assert A.degree((i, 0)) == w, (d, i)
        assert A.degree((i, 1)) == w + 1, (d, i)


def _span_monomials(A, n):
    """Monomial support of F_n from all words of length <= n."""
    alphabet = (["t"] if A.kind == "polynomial" else ["t", "t^-1"]
                if A.kind == "laurent" else ["a", "b"])
    out = set()
    if A.unital:
        out.add(A.one())

    def rec(word, left):
        if word:
            out.update(m for m, in normalize(word, A).terms)
        if left:
            for s in alphabet:
                rec(word + [s], left - 1)

    rec([], n)
    return out


@pytest.mark.parametrize(
    "A", [POLY, AlgebraPresentation.free(["a", "b"], unital=True)],
    ids=["polynomial", "free"])
def test_filtration_span_equality(A):
    # monomials of F_n * F_m span exactly F_{n+m}, up to degree 8;
    # F_0 = V*1, so the unital convention is in force
    for n in range(0, 5):
        for m in range(0, 9 - n):
            fn, fm, fnm = (_span_monomials(A, k) for k in (n, m, n + m))
            product = set()
            for a in fn:
                for b in fm:
                    product.update(A.mul_monomials(a, b))
            assert product == fnm


FREE_UNITAL = AlgebraPresentation.free(["a", "b"], unital=True)
ALPHABETS = {
    "free": FREE, "free-unital": FREE_UNITAL, "polynomial-t": POLY,
    "polynomial-xy": AlgebraPresentation.polynomial(("x", "y")),
    "laurent": LAURENT, "curve": CURVE}


@pytest.mark.parametrize("name", list(ALPHABETS))
def test_letters_factor_every_monomial(name):
    """``letters`` is the alphabet ``word_of`` uses on the degree-1
    window, a generator's monomial is its letter, and every monomial of
    degree <= 6 is the product of its word, multiplied back from the
    unit."""
    A = ALPHABETS[name]
    assert len(set(A.letters)) == len(A.letters)
    assert set(A.letters) == {w for s in A.monomials_up_to(1)
                              for w in word_of(A, s)}
    for i, g in enumerate(A.generators):
        assert A.generator_monomial(g) == A.letters[i]
    for m in A.monomials_up_to(6):
        word = word_of(A, m)
        assert all(w in A.letters for w in word), m
        acc = {A.one(): 1}
        for w in word:
            nxt = {}
            for a, c in acc.items():
                for b, cb in A.mul_monomials(a, w).items():
                    nxt[b] = nxt.get(b, 0) + c * cb
            acc = nxt
        assert acc == {m: 1}, m


def test_free_unit_is_the_empty_word_unital_or_not():
    # unital decides only whether the empty word is in the windows
    assert FREE.one() == FREE_UNITAL.one() == ()
    assert FREE.is_unit_monomial(()) and FREE.degree(()) == 0
    for n in range(5):
        assert (FREE_UNITAL.monomials_up_to(n)
                == ((),) + FREE.monomials_up_to(n))


# ---------------------------------------------------------------------------
# growth profiles
# ---------------------------------------------------------------------------


def test_profile_product_examples():
    cap = 12
    F1 = GrowthProfile.filtration(1, cap)
    F2 = GrowthProfile.filtration(2, cap)
    F3 = GrowthProfile.filtration(3, cap)
    F5 = GrowthProfile.filtration(5, cap)
    assert profile_product(F1, F1).w == F2.w
    assert profile_product(F2, F3).w == F5.w
    empty = GrowthProfile((INF,) * (cap + 1))
    assert profile_product(F1, empty).w == empty.w


def test_profile_diamond_closed_forms():
    # oracle for F_k over one variable: t^d first appears in p^i M^{i+1}
    # once k(i+1) >= d, so the hull valuation is max(0, ceil(d/k) - 1)
    cap = 20
    for k in (1, 2, 3):
        dia = profile_diamond(GrowthProfile.filtration(k, cap))
        for d in range(cap + 1):
            expected = max(0, -(-d // k) - 1)
            assert dia[d] == expected, (k, d)
    F1 = GrowthProfile.filtration(1, cap)
    dia = profile_diamond(F1)
    assert (dia[0], dia[1], dia[3]) == (0, 0, 2)
    F2 = GrowthProfile.filtration(2, cap)
    assert profile_diamond(F2)[5] == 2


def _reference_profile_diamond(u):
    """The hull as the minimum over i of i + (profile of M^{i+1}).

    With u(0) >= -1 a degree-0 factor can always be dropped at cost
    <= 0, so the minimum is attained with i <= d.
    """
    powers = [u]
    out = []
    for d in range(u.cap + 1):
        best = INF
        for i in range(d + 2):
            while len(powers) <= i:
                powers.append(profile_product(powers[-1], u))
            best = min(best, i + powers[i].w[d])
        out.append(best)
    return tuple(out)


def test_profile_diamond_matches_min_over_powers():
    rng = random.Random(19)
    values = list(range(-3, 7)) + [INF]
    for _ in range(5000):
        cap = rng.randint(0, 24)
        u = GrowthProfile((rng.choice(values[2:]),) + tuple(
            rng.choice(values) for _ in range(cap)))
        assert profile_diamond(u).w == _reference_profile_diamond(u), u.w


@pytest.mark.parametrize("u0", [-2, -3])
def test_profile_diamond_refuses_unbounded_hull(u0):
    # p^i M^{i+1} needs valuation i + (i + 1) u(0) in degree 0
    with pytest.raises(ValueError, match="unbounded"):
        profile_diamond(GrowthProfile((u0, 0, 1)))


def test_profile_diamond_idempotent():
    rng = random.Random(3)
    cap = 14
    for _ in range(50):
        w = []
        for d in range(cap + 1):
            w.append(INF if rng.random() < 0.2 else rng.randint(0, 6))
        u = GrowthProfile(tuple(w))
        dia = profile_diamond(u)
        assert profile_diamond(dia).w == dia.w


def test_diamond_laws_pass():
    for cap in (12, 20):
        for k1, k2 in [(1, 1), (2, 3), (1, 2)]:
            u = GrowthProfile.filtration(k1, cap)
            v = GrowthProfile.filtration(k2, cap)
            rep = profile_check_diam_laws(u, v)
            assert rep.ok, (rep.failed_law, rep.failed_degree)


def test_normalize_empty_word():
    assert str(normalize([], POLY)) == "1"
    with pytest.raises(ValueError):
        normalize([], FREE)


def test_presentation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation("laurent", ("t", "u"))
    with pytest.raises(ValueError):
        AlgebraPresentation.plane_curve([1])       # deg f = 0
    with pytest.raises(ValueError):
        AlgebraPresentation.plane_curve([0, 0, 2])  # lc not a unit
    with pytest.raises(ValueError):
        AlgebraPresentation("free", ("a", "a"))


@pytest.mark.parametrize("bad", [Fraction(-3, 2), Fraction(-1), -1.0, True],
                         ids=["fraction", "integral-fraction", "float",
                              "bool"])
def test_plane_curve_refuses_non_integer_coefficients(bad):
    with pytest.raises(ValueError, match="f_coeffs must be integers"):
        AlgebraPresentation.plane_curve([0, bad, 0, 1])


@pytest.mark.parametrize("A", [
    AlgebraPresentation.free(["a", "b"]),
    AlgebraPresentation.free(["a", "b"], unital=True),
    AlgebraPresentation.polynomial(),
    AlgebraPresentation.polynomial(["x", "y"]),
    AlgebraPresentation.laurent(),
    AlgebraPresentation.plane_curve([0, -1, 0, 1]),
], ids=["free", "free-unital", "polynomial", "polynomial2", "laurent",
        "curve"])
def test_monomials_up_to_cache(A):
    """The cached window equals a fresh enumeration, and every call hands
    out the one cached tuple, which no caller can change."""
    for bound in list(range(7)) + list(range(6, -1, -1)):
        got = A.monomials_up_to(bound)
        fresh = AlgebraPresentation(A.kind, A.generators, A.f_coeffs,
                                    A.unital).monomials_up_to(bound)
        assert got == fresh
        assert list(got) == sorted(got, key=A.sort_key)
        assert all(A.degree(m) <= bound for m in got)
        assert type(got) is tuple and A.monomials_up_to(bound) is got


def test_profile_product_is_the_min_plus_convolution():
    rng = random.Random(5)
    for cap in range(7):
        for _ in range(30):
            u, v = (GrowthProfile(tuple(
                rng.choice([0, 1, 2, 5, INF]) for _ in range(cap + 1)))
                for _ in range(2))
            want = tuple(min(u[i] + v[d - i] for i in range(d + 1))
                         for d in range(cap + 1))
            assert profile_product(u, v).w == want


def test_profile_product_commutes():
    # profile_check_diam_laws checks law 2 in one order only on this ground
    rng = random.Random(8)
    for cap in range(7):
        for _ in range(30):
            u, v = (GrowthProfile(tuple(
                rng.choice([0, 1, 3, INF, INF]) for _ in range(cap + 1)))
                for _ in range(2))
            assert profile_product(u, v) == profile_product(v, u)


@pytest.mark.parametrize("make, message", [
    (lambda: AlgebraPresentation("ring", ("t",)),
     "unknown presentation kind 'ring'"),
    (lambda: AlgebraPresentation("plane_curve", ("u", "v"),
                                 f_coeffs=[0, -1, 0, 1]),
     r"plane_curve requires generators \(x, y\)"),
    (lambda: AlgebraPresentation("polynomial", ("t",), f_coeffs=[0, 1]),
     "f_coeffs only applies to plane_curve"),
    (lambda: AlgebraPresentation("polynomial", ("t",), unital=False),
     "polynomial presentations are unital"),
    (lambda: profile_sum(GrowthProfile.filtration(1, 4),
                         GrowthProfile.filtration(1, 6)),
     "profiles must share a cap"),
    (lambda: profile_product(GrowthProfile.filtration(1, 6),
                             GrowthProfile.filtration(1, 4)),
     "profiles must share a cap"),
], ids=["unknown-kind", "curve-generators", "poly-f-coeffs",
        "poly-non-unital", "sum-caps", "product-caps"])
def test_presentation_and_profile_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make()
