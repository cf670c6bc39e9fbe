import math
import random
from fractions import Fraction

import pytest

from hacalc.algebra import AlgebraPresentation
from hacalc.derham import crosscheck_loop_graph, h_dr
from hacalc.errors import BadReduction, Mismatch
from hacalc.ncforms import PAD, stable_read, xcomplex_homology
from hacalc.scalars import PrimeConfig

CFG5 = PrimeConfig(5)
CFG7 = PrimeConfig(7)
CURVE = AlgebraPresentation.plane_curve([0, -1, 0, 1])


def cubic_discriminant(f_coeffs) -> int:
    """Oracle: discriminant of a cubic a3 x^3 + a2 x^2 + a1 x + a0."""
    a0, a1, a2, a3 = (list(f_coeffs) + [0] * 4)[:4]
    return (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0
            + a2 ** 2 * a1 ** 2 - 4 * a3 * a1 ** 3
            - 27 * a3 ** 2 * a0 ** 2)


def test_h_dr_polynomial_and_laurent():
    rep = h_dr(AlgebraPresentation.polynomial(), CFG7, 20)
    assert (rep.h0, rep.h1) == (1, 0)
    rep = h_dr(AlgebraPresentation.laurent(), CFG7, 20)
    assert (rep.h0, rep.h1) == (1, 1)
    assert rep.reps1 == ("dt/t",)
    assert rep.stable


def test_h_dr_curve():
    rep = h_dr(CURVE, CFG7, 20)
    assert (rep.h0, rep.h1) == (1, 2)
    assert rep.reps1 == ("dx/y", "x dx/y")
    assert rep.stable
    assert rep.max_valuation_loss == 0


def test_h_dr_bad_reduction():
    assert cubic_discriminant([0, -1, 0, 1]) == 4
    with pytest.raises(BadReduction, match="p >= 5 required"):
        h_dr(CURVE, PrimeConfig(2), 10)  # p = 2 < 5
    # y^2 = x^3 - x has disc 4; y^2 = x^3 + x^2 is singular (disc 0)
    with pytest.raises(ValueError):
        AlgebraPresentation.plane_curve([0, 0, 0])
    assert cubic_discriminant([0, 0, 1, 1]) == 0
    singular = AlgebraPresentation.plane_curve([0, 0, 1, 1])
    with pytest.raises(BadReduction, match="share a root"):
        h_dr(singular, CFG5, 10)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_bezout_gate_is_the_discriminant(p):
    """h_dr refuses a cubic with leading coefficient +-1 exactly when p
    divides its discriminant.  Half the draws are planted as
    (x - a)^2 (x - b) mod p, so both verdicts occur at every p."""
    rng = random.Random(p)
    cfg = PrimeConfig(p)
    verdicts = set()
    for k in range(24):
        lead = rng.choice([1, -1])
        if k % 2:
            a, b = rng.randrange(p), rng.randrange(p)
            root = [-a * a * b, a * a + 2 * a * b, -2 * a - b, 1]
            f = [lead * c + p * rng.randint(-3, 3) for c in root[:3]]
        else:
            f = [rng.randint(-30, 30) for _ in range(3)]
        f.append(lead)
        bad = cubic_discriminant(f) % p == 0
        verdicts.add(bad)
        try:
            h_dr(AlgebraPresentation.plane_curve(f), cfg, 4)
        except BadReduction:
            assert bad, f
        else:
            assert not bad, f
    assert verdicts == {False, True}


@pytest.mark.parametrize("f", [[3, 1], [-1, 0, 1], [1, 1, 0, 0, 1],
                               [1, -1, 0, 0, 0, 1], [-1, 0, 0, 2, 0, 0, 1],
                               [1, 0, 0, 0, 0, 0, 1, -1]],
                         ids=["deg1", "deg2", "deg4", "deg5", "deg6", "deg7"])
def test_h_dr_curve_every_degree(f):
    # genus formula: h1 = deg f - 1, one class x^j dx/y for each j
    rep = h_dr(AlgebraPresentation.plane_curve(f), CFG7, 20)
    names = ["dx/y", "x dx/y"] + [f"x^{j} dx/y" for j in range(2, 6)]
    assert (rep.h0, rep.h1) == (1, len(f) - 2)
    assert rep.reps1 == tuple(names[:len(f) - 2])
    assert rep.stable and rep.max_valuation_loss == 0


@pytest.mark.parametrize("f", [[1, 1, 0, 0, 1], [1, -1, 0, 0, 0, 1]],
                         ids=["quartic", "quintic"])
def test_h_dr_curve_matches_the_commutator_span(f):
    # the raw commutator span, independent of the Kahler window, at R = 3
    from test_ncforms import _dense_xcomplex_dims
    curve = AlgebraPresentation.plane_curve(f)
    rep = h_dr(curve, CFG7, 3)
    assert _dense_xcomplex_dims(curve, 3, PAD) == (rep.h0, rep.h1)
    assert rep.h1 == len(f) - 2


def test_curve_class_count_must_be_h1():
    from hacalc.derham import _curve_reps, _poly_bezout
    u, v, _ = _poly_bezout([0, -1, 0, 1], [-1, 0, 3])
    reduce = stable_read(CURVE, 20)[3]
    assert _curve_reps(CURVE, u, v, reduce, 2) == ("dx/y", "x dx/y")
    with pytest.raises(Mismatch, match="2 curve classes vs h1 = 3"):
        _curve_reps(CURVE, u, v, reduce, 3)


def test_curve_reps_refuses_classes_dependent_modulo_the_boundaries():
    """The window's reduce takes each form modulo the boundaries and the
    forms before it: a class read twice leaves nothing the second time,
    and _curve_reps refuses it."""
    from hacalc.derham import _curve_reps, _poly_bezout
    u, v, _ = _poly_bezout([0, -1, 0, 1], [-1, 0, 3])
    reduce = stable_read(CURVE, 20)[3]
    x, y = CURVE.generator_monomial("x"), CURVE.generator_monomial("y")
    form = {**{((k, 1), x): c for k, c in enumerate(u) if c},
            **{((k, 0), y): 2 * c for k, c in enumerate(v) if c}}
    first, again = reduce([form, form])
    assert first and not again
    with pytest.raises(Mismatch, match="not independent modulo"):
        _curve_reps(CURVE, u, v, lambda forms: reduce(forms[:1] * 2), 2)


def _dense_curve_cokernel(f_coeffs, N):
    """Oracle: assemble d on x^i y^j (j <= 1), row-reduce, read cokernel.

    Columns are x^i dx, x^i y dx, x^i dy, x^i y dy for i <= N; rows are
    the relation submodule generated by 2y dy - f'(x) dx and all the
    images d(x^m), d(x^m y); read off on the block i <= N - 6.
    """
    f = list(f_coeffs)
    fp = [k * c for k, c in enumerate(f)][1:]
    fams = ["dx", "ydx", "dy", "ydy"]
    cols = [(fam, i) for fam in fams for i in range(N + 1)]
    index = {c: k for k, c in enumerate(cols)}
    rows = []

    def add(entries):
        vec = [Fraction(0)] * len(cols)
        for fam, i, c in entries:
            if i > N:
                return
            vec[index[(fam, i)]] += c
        rows.append(vec)

    for i in range(N + 1):
        add([("ydy", i, Fraction(2))]
            + [("dx", i + k, Fraction(-c)) for k, c in enumerate(fp)])
        add([("dy", i + k, Fraction(2 * c)) for k, c in enumerate(f)]
            + [("ydx", i + k, Fraction(-c)) for k, c in enumerate(fp)])
    for m_ in range(1, N + 1):
        add([("dx", m_ - 1, Fraction(m_))])
    for m_ in range(0, N):
        add([("ydx", m_ - 1, Fraction(m_)), ("dy", m_, Fraction(1))]
            if m_ else [("dy", 0, Fraction(1))])

    # order columns: high index first so the low block is a suffix
    order = sorted(range(len(cols)), key=lambda k: -cols[k][1])
    rank_cols = []
    r = 0
    for ci in order:
        piv = next((i for i in range(r, len(rows)) if rows[i][ci]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][ci]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][ci]:
                c = rows[i][ci]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        rank_cols.append(ci)
        r += 1
    read = N - 6
    n_read = sum(1 for c in cols if c[1] <= read)
    pivots_read = sum(1 for ci in rank_cols if cols[ci][1] <= read)
    return n_read - pivots_read


def test_h_dr_curve_matches_dense_oracle():
    # the oracle value is frozen to 2 on suitably wide windows
    assert _dense_curve_cokernel([0, -1, 0, 1], 16) == 2
    assert _dense_curve_cokernel([0, -1, 0, 1], 20) == 2
    rep = h_dr(CURVE, CFG7, 20)
    assert rep.h1 == 2


@pytest.mark.parametrize("p", [5, 7, 11])
def test_crosscheck_loop_graph(p):
    cfg = PrimeConfig(p)
    assert crosscheck_loop_graph(
        h_dr(AlgebraPresentation.laurent(), cfg, 20)) is None
    with pytest.raises(Mismatch, match=r"graph \(1, 1\) vs de Rham \(1, 0\)"):
        crosscheck_loop_graph(h_dr(AlgebraPresentation.polynomial(), cfg, 20))


def test_second_curve_both_routes():
    # y^2 = x^3 - x + 1 has discriminant -23: good reduction away from 23
    curve = AlgebraPresentation.plane_curve([1, -1, 0, 1])
    assert cubic_discriminant([1, -1, 0, 1]) == -23
    for p in (5, 7, 11):
        rep = h_dr(curve, PrimeConfig(p), 20)
        assert (rep.h0, rep.h1) == (1, 2)
    with pytest.raises(BadReduction, match="not squarefree mod p = 23"):
        h_dr(curve, PrimeConfig(23), 20)
    # the raw commutator span, independent of the Kahler window
    from test_ncforms import _dense_xcomplex_dims
    assert _dense_xcomplex_dims(curve, 3, PAD) == (1, 2)


def test_readme_curve_both_routes_at_d60():
    x = xcomplex_homology(CURVE, CFG7, 60)
    assert (x.h0, x.h1) == (1, 2)
    assert x.reps1 == ("x*y d(x)", "y d(x)")
    dr = h_dr(CURVE, CFG7, 60)
    assert (dr.h0, dr.h1) == (1, 2)
    assert dr.reps1 == ("dx/y", "x dx/y")


@pytest.mark.parametrize("f", [[0, -1, 0, 1], [1, 2, 0, 1], [-3, 0, 1, -1],
                               [2, 1], [5, 0, 1]])
def test_poly_bezout_solves_the_sylvester_system(f):
    from hacalc.derham import _poly_bezout
    fp = [k * c for k, c in enumerate(f)][1:]
    u, v, r = _poly_bezout(f, fp)
    assert len(u) == len(fp) - 1 and len(v) == len(f) - 1
    assert all(type(c) is int for c in u + v + [r]) and r
    assert math.gcd(*u, *v, r) == 1
    prod = [0] * (len(f) + len(fp))
    for a, b in ((u, f), (v, fp)):
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                prod[i + k] += x * y
    assert prod[0] == r and not any(prod[1:])


def test_poly_bezout_readme_curve():
    from hacalc.derham import _poly_bezout
    assert _poly_bezout([0, -1, 0, 1], [-1, 0, 3]) == ([0, 9], [2, 0, -3],
                                                       -2)
    assert _poly_bezout([1, -1, 0, 1], [-1, 0, 3])[2] == 23
    assert _poly_bezout([1, -1, 0, 0, 0, 1], [-1, 0, 0, 0, 5])[2] \
        == 2869 == 19 * 151


def _denominator_gate(u, v, r, p):
    """Reference: p divides a reduced denominator of the rational Bezout
    pair u/r, v/r."""
    return any(Fraction(c, r).denominator % p == 0 for c in u + v)


def test_bezout_gate_is_the_denominator_rule():
    """r % p == 0 decides as the denominators of u/r, v/r do, on 3,000
    seeded smooth f of degree 1-6 with leading coefficient +-1 (singular
    draws are skipped), for p = 5..37."""
    from hacalc.derham import _poly_bezout
    rng = random.Random(31)
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    smooth = bad = 0
    while smooth < 3000:
        deg = rng.randint(1, 6)
        f = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1])]
        try:
            u, v, r = _poly_bezout(f, [k * c for k, c in enumerate(f)][1:])
        except BadReduction:
            continue
        smooth += 1
        for p in primes:
            gate = r % p == 0
            assert gate == _denominator_gate(u, v, r, p), (f, p)
            bad += gate
    assert 0 < bad < 3000 * len(primes)


@pytest.mark.parametrize("f, bad", [([1, -1, 0, 1], (23,)),
                                    ([1, -1, 0, 0, 0, 1], (19, 151))],
                         ids=["cubic", "quintic"])
def test_bezout_gate_refuses_the_primes_of_r(f, bad):
    curve = AlgebraPresentation.plane_curve(f)
    for p in bad:
        with pytest.raises(BadReduction, match=f"not squarefree mod p = {p}"):
            h_dr(curve, PrimeConfig(p), 4)
    assert h_dr(curve, CFG7, 4).h1 == len(f) - 2


def test_poly_bezout_refuses_a_common_root():
    from hacalc.derham import _poly_bezout
    f = [0, 0, -1, 1]  # x^2 (x - 1)
    with pytest.raises(BadReduction, match="share a root"):
        _poly_bezout(f, [0, -2, 3])
