import math
import random
from fractions import Fraction

import pytest

from hacalc.algebra import AlgebraPresentation
from hacalc.derham import (OverconvergentSeries,
                           crosscheck_loop_graph, cubic_discriminant, h_dr,
                           integrate_series, reduce_laurent_form)
from hacalc.errors import BadReduction, Mismatch
from hacalc.ncforms import PAD, xcomplex_homology
from hacalc.scalars import PrimeConfig

CFG5 = PrimeConfig(5)
CFG7 = PrimeConfig(7)
CURVE = AlgebraPresentation.plane_curve([0, -1, 0, 1])


def test_integrate_series_examples():
    s = OverconvergentSeries.with_min_certificate({4: Fraction(1)}, 24, 2,
                                                  CFG5)
    prim, loss = integrate_series(s, CFG5)
    assert dict(prim.coeffs) == {5: Fraction(1, 5)}
    assert loss == 1
    s = OverconvergentSeries.with_min_certificate({0: Fraction(1)}, 24, 2,
                                                  CFG5)
    prim, loss = integrate_series(s, CFG5)
    assert dict(prim.coeffs) == {1: Fraction(1)} and loss == 0
    all_ones = {l: Fraction(1) for l in range(125)}
    s = OverconvergentSeries.with_min_certificate(all_ones, 124, 4, CFG5)
    _, loss = integrate_series(s, CFG5)
    assert loss == 3  # from l + 1 = 125 = 5^3


def test_integrate_loss_bounded_by_log():
    for p, D in [(5, 24), (7, 48), (5, 124)]:
        cfg = PrimeConfig(p)
        coeffs = {l: Fraction(1) for l in range(D + 1)}
        s = OverconvergentSeries.with_min_certificate(coeffs, D, 3, cfg)
        _, loss = integrate_series(s, cfg)
        assert loss <= math.floor(math.log(D + 1, p))


def test_overconvergence_preserved():
    # reindexing t^l -> t^{l+1} can add one ceiling step on top of the
    # division loss, so the sharp certificate budget is log + 1
    rng = random.Random(0)
    for p, D, m in [(5, 30, 3), (5, 24, 2), (7, 48, 3)]:
        cfg = PrimeConfig(p)
        coeffs = {}
        for n_ in range(D + 1):
            need = math.ceil(n_ / m)
            coeffs[n_] = Fraction(rng.randint(1, 9) * p ** need)
        s = OverconvergentSeries.make(coeffs, D, m, 0, cfg)
        prim, loss = integrate_series(s, cfg)
        budget = math.floor(math.log(D + 1, p))
        assert loss <= budget
        assert prim.f <= s.f + budget + 1
        prim.verify(cfg)


def test_reduce_laurent_examples():
    residue, prim, loss = reduce_laurent_form({2: Fraction(1)}, 10, CFG5)
    assert residue == 0 and prim == {3: Fraction(1, 3)} and loss == 0
    residue, prim, loss = reduce_laurent_form({-1: Fraction(1)}, 10, CFG5)
    assert residue == 1 and prim == {}
    residue, prim, _ = reduce_laurent_form(
        {-1: Fraction(1), 2: Fraction(3)}, 10, CFG5)
    assert residue == 1 and prim == {3: Fraction(1)}


def test_reduce_laurent_exactness_random():
    rng = random.Random(1)
    for _ in range(1000):
        g = {rng.randint(-9, 9): Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9))
             for _ in range(rng.randint(1, 6))}
        residue, prim, loss = reduce_laurent_form(g, 10, CFG5)
        # omega - residue dt/t - d(primitive) = 0, coefficientwise
        recon = {-1: residue}
        for n_, c in prim.items():
            recon[n_ - 1] = recon.get(n_ - 1, 0) + n_ * c
        g_clean = {k: v for k, v in g.items() if v}
        recon = {k: v for k, v in recon.items() if v}
        assert recon == g_clean
        bound = math.floor(math.log(11, 5))
        assert loss <= bound


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
    assert rep.max_valuation_loss <= math.floor(math.log(21, 7))


def test_h_dr_bad_reduction():
    assert cubic_discriminant([0, -1, 0, 1]) == 4
    with pytest.raises(BadReduction):
        h_dr(CURVE, PrimeConfig(2), 10)  # p = 2 < 5
    # y^2 = x^3 - x has disc 4; y^2 = x^3 + x^2 is singular (disc 0)
    with pytest.raises(ValueError):
        AlgebraPresentation.plane_curve([0, 0, 0])
    singular = AlgebraPresentation.plane_curve([0, 0, 1, 1])
    with pytest.raises(BadReduction):
        h_dr(singular, CFG5, 10)


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
    rep = crosscheck_loop_graph(h_dr(AlgebraPresentation.laurent(), cfg, 20))
    assert rep.ok and rep.dims_graph == (1, 1)
    with pytest.raises(Mismatch, match=r"graph \(1, 1\) vs de Rham \(1, 0\)"):
        crosscheck_loop_graph(h_dr(AlgebraPresentation.polynomial(), cfg, 20))


def test_second_curve_both_routes():
    # y^2 = x^3 - x + 1 has discriminant -23: good reduction away from 23
    curve = AlgebraPresentation.plane_curve([1, -1, 0, 1])
    assert cubic_discriminant([1, -1, 0, 1]) == -23
    for p in (5, 7, 11):
        rep = h_dr(curve, PrimeConfig(p), 20)
        assert (rep.h0, rep.h1) == (1, 2)
    with pytest.raises(BadReduction):
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
    u, v = _poly_bezout(f, fp)
    assert len(u) == len(fp) - 1 and len(v) == len(f) - 1
    prod = [Fraction(0)] * (len(f) + len(fp))
    for a, b in ((u, f), (v, fp)):
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                prod[i + k] += x * y
    assert prod[0] == 1 and not any(prod[1:])


def test_poly_bezout_refuses_a_common_root():
    from hacalc.derham import _poly_bezout
    f = [0, 0, -1, 1]  # x^2 (x - 1)
    with pytest.raises(BadReduction, match="share a root"):
        _poly_bezout(f, [0, -2, 3])


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(2), 2.7, 2.0, True],
                         ids=["fraction", "integral-fraction", "float",
                              "integral-float", "bool"])
def test_series_refuses_non_integer_exponents(bad):
    assert OverconvergentSeries.make({2: 5}, 10, 2, 0, CFG5).coeffs \
        == ((2, Fraction(5)),)
    with pytest.raises(ValueError, match="series exponents must be integers"):
        OverconvergentSeries.make({bad: 5}, 10, 2, 0, CFG5)
    with pytest.raises(ValueError, match="series exponents must be integers"):
        OverconvergentSeries.with_min_certificate({3: 1, bad: 5}, 10, 2,
                                                  CFG5)
