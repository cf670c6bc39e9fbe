import gc
import itertools
import math
import random
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from hacalc.algebra import AlgebraPresentation
from hacalc import checks, ncforms
from hacalc.checks import (presentations, random_form, random_monomial,
                           suite_forms)
from hacalc.errors import DomainError, NotCommutative, WrongDegree
from hacalc.linalg import IntEchelon, SparseEchelon, kernel_basis
from hacalc.ncforms import (PAD, CommutatorQuotient, Form, MixedForm,
                            commutator_vectors, d_product, differential,
                            fedosov, fedosov_mixed, form_multiply,
                            hochschild_b1,
                            kahler_window,
                            one_form_tuples, xcomplex_boundary_checks,
                            xcomplex_homology)
from hacalc.scalars import PrimeConfig
from test_window_goldens import WINDOWS
from words import word_of

POLY = AlgebraPresentation.polynomial()
LAURENT = AlgebraPresentation.laurent()
CURVE = AlgebraPresentation.plane_curve([0, -1, 0, 1])
FREE = AlgebraPresentation.free(["a", "b"])
CFG = PrimeConfig(7)

T = POLY.generator_monomial("t")
ONE = POLY.one()


def f0(A, m):
    return Form(A, 0, {(m,): 1})


def test_differential_examples():
    assert differential(f0(POLY, T)) == Form.d_of_monomial(POLY, T)
    dt = Form.d_of_monomial(POLY, T)
    assert differential(dt).is_zero()  # head is the unit
    tdt = Form(POLY, 1, {(T, T): 1})
    assert differential(tdt) == Form(POLY, 2, {(ONE, T, T): 1})


def test_multiply_examples():
    tdt = Form(POLY, 1, {(T, T): 1})
    t2 = (2,)
    assert form_multiply(tdt, f0(POLY, T)) == Form(
        POLY, 1, {(T, t2): 1, (t2, T): -1})  # t d(t^2) - t^2 dt
    omega = Form(POLY, 1, {(t2, T): 5})
    assert form_multiply(f0(POLY, ONE), omega) == omega
    dt = Form.d_of_monomial(POLY, T)
    assert form_multiply(dt, dt) == Form(POLY, 2, {(ONE, T, T): 1})


def test_fedosov_examples():
    t2 = (2,)
    res = fedosov(f0(POLY, T), f0(POLY, T))
    assert res.component(0) == f0(POLY, t2)
    assert res.component(2) == Form(POLY, 2, {(ONE, T, T): -1})
    omega = Form(POLY, 1, {(T, T): 3})
    assert fedosov(f0(POLY, ONE), omega) == MixedForm.of(omega)
    # (dt dt) (.) t expands through the Leibniz rule only (d kills it)
    dtdt = Form(POLY, 2, {(ONE, T, T): 1})
    res = fedosov(dtdt, f0(POLY, T))
    assert res.component(2) == Form(
        POLY, 2, {(ONE, T, t2): 1, (ONE, t2, T): -1, (T, T, T): 1})
    assert res.component(4).is_zero()


def test_hochschild_b1_examples():
    a, b = FREE.generator_monomial("a"), FREE.generator_monomial("b")
    adb = Form(FREE, 1, {(a, b): 1})
    ab = (0, 1)
    ba = (1, 0)
    assert hochschild_b1(adb) == Form(FREE, 0, {(ab,): 1, (ba,): -1})
    assert hochschild_b1(Form(POLY, 1, {(T, T): 1})).is_zero()
    assert hochschild_b1(Form.d_of_monomial(POLY, T)).is_zero()
    with pytest.raises(WrongDegree):
        hochschild_b1(f0(POLY, T))


def test_commutator_quotient_reps():
    t2 = (2,)
    quo = CommutatorQuotient(POLY)
    rep = quo.rep(Form.d_of_monomial(POLY, t2))
    assert rep == Form(POLY, 1, {(T, T): 2})  # 2 t dt
    tdt = Form(POLY, 1, {(T, T): 1})
    assert quo.rep(tdt) == tdt
    assert quo.rep(quo.rep(Form.d_of_monomial(POLY, t2))) == quo.rep(
        Form.d_of_monomial(POLY, t2))


def test_commutator_quotient_free_consistency():
    quo = CommutatorQuotient(FREE)
    a, b = FREE.generator_monomial("a"), FREE.generator_monomial("b")
    adb = Form(FREE, 1, {(a, b): 1})
    db = Form(FREE, 1, {(FREE.one(), b): 1})
    dba = form_multiply(db, f0(FREE, a))
    assert quo.rep(adb) == quo.rep(dba)  # [a, db] = 0 in the quotient


def test_commutator_quotient_free_rep_string():
    # the adjoined unit heads the d(b) term and prints first
    quo = CommutatorQuotient(FREE)
    ab, b = (0, 1), (1,)
    one = FREE.one()
    assert one == ()
    rep = quo.rep(Form(FREE, 1, {(one, ab): 1, (one, b): -2}))
    assert str(rep) == "-2 d(b) + a d(b) + b d(a)"
    assert (one, b) in rep.terms


def test_unit_in_a_d_slot_is_zero():
    # d(1) = 0, so the constructor drops a tuple with the unit in a d-slot
    zero = Form(AlgebraPresentation.polynomial(), 1, {(T, ONE): 2})
    assert zero.is_zero() and zero == Form(POLY, 1) and str(zero) == "0"
    for x in (f0(POLY, T), Form(POLY, 1, {(T, T): 3}), zero):
        assert form_multiply(zero, x).is_zero()
        assert form_multiply(x, zero).is_zero()
    mixed = Form(POLY, 2, {(T, T, ONE): 1, (ONE, T, T): 2})
    assert mixed.terms == {(ONE, T, T): 2}
    assert Form(FREE, 1, {((), ()): 1}).is_zero()
    assert Form.d_of_monomial(POLY, ONE).is_zero()


def _reference_multiply(omega: Form, eta: Form) -> Form:
    """The graded product tested slot by slot: the oracle that
    :func:`form_multiply` must match, key by key."""
    A = omega.presentation
    n, m = omega.degree, eta.degree
    out = {}
    for xs, c1 in omega.terms.items():
        for ys, c2 in eta.terms.items():
            seq = xs + (ys[0],)
            tail = ys[1:]
            for j in range(n + 1):
                sign = -1 if (n - j) % 2 else 1
                for mm, mc in A.mul_monomials(seq[j], seq[j + 1]).items():
                    if j == 0:
                        head, slots = mm, seq[2:] + tail
                    else:
                        if A.is_unit_monomial(mm):
                            continue
                        head = seq[0]
                        slots = seq[1:j] + (mm,) + seq[j + 2:] + tail
                    if any(A.is_unit_monomial(s) for s in slots):
                        continue
                    key = (head,) + slots
                    out[key] = out.get(key, 0) + sign * c1 * c2 * mc
    return Form(A, n + m, out)


ORACLE_PRESENTATIONS = dict(
    presentations(), **{"free-unital": AlgebraPresentation.free(
        ["a", "b"], unital=True)})
ORACLE_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                 Fraction(5, 4), Fraction(4, 2))


def _oracle_form(A, degree, rng):
    """A random form of 1-3 tuples whose head is the unit about a third
    of the time; slots run over the monomials of degree <= 3, so Laurent
    t t^-1 cancellations and curve y^2 reductions occur."""
    monos = A.monomials_up_to(3)
    if not A.unital:
        monos = (A.one(),) + monos
    nonunit = [m for m in monos if not A.is_unit_monomial(m)]
    out = {}
    for _ in range(rng.randint(1, 3)):
        head = A.one() if rng.random() < 0.3 else rng.choice(monos)
        key = (head,) + tuple(rng.choice(nonunit) for _ in range(degree))
        out[key] = out.get(key, 0) + rng.choice(ORACLE_COEFFS)
    return Form(A, degree, out)


def _assert_same_product(x, y):
    got, want = form_multiply(x, y), _reference_multiply(x, y)
    assert got.terms == want.terms, (x, y)
    assert {k: type(c) for k, c in got.terms.items()} \
        == {k: type(c) for k, c in want.terms.items()}
    assert got.degree == want.degree and str(got) == str(want)


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS))
def test_form_multiply_against_reference(name):
    A = ORACLE_PRESENTATIONS[name]
    rng = random.Random(23)
    for _ in range(400):
        x = _oracle_form(A, rng.randint(0, 3), rng)
        y = _oracle_form(A, rng.randint(0, 3), rng)
        _assert_same_product(x, y)


def _assert_same_form(got: Form, want: Form):
    """Equal term by term: degree, den, keys in order, numerators and
    the types of the exact values."""
    assert (got.degree, got.den) == (want.degree, want.den)
    assert list(got.num.items()) == list(want.num.items())
    assert [type(c) for c in got.terms.values()] \
        == [type(c) for c in want.terms.values()]


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS))
def test_d_product_against_generic_product(name):
    """d_product(x, y) is form_multiply(d x, d y), and fedosov is its
    definition written with the generic product; the draws have unit
    and (non-unital free) empty-word heads, and 1/2 2 coefficients that
    lower the den."""
    A = ORACLE_PRESENTATIONS[name]
    rng = random.Random(31)
    for _ in range(300):
        x = _oracle_form(A, rng.randint(0, 3), rng)
        y = _oracle_form(A, rng.randint(0, 3), rng)
        _assert_same_form(d_product(x, y),
                          form_multiply(differential(x), differential(y)))
        i, j = x.degree, y.degree
        sign = -1 if (i * j) % 2 else 1
        high = form_multiply(differential(x), differential(y))
        want = MixedForm(A, {i + j: form_multiply(x, y),
                             i + j + 2: high.scale(-sign)})
        got = fedosov(x, y)
        assert list(got.parts) == list(want.parts)
        for n in want.parts:
            _assert_same_form(got.parts[n], want.parts[n])
    zero = Form(A, 1)
    assert d_product(zero, x) == Form(A, x.degree + 3)
    assert d_product(x, zero).den == 1


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS))
def test_product_table_remembers_mul_monomials(name):
    A = ORACLE_PRESENTATIONS[name]
    monos = A.monomials_up_to(3)
    if not A.unital:
        monos = (A.one(),) + monos
    for a, b in itertools.product(monos, monos):
        entry = A.product_table[a, b]
        assert [(m, c) for m, c, _ in entry] \
            == list(A.mul_monomials(a, b).items())
        assert [u for *_, u in entry] \
            == [A.is_unit_monomial(m) for m, _, _ in entry]
        assert A.product_table[a, b] is entry
    twin = AlgebraPresentation(A.kind, A.generators, A.f_coeffs, A.unital)
    assert twin.product_table is not A.product_table
    assert not twin.product_table
    twin.product_table[monos[-1], monos[-1]]
    twin.monomials_up_to(3)
    gone = weakref.ref(twin)
    del twin  # no cycle: reference counting frees it, no collector runs
    assert gone() is None


def test_suites_free_their_presentations_by_reference_counting(
        monkeypatch):
    """The presentations a sampled suite builds, with their windows,
    pools and product tables, die with the suite: none waits for the
    cyclic collector, which is off here."""
    built = []
    plain = checks.presentations

    def tracked():
        kinds = plain()
        built.extend(map(weakref.ref, kinds.values()))
        return kinds

    monkeypatch.setattr(checks, "presentations", tracked)
    cfg = PrimeConfig(5)
    gc.disable()
    try:
        assert checks.suite_fedosov_growth(cfg, 3, 0).passed
        assert checks.suite_tube_closure(cfg, 3, 0).passed
        assert len(built) == 8
        assert [ref() for ref in built] == [None] * 8
    finally:
        gc.enable()


def test_rebuilt_presentations_repeat_mul_monomials_counts(monkeypatch):
    """Two passes over freshly built presentations ask mul_monomials
    equally often: the product table lives on its presentation, so no
    pass reads what an earlier one filled."""
    calls = []
    plain = AlgebraPresentation.mul_monomials

    def counted(self, a, b):
        calls.append(1)
        return plain(self, a, b)

    monkeypatch.setattr(AlgebraPresentation, "mul_monomials", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert suite_forms(8, 3).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _assert_normal(f: Form):
    """num / den in lowest terms: a positive den sharing no factor with
    every numerator, den = 1 for zero, and ``terms`` ints exactly when
    den = 1."""
    assert type(f.den) is int and f.den >= 1
    assert all(type(c) is int and c for c in f.num.values())
    assert math.gcd(f.den, *f.num.values()) == 1
    want = int if f.den == 1 else Fraction
    assert all(type(c) is want for c in f.terms.values())
    assert f.terms == {k: Fraction(c, f.den) for k, c in f.num.items()}


def _plain_combination(*scaled):
    """sum c f over (c, f) pairs, coefficient by coefficient on
    ``terms``: the value oracle of +, - and scale."""
    out = {}
    for c, f in scaled:
        for k, v in f.terms.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS))
def test_every_kernel_returns_the_normal_form(name):
    A = ORACLE_PRESENTATIONS[name]
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(0, 2)
        x, y = _oracle_form(A, n, rng), _oracle_form(A, n, rng)
        z = _oracle_form(A, rng.randint(0, 2), rng)
        outs = [x, y, form_multiply(x, z), form_multiply(z, x),
                differential(x), x + y, x - y, x - x,
                *(x.scale(c) for c in (3, -1, 0, Fraction(-2, 3),
                                       Fraction(5), Fraction(4, 6)))]
        for mixed in (MixedForm.sum(A, [x, y, z, differential(z)]),
                      fedosov(x, z), fedosov(z, y)):
            outs += mixed.parts.values()
        if n == 1:
            outs.append(hochschild_b1(x))
            if A.kind in ("free", "polynomial"):
                outs.append(CommutatorQuotient(A).rep(x))
        for f in outs:
            _assert_normal(f)
        assert (x + y).terms == _plain_combination((1, x), (1, y))
        assert (x - y).terms == _plain_combination((1, x), (-1, y))
        for c in (3, -1, Fraction(-2, 3), Fraction(4, 6)):
            assert x.scale(c).terms == _plain_combination((c, x))
        assert (x - x) == Form(A, n) and (x - x).den == 1
        assert x.scale(0) == Form(A, n)
        if x.is_zero():
            continue
        key = next(iter(x.num))
        half = Form(A, n, {key: Fraction(1, 2)})
        assert half.den == 2 and (half + half).den == 1
        assert (half + half).terms == {key: 1}
        assert half - half == Form(A, n)


@pytest.mark.parametrize("bad", [0.5, 2.0, 0.0, True, False, "1", None,
                                 complex(1, 0)])
def test_inexact_coefficients_are_refused(bad):
    key = (T, T)
    with pytest.raises(ValueError, match="int or Fraction"):
        Form(POLY, 1, {key: bad})
    with pytest.raises(ValueError, match="int or Fraction"):
        Form(POLY, 1, {key: 1, (ONE, T): bad})
    with pytest.raises(ValueError, match="int or Fraction"):
        Form(POLY, 1, {key: 1}).scale(bad)


def test_form_multiply_reference_cases():
    # each case takes one branch that drops a term
    t, tinv = (1,), (-1,)
    x, y = (1, 0), (0, 1)
    a = FREE.generator_monomial("a")
    cases = [
        # the unit from merging two d-slots: d(t) d(t^-1) times t dt
        (Form(LAURENT, 2, {((0,), t, tinv): 1}),
         Form(LAURENT, 1, {(t, t): Fraction(1, 2)})),
        # the unit from merging the last slot with y0: d(t^-1) times t
        (Form(LAURENT, 1, {((0,), tinv): 3}), f0(LAURENT, t)),
        # a unit y0 leaves only j = n: t dt d(t^2) times 1 dt
        (Form(POLY, 2, {(T, T, (2,)): 2}),
         Form(POLY, 1, {(ONE, T): Fraction(-2, 3), (T, T): 1})),
        # y * y reduces to x^3 - x: x dy times y dx
        (Form(CURVE, 1, {(x, y): Fraction(1, 2)}),
         Form(CURVE, 1, {(y, x): 2})),
        # the adjoined unit as y0: a da times d(a)
        (Form(FREE, 1, {(a, a): 1}), Form(FREE, 1, {((), a): -1})),
    ]
    for omega, eta in cases:
        _assert_same_product(omega, eta)
        _assert_same_product(eta, omega)
        assert not form_multiply(omega, eta).is_zero()


def _mixed_head_form(A, degree, rng):
    """A seeded form with at least one unit head and one non-unit head."""
    f = _oracle_form(A, degree, rng)
    slots = [m for m in A.monomials_up_to(2) if not A.is_unit_monomial(m)]
    extra = {(head,) + tuple(rng.choice(slots) for _ in range(degree)):
             rng.choice(ORACLE_COEFFS)
             for head in (A.one(), rng.choice(slots))}
    return f + Form(A, degree, extra)


_P2 = (2,)
_A, _B, _AB = (0,), (1,), (0, 1)
#: Two tuples of omega whose j < n prefixes meet: under one relative
#: sign the shared prefix cancels, under the other it doubles.  t d(t^2)
#: and t^2 dt both give (t^3,); a db and 1 d(ab) both give (ab,); and
#: t dt dt (j = 1) and 1 dt d(t^2) (j = 0) both give (t, t^2).
_MEETING_PREFIXES = [
    (POLY, 1, (T, _P2), (_P2, T)),
    (FREE, 1, (_A, _B), ((), _AB)),
    (ORACLE_PRESENTATIONS["free-unital"], 1, (_A, _B), ((), _AB)),
    (POLY, 2, (T, T, T), (ONE, T, _P2)),
]


@pytest.mark.parametrize("case", range(len(_MEETING_PREFIXES)))
@pytest.mark.parametrize("sign", [-1, 1])
def test_prefixes_that_meet_are_merged_once(case, sign):
    """Prefixes shared by two tuples of omega are summed before they meet
    eta: the sum matches the reference, and prefixes that cancel leave no
    zero numerator behind, even in a :class:`FormSum`'s raw dict."""
    A, n, first, second = _MEETING_PREFIXES[case]
    omega = Form(A, n, {first: 1, second: sign})
    rng = random.Random(41 + case)
    for _ in range(40):
        eta = _mixed_head_form(A, rng.randint(0, 2), rng)
        assert any(A.is_unit_monomial(ys[0]) for ys in eta.num)
        assert not all(A.is_unit_monomial(ys[0]) for ys in eta.num)
        _assert_same_product(omega, eta)
        acc = ncforms.FormSum()
        acc.add_product(1, omega, eta)
        assert 0 not in acc.num.values()
        assert acc.form(A, n + eta.degree) == form_multiply(omega, eta)


def _reversed(f: Form) -> Form:
    """f with its numerators inserted in reverse order."""
    return Form._trusted(f.presentation, f.degree,
                         dict(reversed(f.num.items())), f.den)


@pytest.mark.parametrize("name", list(ORACLE_PRESENTATIONS))
def test_key_order_reaches_no_output(name):
    """A product read back with its keys in reverse order is equal, and
    prints and sorts the same: the insertion order of a kernel's keys
    reaches no output."""
    A = ORACLE_PRESENTATIONS[name]
    rng = random.Random(43)
    for _ in range(100):
        x = _oracle_form(A, rng.randint(0, 2), rng)
        y = _oracle_form(A, rng.randint(0, 2), rng)
        z = _oracle_form(A, rng.randint(0, 2), rng)
        low_high = fedosov(x, y)
        mixed = fedosov_mixed(low_high, MixedForm.of(z))
        forms = [form_multiply(x, y), *low_high.parts.values(),
                 *mixed.parts.values()]
        for f in forms:
            g = _reversed(f)
            assert g == f and str(g) == str(f) and g.items() == f.items()
        flipped = MixedForm(A, {n: _reversed(mixed.parts[n])
                                for n in reversed(mixed.parts)})
        assert flipped == mixed and str(flipped) == str(mixed)


def _dense_rref_basis(vectors, ncols):
    """Plain dense Gaussian elimination oracle over Fraction."""
    rows = [[Fraction(v.get(c, 0)) for c in range(ncols)] for v in vectors]
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        # the pivot row is zero left of col, so only col: onwards changes
        inv = 1 / rows[rank][col]
        rows[rank][col:] = [x * inv for x in rows[rank][col:]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r][col:] = [x - c * y for x, y in
                                 zip(rows[r][col:], rows[rank][col:])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _dense_xcomplex_dims(A, D, pad):
    """Independent dense recomputation of the windowed homology dims."""
    big = D + pad
    tuples = sorted(one_form_tuples(A, big),
                    key=lambda t: -(A.degree(t[0])
                                    + sum(A.degree(s) for s in t[1:])))
    col = {t: i for i, t in enumerate(tuples)}
    deg = [A.degree(t[0]) + A.degree(t[1]) for t in tuples]
    vecs = [{col[k]: c for k, c in v.items()}
            for v in commutator_vectors(A, big)]
    one = A.one()
    dvecs = []
    for s in A.monomials_up_to(big):
        if not A.is_unit_monomial(s):
            dvecs.append({col[(one, s)]: 1})
    crows, cpivots = _dense_rref_basis(vecs, len(tuples))
    # the reduced commutator rows span what vecs span, so extending them
    # by dvecs gives the pivots of vecs + dvecs
    _, pivots = _dense_rref_basis(
        [{i: c for i, c in enumerate(r) if c} for r in crows] + dvecs,
        len(tuples))
    read = [i for i in range(len(tuples)) if deg[i] <= D]
    h1 = len(read) - sum(1 for p in pivots if deg[p] <= D)
    # kernel of d modulo commutators on the degree-<=D slice

    def reduce(vec):
        v = [Fraction(vec.get(c, 0)) for c in range(len(tuples))]
        for row, p in zip(crows, cpivots):
            if v[p]:
                coef = v[p]
                v = [x - coef * y for x, y in zip(v, row)]
        return v

    domain = A.monomials_up_to(D)
    reduced = []
    for s in domain:
        if A.is_unit_monomial(s):
            reduced.append([Fraction(0)] * len(tuples))
        else:
            reduced.append(reduce({col[(one, s)]: 1}))
    _, dpivots = _dense_rref_basis(
        [{i: c for i, c in enumerate(r) if c} for r in reduced],
        len(tuples))
    h0 = len(domain) - len(dpivots)
    return h0, h1


@pytest.mark.parametrize("A,D,expected", [
    (POLY, 6, (1, 0)),
    (AlgebraPresentation.polynomial(["x", "y"]), 4, (1, 6)),
    (LAURENT, 6, (1, 1)),
    (CURVE, 5, (1, 2)),
    (AlgebraPresentation.plane_curve([1, -1, 0, 1]), 4, (1, 2)),
], ids=["polynomial", "polynomial2", "laurent", "curve", "curve2"])
def test_xcomplex_against_dense_oracle(A, D, expected):
    # the Kahler window and the raw commutator span agree on every
    # truncated slice, unstable ones included
    for R in range(D + 1):
        dims = kahler_window(A, [R])[R][:2]
        assert dims == _dense_xcomplex_dims(A, R, PAD), R
    assert dims == expected


def _random_vectors(rng, count):
    """Small int vectors over columns 0..5, with repeats, empties and
    combinations of earlier ones, so kernels are common."""
    vs = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            vs.append({})
        elif roll < 0.3 and vs:
            vs.append(dict(rng.choice(vs)))
        elif roll < 0.45 and len(vs) > 1:
            a, b = rng.sample(vs, 2)
            vs.append({c: a.get(c, 0) + 2 * b.get(c, 0)
                       for c in {**a, **b}})
        else:
            vs.append({rng.randrange(6): rng.choice([1, -2, 3, 4, -6])
                       for _ in range(rng.randint(1, 3))})
    return vs


def _seeded(rows):
    ech = IntEchelon()
    for row in rows:
        ech.add(row)
    return ech


def test_kernel_basis_keeps_prefixes():
    rng = random.Random(3)
    for _ in range(120):
        vs = _random_vectors(rng, rng.randint(0, 12))
        full = kernel_basis(vs)
        for n in range(len(vs) + 1):
            assert kernel_basis(vs[:n]) == [c for c in full if max(c) < n]


def test_kernel_basis_is_the_kernel_modulo_the_seeded_rows():
    """Against brute force, with no rows seeded (``kernel_basis`` starts a
    fresh echelon): each returned combination maps to 0, and their number
    is n - rank(vectors) by dense elimination."""
    rng = random.Random(5)
    for _ in range(80):
        vs = _random_vectors(rng, rng.randint(1, 9))
        kernel = kernel_basis(vs)
        for combo in kernel:
            image = {}
            for i, c in combo.items():
                for col, v in vs[i].items():
                    image[col] = image.get(col, 0) + c * v
            assert not any(image.values()), (vs, combo)
        assert len(kernel) == len(vs) - len(_dense_rref_basis(vs, 6)[1])
    # the residuals of {1: 1, 2: 1, 3: 1} and {1: 1} modulo the row
    # {2: 1, 3: 1} stop at column 1, the first without a pivot, and are
    # independent
    ech = _seeded([{2: 1, 3: 1}])
    d = [{1: 1, 2: 1, 3: 1}, {1: 1}]
    assert kernel_basis([ech.reduce(v) for v in d]) == []


def test_residuals_are_exact_modulo_the_rows_and_the_earlier_vectors():
    """v1 = {1: 1, 2: 1, 3: 1} and v2 = {1: 1} differ by the row
    {2: 1, 3: 1}.  Their residuals stop at column 1, the first without a
    pivot, so a fresh echelon of the residuals keeps both (pivots 1 and
    2); reduced into a copy of the rows, v2 leaves nothing."""
    ech = _seeded([{2: 1, 3: 1}])
    v1, v2 = {1: 1, 2: 1, 3: 1}, {1: 1}
    fresh = IntEchelon()
    assert [fresh.add(ech.reduce(v)) for v in (v1, v2)] == [1, 2]
    assert ech.residuals([v1, v2]) == [{1: 1, 2: 1, 3: 1}, {}]
    assert list(ech.rows) == [2]
    # against the rational reference, on random rows and vectors
    rng = random.Random(6)
    for _ in range(80):
        rows = _random_vectors(rng, rng.randint(0, 4))
        vs = _random_vectors(rng, rng.randint(1, 6))
        span = SparseEchelon()
        for row in rows:
            span.add(row)
        for v, res in zip(vs, _seeded(rows).residuals(vs)):
            assert bool(res) == (not span.contains(v)), (rows, vs)
            span.add(v)


def test_kernel_basis_returns_kernel_vectors_and_refuses_fractions():
    """Each vector kernel_basis returns maps to 0; it takes int vectors,
    and a Fraction, float or bool raises TypeError rather than a wrong
    kernel (clearing one vector's denominators would rescale its column
    and not its identity entry: {0: 1/2}, {0: 1} gave e_0 - e_1, which
    maps to -1/2)."""
    rng = random.Random(4)
    found = 0
    for _ in range(60):
        vs = [{rng.randrange(5): rng.choice([1, -2, 3, 4, -6])
               for _ in range(rng.randint(0, 3))}
              for _ in range(rng.randint(1, 8))]
        for combo in kernel_basis(vs):
            image = {}
            for i, c in combo.items():
                for col, v in vs[i].items():
                    image[col] = image.get(col, 0) + c * v
            assert not any(image.values()), (vs, combo)
            found += 1
    assert found > 50
    # every entry is checked, one after an entry of gcd 1 too: the
    # echelon's gcd scan stops there, so {0: 1, 1: 1/2} gave an empty
    # kernel and kept a row holding the Fraction
    for vs in ([{0: Fraction(1, 2)}, {0: 1}], [{0: 2}, {0: Fraction(1, 2)}],
               [{1: 1}, {0: Fraction(3, 4), 1: 2}],
               [{0: 1, 1: Fraction(1, 2)}], [{0: 1}, {0: 3, 1: Fraction(2)}],
               [{0: 2, 1: 1, 2: 2.0}], [{0: 1, 1: True}],
               [{0: 1}, {}, {3: 0.5}]):
        with pytest.raises(TypeError):
            kernel_basis(vs)


@pytest.mark.parametrize("A", [POLY, LAURENT, CURVE],
                         ids=["polynomial", "laurent", "curve"])
def test_kahler_window_reads_each_bound_as_alone(A):
    both = kahler_window(A, [4, 9])
    for R in (4, 9):
        assert both[R][:3] == kahler_window(A, [R])[R][:3]


def _word_walk_kahler_d(A, s):
    """d(s) = sum_i (prod_{j != i} w_j) dw_i over the canonical word
    s = w_1 ... w_n of ``word_of``, the k equal letters w sharing one
    cofactor s / w, taken k times: the oracle of the closed-form
    ``ncforms._kahler_d``."""
    word = word_of(A, s)
    return {(A.cofactor(s, w), w): word.count(w) for w in dict.fromkeys(word)}


@pytest.mark.parametrize("name", WINDOWS)
def test_kahler_d_is_the_word_walk(name):
    """The closed form equals the word walk, as a dict and in key order,
    on every monomial of degree <= 12."""
    A, _ = WINDOWS[name]
    for s in A.monomials_up_to(12):
        got, want = ncforms._kahler_d(A, s), _word_walk_kahler_d(A, s)
        assert list(got.items()) == list(want.items()), s


def test_kahler_d_of_a_huge_exponent_is_its_closed_form():
    """d(x^e) costs one step per variable, not per letter of a word of
    10^12 letters."""
    n = 10**12
    assert ncforms._kahler_d(POLY, (n,)) == {((n - 1,), T): n}
    assert ncforms._kahler_d(LAURENT, (-n,)) == {((1 - n,), (-1,)): n}
    assert ncforms._kahler_d(CURVE, (n, 1)) == {
        ((n - 1, 1), (1, 0)): n, ((n, 0), (0, 1)): 1}


def test_xcomplex_polynomial():
    rep = xcomplex_homology(POLY, CFG, 10)
    assert (rep.h0, rep.h1) == (1, 0)
    assert rep.stable


def test_xcomplex_laurent():
    rep = xcomplex_homology(LAURENT, CFG, 10)
    assert (rep.h0, rep.h1) == (1, 1)
    assert rep.reps1 == ("t^-1 d(t)",)  # the class of dt/t
    assert rep.stable


def test_xcomplex_curve():
    rep = xcomplex_homology(CURVE, CFG, 14)
    assert (rep.h0, rep.h1) == (1, 2)
    assert rep.stable


def test_xcomplex_curve_reps_golden():
    rep = xcomplex_homology(CURVE, CFG, 10)
    assert rep.reps1 == ("x*y d(x)", "y d(x)")


def _window_sort_key(A, key_tuple):
    """Reference column order: total degree strictly descending, then slot
    degree, slots and head, each by ``sort_key``."""
    head, *slots = key_tuple
    total = A.degree(head) + sum(A.degree(s) for s in slots)
    slotdeg = sum(A.degree(s) for s in slots)
    return (-total, -slotdeg,
            tuple(A.sort_key(s) for s in slots), A.sort_key(head))


def test_xcomplex_curve_expected_classes():
    """r dx/y = u y dx + 2 v dy with u f + v f' = r and its x-multiple
    are independent nonzero classes in the computed quotient."""
    from hacalc.derham import _poly_bezout
    A, D = CURVE, 12
    big = D + 2
    tuples = sorted(one_form_tuples(A, big),
                    key=lambda t: _window_sort_key(A, t))
    col = {t: i for i, t in enumerate(tuples)}
    ech = IntEchelon()
    for v in commutator_vectors(A, big):
        ech.add({col[k]: int(c) for k, c in v.items()})
    one = A.one()
    for s in A.monomials_up_to(big):
        if not A.is_unit_monomial(s):
            ech.add({col[(one, s)]: 1})
    u, v, _ = _poly_bezout([0, -1, 0, 1], [-1, 0, 3])
    x_, y_ = A.generator_monomial("x"), A.generator_monomial("y")
    vecs = []
    for j in (0, 1):
        vec = {}
        for k, c in enumerate(u):
            if c:
                head = (j + k, 1)  # x^{j+k} y
                vec[col[(head, x_)]] = vec.get(col[(head, x_)], 0) + c
        for k, c in enumerate(v):
            if c:
                head = (j + k, 0)
                vec[col[(head, y_)]] = vec.get(col[(head, y_)], 0) + 2 * c
        vecs.append(vec)
    # each residual is taken modulo the boundaries and the class before it
    assert all(ech.residuals(vecs)), "dependent modulo the boundaries"


def test_xcomplex_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        xcomplex_homology(FREE, CFG, 4)


def test_boundary_checks_build_no_window_on_commutative(monkeypatch):
    """b(omega) = 0 on commutative presentations, so checking that
    d(b(omega)) is a commutator needs no commutator window."""
    def refuse(*args):
        raise AssertionError("commutator window built")

    monkeypatch.setattr(ncforms, "CommutatorQuotient", refuse)
    rng = random.Random(5)
    for A in (POLY, LAURENT, CURVE):
        monos = [random_monomial(A, 2, rng) for _ in range(16)]
        forms = [random_form(A, 1, 2, rng) for _ in range(16)]
        assert xcomplex_boundary_checks(A, monos, forms) == (True, "")
    forms = [random_form(FREE, 1, 2, rng) for _ in range(16)]
    with pytest.raises(AssertionError, match="window built"):
        xcomplex_boundary_checks(FREE, [], forms)


def test_multiply_associative_random():
    rng = random.Random(11)
    for name, A in presentations().items():
        for _ in range(60):
            x = random_form(A, rng.randint(0, 2), 3, rng)
            y = random_form(A, rng.randint(0, 2), 3, rng)
            z = random_form(A, rng.randint(0, 2), 3, rng)
            assert form_multiply(form_multiply(x, y), z) == \
                form_multiply(x, form_multiply(y, z)), name


def test_graded_leibniz_random():
    rng = random.Random(12)
    for name, A in presentations().items():
        for _ in range(60):
            x = random_form(A, rng.randint(0, 3), 3, rng)
            y = random_form(A, rng.randint(0, 3), 3, rng)
            sign = -1 if x.degree % 2 else 1
            lhs = differential(form_multiply(x, y))
            rhs = (form_multiply(differential(x), y)
                   + form_multiply(x, differential(y)).scale(sign))
            assert lhs == rhs, name


def test_curvature_of_inclusion_identity():
    # x*y - x (.) y = dx dy on every monomial pair
    for name, A in presentations().items():
        monos = A.monomials_up_to(3)
        for x, y in itertools.product(monos[:8], monos[:8]):
            fx, fy = f0(A, x), f0(A, y)
            curv = MixedForm.of(form_multiply(fx, fy)) - fedosov(fx, fy)
            dd = form_multiply(Form.d_of_monomial(A, x),
                               Form.d_of_monomial(A, y))
            assert curv == MixedForm.of(dd), name


def _pivot_key(A, key_tuple):
    """The windowed reference's column order: large d-slots first."""
    head, *slots = key_tuple
    total = A.degree(head) + sum(A.degree(s) for s in slots)
    slotdeg = sum(A.degree(s) for s in slots)
    return (-slotdeg, -total,
            tuple(A.sort_key(s) for s in slots), A.sort_key(head))


def _windowed_rep(A, bound):
    """Reference representatives: the rref of every commutator [x, y dz]
    of total degree <= bound, pivoting on large d-slots first."""
    tuples = sorted(one_form_tuples(A, bound),
                    key=lambda t: _pivot_key(A, t))
    col = {t: i for i, t in enumerate(tuples)}
    ech = SparseEchelon()
    for vec in commutator_vectors(A, bound):
        ech.add({col[k]: c for k, c in vec.items()})

    def rep(omega):
        res = ech.reduce({col[k]: c for k, c in omega.terms.items()})
        return Form(A, 1, {tuples[c]: v for c, v in res.items()})

    return rep


@pytest.mark.parametrize("A", [
    FREE, AlgebraPresentation.free(["a", "b"], unital=True), POLY,
    AlgebraPresentation.polynomial(["x", "y"]),
], ids=["free", "free-unital", "polynomial", "polynomial2"])
def test_commutator_quotient_against_windowed_rref(A):
    bound = 6
    quo, oracle = CommutatorQuotient(A), _windowed_rep(A, bound)
    for vec in commutator_vectors(A, bound):
        assert quo.contains(Form(A, 1, vec))
    rng = random.Random(17)
    for _ in range(500):
        omega = random_form(A, 1, bound // 2, rng, terms=rng.randint(1, 4))
        rep, want = quo.rep(omega), oracle(omega)
        assert rep == want, str(omega)
        assert str(rep) == str(want)
        assert quo.rep(rep) == rep


def test_commutator_quotient_long_free_word():
    # no window: a degree-24 word rotates onto its 24 letters
    rng = random.Random(4)
    word = tuple(rng.randrange(2) for _ in range(24))
    quo = CommutatorQuotient(FREE)
    rep = quo.rep(Form(FREE, 1, {((), word): 1}))
    assert all(len(s) == 1 and len(h) == 23 for h, s in rep.terms)
    assert sum(rep.terms.values()) == 24
    assert quo.rep(rep) == rep


def _word_walk_rep(A, omega) -> dict:
    """x d(v_1 ... v_k) = sum_i (v_{i+1} ... v_k x v_1 ... v_{i-1}) dv_i
    over the canonical word of s, each rotation multiplied back from the
    unit one ``mul_monomials`` at a time: the oracle of the rotation and
    the Kahler d of ``CommutatorQuotient.rep``, keys in insertion order."""
    out = {}
    for (x, s), c in omega.num.items():
        word = word_of(A, s)
        for i, v in enumerate(word):
            head = A.one()
            for m in word[i + 1:] + [x] + word[:i]:
                (head,) = A.mul_monomials(head, m)
            out[(head, v)] = out.get((head, v), 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("A", [
    FREE, AlgebraPresentation.free(["a", "b"], unital=True), POLY,
    AlgebraPresentation.polynomial(["x", "y"]),
], ids=["free", "free-unital", "polynomial", "polynomial2"])
def test_commutator_quotient_is_the_word_walk(A):
    """rep equals the word walk, as a dict and in key order, on every
    1-form (x, s) with deg x + deg s <= 6, and on their seeded sum,
    where repeated keys across terms add up and may cancel."""
    quo = CommutatorQuotient(A)
    tuples = one_form_tuples(A, 6)
    rng = random.Random(5)
    forms = [Form(A, 1, {t: 1}) for t in tuples]
    forms.append(Form(A, 1, {t: rng.choice((1, -1, 2, -3)) for t in tuples}))
    for omega in forms:
        got = quo.rep(omega)
        assert list(got.num.items()) == list(
            _word_walk_rep(A, omega).items()), str(omega)


def test_commutator_quotient_free_word_of_length_2000_within_1s():
    """d(w) rotates onto one term per letter, each term h dv closing up
    to the rotation v h of w, within a second: no rotation is multiplied
    back letter by letter, which costs O(n^3) on a word of n letters."""
    rng = random.Random(42)
    w = tuple(rng.randrange(2) for _ in range(2000))
    start = time.perf_counter()
    rep = CommutatorQuotient(FREE).rep(Form(FREE, 1, {((), w): 1}))
    elapsed = time.perf_counter() - start
    assert all(len(v) == 1 for _, v in rep.num)
    assert {v + h: c for (h, v), c in rep.num.items()} == Counter(
        w[i:] + w[:i] for i in range(len(w)))
    assert elapsed < 1, elapsed


def test_commutator_quotient_huge_polynomial_monomial_within_1s():
    """x d(x^3000 y^3000) = 3000 x^3000 y^3000 dx + 3000 x^3001 y^2999 dy
    in Z[x, y], within a second: no word of 6,000 letters is built and
    multiplied back."""
    A = AlgebraPresentation.polynomial(["x", "y"])
    start = time.perf_counter()
    rep = CommutatorQuotient(A).rep(Form(A, 1, {((1, 0), (3000, 3000)): 1}))
    elapsed = time.perf_counter() - start
    assert list(rep.num.items()) == [(((3000, 3000), (1, 0)), 3000),
                                     (((3001, 2999), (0, 1)), 3000)]
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("A", [LAURENT, CURVE], ids=["laurent", "curve"])
def test_commutator_quotient_refuses_kahler_kinds(A):
    with pytest.raises(DomainError, match="no closed-form"):
        CommutatorQuotient(A)


#: str() of seeded products: (form_multiply(xi, eta), fedosov(a, b)) with
#: xi, eta random 1-forms and a, b random 0- and 2-forms (max degree 2,
#: random.Random(11)); the draws carry 1/2 coefficients.
PRODUCT_GOLDEN = {
    "polynomial": (
        "5 t d(t^2) d(t^2) - 5/2 t d(t^4) d(t^2) + 5/2 t^3 d(t^2) d(t^2)",
        "4 d(t^2) d(t) + 6 d(t^2) d(t^2) - 2 t d(t^2) d(t) "
        "- 3 t d(t^2) d(t^2)"),
    "laurent": (
        "-5/4 d(t^-1) d(t^-1) + 5/2 d(t^-2) d(t^2) "
        "+ 5/4 t^-2 d(t) d(t^-1)",
        "4 d(t^2) d(t^2) - 1/2 t^-1 d(t^2) d(t^-1) - 2 t d(t^2) d(t^2) "
        "+ t^-2 d(t^2) d(t^-1) + 1/2 d(t) d(t^-2) d(t^2) d(t^-1)"),
    "plane_curve": (
        "5/4 x*y d(x^2*y) d(y) + 5/4 x*y d(x^3*y) d(x^3) "
        "- 5/4 x^3*y d(y) d(y) - 5/4 x^3*y d(x*y) d(x^3)",
        "-4 y d(x^2) d(x*y) + 6 x d(x^2) d(x^3) + 2 x*y d(x^2) d(x*y) "
        "- 3 x^2 d(x^2) d(x^3) - 6 x^3 d(x^2) d(x^3) "
        "+ 3 x^4 d(x^2) d(x^3) + 6 d(y) d(y) d(x^2) d(x^3) "
        "- 3 d(x*y) d(y) d(x^2) d(x^3)"),
    "free": (
        "5/4 a*b d(b*a*b) d(b) + 5/4 a*b d(b*a*a*b) d(b*b) "
        "- 5/4 a*b*b*a d(b) d(b) - 5/4 a*b*b*a d(a*b) d(b*b)",
        "-6 b*b d(a) d(b*a) + 3 a*b*b d(a) d(b*a) - 4 b*b*b d(a) d(b*a) "
        "+ 2 a*b*b*b d(a) d(b*a) + 6 d(b) d(b) d(a) d(b*a) "
        "+ 4 d(b) d(b*b) d(a) d(b*a) - 3 d(a*b) d(b) d(a) d(b*a) "
        "- 2 d(a*b) d(b*b) d(a) d(b*a)"),
}

#: str() of CommutatorQuotient.rep on a seeded 3-term 1-form drawn after
#: the products above.
REP_GOLDEN = {
    "polynomial": "-t d(t) + 3 t^2 d(t) + 1/2 t^3 d(t)",
    "free": "1/2 a*b*b d(a) + 3 a*a*a*a*b d(b) + 3 a*a*a*b*b d(a) "
            "- a*a*a*b*b d(b) + 3 a*a*b*b*a d(a) - a*a*b*b*b d(a) "
            "- a*b*b*b*a d(a)",
}


@pytest.mark.parametrize("name", list(PRODUCT_GOLDEN))
def test_seeded_product_strings_golden(name):
    A = presentations()[name]
    rng = random.Random(11)
    xi, eta = random_form(A, 1, 2, rng), random_form(A, 1, 2, rng)
    a, b = random_form(A, 0, 2, rng), random_form(A, 2, 2, rng)
    assert (str(form_multiply(xi, eta)), str(fedosov(a, b))) \
        == PRODUCT_GOLDEN[name]
    if name in REP_GOLDEN:
        omega = random_form(A, 1, 3, rng, terms=3)
        assert str(CommutatorQuotient(A).rep(omega)) == REP_GOLDEN[name]


@pytest.mark.parametrize("n", [0, 1, -1, 3, -7])
def test_int_and_fraction_coefficients_agree(n):
    """A coefficient n and Fraction(n) build equal, equally hashed and
    equally printed forms, 0-forms (the algebra's elements) included."""
    for A in presentations().values():
        m = A.monomials_up_to(2)[-1]
        for degree, key in ((0, (m,)), (1, (A.one(), m))):
            f = Form(A, degree, {key: n})
            g = Form(A, degree, {key: Fraction(n)})
            assert f == g and str(f) == str(g)
            assert f.terms.get(key, 0) == g.terms.get(key, 0)
            assert str(f.terms.get(key, 0)) == str(n)
            assert hash(frozenset(f.terms.items())) \
                == hash(frozenset(g.terms.items()))
            assert str(f.scale(n)) == str(g.scale(Fraction(n)))


def test_elimination_keeps_int_and_refuses_stray_fractions():
    from hacalc.linalg import IntEchelon
    ech = IntEchelon()
    ech.add({0: 2, 1: 4})
    with pytest.raises(TypeError):
        ech.reduce({1: Fraction(1, 2)})
    with pytest.raises(TypeError):
        ech.reduce({0: Fraction(1, 2), 1: 1})


@pytest.mark.parametrize("make", [
    lambda: Form(POLY, 1, {(ONE,): 1}),
    lambda: Form(POLY, 1, {(T, T): 1}) + Form(POLY, 2, {(T, T, T): 1}),
    lambda: CommutatorQuotient(FREE).rep(
        Form(FREE, 2, {(FREE.generator_monomial("a"),) * 3: 1})),
], ids=["short-tuple", "combine-degrees", "quotient-on-2-form"])
def test_wrong_degree_refusals(make):
    with pytest.raises(WrongDegree):
        make()
