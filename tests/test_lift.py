import random
from fractions import Fraction
from functools import partial

import pytest

from hacalc import checks
from hacalc.algebra import AlgebraPresentation
from hacalc.errors import InvalidConnection, NotApproxIdempotent
from hacalc.lift import (Connection, LiftingTower, _check_phi2, _pairs,
                         cup, curvature, connection_extend, hochschild_delta,
                         lift_idempotent, phi_psi_recursion,
                         section_curvature_check)
from hacalc.ncforms import Form, MixedForm, form_multiply, mixed_differential
from hacalc.scalars import PrimeConfig

POLY = AlgebraPresentation.polynomial()
LAURENT = AlgebraPresentation.laurent()
T = POLY.generator_monomial("t")
ONE = POLY.one()
DTDT = Form(POLY, 2, {(ONE, T, T): 1})


def identity(m):
    """The identity 1-cochain of POLY: m as a 0-form."""
    return MixedForm.of(Form(POLY, 0, {(m,): 1}))


def triples(A, bound):
    """Monomial triples (x, y, z) with deg x + deg y + deg z <= bound."""
    return [(x, y, z) for x, y in _pairs(A, bound)
            for z in A.monomials_up_to(bound - A.degree(x) - A.degree(y))]


def test_curvature_examples():
    assert curvature(POLY, identity, T, T) == MixedForm.of(DTDT)
    # a multiplicative evaluation-style cochain has zero curvature
    def ev(m):
        return MixedForm.of(Form(POLY, 0, {(ONE,): 2 ** m[0]}))
    assert curvature(POLY, ev, T, T).is_zero()
    # the degree-0 truncation sigma = id has curvature dt dt at (t, t)
    assert curvature(POLY, identity, T, T).component(2) == DTDT
    # below keeps only the degrees under it, of both terms
    assert curvature(POLY, identity, T, T, 0).is_zero()
    assert curvature(POLY, identity, T, T, 2).is_zero()
    assert curvature(POLY, identity, T, T, 3) == MixedForm.of(DTDT)


def test_hochschild_delta_basics():
    def zero(m):
        return MixedForm(POLY)
    assert all(hochschild_delta(POLY, zero, x, y).is_zero()
               for x, y in _pairs(POLY, 4))
    rng = random.Random(0)
    values = {m: MixedForm.of(Form(POLY, 2, {(ONE, T, T):
                                             rng.randint(-3, 3)}))
              for m in POLY.monomials_up_to(4)}
    dphi = partial(hochschild_delta, POLY, values.__getitem__)
    assert all(hochschild_delta(POLY, dphi, x, y, z).is_zero()
               for x, y, z in triples(POLY, 4))


def test_cup_examples():
    def d_identity(m):
        return mixed_differential(identity(m))
    assert cup(d_identity, d_identity, T, T) == MixedForm.of(DTDT)
    assert cup(identity, identity, T, T) == MixedForm.of(
        Form(POLY, 0, {(POLY.monomial((2,)),): 1}))


PAIRS_CASES = {**checks.presentations(),
               "free-unital": AlgebraPresentation.free(["a", "b"],
                                                       unital=True),
               "polynomial2": AlgebraPresentation.polynomial(["x", "y"])}


@pytest.mark.parametrize("A", list(PAIRS_CASES.values()),
                         ids=list(PAIRS_CASES))
def test_pairs_is_the_degree_filter(A):
    """The prefix enumeration gives the pairs of the quadratic degree
    filter, in the same order."""
    for b in range(7):
        monos = A.monomials_up_to(b)
        want = [(x, y) for x in monos for y in monos
                if A.degree(x) + A.degree(y) <= b]
        assert _pairs(A, b) == want, b


def test_connection_extend_examples():
    nabla = Connection(POLY)  # nabla(dt) = 0
    t2 = POLY.monomial((2,))
    assert nabla.nabla_d(t2) == DTDT  # one recursion step
    tdt = Form(POLY, 1, {(T, T): 1})
    assert connection_extend(nabla, tdt).is_zero()
    dt_times_t = form_multiply(Form.d_of_monomial(POLY, T),
                               Form(POLY, 0, {(T,): 1}))
    assert connection_extend(nabla, dt_times_t) == DTDT


def test_phi_psi_recursion_polynomial():
    tower = phi_psi_recursion(Connection(POLY), 3, 6)
    assert tower.phi(1, T).is_zero()
    assert tower.phi(1, POLY.monomial((2,))) == MixedForm.of(DTDT.scale(-1))
    assert tower.phi(0, T) == MixedForm.of(Form(POLY, 0, {(T,): 1}))
    # delta(psi_{2n}) = 0 for n = 2, 3 on all triples within degree 4
    for k in (2, 3):
        psik = partial(tower.psi, k)
        assert all(hochschild_delta(POLY, psik, *p).is_zero()
                   for p in triples(POLY, 4)), k


def test_phi_psi_recursion_laurent():
    tower = phi_psi_recursion(Connection(LAURENT), 3, 6)
    tinv = LAURENT.monomial((-1,))
    # derived value: nabla(d t^-1) = -t^-1 dt dt^-1, so phi_2 = +t^-1 dt dt^-1
    t_ = LAURENT.generator_monomial("t")
    expected = Form(LAURENT, 2, {(tinv, t_, tinv): 1})
    assert tower.phi(1, tinv) == MixedForm.of(expected)
    for k in (2, 3):
        psik = partial(tower.psi, k)
        assert all(hochschild_delta(LAURENT, psik, *p).is_zero()
                   for p in triples(LAURENT, 4)), k


def test_section_is_section():
    # composing with the projection to degree 0 gives back the monomial
    tower = phi_psi_recursion(Connection(POLY), 3, 6)
    for m in POLY.monomials_up_to(6):
        sec = tower.section(3, m)
        assert sec.component(0) == Form(POLY, 0, {(m,): 1})


@pytest.mark.parametrize("A", [POLY, LAURENT], ids=["polynomial", "laurent"])
def test_section_curvature_orders(A):
    tower = phi_psi_recursion(Connection(A), 3, 6)
    for n in range(0, 4):
        rep = section_curvature_check(tower, n, 6)
        assert rep.ok, (n, rep.max_bad_degree)
    # degree constant is stable when measured at a smaller cap
    a_small = section_curvature_check(tower, 3, 4).degree_constant
    a_big = section_curvature_check(tower, 3, 6).degree_constant
    assert a_small <= a_big


class PlusSignTower(LiftingTower):
    """The tower built from phi_2 = +nabla d, the sign the recursion
    rejects."""

    def phi(self, k, m):
        out = super().phi(k, m)
        return out.scale(-1) if k == 1 else out


@pytest.mark.parametrize("A", [POLY, LAURENT], ids=["polynomial", "laurent"])
def test_truncated_check_finds_a_planted_sign_defect(A):
    """The tower with the sign the recursion rejects has curvature below
    2(n+1); the truncated check reports the degree the full curvature
    shows there."""
    bad = PlusSignTower(Connection(A))
    for n in (1, 2, 3):
        rep = section_curvature_check(bad, n, 6)
        sigma = partial(bad.section, n)
        want = max((deg for x, y in _pairs(A, 6)
                    for deg in curvature(A, sigma, x, y).degrees()
                    if deg < 2 * (n + 1)), default=None)
        assert want is not None, n
        assert (rep.ok, rep.max_bad_degree) == (False, want), n


@pytest.mark.parametrize("A", list(PAIRS_CASES.values()),
                         ids=list(PAIRS_CASES))
def test_plus_sign_fails_at_a_generator_square(A):
    """Why the recursion only tries phi_2 = -nabla d: the + sign fails
    delta(phi_2) = d u d at (x, x) for the first generator x, and the -
    sign passes the generator pairs exactly where the recursion succeeds."""
    nabla = Connection(A)
    x = A.generator_monomial(A.generators[0])
    assert not _check_phi2(PlusSignTower(nabla), [(x, x)])
    gen_pairs = [(a, b) for a in nabla.values for b in nabla.values]
    try:
        phi_psi_recursion(nabla, 1, 4)
    except InvalidConnection:
        succeeds = False
    else:
        succeeds = True
    assert _check_phi2(LiftingTower(nabla), gen_pairs) == succeeds


def test_invalid_connection_plane_curve():
    C = AlgebraPresentation.plane_curve([0, -1, 0, 1])
    with pytest.raises(InvalidConnection):
        phi_psi_recursion(Connection(C), 1, 4)


def _newton_fixed_point(e, p, N):
    q = p ** N
    n = len(e)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) % q
                 for j in range(n)] for i in range(n)]

    cur = [[v % q for v in row] for row in e]
    for _ in range(64):
        sq = mul(cur, cur)
        cube = mul(sq, cur)
        nxt = [[(3 * sq[i][j] - 2 * cube[i][j]) % q for j in range(n)]
               for i in range(n)]
        if nxt == cur:
            return cur
        cur = nxt
    raise AssertionError("newton iteration did not stabilize")


def test_lift_idempotent_examples():
    cfg = PrimeConfig(5, 4)
    # already exactly idempotent: unchanged
    assert lift_idempotent([[1, 0], [0, 0]], cfg) == [[1, 0], [0, 0]]
    assert lift_idempotent([[0, 0], [0, 0]], cfg) == [[0, 0], [0, 0]]
    e = [[1, 1], [0, 5]]
    hat = lift_idempotent(e, cfg)
    q = 5 ** 4
    sq = [[sum(hat[i][k] * hat[k][j] for k in range(2)) % q
           for j in range(2)] for i in range(2)]
    assert sq == hat
    assert all((hat[i][j] - e[i][j]) % 5 == 0 for i in range(2)
               for j in range(2))
    assert hat == _newton_fixed_point(e, 5, 4)
    with pytest.raises(NotApproxIdempotent):
        lift_idempotent([[2, 0], [0, 0]], cfg)


def test_lift_idempotent_random_vs_newton():
    rng = random.Random(9)
    for p in (5, 7):
        cfg = PrimeConfig(p, 6)
        for _ in range(25):
            n = rng.choice([2, 3])
            diag = [[1 if (i == j and rng.random() < 0.5) else 0
                     for j in range(n)] for i in range(n)]
            g, ginv = _random_gl(n, p, rng)
            e = _mat_mod(_mul(_mul(g, diag, p), ginv, p), p)
            hat = lift_idempotent(e, cfg)
            assert hat == _newton_fixed_point(e, p, 6)


def _mul(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p
             for j in range(n)] for i in range(n)]


def _mat_mod(a, p):
    return [[v % p for v in row] for row in a]


def _random_gl(n, p, rng):
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _inv_mod_p(g, p)
        if inv is not None:
            return g, inv


def _inv_mod_p(g, p):
    n = len(g)
    a = [row[:] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(g)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c] % p), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                coef = a[i][c]
                a[i] = [(v - coef * w) % p for v, w in zip(a[i], a[r])]
        r += 1
    return [row[n:] for row in a]


def test_degree_constant_uniform_across_orders():
    # the measured filtration constant of phi_{2k} does not depend on k
    from hacalc.lift import _form_weight
    for A, expected in [(POLY, 0), (LAURENT, 2)]:
        tower = phi_psi_recursion(Connection(A), 3, 6)
        per_k = []
        for k in (1, 2, 3):
            a = 0
            for m in A.monomials_up_to(6):
                i = A.degree(m)
                if i == 0:
                    continue
                w = _form_weight(A, tower.phi(k, m))
                if w > i:
                    a = max(a, -((i - w) // (2 * k - 1)))
            per_k.append(a)
        assert per_k == [expected] * 3


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(1), 1.0, True],
                         ids=["fraction", "integral-fraction", "float",
                              "bool"])
def test_lift_idempotent_refuses_non_integer_entries(bad):
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        lift_idempotent([[bad, 1], [0, 5]], PrimeConfig(5, 4))
