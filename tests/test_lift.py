import random
from fractions import Fraction
from functools import cache, partial

import pytest

from hacalc import checks
from hacalc.algebra import AlgebraPresentation
from hacalc.errors import InvalidConnection, NotApproxIdempotent
from hacalc.lift import (Connection, LiftingTower, _check_phi,
                         _letter_pairs, lift_idempotent, phi_psi_recursion,
                         section_curvature_check)
from hacalc.ncforms import (Form, MixedForm, d_product, differential,
                            fedosov_mixed, form_multiply)
from hacalc.scalars import PrimeConfig

POLY = AlgebraPresentation.polynomial()
LAURENT = AlgebraPresentation.laurent()
T = POLY.generator_monomial("t")
ONE = POLY.one()
DTDT = Form(POLY, 2, {(ONE, T, T): 1})


def mono(A, m) -> Form:
    """The monomial m as a 0-form."""
    return Form(A, 0, {(m,): 1})


def fraction_sum(A, n, scaled, den=1) -> Form:
    """The n-form (sum of c f over the (c, f) pairs) / den, added up in
    Fractions: a reference for the sums of ``ncforms.FormSum`` that
    shares none of its merge code."""
    out = {}
    for c, f in scaled:
        for k, v in f.terms.items():
            out[k] = out.get(k, 0) + Fraction(c * v, den)
    return Form(A, n, out)


def hochschild_delta(A, f, x, y) -> Form:
    """The Hochschild coboundary of the 1-cochain f at (x, y):
    x f(y) - f(xy) + f(x) y, a list of forms added up by
    ``fraction_sum``: the oracle of ``LiftingTower.closes``."""
    fy = f(y)
    return fraction_sum(A, fy.degree, [
        (1, form_multiply(mono(A, x), fy)),
        (1, form_multiply(f(x), mono(A, y))),
        *((-c, f(m)) for m, c in A.mul_monomials(x, y).items())])


def word_walk_nabla_d(nabla: Connection, m) -> Form:
    """nabla(dm) by a walk along the canonical word of m, one Leibniz step
    nabla(d(u v)) = nabla(du) v + du dv + u nabla(dv) per letter: the
    oracle of the memoized ``Connection.nabla_d``."""
    A = nabla.presentation
    word = A.word_of(m)
    if not word:
        return Form(A, 2)
    result = nabla.values[word[0]]
    acc = word[0]
    for letter in word[1:]:
        u, v = mono(A, acc), mono(A, letter)
        result = fraction_sum(A, 2, [
            (1, form_multiply(result, v)), (1, d_product(u, v)),
            (1, form_multiply(u, nabla.values[letter]))])
        (acc,) = A.mul_monomials(acc, letter)
    return result


def hochschild_delta2(A, f, x, y, z) -> Form:
    """The Hochschild coboundary of the 2-cochain f at (x, y, z):
    x f(y, z) - f(xy, z) + f(x, yz) - f(x, y) z."""
    out = (form_multiply(mono(A, x), f(y, z))
           - form_multiply(f(x, y), mono(A, z)))
    for m, c in A.mul_monomials(x, y).items():
        out = out - f(m, z).scale(c)
    for m, c in A.mul_monomials(y, z).items():
        out = out + f(x, m).scale(c)
    return out


def cup(f, g, x, y) -> Form:
    """(f u g)(x, y) = f(x) g(y) with form multiplication."""
    return form_multiply(f(x), g(y))


def connection_extend(nabla: Connection, omega: Form) -> Form:
    """Extend nabla to a 1-form by nabla(x0 dx1) = x0 nabla(d x1)."""
    A = omega.presentation
    out = Form(A, 2)
    for (head, slot), c in omega.terms.items():
        out = out + form_multiply(mono(A, head),
                                  nabla.nabla_d(slot)).scale(c)
    return out


def section(tower: LiftingTower, n: int, m) -> MixedForm:
    """sigma = phi_0 + phi_2 + ... + phi_{2n} at a monomial."""
    return MixedForm(tower.presentation,
                     {2 * k: tower.phi(k, m) for k in range(n + 1)})


def identity(m):
    """The identity 1-cochain of POLY: m as a 0-form."""
    return Form(POLY, 0, {(m,): 1})


def curvature(A, f, x, y) -> MixedForm:
    """f(xy) - f(x) (.) f(y) with the full Fedosov product, for a cochain
    f with form or mixed-form values: the oracle of the lifting check."""
    ext = MixedForm.sum(A, (f(m).scale(c)
                            for m, c in A.mul_monomials(x, y).items()))
    return ext - fedosov_mixed(MixedForm.sum(A, [f(x)]),
                               MixedForm.sum(A, [f(y)]))


def _dcupd(A, x, y) -> Form:
    """(d u d)(x, y) = dx dy."""
    return form_multiply(Form.d_of_monomial(A, x), Form.d_of_monomial(A, y))


def _pairs(A, bound):
    """Monomial pairs (x, y) with deg x + deg y <= bound: the all-pairs
    filter the letter-pair check is compared against."""
    monos = A.monomials_up_to(bound)
    return [(x, y) for x in monos for y in monos
            if A.degree(x) + A.degree(y) <= bound]


def triples(A, bound):
    """Monomial triples (x, y, z) with deg x + deg y + deg z <= bound."""
    return [(x, y, z) for x, y in _pairs(A, bound)
            for z in A.monomials_up_to(bound - A.degree(x) - A.degree(y))]


def test_curvature_examples():
    assert curvature(POLY, identity, T, T) == MixedForm.of(DTDT)
    # a multiplicative evaluation-style cochain has zero curvature
    def ev(m):
        return Form(POLY, 0, {(ONE,): 2 ** m[0]})
    assert curvature(POLY, ev, T, T).is_zero()
    # the degree-0 truncation sigma = id has curvature dt dt at (t, t)
    assert curvature(POLY, identity, T, T).component(2) == DTDT


def test_hochschild_delta_basics():
    def zero(m):
        return Form(POLY, 2)
    assert all(hochschild_delta(POLY, zero, x, y).is_zero()
               for x, y in _pairs(POLY, 4))
    rng = random.Random(0)
    values = {m: Form(POLY, 2, {(ONE, T, T): rng.randint(-3, 3)})
              for m in POLY.monomials_up_to(4)}
    dphi = partial(hochschild_delta, POLY, values.__getitem__)
    assert all(hochschild_delta2(POLY, dphi, x, y, z).is_zero()
               for x, y, z in triples(POLY, 4))
    # not a cocycle: f(x, y) = x has coboundary x - xz at (x, y, z)
    assert hochschild_delta2(POLY, lambda x, y: mono(POLY, x), T, T, T) == \
        mono(POLY, T) - mono(POLY, (2,))


def test_cup_examples():
    def d_identity(m):
        return differential(identity(m))
    assert cup(d_identity, d_identity, T, T) == DTDT
    assert cup(identity, identity, T, T) == Form(
        POLY, 0, {((2,),): 1})


PAIRS_CASES = {**checks.presentations(),
               "free-unital": AlgebraPresentation.free(["a", "b"],
                                                       unital=True),
               "polynomial2": AlgebraPresentation.polynomial(["x", "y"])}


def test_connection_extend_examples():
    nabla = Connection(POLY)  # nabla(dt) = 0
    t2 = (2,)
    assert nabla.nabla_d(t2) == DTDT  # one recursion step
    tdt = Form(POLY, 1, {(T, T): 1})
    assert connection_extend(nabla, tdt).is_zero()
    dt_times_t = form_multiply(Form.d_of_monomial(POLY, T),
                               Form(POLY, 0, {(T,): 1}))
    assert connection_extend(nabla, dt_times_t) == DTDT


def test_phi_psi_recursion_polynomial():
    tower = phi_psi_recursion(Connection(POLY), 3, 6)
    assert tower.phi(1, T).is_zero()
    assert tower.phi(1, (2,)) == DTDT.scale(-1)
    assert tower.phi(0, T) == Form(POLY, 0, {(T,): 1})
    # phi_{2k} and psi_{2k} take values in 2k-forms; psi_2 = d u d
    for k in range(4):
        assert all(tower.phi(k, m).degree == 2 * k
                   for m in POLY.monomials_up_to(6)), k
    for k in (1, 2, 3):
        assert all(tower.psi(k, x, y).degree == 2 * k
                   for x, y in _pairs(POLY, 6)), k
    assert all(tower.psi(1, x, y) == _dcupd(POLY, x, y)
               for x, y in _pairs(POLY, 6))
    # delta(psi_{2n}) = 0 for n = 2, 3 on all triples within degree 4
    for k in (2, 3):
        psik = partial(tower.psi, k)
        assert all(hochschild_delta2(POLY, psik, *p).is_zero()
                   for p in triples(POLY, 4)), k


def test_phi_psi_recursion_laurent():
    tower = phi_psi_recursion(Connection(LAURENT), 3, 6)
    tinv = (-1,)
    # derived value: nabla(d t^-1) = -t^-1 dt dt^-1, so phi_2 = +t^-1 dt dt^-1
    t_ = LAURENT.generator_monomial("t")
    expected = Form(LAURENT, 2, {(tinv, t_, tinv): 1})
    assert tower.phi(1, tinv) == expected
    for k in (2, 3):
        psik = partial(tower.psi, k)
        assert all(hochschild_delta2(LAURENT, psik, *p).is_zero()
                   for p in triples(LAURENT, 4)), k


def test_section_is_section():
    # composing with the projection to degree 0 gives back the monomial
    tower = phi_psi_recursion(Connection(POLY), 3, 6)
    for m in POLY.monomials_up_to(6):
        sec = section(tower, 3, m)
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
        sigma = partial(section, bad, n)
        want = max((deg for x, y in _pairs(A, 6)
                    for deg in curvature(A, sigma, x, y).degrees()
                    if deg < 2 * (n + 1)), default=None)
        assert want is not None, n
        assert (rep.ok, rep.max_bad_degree) == (False, want), n


ORACLE_CASES = {"polynomial": POLY, "laurent": LAURENT,
                "free": PAIRS_CASES["free"],
                "free-unital": PAIRS_CASES["free-unital"]}
TOWERS = {"real": LiftingTower, "plus-sign": PlusSignTower}
GRID = [(0, 0), (1, 1), (1, 2), (1, 4), (2, 4), (3, 3), (3, 6), (4, 6),
        (2, 7)]
GRID_CASES = {**ORACLE_CASES,
              "free3": AlgebraPresentation.free(["a", "b", "c"])}


@pytest.mark.parametrize("tower_cls", list(TOWERS.values()), ids=list(TOWERS))
@pytest.mark.parametrize("A", list(GRID_CASES.values()), ids=list(GRID_CASES))
def test_check_agrees_with_the_full_curvature(A, tower_cls):
    """section_curvature_check, which reads the letter pairs only, gives
    the verdict and degree that the full Fedosov curvature of the section
    shows below 2(n+1) on all pairs inside the cap."""
    tower = tower_cls(Connection(A))
    cap_limit = 4 if A is GRID_CASES["free3"] else 7
    for n, cap in GRID:
        if cap > cap_limit:
            continue
        rep = section_curvature_check(tower, n, cap)
        sigma = partial(section, tower, n)
        want = max((deg for x, y in _pairs(A, cap)
                    for deg in curvature(A, sigma, x, y).degrees()
                    if deg < 2 * (n + 1)), default=None)
        assert (rep.ok, rep.max_bad_degree) == (want is None, want), (n, cap)
        assert rep.pairs_checked == sum(
            A.degree(x) + A.degree(v) <= cap
            for x in A.monomials_up_to(cap) for v in tower.nabla.values)


def _word_section(A, n, m) -> MixedForm:
    """sigma(v_1) (.) ... (.) sigma(v_r) over the canonical word of m, cut
    at degree 2n: sigma of a generator is the generator, and
    phi_{2k}(t^-1) = t^-1 (dt dt^-1)^k."""
    def sigma(v):
        if A.kind == "laurent" and v == (-1,):
            t = A.generator_monomial("t")
            return MixedForm.sum(A, [Form(A, 2 * k, {(v,) + (t, v) * k: 1})
                                     for k in range(n + 1)])
        return MixedForm.of(Form(A, 0, {(v,): 1}))

    word = A.word_of(m)
    if not word:
        return MixedForm.of(Form(A, 0, {(m,): 1}))
    acc = sigma(word[0])
    for v in word[1:]:
        prod = fedosov_mixed(acc, sigma(v))
        acc = MixedForm(A, {d: f for d, f in prod.parts.items()
                            if d <= 2 * n})
    return acc


@pytest.mark.parametrize("A, bound, n", [
    (POLY, 8, 4),
    (PAIRS_CASES["free"], 5, 3),
    (PAIRS_CASES["free-unital"], 5, 3),
    (LAURENT, 5, 3)], ids=["polynomial", "free", "free-unital", "laurent"])
def test_phi_is_the_word_recursion(A, bound, n):
    """The accepted tower's section is multiplicative along canonical
    words: sigma(v_1 ... v_r) = sigma(v_1) (.) ... (.) sigma(v_r) up to
    degree 2n."""
    tower = phi_psi_recursion(Connection(A), n, bound)
    for m in A.monomials_up_to(bound):
        assert section(tower, n, m) == _word_section(A, n, m), m


@pytest.mark.parametrize("tower_cls", list(TOWERS.values()), ids=list(TOWERS))
@pytest.mark.parametrize("A", list(ORACLE_CASES.values()),
                         ids=list(ORACLE_CASES))
def test_curvature_components_are_psi_minus_delta_phi(A, tower_cls):
    """The degree-2k part of the section's full curvature is
    psi_{2k} - delta(phi_{2k}) at every pair, and its degree-0 part is 0."""
    n = 3
    tower = tower_cls(Connection(A))
    sigma = partial(section, tower, n)
    for x, y in _pairs(A, 6):
        curv = curvature(A, sigma, x, y)
        assert curv.component(0).is_zero(), (x, y)
        for k in range(1, n + 1):
            delta = hochschild_delta(A, partial(tower.phi, k), x, y)
            assert curv.component(2 * k) == tower.psi(k, x, y) - delta, \
                (x, y, k)


@pytest.mark.parametrize("A", list(PAIRS_CASES.values()),
                         ids=list(PAIRS_CASES))
def test_plus_sign_fails_at_a_generator_square(A):
    """Why the recursion only tries phi_2 = -nabla d: the + sign fails
    delta(phi_2) = d u d at (x, x) for the first generator x, and the -
    sign passes the generator pairs exactly where the recursion succeeds."""
    nabla = Connection(A)
    x = A.generator_monomial(A.generators[0])
    assert not _check_phi(PlusSignTower(nabla), 1, [(x, x)])
    gen_pairs = [(a, b) for a in nabla.values for b in nabla.values]
    try:
        phi_psi_recursion(nabla, 1, 4)
    except InvalidConnection:
        succeeds = False
    else:
        succeeds = True
    assert _check_phi(LiftingTower(nabla), 1, gen_pairs) == succeeds


def test_invalid_connection_plane_curve():
    C = AlgebraPresentation.plane_curve([0, -1, 0, 1])
    with pytest.raises(InvalidConnection):
        phi_psi_recursion(Connection(C), 1, 4)


class DefectAtT3(Connection):
    """The connection on t with dt dt planted in nabla(d t^3): it agrees
    with the Leibniz extension below degree 3 only."""

    def nabla_d(self, m):
        out = super().nabla_d(m)
        return out + DTDT if m == (3,) else out


def test_invalid_connection_within_the_cap():
    """The generator pairs pass; the letter pairs find the defect at
    (t^2, t) once the cap reaches degree 3."""
    nabla = DefectAtT3(POLY)
    tower = phi_psi_recursion(nabla, 1, 2)
    assert tower.phi(1, (3,)) != LiftingTower(Connection(POLY)).phi(1, (3,))
    for cap in (3, 4):
        with pytest.raises(InvalidConnection, match="within the cap"):
            phi_psi_recursion(nabla, 1, cap)


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
                w = _form_weight(A.degree, tower.phi(k, m))
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


class SumTower(LiftingTower):
    """The tower with phi_2 from the word walk, and each phi_{2k} (k >= 2)
    and psi_{2k} a list of forms added up by ``fraction_sum``: the oracle
    of the values the tower sums in one dict."""

    @cache
    def phi(self, k, m):
        A = self.presentation
        if k == 0:
            return mono(A, m)
        if k == 1:
            return word_walk_nabla_d(self.nabla, m).scale(-1)
        phi2 = self.phi(1, m)
        return fraction_sum(A, 2 * k, [
            (c, form_multiply(mono(A, x0), self.psi(k, x1, x2)))
            for (x0, x1, x2), c in phi2.num.items()], phi2.den)

    @cache
    def psi(self, k, x, y):
        phi = self.phi
        return fraction_sum(self.presentation, 2 * k, [
            *((1, d_product(phi(j, x), phi(k - 1 - j, y)))
              for j in range(k)),
            *((-1, form_multiply(phi(j, x), phi(k - j, y)))
              for j in range(1, k))])


class HalfInverseConnection(Connection):
    """The laurent connection with its t^-1 value scaled by 1/2: its
    values carry the denominator 2, and it breaks t t^-1 = 1, so
    delta(phi_{2k}) != psi_{2k} at some pairs."""

    def __init__(self, A):
        super().__init__(A)
        tinv = A.letters[-1]
        self.values[tinv] = self.values[tinv].scale(Fraction(1, 2))


@pytest.mark.parametrize("tower_cls", list(TOWERS.values()), ids=list(TOWERS))
@pytest.mark.parametrize("A", list(ORACLE_CASES.values()),
                         ids=list(ORACLE_CASES))
def test_closes_is_the_coboundary_oracle(A, tower_cls):
    """The memoized one-dict verdict is delta(phi_{2k}) == psi_{2k}, with
    delta the coboundary summed in Fractions, at every pair inside the
    cap."""
    tower = tower_cls(Connection(A))
    seen = set()
    for k in (1, 2, 3):
        phi = partial(tower.phi, k)
        for x, y in _pairs(A, 6):
            want = hochschild_delta(A, phi, x, y) == tower.psi(k, x, y)
            assert tower.closes(k, x, y) == want, (k, x, y)
            seen.add(want)
    assert seen == ({True} if tower_cls is LiftingTower else {True, False})


NABLA_CASES = {**PAIRS_CASES, "laurent-half": LAURENT}


@pytest.mark.parametrize("name", list(NABLA_CASES))
def test_nabla_d_is_the_word_walk(name):
    """The memoized nabla d, built from the value at m / (its last
    letter), is the word walk at every monomial up to degree 8, and
    the verdicts on the pairs the recursion reads, in its order, are the
    oracle's: an InvalidConnection comes from the same pair."""
    A = NABLA_CASES[name]
    nabla = (HalfInverseConnection if name == "laurent-half"
             else Connection)(A)
    for m in A.monomials_up_to(8):
        assert nabla.nabla_d(m) == word_walk_nabla_d(nabla, m), m
    tower = LiftingTower(nabla)
    pairs = [(a, b) for a in A.letters for b in A.letters] \
        + _letter_pairs(A, 4)
    got = [tower.closes(1, x, y) for x, y in pairs]
    want = [hochschild_delta(A, partial(SumTower(nabla).phi, 1), x, y)
            == _dcupd(A, x, y) for x, y in pairs]
    assert got == want
    if name in ("plane_curve", "laurent-half"):
        assert not all(want)
    if all(want):
        phi_psi_recursion(nabla, 1, 4)
    else:
        with pytest.raises(InvalidConnection):
            phi_psi_recursion(nabla, 1, 4)


def test_one_dict_values_with_denominators():
    """Values over the denominator 2 are summed over the lcm of the
    denominators and equal the oracle's Fraction sums, and the verdicts
    match the oracle's at pairs where the defect is nonzero too."""
    A = LAURENT
    nabla = HalfInverseConnection(A)
    tower, oracle = LiftingTower(nabla), SumTower(nabla)
    assert tower.phi(1, (-1,)).den == 2
    dens, verdicts = set(), set()
    for k in (1, 2, 3):
        for m in A.monomials_up_to(6):
            assert tower.phi(k, m) == oracle.phi(k, m), (k, m)
            dens.add(tower.phi(k, m).den)
        phi = partial(oracle.phi, k)
        for x, y in _pairs(A, 6):
            assert tower.psi(k, x, y) == oracle.psi(k, x, y), (k, x, y)
            want = hochschild_delta(A, phi, x, y) == oracle.psi(k, x, y)
            assert tower.closes(k, x, y) == want, (k, x, y)
            verdicts.add(want)
    assert verdicts == {True, False}
    assert max(dens) > 2


@pytest.mark.parametrize("n, cap", [(-2, 6), (3, -1), (-1, -1)])
def test_section_curvature_check_refuses_a_negative_order_or_cap(n, cap):
    tower = phi_psi_recursion(Connection(LAURENT), 3, 6)
    with pytest.raises(ValueError, match="order and cap must be >= 0"):
        section_curvature_check(tower, n, cap)
