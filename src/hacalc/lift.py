"""Connections, Hochschild cochain calculus, and multiplicative liftings.

The connection vanishes on the generator differentials and is extended
by nabla(d(uv)) = nabla(du) v + du dv + u nabla(dv).  From it the
recursion builds 1-cochains phi_0, phi_2 = -nabla d, phi_4, ... whose
partial sums are linear sections of the projection from even forms back
to the algebra with curvature vanishing below form degree 2(n+1).

Idempotent lifting over Z/p^N uses the series sum binom(2n-1, n) x^n with
x = e - e^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .algebra import AlgebraPresentation, int_entries
from .errors import InvalidConnection, NotApproxIdempotent, WrongDegree
from .ncforms import (Form, MixedForm, fedosov_mixed, form_multiply,
                      mixed_differential, mixed_multiply)
from .scalars import PrimeConfig


def _mono_form(A, m: tuple) -> Form:
    return Form(A, 0, {(m,): 1})


def _left_mul(m: tuple, x: MixedForm) -> MixedForm:
    return mixed_multiply(MixedForm.of(_mono_form(x.presentation, m)), x)


def _right_mul(x: MixedForm, m: tuple) -> MixedForm:
    return mixed_multiply(x, MixedForm.of(_mono_form(x.presentation, m)))


def _pairs(A: AlgebraPresentation, bound: int) -> list:
    """Monomial pairs (x, y) with deg x + deg y <= bound."""
    monos = A.monomials_up_to(bound)
    return [(x, y) for x in monos for y in monos
            if A.degree(x) + A.degree(y) <= bound]


def _extend(A: AlgebraPresentation, f, terms: dict) -> MixedForm:
    """Linear extension of f (monomial -> mixed form) to {monomial: c}."""
    return MixedForm.sum(A, (f(m).scale(c) for m, c in terms.items()))


def _delta1(A: AlgebraPresentation, f, x: tuple, y: tuple) -> MixedForm:
    """The Hochschild coboundary x f(y) - f(xy) + f(x) y of f at (x, y)."""
    return (_left_mul(x, f(y)) - _extend(A, f, A.mul_monomials(x, y))
            + _right_mul(f(x), y))


class Cochain:
    """A cochain of arity 1 or 2 with values in mixed differential forms.

    Values are stored on tuples of basis monomials up to ``domain_bound``
    (sum of filtration degrees); evaluation extends multilinearly.  Arity
    3 only arises as the target of the coboundary of a 2-cochain.
    """

    def __init__(self, presentation, arity, values, domain_bound):
        if arity not in (1, 2, 3):
            raise ValueError("arity must be 1, 2, or 3")
        self.presentation = presentation
        self.arity = arity
        self.values = dict(values)
        self.domain_bound = domain_bound

    @classmethod
    def from_function(cls, A, arity, func, domain_bound):
        if arity == 1:
            values = {(m,): func(m) for m in A.monomials_up_to(domain_bound)}
        else:
            values = {p: func(*p) for p in _pairs(A, domain_bound)}
        return cls(A, arity, values, domain_bound)

    def __call__(self, *args) -> MixedForm:
        return self.values[args]


def identity_cochain(A: AlgebraPresentation, domain_bound: int) -> Cochain:
    return Cochain.from_function(
        A, 1, lambda m: MixedForm.of(_mono_form(A, m)), domain_bound)


def d_cochain(phi: Cochain) -> Cochain:
    """Post-compose a cochain with the differential."""
    return Cochain(phi.presentation, phi.arity,
                   {k: mixed_differential(v) for k, v in phi.values.items()},
                   phi.domain_bound)


def cup(psi: Cochain, xi: Cochain) -> Cochain:
    """(psi u xi)(x, y) = psi(x) xi(y) with form multiplication."""
    if psi.arity != 1 or xi.arity != 1:
        raise WrongDegree("cup is implemented for pairs of 1-cochains")
    A = psi.presentation
    bound = min(psi.domain_bound, xi.domain_bound)
    return Cochain(A, 2, {(x, y): mixed_multiply(psi(x), xi(y))
                          for x, y in _pairs(A, bound)}, bound)


def hochschild_delta(psi: Cochain) -> Cochain:
    """Hochschild coboundary.

    Arity 1: (d phi)(x, y) = x phi(y) - phi(xy) + phi(x) y.
    Arity 2: (d psi)(x, y, z) =
        x psi(y, z) - psi(xy, z) + psi(x, yz) - psi(x, y) z.
    The arity-2 coboundary is returned as a map on triples with the same
    evaluation interface.
    """
    if psi.arity == 3:
        raise WrongDegree("the coboundary is implemented up to 2-cochains")
    A = psi.presentation
    bound = psi.domain_bound
    pairs = _pairs(A, bound)
    if psi.arity == 1:
        return Cochain(A, 2, {(x, y): _delta1(A, psi, x, y)
                              for x, y in pairs}, bound)

    return Cochain(A, 3, {
        (x, y, z): (_left_mul(x, psi(y, z))
                    - _extend(A, lambda m: psi(m, z), A.mul_monomials(x, y))
                    + _extend(A, lambda m: psi(x, m), A.mul_monomials(y, z))
                    - _right_mul(psi(x, y), z))
        for x, y in pairs
        for z in A.monomials_up_to(bound - A.degree(x) - A.degree(y))}, bound)


def curvature(f: Cochain, x: tuple, y: tuple, below=None) -> MixedForm:
    """f(xy) - f(x) (.) f(y), the obstruction to multiplicativity.

    The target carries the Fedosov product, under which degree-0 forms
    multiply as in the algebra.  With ``below`` only the components of
    degree < below are returned (see :func:`fedosov_mixed`).
    """
    A = f.presentation
    ext = _extend(A, f, A.mul_monomials(x, y))
    if below is not None:
        ext = MixedForm(A, {k: g for k, g in ext.parts.items() if k < below})
    return ext - fedosov_mixed(f(x), f(y), below)


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------


class Connection:
    """The connection with nabla(d a) = 0 for every generator a.

    On laurent presentations d(1) = 0 forces the value on the formal
    inverse:  nabla(d t^-1) = -t^-1 dt dt^-1.
    """

    def __init__(self, A: AlgebraPresentation):
        self.presentation = A
        vals = {A.generator_monomial(name): Form(A, 2)
                for name in A.generators}
        if A.kind == "laurent":
            t = A.generator_monomial(A.generators[0])
            tinv = (-1,)
            dt_dtinv = form_multiply(Form.d_of_monomial(A, t),
                                     Form.d_of_monomial(A, tinv))
            vals[tinv] = form_multiply(_mono_form(A, tinv),
                                       dt_dtinv).scale(-1)
        self.values = vals
        self._cache = {}

    def nabla_d(self, m: tuple) -> Form:
        """nabla(dm) via the canonical word of m."""
        try:
            return self._cache[m]
        except KeyError:
            pass
        A = self.presentation
        word = A.word_of(m)
        if not word:
            result = Form(A, 2)  # d(unit) = 0
        else:
            result = self.values[word[0]]
            acc = word[0]
            for letter in word[1:]:
                # nabla(d(u v)) = nabla(du) v + du dv + u nabla(dv)
                du = Form.d_of_monomial(A, acc)
                dv = Form.d_of_monomial(A, letter)
                result = (form_multiply(result, _mono_form(A, letter))
                          + form_multiply(du, dv)
                          + form_multiply(_mono_form(A, acc),
                                          self.values[letter]))
                (acc,) = A.mul_monomials(acc, letter)
        self._cache[m] = result
        return result


def connection_extend(nabla: Connection, omega: Form) -> Form:
    """Extend nabla to a 1-form by nabla(x0 dx1) = x0 nabla(d x1)."""
    if omega.degree != 1:
        raise WrongDegree("connections act on 1-forms")
    A = omega.presentation
    return MixedForm.sum(A, (
        form_multiply(_mono_form(A, head), nabla.nabla_d(slot)).scale(c)
        for (head, slot), c in omega.terms.items())).component(2)


# ---------------------------------------------------------------------------
# The phi/psi recursion
# ---------------------------------------------------------------------------


class LiftingTower:
    """Lazily evaluated cochains phi_0, phi_2, ... from a connection.

    phi_2 = -nabla d, so that delta(phi_2) = d u d; for n >= 1,

        psi_{2(n+1)} = sum_j d phi_{2j} u d phi_{2(n-j)}
                       - sum_{j>=1} phi_{2j} u phi_{2(n+1-j)},
        phi_{2(n+1)}(x) = sum x0 psi_{2(n+1)}(x1, x2)
                          over the tuples of phi_2(x).
    """

    def __init__(self, nabla: Connection):
        self.presentation = nabla.presentation
        self.nabla = nabla
        self._phi = {}
        self._psi = {}

    def phi(self, k: int, m: tuple) -> MixedForm:
        A = self.presentation
        key = (k, m)
        try:
            return self._phi[key]
        except KeyError:
            pass
        if k == 0:
            out = MixedForm.of(_mono_form(A, m))
        elif k == 1:
            out = MixedForm.of(self.nabla.nabla_d(m).scale(-1))
        else:
            out = MixedForm.sum(A, (
                _left_mul(x0, self.psi(k, x1, x2).scale(c))
                for (x0, x1, x2), c
                in self.phi(1, m).component(2).terms.items()))
        self._phi[key] = out
        return out

    def psi(self, k: int, x: tuple, y: tuple) -> MixedForm:
        """psi_{2k} for k >= 2 (k = n+1 in the recursion)."""
        key = (k, x, y)
        try:
            return self._psi[key]
        except KeyError:
            pass
        n = k - 1
        out = MixedForm.sum(self.presentation, [
            mixed_multiply(mixed_differential(self.phi(j, x)),
                           mixed_differential(self.phi(n - j, y)))
            for j in range(0, n + 1)] + [
            mixed_multiply(self.phi(j, x), self.phi(n + 1 - j, y)).scale(-1)
            for j in range(1, n + 1)])
        self._psi[key] = out
        return out

    def phi_cochain(self, k: int, domain_bound: int) -> Cochain:
        return Cochain.from_function(self.presentation, 1,
                                     partial(self.phi, k), domain_bound)

    def psi_cochain(self, k: int, domain_bound: int) -> Cochain:
        return Cochain.from_function(self.presentation, 2,
                                     partial(self.psi, k), domain_bound)

    def section(self, n: int, m: tuple) -> MixedForm:
        """sigma = phi_0 + phi_2 + ... + phi_{2n} at a monomial."""
        return MixedForm.sum(self.presentation,
                             (self.phi(k, m) for k in range(n + 1)))


def _dcupd(A: AlgebraPresentation, x: tuple, y: tuple) -> MixedForm:
    return MixedForm.of(form_multiply(Form.d_of_monomial(A, x),
                                      Form.d_of_monomial(A, y)))


def _check_phi2(tower: LiftingTower, pairs) -> bool:
    A = tower.presentation
    phi2 = partial(tower.phi, 1)
    return all(_delta1(A, phi2, x, y) == _dcupd(A, x, y) for x, y in pairs)


def phi_psi_recursion(nabla: Connection, n_max: int,
                      cap: int) -> LiftingTower:
    """Build the tower of cochains after checking delta(phi_2) = d u d.

    The identity is checked on generator pairs, then on every monomial
    pair of total degree <= cap; failure raises
    :class:`InvalidConnection`.  Only phi_2 = -nabla d is tried: by the
    Leibniz rule of the connection, delta(nabla d) = -d u d wherever
    nabla is consistent with the relations, and phi_2 = +nabla d fails
    at (x, x) for the first generator x, since nabla d(x^2) = dx dx.  So
    a failure on generator pairs is a failure for either sign.
    """
    if n_max < 0 or cap < 0:
        raise ValueError(f"order and cap must be >= 0, got {n_max}, {cap}")
    A = nabla.presentation
    tower = LiftingTower(nabla)
    gen_pairs = [(a, b) for a in nabla.values for b in nabla.values]
    if not _check_phi2(tower, gen_pairs):
        raise InvalidConnection("delta(phi_2) != d u d on generator pairs "
                                "for either sign")
    if not _check_phi2(tower, _pairs(A, cap)):
        raise InvalidConnection("delta(phi_2) != d u d within the cap")
    for k in range(2, n_max + 1):
        for m in A.monomials_up_to(cap):
            tower.phi(k, m)
    return tower


# ---------------------------------------------------------------------------
# Curvature of the truncated sections
# ---------------------------------------------------------------------------


def _form_weight(A, mixed: MixedForm):
    return max((sum(A.degree(m) for m in key)
                for f in mixed.parts.values() for key in f.terms), default=0)


@dataclass(frozen=True)
class CurvatureReport:
    order: int
    ok: bool
    max_bad_degree: int | None
    degree_constant: int
    pairs_checked: int


def section_curvature_check(tower: LiftingTower, n: int,
                            cap: int) -> CurvatureReport:
    """Check phi_{<=2n} is a section whose curvature starts in degree
    2(n+1).

    Only the curvature's components below degree 2(n+1) are computed.
    That is exact: a Fedosov product of forms of degrees i and j lives in
    degrees i+j and i+j+2, and each is built from its own product alone.

    Also measures the filtration constant a with
    phi_{2k}(F_i) <= F_{i+(2k-1)a} of the even forms.
    """
    A = tower.presentation
    sigma = Cochain.from_function(A, 1, partial(tower.section, n), cap)
    pairs = _pairs(A, cap)
    bad = max((deg for x, y in pairs
               for deg in curvature(sigma, x, y, 2 * (n + 1)).degrees()),
              default=None)
    a = 0
    for k in range(1, n + 1):
        for m in A.monomials_up_to(cap):
            i = A.degree(m)
            if i == 0:
                continue
            w = _form_weight(A, tower.phi(k, m))
            if w > i:
                a = max(a, -((i - w) // (2 * k - 1)))
    return CurvatureReport(n, bad is None, bad, a, len(pairs))


# ---------------------------------------------------------------------------
# Idempotent lifting over Z/p^N
# ---------------------------------------------------------------------------


def _mat_mul(a, b, q):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % q
             for j in range(n)] for i in range(n)]


def _mat_combine(ca, a, cb, b, q):
    n = len(a)
    return [[(ca * a[i][j] + cb * b[i][j]) % q for j in range(n)]
            for i in range(n)]


def lift_idempotent(e, cfg: PrimeConfig, N: int | None = None):
    """Lift an idempotent mod p to an exact idempotent mod p^N.

    e must satisfy e^2 = e mod p; the lift is
    e + (2e - 1) sum_{n=1}^{N} binom(2n-1, n) x^n with x = e - e^2,
    which is idempotent mod p^N because val(x) >= 1.
    """
    if N is None:
        N = cfg.default_precision
    p, q = cfg.p, cfg.p ** N
    e = [[v % q for v in int_entries(row, "matrix entries")] for row in e]
    n = len(e)
    if any(len(row) != n for row in e):
        raise ValueError("matrix must be square")
    e2 = _mat_mul(e, e, q)
    if any((e2[i][j] - e[i][j]) % p for i in range(n) for j in range(n)):
        raise NotApproxIdempotent("e^2 != e mod p")
    x = _mat_combine(1, e, -1, e2, q)
    phi = [[0] * n for _ in range(n)]
    power = [row[:] for row in x]
    for term in range(1, N + 1):
        c = math.comb(2 * term - 1, term) % q
        phi = _mat_combine(1, phi, c, power, q)
        power = _mat_mul(power, x, q)
    two_e_minus_1 = [[(2 * e[i][j] - (1 if i == j else 0)) % q
                      for j in range(n)] for i in range(n)]
    return _mat_combine(1, e, 1, _mat_mul(two_e_minus_1, phi, q), q)
