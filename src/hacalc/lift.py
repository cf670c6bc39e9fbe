"""Connections, multiplicative liftings, and their curvature test.

The connection vanishes on the generator differentials and is extended
by nabla(d(uv)) = nabla(du) v + du dv + u nabla(dv).  From it the
recursion builds 1-cochains phi_0, phi_2 = -nabla d, phi_4, ... with
delta(phi_{2k}) = psi_{2k}, so that their partial sums are linear
sections of the projection from even forms back to the algebra with
curvature vanishing below form degree 2(n+1).  Here delta is the
Hochschild coboundary (delta f)(x, y) = x f(y) - f(xy) + f(x) y.

Each value (nabla d, phi_{2k}, psi_{2k}) and each test of
delta(phi_{2k}) = psi_{2k} at a pair is summed in one
:class:`~hacalc.ncforms.FormSum`: the products are added straight into
one dict of numerators, with no form per summand.

Idempotent lifting over Z/p^N uses the series sum binom(2n-1, n) x^n with
x = e - e^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .algebra import AlgebraPresentation, int_entries
from .errors import InvalidConnection, NotApproxIdempotent
from .ncforms import Form, FormSum, d_product, form_multiply
from .scalars import PrimeConfig


def _mono_form(A, m: tuple) -> Form:
    return Form._trusted(A, 0, {(m,): 1})


# ---------------------------------------------------------------------------
# Connections
# ---------------------------------------------------------------------------


class Connection:
    """The connection with nabla(d a) = 0 for every generator a.

    On laurent presentations d(1) = 0 forces the value on the formal
    inverse:  nabla(d t^-1) = -t^-1 dt dt^-1.  ``values`` holds the value
    on each letter; :meth:`nabla_d` remembers what it built from them,
    so they are not to change after the first call.
    """

    def __init__(self, A: AlgebraPresentation):
        self.presentation = A
        vals = {w: Form(A, 2) for w in A.letters}
        if A.kind == "laurent":
            t, tinv = A.letters
            ft, finv = _mono_form(A, t), _mono_form(A, tinv)
            vals[tinv] = form_multiply(finv, d_product(ft, finv)).scale(-1)
        self.values = vals
        self._nabla_d = {}

    def nabla_d(self, m: tuple) -> Form:
        """nabla(dm), memoized: m = u v with v the last letter of m, and
        nabla(d(u v)) = nabla(du) v + du dv + u nabla(dv).  That letter
        is the last generator of a free word, else the letter of the
        last nonzero exponent (the formal inverse if it is negative)."""
        try:
            return self._nabla_d[m]
        except KeyError:
            pass
        A = self.presentation
        if A.is_unit_monomial(m):
            out = Form(A, 2)  # d(unit) = 0
        elif m in self.values:
            out = self.values[m]
        else:
            if A.kind == "free":
                v, u = A.letters[m[-1]], m[:-1]
            else:
                i = max(i for i, e in enumerate(m) if e)
                v = A.letters[i if m[i] > 0 else -1]
                u = A.cofactor(m, v)
            fu, fv = _mono_form(A, u), _mono_form(A, v)
            acc = FormSum()
            acc.add_product(1, self.nabla_d(u), fv)
            acc.add_d_product(1, fu, fv)
            acc.add_product(1, fu, self.values[v])
            out = acc.form(A, 2)
        self._nabla_d[m] = out
        return out


# ---------------------------------------------------------------------------
# The phi/psi recursion
# ---------------------------------------------------------------------------


class LiftingTower:
    """Lazily evaluated cochains phi_0, phi_2, ... from a connection.

    phi_{2k} and psi_{2k} take values in 2k-forms.  phi_2 = -nabla d, so
    that delta(phi_2) = psi_2 = d u d; for k >= 1,

        psi_{2k} = sum_{j<k} d phi_{2j} u d phi_{2(k-1-j)}
                   - sum_{0<j<k} phi_{2j} u phi_{2(k-j)},
        phi_{2k}(x) = sum x0 psi_{2k}(x1, x2)   (k >= 2)
                      over the tuples of phi_2(x).

    Every value is summed in one dict and remembered per argument, and
    so is the verdict of :meth:`closes`, which the recursion and the
    curvature check share.
    """

    def __init__(self, nabla: Connection):
        self.presentation = nabla.presentation
        self.nabla = nabla
        self._phi = {}
        self._psi = {}
        self._closes = {}

    def phi(self, k: int, m: tuple) -> Form:
        key = (k, m)
        try:
            return self._phi[key]
        except KeyError:
            pass
        if k == 0:
            out = _mono_form(self.presentation, m)
        elif k == 1:
            out = self.nabla.nabla_d(m).scale(-1)
        else:
            phi2 = self.phi(1, m)
            acc = FormSum()
            for (x0, x1, x2), c in phi2.num.items():
                acc.add_product(c, self.phi(0, x0), self.psi(k, x1, x2))
            out = acc.form(self.presentation, 2 * k, phi2.den)
        self._phi[key] = out
        return out

    def psi(self, k: int, x: tuple, y: tuple) -> Form:
        """psi_{2k}(x, y) for k >= 1; psi_2(x, y) = dx dy."""
        key = (k, x, y)
        try:
            return self._psi[key]
        except KeyError:
            pass
        phi = self.phi
        acc = FormSum()
        for j in range(k):
            acc.add_d_product(1, phi(j, x), phi(k - 1 - j, y))
        for j in range(1, k):
            acc.add_product(-1, phi(j, x), phi(k - j, y))
        out = self._psi[key] = acc.form(self.presentation, 2 * k)
        return out

    def closes(self, k: int, x: tuple, y: tuple) -> bool:
        """Whether delta(phi_{2k}) = psi_{2k} at (x, y), memoized: the
        one sum x phi_{2k}(y) + phi_{2k}(x) y - sum c phi_{2k}(m) -
        psi_{2k}(x, y), over the terms c m of xy, is tested for zero."""
        key = (k, x, y)
        try:
            return self._closes[key]
        except KeyError:
            pass
        phi = self.phi
        acc = FormSum()
        acc.add_product(1, phi(0, x), phi(k, y))
        acc.add_product(1, phi(k, x), phi(0, y))
        for m, c in self.presentation.mul_monomials(x, y).items():
            acc.add(-c, phi(k, m))
        acc.add(-1, self.psi(k, x, y))
        out = self._closes[key] = acc.is_zero()
        return out


def _check_phi(tower: LiftingTower, k: int, pairs) -> bool:
    """delta(phi_{2k}) = psi_{2k} at every pair."""
    return all(tower.closes(k, x, y) for x, y in pairs)


def _letter_pairs(A: AlgebraPresentation, cap: int) -> list:
    """The pairs (x, v) with deg x + deg v <= cap, v in ``A.letters`` (a
    generator, or t^-1).  They decide every pair in the
    cap: (.) is associative, so the curvature K(x, y) = sigma(xy) -
    sigma(x) (.) sigma(y) has K(x, yv) = K(xy, v) + K(x, y) (.) sigma(v)
    - sigma(x) (.) K(y, v), and induction on the word length of y
    carries K = 0 in degrees <= 2n from the letter pairs to all pairs
    (word degree is additive, product degree subadditive, K(x, 1) = 0).
    """
    return [(x, v) for x in A.monomials_up_to(cap) for v in A.letters
            if A.degree(x) + A.degree(v) <= cap]


def _check_order(n: int, cap: int) -> None:
    if n < 0 or cap < 0:
        raise ValueError(f"order and cap must be >= 0, got {n}, {cap}")


def phi_psi_recursion(nabla: Connection, n_max: int,
                      cap: int) -> LiftingTower:
    """The lazy tower of cochains, after checking delta(phi_2) = d u d.

    Each phi_{2k}(m) is built when it is first read, so the order n_max
    is only validated here.  The identity is checked on generator pairs,
    then on the letter pairs inside the cap, which decide every pair
    (:func:`_letter_pairs`); failure raises :class:`InvalidConnection`.
    Only phi_2 = -nabla d is tried: by the Leibniz rule of the
    connection, delta(nabla d) = -d u d wherever nabla is consistent
    with the relations, and phi_2 = +nabla d fails at (x, x) for the
    first generator x, since nabla d(x^2) = dx dx.  So a failure on
    generator pairs is a failure for either sign.
    """
    _check_order(n_max, cap)
    tower = LiftingTower(nabla)
    A = nabla.presentation
    gen_pairs = [(a, b) for a in A.letters for b in A.letters]
    if not _check_phi(tower, 1, gen_pairs):
        raise InvalidConnection("delta(phi_2) != d u d on generator pairs "
                                "for either sign")
    if not _check_phi(tower, 1, _letter_pairs(A, cap)):
        raise InvalidConnection("delta(phi_2) != d u d within the cap")
    return tower


# ---------------------------------------------------------------------------
# Curvature of the truncated sections
# ---------------------------------------------------------------------------


def _form_weight(degree, form: Form):
    """The largest total degree of a tuple of the form, for ``degree`` a
    map from monomials to their degrees."""
    return max((sum(map(degree, key)) for key in form.num), default=0)


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
    2(n+1), by checking delta(phi_{2k}) = psi_{2k} for k = n, ..., 1 on
    the letter pairs, which decide every pair in the cap.

    For even forms xi (.) eta = xi eta - d(xi) d(eta), so the degree-2k
    part of sigma(xy) - sigma(x) (.) sigma(y) is psi_{2k}(x, y) -
    delta(phi_{2k})(x, y), and its degree-0 part is xy - x y = 0.  The
    largest failing k gives the reported degree 2k, which the tests
    compare with the all-pairs check; ``pairs_checked`` counts the
    letter pairs.

    Each test is the tower's memoized verdict (:meth:`LiftingTower.closes`),
    so the k = 1 pass that :func:`phi_psi_recursion` made is not redone.
    A negative order or cap raises ``ValueError``.

    Also measures the filtration constant a with
    phi_{2k}(F_i) <= F_{i+(2k-1)a} of the even forms.
    """
    _check_order(n, cap)
    A = tower.presentation
    pairs = _letter_pairs(A, cap)
    bad = next((2 * k for k in range(n, 0, -1)
                if not _check_phi(tower, k, pairs)), None)
    degree = cache(A.degree)
    a = 0
    for k in range(1, n + 1):
        for m in A.monomials_up_to(cap):
            i = degree(m)
            if i == 0:
                continue
            w = _form_weight(degree, tower.phi(k, m))
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


def lift_idempotent(e, cfg: PrimeConfig):
    """Lift an idempotent mod p to an exact idempotent mod p^N.

    N is ``cfg.default_precision``.  e must satisfy e^2 = e mod p; the lift
    is e + (2e - 1) sum_{n=1}^{N} binom(2n-1, n) x^n with x = e - e^2,
    which is idempotent mod p^N because val(x) >= 1.
    """
    p, N = cfg.p, cfg.default_precision
    q = p ** N
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
