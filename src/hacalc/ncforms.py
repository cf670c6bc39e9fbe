"""Noncommutative differential forms over a presented algebra.

A degree-n form is a sparse combination of tuples (m0; m1, ..., mn)
encoding m0 dm1 ... dmn, where m0 runs over the basis together with the
unit and m1, ..., mn run over the non-unit basis monomials (the
differential kills the unit, so tuples carrying it in a d-slot are zero).
The elements of the algebra S = Omega^0 S are the 0-forms (m0,).

Coefficients lie in F = V[1/p], and a form with denominator p^k is p^-k
times a V-integral form.  A :class:`Form` is stored that way: integer
numerators over one positive denominator, in lowest terms, so every
kernel does integer arithmetic and a form built from ints alone (the
lifting tower's) never carries a denominator.

The module provides the differential, the graded multiplication, the
Fedosov product, the Hochschild map b on 1-forms, canonical
representatives modulo commutators, and truncated homology of the
two-term complex  S <-> Omega^1(S)/[,]  for commutative presentations.

Two kernels make every product of forms: :func:`form_multiply`, the
Leibniz rule, reading monomial products from the presentation's
``product_table``, and :func:`d_product`, the concatenation
d(x0 dx1 ... dxn) d(y0 dy1 ... dym) = 1 dx0 ... dxn dy0 ... dym.
Each is a thin wrapper over a core that adds s times the product into a
dict of numerators; :class:`FormSum` sums many products and forms that
way, over the lcm of their denominators, with no form per summand.
The Leibniz core merges the contractions d(x_j x_{j+1}), j < n, which
do not involve the right factor, into one dict of key prefixes per
product, before any prefix meets a tuple of the right factor.  The
Fedosov product adds both kernels straight into one :class:`FormSum`
per output degree.

For commutative S the commutator quotient Omega^1 S/[S, Omega^1 S] is
the module of Kahler differentials, because [x, y dz] expands to the
Leibniz rule (Cuntz-Quillen 1995; Loday, Cyclic Homology 1.3).  The
homology is therefore read on a Kahler window (:func:`kahler_window`):
1-forms h dw with w a letter, modulo the Leibniz defects of the
presentation.  The de Rham route (:func:`hacalc.derham.h_dr`) reads the
same window for the polynomial ring, the Laurent ring and curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .algebra import AlgebraPresentation
from .errors import DomainError, NotCommutative, Unstable, WrongDegree
from .linalg import IntEchelon


class Form:
    """A homogeneous differential form of fixed degree, fraction-free.

    A form with coefficients in F = V[1/p] is stored as ``num / den``:
    ``num`` maps tuples (m0, m1, ..., mn) to nonzero integers and ``den``
    is one positive integer, in lowest terms (gcd(den, every numerator)
    = 1, and the zero form has den = 1), so equal forms have equal
    ``num`` and ``den``.  Every kernel below does integer arithmetic on
    the numerators and settles the denominator once per result.

    The d-slots m1, ..., mn never hold the unit monomial: d(1) = 0, so the
    constructor drops every tuple that carries it there, and the
    products below rely on this instead of re-testing the slots they copy.
    The constructor takes ``int`` and ``Fraction`` coefficients only.
    """

    __slots__ = ("presentation", "degree", "num", "den")

    def __init__(self, presentation, degree, terms=()):
        self.presentation = presentation
        self.degree = degree
        unit = presentation.is_unit_monomial
        clean = {}
        integral = True
        for key, c in dict(terms).items():
            if type(c) is not int:
                _check_exact(c)
                integral = False
            if not c:
                continue
            if len(key) != degree + 1:
                raise WrongDegree(f"tuple {key} is not a {degree}-form")
            if any(map(unit, key[1:])):
                continue
            clean[key] = c
        den = 1
        if not integral:
            # the lcm of reduced denominators shares no prime with every
            # numerator it makes, so num / den is in lowest terms
            den = lcm(*(c.denominator for c in clean.values()))
            clean = {k: c.numerator * (den // c.denominator)
                     for k, c in clean.items()}
        self.num, self.den = clean, den

    @classmethod
    def _trusted(cls, presentation, degree, num: dict,
                 den: int = 1) -> "Form":
        """The form num / den from a kernel's output, whose tuples are
        already valid and whose den is positive: zeros are dropped and
        the fraction is reduced, nothing else is checked."""
        form = cls.__new__(cls)
        form.presentation = presentation
        form.degree = degree
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        form.num = num
        form.den = den
        return form

    # -- construction helpers -------------------------------------------

    @classmethod
    def d_of_monomial(cls, A, m: tuple) -> "Form":
        """The 1-form dm (zero for the unit monomial)."""
        return cls(A, 1, {(A.one(), m): 1})

    @property
    def terms(self) -> dict:
        """The exact coefficients, read-only: ``num`` itself when den = 1,
        a Fraction per tuple otherwise."""
        den = self.den
        if den == 1:
            return self.num
        return {k: Fraction(c, den) for k, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def items(self):
        A = self.presentation
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(A.sort_key(m) for m in kv[0]))

    def __eq__(self, other):
        return (isinstance(other, Form) and self.degree == other.degree
                and self.den == other.den and self.num == other.num)

    def __add__(self, other):
        return combine(self.presentation, self.degree,
                       ((1, self), (1, other)))

    def __sub__(self, other):
        return combine(self.presentation, self.degree,
                       ((1, self), (-1, other)))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Form":
        """c times the form, for an int or Fraction c."""
        if type(c) is not int:
            _check_exact(c)
        a = c.numerator
        return Form._trusted(self.presentation, self.degree,
                             {k: a * v for k, v in self.num.items()},
                             self.den * c.denominator)

    def __str__(self):
        if not self.num:
            return "0"
        A = self.presentation
        parts = []
        for key, c in self.items():
            head = A.monomial_str(key[0])
            bits = [head] if (head != "1" or not self.degree) else []
            bits += [f"d({A.monomial_str(m)})" for m in key[1:]]
            body = " ".join(bits) if bits else "1"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c} {body}")
        return " + ".join(parts).replace("+ -", "- ")


def _check_exact(c) -> None:
    """Refuse a coefficient that is neither an int nor a Fraction: a
    float or bool is not rounded into F."""
    if type(c) is not int and type(c) is not Fraction:
        raise ValueError(f"form coefficients must be int or Fraction, "
                         f"got {c!r}")


def combine(A: AlgebraPresentation, n: int, scaled) -> Form:
    """The n-form sum of c f over the (c, f) pairs, c an int, summed in
    one :class:`FormSum`."""
    acc = FormSum()
    for c, f in scaled:
        if f.degree != n:
            raise WrongDegree("cannot add forms of different degree")
        acc.add(c, f)
    return acc.form(A, n)


class FormSum:
    """A running sum of forms of one degree: integer numerators in one
    dict over one denominator.

    Each summand joins at the lcm of the denominators so far, so the sum
    is reduced once, in :meth:`form`.  The products are added by the
    cores of :func:`form_multiply` and :func:`d_product` straight into
    the dict, with no intermediate form.  Summands are trusted to have
    the sum's degree.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num = {}
        self.den = 1

    def _lift(self, c: int, d: int) -> int:
        """c rescaled for a summand over d, once the numerators so far
        sit over lcm(den, d)."""
        common = self.den
        if d == common:
            return c
        big = lcm(common, d)
        if big != common:
            up = big // common
            num = self.num
            for k in num:
                num[k] *= up
            self.den = big
        return c * (big // d)

    def add(self, c: int, f: Form) -> None:
        """sum += c f."""
        c = self._lift(c, f.den)
        out = self.num
        get = out.get
        for k, v in f.num.items():
            out[k] = get(k, 0) + c * v

    def add_product(self, c: int, omega: Form, eta: Form) -> None:
        """sum += c omega eta."""
        _multiply_into(self.num, self._lift(c, omega.den * eta.den),
                       omega, eta)

    def add_d_product(self, c: int, omega: Form, eta: Form) -> None:
        """sum += c d(omega) d(eta)."""
        _d_product_into(self.num, self._lift(c, omega.den * eta.den),
                        omega, eta)

    def is_zero(self) -> bool:
        return not any(self.num.values())

    def form(self, A: AlgebraPresentation, n: int, den: int = 1) -> Form:
        """The n-form sum / den."""
        return Form._trusted(A, n, self.num, self.den * den)


def differential(omega: Form) -> Form:
    """d(m0 dm1 ... dmn) = 1 dm0 dm1 ... dmn; zero when m0 is the unit.

    Distinct tuples stay distinct, so the numerators are copied."""
    A = omega.presentation
    one, unit = A.one(), A.is_unit_monomial
    return Form._trusted(A, omega.degree + 1, {
        (one,) + key: c for key, c in omega.num.items() if not unit(key[0])},
        omega.den)


def form_multiply(omega: Form, eta: Form) -> Form:
    """Graded product dictated by the Leibniz rule.

    (x0 dx1...dxn)(y0 dy1...dym) expands as the sum over j of
    (-1)^(n-j) x0 dx1 ... d(xj x_{j+1}) ... dxn dy1 ... dym with
    x_{n+1} = y0 (for j = 0 the product x0 x1 is the head); d-slots that
    receive the unit monomial vanish.  The numerators multiply as ints
    over den1 den2, in :func:`_multiply_into`.
    """
    out = {}
    _multiply_into(out, 1, omega, eta)
    return Form._trusted(omega.presentation, omega.degree + eta.degree,
                         out, omega.den * eta.den)


def _multiply_into(out: dict, s: int, omega: Form, eta: Form) -> None:
    """out += s num(omega) num(eta), the core of :func:`form_multiply`.

    For j < n the merged product x_j x_{j+1} does not involve eta, so the
    signed key prefixes x0 dx1 ... d(x_j x_{j+1}) ... dxn are summed once
    per product, over every tuple of omega, and the prefixes that cancel
    are dropped.  Each survivor is then joined to each tuple of eta whose
    head y0 is not the unit (y0 sits in a d-slot there).  The j = n
    summands, x_n y0, are one loop over pairs of tuples.  New keys join
    ``out`` in that order: the j < n keys grouped by tuple of eta, then
    the j = n keys by tuple of omega and then of eta.
    """
    if not (omega.num and eta.num):
        return
    A = omega.presentation
    n = omega.degree
    table, unit = A.product_table, A.is_unit_monomial
    get = out.get
    etas = [(ys, c2) for ys, c2 in eta.num.items()
            if not unit(ys[0])] if n else ()
    if etas:
        prefixes = {}
        pget = prefixes.get
        for xs, c1 in omega.num.items():
            for j in range(n):
                c = -c1 if (n - j) % 2 else c1
                for mm, mc, mm_unit in table[xs[j], xs[j + 1]]:
                    if j and mm_unit:
                        continue
                    key = xs[:j] + (mm,) + xs[j + 2:]
                    prefixes[key] = pget(key, 0) + c * mc
        inner = [(prefix, s * c) for prefix, c in prefixes.items() if c]
        for ys, c2 in etas:
            for prefix, c in inner:
                key = prefix + ys
                out[key] = get(key, 0) + c * c2
    tails = [(ys[0], ys[1:], c2) for ys, c2 in eta.num.items()]
    for xs, c1 in omega.num.items():
        c1 *= s
        pre, xn = xs[:n], xs[n]
        for y0, tail, c2 in tails:
            c = c1 * c2
            for mm, mc, mm_unit in table[xn, y0]:
                if n and mm_unit:
                    continue
                key = pre + (mm,) + tail
                out[key] = get(key, 0) + (c if mc == 1 else c * mc)


def d_product(omega: Form, eta: Form) -> Form:
    """d(omega) d(eta) as one concatenation, 1 dx0 ... dxn dy0 ... dym
    per pair of tuples with non-unit heads: distinct pairs give distinct
    keys, in the order of form_multiply(differential(omega),
    differential(eta))."""
    out = {}
    _d_product_into(out, 1, omega, eta)
    return Form._trusted(omega.presentation, omega.degree + eta.degree + 2,
                         out, omega.den * eta.den)


def _d_product_into(out: dict, s: int, omega: Form, eta: Form) -> None:
    """out += s num(d omega) num(d eta), the core of :func:`d_product`."""
    A = omega.presentation
    unit, one = A.is_unit_monomial, (A.one(),)
    etas = [(ys, c2) for ys, c2 in eta.num.items() if not unit(ys[0])]
    get = out.get
    for xs, c1 in omega.num.items():
        if unit(xs[0]):
            continue
        c1 *= s
        head = one + xs
        for ys, c2 in etas:
            key = head + ys
            out[key] = get(key, 0) + c1 * c2


class MixedForm:
    """A finite sum of forms of several degrees."""

    __slots__ = ("presentation", "parts")

    def __init__(self, presentation, parts=()):
        self.presentation = presentation
        self.parts = {}
        for n, f in dict(parts).items():
            if not f.is_zero():
                self.parts[n] = f

    @classmethod
    def sum(cls, presentation, forms):
        """The sum of an iterable of Forms and MixedForms.

        A degree that only one input carries keeps that Form object; every
        other degree is merged by :func:`combine` and built once.
        """
        by_degree = {}
        for f in forms:
            for g in (f.parts.values() if isinstance(f, MixedForm) else (f,)):
                by_degree.setdefault(g.degree, []).append(g)
        return cls(presentation, {
            n: gs[0] if len(gs) == 1
            else combine(presentation, n, [(1, g) for g in gs])
            for n, gs in by_degree.items()})

    @classmethod
    def of(cls, *forms):
        return cls.sum(forms[0].presentation, forms)

    def component(self, n: int) -> Form:
        return self.parts.get(n) or Form(self.presentation, n)

    def degrees(self):
        return sorted(self.parts)

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other):
        return MixedForm.sum(self.presentation, (self, other))

    def __sub__(self, other):
        return MixedForm.sum(self.presentation, (self, other.scale(-1)))

    def scale(self, c) -> "MixedForm":
        return MixedForm(self.presentation,
                         {n: f.scale(c) for n, f in self.parts.items()})

    def __eq__(self, other):
        return isinstance(other, MixedForm) and self.parts == other.parts

    def __str__(self):
        if not self.parts:
            return "0"
        joined = " + ".join(str(self.parts[n]) for n in self.degrees())
        return joined.replace("+ -", "- ")


def fedosov(omega: Form, eta: Form) -> MixedForm:
    """Fedosov product of homogeneous forms.

    xi (.) eta = xi eta - (-1)^{ij} d(xi) d(eta); the two components live
    in degrees i+j and i+j+2.  The low part is the Leibniz product of
    :func:`form_multiply`; the high part is that of :func:`d_product`,
    the concatenation 1 dx0 ... dxn dy0 ... dym of the two differentials.
    Each is added straight into its degree's :class:`FormSum`.
    """
    return _fedosov(omega.presentation, ((omega, eta),))


def fedosov_mixed(a: MixedForm, b: MixedForm) -> MixedForm:
    """The Fedosov product extended to mixed forms: every pair of parts
    adds its two components into one :class:`FormSum` per degree, and
    each degree is built into a form once."""
    return _fedosov(a.presentation, (
        (fa, fb) for fa in a.parts.values() for fb in b.parts.values()))


def _fedosov(A: AlgebraPresentation, pairs) -> MixedForm:
    """The sum of omega (.) eta over the pairs, the core of
    :func:`fedosov` and :func:`fedosov_mixed`."""
    sums = {}
    for omega, eta in pairs:
        i, j = omega.degree, eta.degree
        low = sums.setdefault(i + j, FormSum())
        high = sums.setdefault(i + j + 2, FormSum())
        low.add_product(1, omega, eta)
        high.add_d_product(1 if (i * j) % 2 else -1, omega, eta)
    return MixedForm(A, {n: acc.form(A, n) for n, acc in sums.items()})


def mixed_multiply(a: MixedForm, b: MixedForm) -> MixedForm:
    """Ordinary (graded) product extended to mixed forms."""
    return MixedForm.sum(a.presentation, (
        form_multiply(fa, fb)
        for fa in a.parts.values() for fb in b.parts.values()))


def hochschild_b1(omega: Form) -> Form:
    """b(x dy) = xy - yx, extended linearly over degree-1 forms; the
    result is a 0-form."""
    if omega.degree != 1:
        raise WrongDegree("b is defined on 1-forms here")
    A = omega.presentation
    out = {}
    for (x, y), c in omega.num.items():
        for m, mc in A.mul_monomials(x, y).items():
            out[(m,)] = out.get((m,), 0) + c * mc
        for m, mc in A.mul_monomials(y, x).items():
            out[(m,)] = out.get((m,), 0) - c * mc
    return Form._trusted(A, 0, out, omega.den)


# ---------------------------------------------------------------------------
# Commutator quotient and X-complex homology at finite truncation
# ---------------------------------------------------------------------------


def _heads(A: AlgebraPresentation, bound: int):
    window = A.monomials_up_to(bound)
    return window if A.unital else (A.one(),) + window


def one_form_tuples(A: AlgebraPresentation, bound: int):
    """All 1-form tuples (head, slot) of total filtration degree <= bound.

    With :func:`commutator_vectors` this spans the raw commutator window,
    the dense reference the tests check the closed forms against.
    """
    out = []
    slots = [m for m in A.monomials_up_to(bound)
             if not A.is_unit_monomial(m)]
    for h in _heads(A, bound):
        dh = A.degree(h)
        for s in slots:
            if dh + A.degree(s) <= bound:
                out.append((h, s))
    return out


def commutator_vectors(A: AlgebraPresentation, bound: int):
    """Expansions of [x, y dz] with deg x + deg y + deg z <= bound.

    [x, y dz] = (xy) dz - y d(zx) + (yz) dx; merged d-slot products drop
    their unit component.  For commutative presentations [x, y dz] and
    [z, y dx] expand identically, so only x <= z is emitted.
    """
    monos = A.monomials_up_to(bound)
    nonunit = [m for m in monos if not A.is_unit_monomial(m)]
    ys = _heads(A, bound)
    for xi, x in enumerate(nonunit):
        dx = A.degree(x)
        for y in ys:
            dy = A.degree(y)
            if dx + dy > bound:
                continue
            zs = nonunit[xi:] if A.is_commutative else nonunit
            for z in zs:
                if dx + dy + A.degree(z) > bound:
                    continue
                vec = {}

                def put(key, c):
                    vec[key] = vec.get(key, 0) + c

                for m, c in A.mul_monomials(x, y).items():
                    put((m, z), c)
                for m, c in A.mul_monomials(z, x).items():
                    if not A.is_unit_monomial(m):
                        put((y, m), -c)
                for m, c in A.mul_monomials(y, z).items():
                    put((m, x), c)
                vec = {k: c for k, c in vec.items() if c}
                if vec:
                    yield vec


class CommutatorQuotient:
    """Canonical representatives in Omega^1 modulo the commutator span.

    Omega^1 T(V)/[,] is T(V) (x) V (Cuntz-Quillen 1995): modulo
    commutators x d(s) = sum_i (s[i+1:] x s[:i]) d(s[i]) over the letters
    of a free word s, unital or not, each head one tuple concatenation
    (the empty word being the unit).  On a polynomial ring the quotient
    is the Kahler module, so x d(s) = sum e (x h) dw over the items
    ((h, w), e) of :func:`_kahler_d`.  Laurent and curve presentations
    are refused: :func:`kahler_window` reads theirs.
    """

    def __init__(self, A: AlgebraPresentation):
        if A.kind not in ("free", "polynomial"):
            raise DomainError(f"no closed-form commutator quotient for "
                              f"{A.kind} presentations")
        self.presentation = A

    def rep(self, omega: Form) -> Form:
        """Canonical coset representative of a 1-form."""
        if omega.degree != 1:
            raise WrongDegree("commutator quotient lives on 1-forms")
        A = self.presentation
        out = {}
        get = out.get
        if A.kind == "free":
            for (x, s), c in omega.num.items():
                for i, v in enumerate(s):
                    key = (s[i + 1:] + x + s[:i], (v,))
                    out[key] = get(key, 0) + c
        else:
            for (x, s), c in omega.num.items():
                for (h, w), e in _kahler_d(A, s).items():
                    (xh,) = A.mul_monomials(x, h)  # one monomial here
                    key = (xh, w)
                    out[key] = get(key, 0) + c * e
        return Form._trusted(A, 1, out, omega.den)

    def contains(self, omega: Form) -> bool:
        return self.rep(omega).is_zero()


@dataclass(frozen=True)
class XComplexReport:
    h0: int
    h1: int
    reps1: tuple
    stable: bool


#: Degrees added to the largest read bound of a Kahler window.
PAD = 2
#: A truncation D is certified by recomputing at D + STAB_STEP.
STAB_STEP = 5


def stable_read(A: AlgebraPresentation, D: int):
    """``kahler_window(A, [D, D + STAB_STEP])[D]``, certified stable.

    Both bounds must give the same dimensions (h0, h1), else
    :class:`Unstable` is raised.  A polynomial ring in two or more
    variables is refused: Omega^1 S/dS is infinite-dimensional there, so
    no window is ever stable.
    """
    if A.kind == "polynomial" and len(A.generators) > 1:
        raise DomainError("one-variable polynomial rings only")
    if D < 0:
        raise ValueError(f"truncation must be >= 0, got {D}")
    big = D + STAB_STEP
    res = kahler_window(A, [D, big])
    dims, dims_big = res[D][:2], res[big][:2]
    if dims != dims_big:
        raise Unstable(f"dims {dims} at D={D} vs {dims_big} at D={big}")
    return res[D]


def _kahler_d(A: AlgebraPresentation, s: tuple) -> dict:
    """d(x^e) = sum over e_i != 0 of |e_i| x^(e - w_i) dw_i for s = e.

    w_i is the i-th letter, or the formal inverse ``A.letters[-1]`` when
    e_i < 0 (laurent), and x^(e - w_i) is ``A.cofactor(s, w_i)``; the
    (head, letter) keys come in the order of the exponents, one step per
    variable whatever the degree.
    """
    letters = A.letters
    out = {}
    for i, e in enumerate(s):
        if e:
            w = letters[i] if e > 0 else letters[-1]
            out[(A.cofactor(s, w), w)] = abs(e)
    return out


def _leibniz_defects(A: AlgebraPresentation, letters):
    """The nonzero rho(a, b) = d(ab) - a db - b da over letter pairs."""
    for i, a in enumerate(letters):
        for b in letters[i:]:
            rho = {}
            for m, c in A.mul_monomials(a, b).items():
                for key, v in _kahler_d(A, m).items():
                    rho[key] = rho.get(key, 0) + c * v
            for key in ((a, b), (b, a)):
                rho[key] = rho.get(key, 0) - 1
            rho = {k: v for k, v in rho.items() if v}
            if rho:
                yield rho


def kahler_window(A: AlgebraPresentation, reads: list) -> dict:
    """Homology of d: S -> Omega^1_S (Kahler) read on several degree slices.

    The columns are the 1-forms h dw, w in ``A.letters``, of total degree
    <= max(reads) + PAD, in descending total degree, then by letter and
    head (``sort_key``), so the degree-<=R columns form a suffix for each
    read bound R.
    The rows are h rho(a, b) and d(s) for every monomial h, s of the
    window; a column a row reaches beyond the window is placed ahead of
    all others, so it never becomes a read pivot: it gets the id
    len(tuples) - (columns seen so far) - 1 when a row first meets it,
    and the defect rows, keyed straight to ids, share that table with
    ``vec`` (the d(s) rows and ``reduce``).  Each read bound R maps
    to (h0, h1, reps1, reduce): the kernel dimension of d on S_{<=R}, the
    cokernel dimension and its non-pivot columns, and ``reduce``, which
    takes a list of {(head, letter): c} int vectors to their residuals
    modulo all rows and the vectors before each
    (``IntEchelon.residuals``).

    One elimination serves every read bound: the defect rows seed an
    ``IntEchelon``, and each d(s) is added to it in ``monos`` order.
    S_{<=R} is the first n of the window's monomials (sorted by
    ``sort_key``), and d(s) adds no row exactly when it lies in the span
    of the defects and the d(s) before it, so h0 at R is the number of
    the first n d(s) that add no row:
    dim ker = n - (rank(defects + d-rows) - rank(defects)).
    """
    big = max(reads) + PAD
    monos = A.monomials_up_to(big)
    letters = sorted(A.letters, key=A.sort_key)
    by_deg = [[] for _ in range(big + 1)]
    for h in monos:  # sorted by sort_key, so each bucket is too
        by_deg[A.degree(h)].append(h)
    tuples = []
    for d in range(big - 1, -1, -1):  # letters have degree 1
        for w in letters:
            tuples += [(h, w) for h in by_deg[d]]
    col_of = {t: i for i, t in enumerate(tuples)}

    def vec(terms):
        out = {}
        for key, c in terms.items():
            col = col_of.get(key)
            if col is None:  # beyond the window: ahead of every column
                col = col_of[key] = len(tuples) - len(col_of) - 1
            out[col] = out.get(col, 0) + c
        return out

    ech = IntEchelon()
    mul, ncols = A.mul_monomials, len(tuples)
    for rho in _leibniz_defects(A, letters):
        terms = tuple(rho.items())
        for h in monos:
            row = {}
            for (m, w), c in terms:
                for hm, hc in mul(h, m).items():
                    col = col_of.get((hm, w))
                    if col is None:  # as in vec
                        col = col_of[hm, w] = ncols - len(col_of) - 1
                    row[col] = row.get(col, 0) + c * hc
            ech.add(row)
    in_kernel = [ech.add(vec(_kahler_d(A, s))) is None for s in monos]

    def reduce(forms):
        return ech.residuals(vec(terms) for terms in forms)

    results = {}
    for R in reads:
        n = sum(map(len, by_deg[:R + 1]))
        # the columns of total degree <= R: the last ones, h of degree < R
        first = len(tuples) - len(letters) * (n - len(by_deg[R]))
        reps1 = tuple(tuples[c] for c in range(first, len(tuples))
                      if c not in ech.rows)
        results[R] = (sum(in_kernel[:n]), len(reps1), reps1, reduce)
    return results


def xcomplex_homology(A: AlgebraPresentation, cfg, D: int) -> XComplexReport:
    """Truncated homology of the two-term complex S <-> Omega^1(S)/[,].

    Only commutative presentations are supported: there the map from
    1-form classes back to S vanishes, so h0 = ker(d) and h1 = coker(d)
    on the truncated slices.  The dimensions are certified by
    :func:`stable_read`, which refuses a polynomial ring in two or more
    variables.
    """
    if not A.is_commutative:
        raise NotCommutative("homology is computed for commutative "
                             "presentations only")
    h0, h1, reps1, _ = stable_read(A, D)
    reps1_str = tuple(str(Form(A, 1, {t: 1})) for t in reps1)
    return XComplexReport(h0, h1, reps1_str, True)


def xcomplex_boundary_checks(A: AlgebraPresentation, monomials,
                             one_forms):
    """Verify the two composites of the truncated two-term complex vanish.

    b(d(x)) = 0 holds on the nose; d(b(omega)) must land in the
    commutator span, which :class:`CommutatorQuotient` decides.  The
    quotient is built at the first nonzero d(b(omega)); on commutative
    presentations b(omega) is always zero and none is built.
    """
    quo = None
    for m in monomials:
        f = Form.d_of_monomial(A, m)
        if not hochschild_b1(f).is_zero():
            return False, f"b(d({A.monomial_str(m)})) != 0"
    for omega in one_forms:
        dx = differential(hochschild_b1(omega))
        if dx.is_zero():
            continue
        quo = quo or CommutatorQuotient(A)
        if not quo.contains(dx):
            return False, f"d(b(omega)) not a commutator for {omega}"
    return True, ""
