"""Noncommutative differential forms over a presented algebra.

A degree-n form is a sparse combination of tuples (m0; m1, ..., mn)
encoding m0 dm1 ... dmn, where m0 runs over the basis together with the
unit and m1, ..., mn run over the non-unit basis monomials (the
differential kills the unit, so tuples carrying it in a d-slot are zero).

The module provides the differential, the graded multiplication, the
Fedosov product, the Hochschild map b on 1-forms, canonical
representatives modulo commutators, and truncated homology of the
two-term complex  S <-> Omega^1(S)/[,]  for commutative presentations.

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

from .algebra import ADJOINED_UNIT, AlgebraElement, AlgebraPresentation
from .errors import DomainError, NotCommutative, Unstable, WrongDegree
from .linalg import IntEchelon, _clear_denominators, kernel_basis


class Form:
    """A homogeneous differential form of fixed degree.

    ``terms`` maps tuples (m0, m1, ..., mn) to nonzero coefficients.  The
    d-slots m1, ..., mn never hold the unit monomial: d(1) = 0, so the
    constructor drops every tuple that carries it there, and the
    products below rely on this instead of re-testing the slots they copy.
    """

    __slots__ = ("presentation", "degree", "terms")

    def __init__(self, presentation, degree, terms=()):
        self.presentation = presentation
        self.degree = degree
        unit = presentation.is_unit_monomial
        clean = {}
        for key, c in dict(terms).items():
            if not c:
                continue
            if len(key) != degree + 1:
                raise WrongDegree(f"tuple {key} is not a {degree}-form")
            if any(map(unit, key[1:])):
                continue
            clean[key] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, presentation, degree, terms: dict) -> "Form":
        """A form from a kernel's output, whose tuples are already valid:
        zeros are dropped, nothing else is checked."""
        form = cls.__new__(cls)
        form.presentation = presentation
        form.degree = degree
        form.terms = {k: c for k, c in terms.items() if c}
        return form

    # -- construction helpers -------------------------------------------

    @classmethod
    def d_of_monomial(cls, A, m: tuple) -> "Form":
        """The 1-form dm (zero for the unit monomial)."""
        return cls(A, 1, {(A.one(), m): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        A = self.presentation
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(A.sort_key(m) for m in kv[0]))

    def __eq__(self, other):
        return (isinstance(other, Form) and self.degree == other.degree
                and self.terms == other.terms)

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("cannot add forms of different degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Form._trusted(self.presentation, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Form":
        return Form._trusted(self.presentation, self.degree,
                             {k: c * v for k, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
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


def differential(omega: Form) -> Form:
    """d(m0 dm1 ... dmn) = 1 dm0 dm1 ... dmn; zero when m0 is the unit."""
    A = omega.presentation
    out = {}
    one = A.one()
    for key, c in omega.terms.items():
        if A.is_unit_monomial(key[0]):
            continue
        out[(one,) + key] = out.get((one,) + key, 0) + c
    return Form._trusted(A, omega.degree + 1, out)


def form_multiply(omega: Form, eta: Form) -> Form:
    """Graded product dictated by the Leibniz rule.

    (x0 dx1...dxn)(y0 dy1...dym) expands as the sum over j of
    (-1)^(n-j) x0 dx1 ... d(xj x_{j+1}) ... dxn dy1 ... dym with
    x_{n+1} = y0 (for j = 0 the product x0 x1 is the head); d-slots that
    receive the unit monomial vanish.  For j < n the merged product
    does not involve eta, and y0 sits in a d-slot, so a unit y0 leaves
    only j = n.
    """
    A = omega.presentation
    n = omega.degree
    mul, unit = A.mul_monomials, A.is_unit_monomial
    etas = [(ys, c2, unit(ys[0])) for ys, c2 in eta.terms.items()]
    any_inner = n and not all(y0_unit for _, _, y0_unit in etas)
    out = {}
    get = out.get
    for xs, c1 in omega.terms.items():
        # the j < n summands as (slots before, product, slots after, odd)
        inner = []
        for j in range(n if any_inner else 0):
            prod = [(mm, mc) for mm, mc in mul(xs[j], xs[j + 1]).items()
                    if not (j and unit(mm))]
            inner.append((xs[:j], prod, xs[j + 2:], (n - j) % 2))
        pre, xn = xs[:n], xs[n]
        for ys, c2, y0_unit in etas:
            c = c1 * c2
            if inner and not y0_unit:
                neg = -c
                for before, prod, after, odd in inner:
                    cj = neg if odd else c
                    post = after + ys
                    for mm, mc in prod:
                        key = before + (mm,) + post
                        out[key] = get(key, 0) + (cj if mc == 1 else cj * mc)
            tail = ys[1:]
            for mm, mc in mul(xn, ys[0]).items():
                if n and unit(mm):
                    continue
                key = pre + (mm,) + tail
                out[key] = get(key, 0) + (c if mc == 1 else c * mc)
    return Form._trusted(A, n + eta.degree, out)


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
        other degree is merged in one dict and built once.
        """
        parts = {}  # degree -> the only Form so far, or the merged terms
        for f in forms:
            for g in (f.parts.values() if isinstance(f, MixedForm) else (f,)):
                acc = parts.get(g.degree)
                if acc is None:
                    parts[g.degree] = g
                    continue
                if isinstance(acc, Form):
                    acc = parts[g.degree] = dict(acc.terms)
                for k, c in g.terms.items():
                    acc[k] = acc.get(k, 0) + c
        return cls(presentation, {
            n: f if isinstance(f, Form) else Form._trusted(presentation, n, f)
            for n, f in parts.items()})

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


def fedosov(omega: Form, eta: Form, below=None) -> MixedForm:
    """Fedosov product of homogeneous forms.

    xi (.) eta = xi eta - (-1)^{ij} d(xi) d(eta); the two components live
    in degrees i+j and i+j+2.  With ``below`` only the components of
    degree < below are computed and returned.  The truncation is exact:
    xi eta is the whole of degree i+j and d(xi) d(eta) the whole of
    degree i+j+2, so a kept component is built as in the full product.
    """
    i, j = omega.degree, eta.degree
    parts = {}
    if below is None or i + j < below:
        parts[i + j] = form_multiply(omega, eta)
    if below is None or i + j + 2 < below:
        sign = -1 if (i * j) % 2 else 1
        high = form_multiply(differential(omega), differential(eta))
        parts[i + j + 2] = high.scale(-sign)
    return MixedForm(omega.presentation, parts)


def fedosov_mixed(a: MixedForm, b: MixedForm, below=None) -> MixedForm:
    """The Fedosov product extended to mixed forms; with ``below``, only
    its components of degree < below (see :func:`fedosov`)."""
    return MixedForm.sum(a.presentation, (
        fedosov(fa, fb, below)
        for i, fa in a.parts.items() for j, fb in b.parts.items()
        if below is None or i + j < below))


def mixed_multiply(a: MixedForm, b: MixedForm) -> MixedForm:
    """Ordinary (graded) product extended to mixed forms."""
    return MixedForm.sum(a.presentation, (
        form_multiply(fa, fb)
        for fa in a.parts.values() for fb in b.parts.values()))


def mixed_differential(a: MixedForm) -> MixedForm:
    return MixedForm.sum(a.presentation,
                         (differential(f) for f in a.parts.values()))


def hochschild_b1(omega: Form) -> AlgebraElement:
    """b(x dy) = xy - yx, extended linearly over degree-1 forms."""
    if omega.degree != 1:
        raise WrongDegree("b is defined on 1-forms here")
    A = omega.presentation
    out = {}
    for (x, y), c in omega.terms.items():
        for m, mc in A.mul_monomials(x, y).items():
            out[m] = out.get(m, 0) + c * mc
        for m, mc in A.mul_monomials(y, x).items():
            out[m] = out.get(m, 0) - c * mc
    return AlgebraElement(A, out)


# ---------------------------------------------------------------------------
# Commutator quotient and X-complex homology at finite truncation
# ---------------------------------------------------------------------------


def _heads(A: AlgebraPresentation, bound: int):
    heads = A.monomials_up_to(bound)
    if not A.unital:
        heads = [ADJOINED_UNIT] + heads
    return heads


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
    commutators x d(v_1 ... v_k) = sum_i (v_{i+1} ... v_k x v_1 ...
    v_{i-1}) dv_i over the letters of ``A.word_of``, an empty head being
    the unit.  This holds on free algebras, unital or not, and on
    polynomial rings, where it is the Kahler expansion.  Laurent and
    curve presentations are refused: :func:`kahler_window` reads theirs.
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
        for (x, s), c in omega.terms.items():
            word = A.word_of(s)
            for i, v in enumerate(word):
                head = A.one()
                for m in word[i + 1:] + [x] + word[:i]:
                    (head,) = A.mul_monomials(head, m)  # one monomial here
                out[(head, v)] = out.get((head, v), 0) + c
        return Form(A, 1, out)

    def contains(self, omega: Form) -> bool:
        return self.rep(omega).is_zero()


@dataclass(frozen=True)
class XComplexReport:
    h0: int
    h1: int
    reps0: tuple
    reps1: tuple
    stable: bool


#: Degrees added to the largest read bound of a Kahler window.
PAD = 2
#: A truncation D is certified by recomputing at D + STAB_STEP.
STAB_STEP = 5


def stable_read(A: AlgebraPresentation, D: int):
    """``kahler_window(A, [D, D + STAB_STEP])[D]``, certified stable.

    Both bounds must give the same dimensions (h0, h1), else
    :class:`Unstable` is raised.
    """
    if D < 0:
        raise ValueError(f"truncation must be >= 0, got {D}")
    big = D + STAB_STEP
    res = kahler_window(A, [D, big])
    dims, dims_big = res[D][:2], res[big][:2]
    if dims != dims_big:
        raise Unstable(f"dims {dims} at D={D} vs {dims_big} at D={big}")
    return res[D]


def _letter_product(A: AlgebraPresentation, word: tuple,
                    products: dict) -> dict:
    """Normal form of a product of letters; ``products`` memoizes prefixes."""
    start = len(word)
    while word[:start] not in products:
        start -= 1
    out = products[word[:start]]
    for i in range(start, len(word)):
        nxt = {}
        for m, c in out.items():
            for mm, mc in A.mul_monomials(m, word[i]).items():
                nxt[mm] = nxt.get(mm, 0) + c * mc
        out = products[word[:i + 1]] = nxt
    return out


def _kahler_d(A: AlgebraPresentation, s: tuple, products: dict) -> dict:
    """d(s) = sum_i (prod_{j != i} w_j) dw_i over s = w_1 ... w_n.

    ``s`` is factored by ``A.word_of``; the result maps 1-form tuples
    (head, letter) to coefficients.  A is commutative, so the k equal
    letters w of a word share one cofactor, taken k times.
    """
    word = tuple(A.word_of(s))
    out = {}
    for w in dict.fromkeys(word):
        i, k = word.index(w), word.count(w)
        rest = _letter_product(A, word[:i] + word[i + 1:], products)
        for h, c in rest.items():
            out[(h, w)] = out.get((h, w), 0) + k * c
    return out


def _leibniz_defects(A: AlgebraPresentation, letters,
                     products: dict) -> list:
    """The nonzero rho(a, b) = d(ab) - a db - b da over letter pairs."""
    out = []
    for i, a in enumerate(letters):
        for b in letters[i:]:
            rho = {}
            for m, c in A.mul_monomials(a, b).items():
                for key, v in _kahler_d(A, m, products).items():
                    rho[key] = rho.get(key, 0) + c * v
            for key in ((a, b), (b, a)):
                rho[key] = rho.get(key, 0) - 1
            rho = {k: v for k, v in rho.items() if v}
            if rho:
                out.append(rho)
    return out


def kahler_window(A: AlgebraPresentation, reads: list) -> dict:
    """Homology of d: S -> Omega^1_S (Kahler) read on several degree slices.

    The columns are the 1-forms h dw, w a letter of ``word_of``'s
    alphabet, of total degree <= max(reads) + PAD, in descending total
    degree, then by letter and head (``sort_key``), so the degree-<=R
    columns form a suffix for each read bound R.
    The rows are h rho(a, b) and d(s) for every monomial h, s of the
    window; a column a row reaches beyond the window is placed ahead of
    all others, so it never becomes a read pivot.  Each read bound R maps
    to (h0, h1, reps0, reps1, reduce): the kernel of d on S_{<=R} and its
    basis, the cokernel dimension and its non-pivot columns, and the
    residual of a {(head, letter): c} vector modulo all rows.

    One kernel pass serves every read bound: S_{<=R} is a prefix of the
    window's monomials (sorted by ``sort_key``), and ``kernel_basis``
    finds a kernel vector at the last index it uses, so the kernel on
    S_{<=R} is the vectors whose indices all lie in that prefix.
    """
    big = max(reads) + PAD
    monos = A.monomials_up_to(big)
    letters = sorted({w for s in A.monomials_up_to(1) for w in A.word_of(s)},
                     key=A.sort_key)
    by_deg = [[] for _ in range(big + 1)]
    for h in monos:  # sorted by sort_key, so each bucket is too
        by_deg[A.degree(h)].append(h)
    tuples, totdeg = [], []
    for d in range(big - 1, -1, -1):  # letters have degree 1
        for w in letters:
            tuples += [(h, w) for h in by_deg[d]]
            totdeg += [d + 1] * len(by_deg[d])
    col_of = {t: i for i, t in enumerate(tuples)}

    def vec(terms):
        out = {}
        for key, c in terms.items():
            col = col_of.get(key)
            if col is None:  # beyond the window: ahead of every column
                col = col_of[key] = len(tuples) - len(col_of) - 1
            out[col] = out.get(col, 0) + c
        return out

    products = {(): {A.one(): 1}}
    ech_c = IntEchelon()
    for rho in _leibniz_defects(A, letters, products):
        for h in monos:
            row = {}
            for (m, w), c in rho.items():
                for hm, hc in A.mul_monomials(h, m).items():
                    row[(hm, w)] = row.get((hm, w), 0) + c * hc
            ech_c.add(vec(row))
    d_of = [vec(_kahler_d(A, s, products)) for s in monos]
    kernel = kernel_basis([ech_c.reduce(d) for d in d_of])
    for d in d_of:
        ech_c.add(d)

    def reduce(terms):
        return ech_c.reduce(_clear_denominators(vec(terms)))

    pivots = ech_c.pivots()
    results = {}
    for R in reads:
        reps1 = tuple(tuples[c] for c, d in enumerate(totdeg)
                      if d <= R and c not in pivots)
        n = len(A.monomials_up_to(R))
        reps0 = tuple(
            AlgebraElement(A, {monos[i]: c for i, c in combo.items()})
            for combo in kernel if max(combo) < n)
        results[R] = (len(reps0), len(reps1), reps0, reps1, reduce)
    return results


def xcomplex_homology(A: AlgebraPresentation, cfg, D: int) -> XComplexReport:
    """Truncated homology of the two-term complex S <-> Omega^1(S)/[,].

    Only commutative presentations are supported: there the map from
    1-form classes back to S vanishes, so h0 = ker(d) and h1 = coker(d)
    on the truncated slices.  The dimensions are certified by
    :func:`stable_read`.  A polynomial ring in two or more variables is
    refused: Omega^1 S/dS is infinite-dimensional there, so no window is
    ever stable.
    """
    if not A.is_commutative:
        raise NotCommutative("homology is computed for commutative "
                             "presentations only")
    if A.kind == "polynomial" and len(A.generators) > 1:
        raise DomainError("one-variable polynomial rings only")
    h0, h1, reps0, reps1, _ = stable_read(A, D)
    reps1_str = tuple(str(Form(A, 1, {t: 1})) for t in reps1)
    reps0_str = tuple(str(x) for x in reps0)
    return XComplexReport(h0, h1, reps0_str, reps1_str, True)


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
        x = hochschild_b1(omega)
        dx = Form(A, 1, {(A.one(), m): c for m, c in x.terms.items()})
        if dx.is_zero():
            continue
        quo = quo or CommutatorQuotient(A)
        if not quo.contains(dx):
            return False, f"d(b(omega)) not a commutator for {omega}"
    return True, ""
