"""Overconvergent de Rham reduction in relative dimension one.

Three families are covered at finite truncation: the polynomial ring, the
Laurent ring, and affine plane curves y^2 = f(x) with deg f = 3, f
squarefree mod p, p >= 5.  Cohomology is read on a degree window with
padding and certified by recomputation on a larger window; every division
performed on the way is logged as a p-adic valuation loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraPresentation
from .errors import BadReduction, Mismatch
from .graphs import DirectedGraph, ha_leavitt
from .linalg import IntEchelon, _clear_denominators, kernel_basis
from .ncforms import stable_read
from .scalars import PrimeConfig, _int_val, val

#: Degrees added to every read window.
PAD = 3


@dataclass(frozen=True)
class OverconvergentSeries:
    """Window-truncated series whose coefficient valuations grow linearly.

    The certificate (m, f) asserts val(c_n) >= ceil(|n|/m) - f and is
    verified on construction.
    """

    coeffs: tuple  # ((n, Fraction), ...) sorted by n
    window: int
    m: int
    f: int
    laurent: bool = False
    p: int = 2

    @classmethod
    def make(cls, coeffs: dict, window: int, m: int, f: int,
             cfg: PrimeConfig, laurent: bool = False):
        items = tuple(sorted((int(n), Fraction(c))
                             for n, c in coeffs.items() if c))
        s = cls(items, window, m, f, laurent, cfg.p)
        s.verify(cfg)
        return s

    @classmethod
    def with_min_certificate(cls, coeffs: dict, window: int, m: int,
                             cfg: PrimeConfig, laurent: bool = False):
        """Smallest offset f >= 0 making the certificate hold."""
        f = 0
        for n, c in coeffs.items():
            if c:
                f = max(f, -(-abs(n) // m) - val(c, cfg))
        return cls.make(coeffs, window, m, int(f), cfg, laurent)

    def verify(self, cfg: PrimeConfig):
        for n, c in self.coeffs:
            lo = -self.window if self.laurent else 0
            if not (lo <= n <= self.window):
                raise ValueError(f"exponent {n} outside window")
            if val(c, cfg) < -(-abs(n) // self.m) - self.f:
                raise ValueError(
                    f"certificate ({self.m}, {self.f}) fails at n={n}")

    def as_dict(self) -> dict:
        return dict(self.coeffs)


def integrate_series(a: OverconvergentSeries, cfg: PrimeConfig):
    """Termwise primitive sum c_l t^{l+1} / (l+1) on a polynomial window.

    Returns the primitive (with the smallest valid certificate offset)
    and the maximal valuation lost to the divisions, which is at most
    floor(log_p(window + 1)).
    """
    if a.laurent:
        raise ValueError("polynomial windows only")
    out = {}
    loss = 0
    for l, c in a.coeffs:
        out[l + 1] = Fraction(c, l + 1)
        loss = max(loss, _int_val(l + 1, cfg.p))
    primitive = OverconvergentSeries.with_min_certificate(
        out, a.window + 1, a.m, cfg)
    return primitive, loss


@dataclass(frozen=True)
class KahlerOneForm:
    """A 1-form over a commutative presentation in reduced coordinates.

    For polynomial and laurent presentations the form is g(t) dt with
    ``parts = {"dt": {n: c}}``.  On a plane curve the coordinates are
    A dx + B y dx + C dy with y dy already rewritten to f'(x)/2 dx, so
    ``parts`` uses the keys "dx", "ydx", "dy" mapping x-degree to
    coefficient.
    """

    presentation: AlgebraPresentation
    parts: dict

    def __post_init__(self):
        keys = ({"dx", "ydx", "dy"} if self.presentation.kind ==
                "plane_curve" else {"dt"})
        if not set(self.parts) <= keys:
            raise ValueError(f"unknown coordinate families "
                             f"{set(self.parts) - keys}")

    @classmethod
    def on_curve(cls, A, dx=(), ydx=(), dy=(), ydy=()):
        """Assemble a curve form, rewriting y dy = f'(x)/2 dx."""
        parts = {"dx": dict(dx), "ydx": dict(ydx), "dy": dict(dy)}
        fprime = [k * c for k, c in enumerate(A.f_coeffs)][1:]
        for i, c in dict(ydy).items():
            for k, fc in enumerate(fprime):
                parts["dx"][i + k] = (parts["dx"].get(i + k, 0)
                                      + Fraction(c) * fc / 2)
        return cls(A, {k: {n: Fraction(v) for n, v in d.items() if v}
                       for k, d in parts.items()})

    def dt_coefficients(self) -> dict:
        return dict(self.parts.get("dt", {}))


def reduce_laurent_form(g, D: int, cfg: PrimeConfig):
    """Split g dt = c_{-1} dt/t + d(primitive), exactly.

    ``g`` is a coefficient mapping or a :class:`KahlerOneForm`; the
    primitive's t^n coefficient is g_{n-1}/n and the reported losses are
    the valuations of the divisors n.
    """
    if isinstance(g, KahlerOneForm):
        g = g.dt_coefficients()
    residue = Fraction(g.get(-1, 0))
    primitive = {}
    loss = 0
    for n_minus_1, c in g.items():
        if n_minus_1 == -1 or not c:
            continue
        n = n_minus_1 + 1
        if abs(n) > D + 1:
            raise ValueError(f"exponent {n} outside window {D + 1}")
        primitive[n] = Fraction(c, n)
        loss = max(loss, _int_val(abs(n), cfg.p))
    return residue, primitive, loss


@dataclass(frozen=True)
class CohomologyReport:
    h0: int
    h1: int
    reps0: tuple
    reps1: tuple
    truncation: int
    stable: bool
    max_valuation_loss: int

    def as_dict(self):
        return {"h0": self.h0, "h1": self.h1,
                "reps0": list(self.reps0), "reps1": list(self.reps1),
                "truncation": self.truncation, "stable": self.stable,
                "valuation_loss": self.max_valuation_loss}


def cubic_discriminant(f_coeffs) -> int:
    """Discriminant of a cubic a3 x^3 + a2 x^2 + a1 x + a0."""
    a0, a1, a2, a3 = (list(f_coeffs) + [0] * 4)[:4]
    return (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0
            + a2 ** 2 * a1 ** 2 - 4 * a3 * a1 ** 3
            - 27 * a3 ** 2 * a0 ** 2)


def _rank_one_window(D: int, cfg: PrimeConfig, laurent: bool):
    """Windowed kernel/cokernel of g dt <- d(t^m) = m t^{m-1} dt.

    The map is diagonal on the monomial basis over a field of
    characteristic zero, so coverage is counted directly: the read-window
    class t^k dt is exact iff k + 1 is a nonzero exponent of the padded
    domain window.
    """
    lo = -(D + PAD) if laurent else 0
    domain = range(lo, D + PAD + 1)
    # d(t^m) = m t^{m-1} dt vanishes only at m = 0 in characteristic zero
    kernel = [m for m in range(-D if laurent else 0, D + 1) if m == 0]
    read_lo = -D if laurent else 0
    missed = [k for k in range(read_lo, D) if k + 1 == 0
              or k + 1 not in domain]
    loss = max((_int_val(abs(m), cfg.p) for m in domain if m),
               default=0)
    reps1 = tuple("dt/t" if k == -1 else f"t^{k} dt" for k in missed)
    return len(kernel), len(missed), reps1, loss


def _h_rank_one(D: int, cfg: PrimeConfig, laurent: bool):
    h0, h1, reps1, loss = stable_read(
        lambda reads: {R: _rank_one_window(R, cfg, laurent)
                       for R in reads}, D)
    return CohomologyReport(h0, h1, ("1",), reps1, D, True, loss)


def _curve_window(f_coeffs, D: int):
    """Kahler complex of y^2 = f(x) on a padded degree window.

    Columns are x^i dx, x^i y dx, x^i dy, x^i y dy with weights i+1, i+2,
    i+1, i+2; the relation submodule is generated by x^i (2y dy - f' dx)
    and x^i y (2y dy - f' dx); images are d(x^m) and d(x^m y).
    """
    big = D + PAD
    f = list(f_coeffs)
    fprime = [k * c for k, c in enumerate(f)][1:]
    fams = {"dx": 1, "ydx": 2, "dy": 1, "ydy": 2}
    cols = []
    for fam, off in fams.items():
        for i in range(big - off + 1):
            cols.append((fam, i))
    # big-window-only columns first, inside each block higher degree first
    cols.sort(key=lambda c: (0 if fams[c[0]] + c[1] > D else 1,
                             -(fams[c[0]] + c[1]), c[0], -c[1]))
    col_of = {c: k for k, c in enumerate(cols)}
    read_cols = {col_of[c] for c in cols if fams[c[0]] + c[1] <= D}
    read_start = min(read_cols) if read_cols else len(cols)

    def vec(entries):
        out = {}
        for fam, i, c in entries:
            if c and (fam, i) in col_of:
                out[col_of[(fam, i)]] = out.get(col_of[(fam, i)], 0) + c
        return out

    relations = []
    for i in range(big + 1):
        ent = [("ydy", i, Fraction(2))]
        ent += [("dx", i + k, Fraction(-c)) for k, c in enumerate(fprime)]
        if all((fam, j) in col_of for fam, j, _ in ent):
            relations.append(vec(ent))
        ent = [("dy", i + k, Fraction(2 * c)) for k, c in enumerate(f)]
        ent += [("ydx", i + k, Fraction(-c)) for k, c in enumerate(fprime)]
        if all((fam, j) in col_of for fam, j, _ in ent):
            relations.append(vec(ent))
    images = []
    for m_ in range(1, big + 1):
        if ("dx", m_ - 1) in col_of:
            images.append(vec([("dx", m_ - 1, Fraction(m_))]))
    for m_ in range(0, big + 1):
        ent = [("dy", m_, Fraction(1))]
        if m_ >= 1:
            ent.append(("ydx", m_ - 1, Fraction(m_)))
        if all((fam, j) in col_of for fam, j, _ in ent):
            images.append(vec(ent))

    ech_rel = IntEchelon()
    for v in relations:
        ech_rel.add(_clear_denominators(v))
    ech_u = ech_rel.clone()
    for v in images:
        ech_u.add(_clear_denominators(v))
    pivots_read = sum(1 for p_ in ech_u.pivots() if p_ >= read_start)
    h1 = len(read_cols) - pivots_read

    # kernel of d on monomials x^m, x^m y within the read window
    domain = [("", m_) for m_ in range(D + 1)] + \
             [("y", m_) for m_ in range(D - 1 + 1)]
    imgs = []
    for fam, m_ in domain:
        if fam == "":
            v = vec([("dx", m_ - 1, Fraction(m_))]) if m_ >= 1 else {}
        else:
            ent = [("dy", m_, Fraction(1))]
            if m_ >= 1:
                ent.append(("ydx", m_ - 1, Fraction(m_)))
            v = vec(ent)
        imgs.append(ech_rel.reduce(v))
    h0 = len(kernel_basis(imgs))
    return h0, h1, ech_u, col_of


def _curve_reps(f_coeffs, ech_u, col_of, cfg):
    """The classes x^j dx/y = x^j (u y dx + 2 v dy), j = 0, 1.

    u, v solve u f + v f' = 1 over Q (possible: f squarefree); each rep
    is verified nonzero and jointly independent modulo the computed
    boundaries.
    """
    f = list(f_coeffs)
    fprime = [k * c for k, c in enumerate(f)][1:]
    u, v = _poly_bezout(f, fprime)
    loss = 0
    for c in u + v:
        d = Fraction(c).denominator
        loss = max(loss, _int_val(d, cfg.p))
    reps = []
    check = IntEchelon()
    for j in (0, 1):
        ent = [("ydx", j + k, Fraction(c)) for k, c in enumerate(u)]
        ent += [("dy", j + k, 2 * Fraction(c)) for k, c in enumerate(v)]
        vecd = {}
        for fam, i, c in ent:
            if c:
                vecd[col_of[(fam, i)]] = vecd.get(col_of[(fam, i)], 0) + c
        residual = ech_u.reduce(_clear_denominators(vecd))
        if not residual:
            raise Mismatch("expected curve class is a boundary")
        if check.add(residual) is None:
            raise Mismatch("curve classes are not independent")
        reps.append("dx/y" if j == 0 else "x dx/y")
    return tuple(reps), loss


def _poly_bezout(f, g):
    """u, v with u f + v g = 1 in Q[x] (coefficient lists, ascending)."""

    def deg(a):
        return len(a) - 1

    def trim(a):
        while a and not a[-1]:
            a.pop()
        return a

    def sub(a, b):
        out = [Fraction(0)] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] -= c
        return trim(out)

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, c in enumerate(a):
            for k, d in enumerate(b):
                out[i + k] += c * d
        return trim(out)

    def divmod_(a, b):
        a = [Fraction(c) for c in a]
        q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        while a and deg(a) >= deg(b):
            shift = deg(a) - deg(b)
            coef = a[-1] / b[-1]
            q[shift] = coef
            a = sub(a, mul([Fraction(0)] * shift + [coef], b))
        return trim(q), a

    r0 = [Fraction(c) for c in f]
    r1 = [Fraction(c) for c in g]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
        t0, t1 = t1, sub(t0, mul(q, t1))
    if deg(r0) != 0:
        raise BadReduction("f and f' share a root: curve not smooth")
    c = r0[0]
    return [x / c for x in s0], [x / c for x in t0]


def h_dr(A: AlgebraPresentation, cfg: PrimeConfig,
         D: int) -> CohomologyReport:
    """De Rham cohomology (h0, h1) of the dagger model at truncation D.

    Plane curves require y^2 = f(x) with deg f = 3, p >= 5, and p not
    dividing disc(f) (else :class:`BadReduction`); the dimensions are
    certified by :func:`stable_read` on windows padded by PAD.
    """
    if A.kind == "polynomial":
        if len(A.generators) != 1:
            raise ValueError("one-variable polynomial rings only")
        return _h_rank_one(D, cfg, laurent=False)
    if A.kind == "laurent":
        return _h_rank_one(D, cfg, laurent=True)
    if A.kind != "plane_curve":
        raise ValueError("unsupported presentation for de Rham reduction")
    if A.curve_fdeg != 3:
        raise ValueError("curves must have deg f = 3")
    if cfg.p < 5:
        raise BadReduction("p >= 5 required")
    disc = cubic_discriminant(A.f_coeffs)
    if disc % cfg.p == 0:
        raise BadReduction(f"p = {cfg.p} divides disc(f) = {disc}")
    h0, h1, ech_u, col_of = stable_read(
        lambda reads: {R: _curve_window(A.f_coeffs, R) for R in reads}, D)
    reps1, bezout_loss = _curve_reps(A.f_coeffs, ech_u, col_of, cfg)
    # fraction-free elimination introduces no denominators at all
    return CohomologyReport(h0, h1, ("1",), reps1, D, True, bezout_loss)


@dataclass(frozen=True)
class CrosscheckReport:
    dims_graph: tuple
    dims_derham: tuple
    ok: bool


def crosscheck_loop_graph(cfg: PrimeConfig, D: int) -> CrosscheckReport:
    """Two independent computations of the loop-graph invariants.

    The one-vertex one-loop graph on the path-algebra side and the
    Laurent presentation on the de Rham side must both give (1, 1).
    """
    res = ha_leavitt(DirectedGraph.loop(), cfg)
    dr = h_dr(AlgebraPresentation.laurent(), cfg, D)
    dims_g = (res.dim_ha0, res.dim_ha1)
    dims_d = (dr.h0, dr.h1)
    if dims_g != dims_d or dims_g != (1, 1):
        raise Mismatch(f"graph {dims_g} vs de Rham {dims_d}")
    return CrosscheckReport(dims_g, dims_d, True)
