"""Overconvergent de Rham reduction in relative dimension one.

Three families are covered at finite truncation: the polynomial ring, the
Laurent ring, and affine plane curves y^2 = f(x) of any degree >= 1, f
squarefree mod p, p >= 5.  All three are read on the padded Kahler window
of :mod:`hacalc.ncforms`, a fraction-free elimination, and certified by
recomputation on a larger window.  The valuation loss logs the divisions a
rational reduction makes: the divisors n of d(t^n) on the polynomial and
Laurent rings; on curves it is 0: the classes are read as the integer forms
r x^j dx/y, where u f + v f' = r in Z[x], and r is prime to p once f is
squarefree mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraPresentation
from .errors import BadReduction, DomainError, Mismatch
from .graphs import DirectedGraph, ha_leavitt
from .linalg import kernel_basis
from .ncforms import PAD, stable_read
from .scalars import PrimeConfig, _int_val


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


def _curve_reps(A: AlgebraPresentation, u, v, reduce, h1: int):
    """The classes x^j dx/y, 0 <= j < deg f - 1, as the integer forms
    r x^j dx/y = x^j (u y dx + 2 v dy).

    u, v, r are ints with u f + v f' = r != 0 (:func:`_poly_bezout`); the
    nonzero scalar r changes neither whether a residual is zero nor
    whether residuals are independent.  The Kahler window's ``reduce``
    takes each rep modulo the boundaries and the reps before it, so the
    reps are independent modulo the boundaries iff no residual is zero;
    their number must be the window's h1.
    """
    x, y = A.generator_monomial("x"), A.generator_monomial("y")
    forms = [{**{((j + k, 1), x): c for k, c in enumerate(u) if c},
              **{((j + k, 0), y): 2 * c for k, c in enumerate(v) if c}}
             for j in range(len(A.f_coeffs) - 2)]
    if not all(reduce(forms)):
        raise Mismatch("curve classes are not independent modulo the "
                       "boundaries")
    if len(forms) != h1:
        raise Mismatch(f"{len(forms)} curve classes vs h1 = {h1}")
    return tuple("dx/y" if j == 0 else "x dx/y" if j == 1 else f"x^{j} dx/y"
                 for j in range(len(forms)))


def _poly_bezout(f, g):
    """u, v, r with u f + v g = r != 0 in Z[x] (coefficient lists,
    ascending), of content 1 over all the entries.

    One solve of the Sylvester system: a kernel vector of the columns
    x^i f (i < deg g), x^i g (i < deg f) and -1 with a nonzero last entry
    r; u/r, v/r is the unique rational Bezout pair below those degrees.
    There is none when f and g share a root.
    """
    m, n = len(g) - 1, len(f) - 1
    cols = ([{i + k: c for k, c in enumerate(f) if c} for i in range(m)]
            + [{i + k: c for k, c in enumerate(g) if c} for i in range(n)]
            + [{0: -1}])
    for combo in kernel_basis(cols):
        r = combo.get(m + n)
        if r:
            uv = [combo.get(i, 0) for i in range(m + n)]
            return uv[:m], uv[m:], r
    raise BadReduction("f and f' share a root: curve not smooth")


def h_dr(A: AlgebraPresentation, cfg: PrimeConfig,
         D: int) -> CohomologyReport:
    """De Rham cohomology (h0, h1) of the dagger model at truncation D.

    Every kind is read on :func:`~hacalc.ncforms.kahler_window` and
    certified by :func:`stable_read`.  On the polynomial and Laurent rings
    each non-pivot column t^k dt is a class ("dt/t" for k = -1, written
    in the payload's generator), and the valuation loss is the largest
    v_p(n) of a divisor of d(t^n) = n t^(n-1) dt over the window's padded
    domain 1 <= n <= D + PAD.

    A plane curve y^2 = f(x) needs p >= 5 and f squarefree mod p, else
    :class:`BadReduction`.  The latter is p | r for the integer solution
    u f + v f' = r of content 1, that is p divides a denominator of the
    Bezout pair u/r, v/r; f has leading coefficient +-1, so this happens
    exactly when p divides disc(f).  The classes are x^j dx/y,
    0 <= j < deg f - 1, read as the integer forms r x^j dx/y; their
    valuation loss is 0, as r is prime to p past the gate and the
    window's elimination is fraction-free.
    """
    if A.kind == "plane_curve":
        if cfg.p < 5:
            raise BadReduction("p >= 5 required")
        f = list(A.f_coeffs)
        u, v, r = _poly_bezout(f, [k * c for k, c in enumerate(f)][1:])
        if r % cfg.p == 0:
            raise BadReduction(f"f is not squarefree mod p = {cfg.p}")
    elif A.kind not in ("polynomial", "laurent"):
        raise DomainError("unsupported presentation for de Rham reduction")
    h0, h1, cols, reduce = stable_read(A, D)
    if A.kind == "plane_curve":
        reps1, loss = _curve_reps(A, u, v, reduce, h1), 0
    else:
        t = A.generators[0]
        reps1 = tuple(f"d{t}/{t}" if h == (-1,) else f"{t}^{h[0]} d{t}"
                      for h, _ in cols)
        loss = max(_int_val(n, cfg.p) for n in range(1, D + PAD + 1))
    return CohomologyReport(h0, h1, ("1",), reps1, D, True, loss)


def crosscheck_loop_graph(dr: CohomologyReport) -> None:
    """Two independent computations of the loop-graph invariants.

    The one-loop graph's path algebra (Smith normal form) and ``dr``, the
    Laurent ring's :func:`h_dr` report (Kahler window elimination), must
    both give (1, 1).  A return is the pass; else :class:`Mismatch`.
    """
    res = ha_leavitt(DirectedGraph.loop())
    dims_g = (res.dim_ha0, res.dim_ha1)
    dims_d = (dr.h0, dr.h1)
    if dims_g != dims_d or dims_g != (1, 1):
        raise Mismatch(f"graph {dims_g} vs de Rham {dims_d}")
