"""Strong Groebner bases over the integers with the degree-lexicographic
order.

A basis is *strong* when every nonzero ideal member g has some basis
element b whose leading monomial divides lm(g) and whose leading
coefficient divides lc(g); greedy division by such a basis therefore
decides membership, and with deglex every multiplier satisfies
deg(multiplier * basis element) <= deg(g), which witnesses the shift
constant l = 0 of the total-degree filtration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .algebra import exponent_vectors
# Not called here: perfbench/layers.py traces this binding as oracle_snf.
from .graphs import smith_normal_form  # noqa: F401
from .linalg import ZLattice, bezout


class IntPoly:
    """A sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        self.terms = {}
        for e, c in dict(terms).items():
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an integer")
            if c:
                if (len(e) != nvars or min(e, default=0) < 0
                        or not all(type(x) is int for x in e)):
                    raise ValueError(f"bad exponent vector {e}")
                self.terms[e] = c

    @classmethod
    def from_json(cls, nvars, data) -> "IntPoly":
        """Terms ``[{"e": [exponents], "c": coefficient}, ...]``.

        Every exponent and coefficient must be a JSON integer: a float,
        bool or string is refused rather than rounded into Z.
        """
        if not isinstance(data, list):
            raise ValueError(
                f"generator {json.dumps(data)} must be a list of terms")
        terms = {}
        for t in data:
            e, c = ((t.get("e"), t.get("c")) if isinstance(t, dict)
                    else (None, None))
            if not (isinstance(e, list)
                    and all(type(x) is int for x in [c, *e])):
                raise ValueError(
                    f"term {json.dumps(t)} needs integer exponents "
                    "and coefficient")
            terms[tuple(e)] = c
        return cls(nvars, terms)

    @classmethod
    def constant(cls, nvars, c) -> "IntPoly":
        return cls(nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return IntPoly(self.nvars, out)

    def __neg__(self):
        return IntPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(self.nvars,
                           {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly(self.nvars, out)

    __rmul__ = __mul__

    def term_mul(self, coeff, expo) -> "IntPoly":
        return IntPoly(self.nvars,
                       {tuple(a + b for a, b in zip(e, expo)): c * coeff
                        for e, c in self.terms.items()})

    def leading(self):
        """(exponent, coefficient) of the deglex-largest term."""
        e = max(self.terms, key=_deglex_key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def monomials_sorted(self):
        return sorted(self.terms, key=_deglex_key, reverse=True)

    def __str__(self):
        return self.render([f"x{i}" for i in range(self.nvars)])

    def render(self, names) -> str:
        """The polynomial written in the variable names ``names``."""
        if not self.terms:
            return "0"
        parts = []
        for e in self.monomials_sorted():
            c = self.terms[e]
            mono = "*".join(n if k == 1 else f"{n}^{k}"
                            for n, k in zip(names, e) if k)
            parts.append(f"{c}" if not mono else
                         (mono if c == 1 else
                          f"-{mono}" if c == -1 else f"{c}*{mono}"))
        return " + ".join(parts).replace("+ -", "- ")


def _deglex_key(e):
    return (sum(e), e)


def deglex_compare(a, b) -> int:
    """-1, 0, 1 for a < b, a = b, a > b in degree-lexicographic order."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("exponent vectors of different length")
    ka, kb = _deglex_key(a), _deglex_key(b)
    return (ka > kb) - (ka < kb)


def _monomial_divides(e, f) -> bool:
    return all(a <= b for a, b in zip(e, f))


def _expo_sub(f, e):
    return tuple(b - a for a, b in zip(e, f))


@dataclass
class DivisionCertificate:
    """Multipliers per basis index and the irreducible remainder.

    sum(multiplier[i] * basis[i]) + remainder reconstructs the dividend
    exactly; for a member the remainder is zero and every product
    multiplier[i] * basis[i] has total degree <= deg(dividend).
    """

    multipliers: dict  # basis index -> IntPoly
    remainder: IntPoly

    def reconstruct(self, basis) -> IntPoly:
        out = self.remainder
        for i, q in self.multipliers.items():
            out = out + q * basis.polys[i]
        return out

    def max_product_degree(self, basis) -> int:
        return max((q * basis.polys[i]).total_degree()
                   for i, q in self.multipliers.items()) \
            if self.multipliers else 0


@dataclass(frozen=True)
class StrongGB:
    polys: tuple


def _strong_reduce(p: IntPoly, basis: list) -> tuple:
    """Full strong normal form; returns (remainder, multipliers)."""
    mult = {}
    remainder = IntPoly(p.nvars)
    while not p.is_zero():
        e, c = p.leading()
        hit = None
        for i, b in enumerate(basis):
            be, bc = b.leading()
            if _monomial_divides(be, e) and c % bc == 0:
                hit = (i, c // bc, _expo_sub(e, be))
                break
        if hit is None:
            remainder = remainder + IntPoly(p.nvars, {e: c})
            p = p - IntPoly(p.nvars, {e: c})
            continue
        i, q, shift = hit
        term = IntPoly(p.nvars, {shift: q})
        mult[i] = mult.get(i, term * 0) + term
        p = p - basis[i].term_mul(q, shift)
    return remainder, mult


def _s_poly(f: IntPoly, g: IntPoly) -> IntPoly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    return (f.term_mul(lcm_c // fc, _expo_sub(lcm_e, fe))
            - g.term_mul(lcm_c // gc, _expo_sub(lcm_e, ge)))


def _g_poly(f: IntPoly, g: IntPoly) -> IntPoly:
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
    a, b = bezout(fc, gc)  # a fc + b gc = gcd(fc, gc)
    return (f.term_mul(a, _expo_sub(lcm_e, fe))
            + g.term_mul(b, _expo_sub(lcm_e, ge)))


def strong_gb(gens) -> StrongGB:
    """Buchberger completion over Z with S- and G-polynomials.

    G-polynomials (Bezout combinations of leading coefficients) are
    processed before S-polynomials of the same pair, in the normal
    pair-selection strategy (smallest deglex lcm first); the final basis
    is interreduced, sign-normalized, and sorted.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    nvars = basis[0].nvars
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    guard = 0
    while pairs:
        guard += 1
        if guard > 20000:
            raise RuntimeError("completion did not terminate")

        def lcm_key(pair):
            i, j = pair
            fe, _ = basis[i].leading()
            ge, _ = basis[j].leading()
            return (_deglex_key(tuple(max(a, b) for a, b in zip(fe, ge))),
                    i, j)

        i, j = min(pairs, key=lcm_key)
        pairs.discard((i, j))
        for candidate in (_g_poly(basis[i], basis[j]),
                          _s_poly(basis[i], basis[j])):
            nf, _ = _strong_reduce(candidate, basis)
            if nf.is_zero():
                continue
            _, lc = nf.leading()
            if lc < 0:
                nf = -nf
            if nf in basis:
                continue
            basis.append(nf)
            k = len(basis) - 1
            pairs.update((k, t) for t in range(k))
    # interreduce deterministically
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            if not others:
                continue
            nf, _ = _strong_reduce(basis[i], others)
            if nf != basis[i]:
                changed = True
                if nf.is_zero():
                    basis = others
                else:
                    _, lc = nf.leading()
                    basis = others + [-nf if lc < 0 else nf]
                break
    basis.sort(key=lambda p: (_deglex_key(p.leading()[0]),
                              abs(p.leading()[1])))
    return StrongGB(tuple(basis))


def strong_divide(g: IntPoly, B: StrongGB) -> DivisionCertificate:
    """Greedy strong division of g by the basis; remainder 0 iff member."""
    remainder, mult = _strong_reduce(g, list(B.polys))
    return DivisionCertificate(mult, remainder)


@dataclass(frozen=True)
class WitnessReport:
    samples: int
    max_shift: int
    failures: int


def filtered_noetherian_witness(gens, sample_count: int, max_deg: int,
                                rng) -> WitnessReport:
    """Sample random ideal members and measure the filtration shift.

    Each sample is sum r_i gen_i with random r_i keeping the total degree
    <= max_deg; the observed shift max(0, deg(q_j f_j) - deg(g)) is 0 for
    deglex division by a strong basis.
    """
    gb = strong_gb(gens)
    max_shift = 0
    failures = 0
    done = 0
    while done < sample_count:
        g = IntPoly(gens[0].nvars)
        for base in gens:
            budget = max_deg - base.total_degree()
            if budget < 0:
                continue
            r = _random_poly(base.nvars, budget, rng)
            g = g + r * base
        if g.is_zero():
            continue
        done += 1
        cert = strong_divide(g, gb)
        if not cert.remainder.is_zero():
            failures += 1
            continue
        shift = max(0, cert.max_product_degree(gb) - g.total_degree())
        max_shift = max(max_shift, shift)
    return WitnessReport(done, max_shift, failures)


def _random_poly(nvars, max_deg, rng) -> IntPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * nvars
        if nvars:  # a constant has no exponents to draw
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
    return IntPoly(nvars, terms)


# ---------------------------------------------------------------------------
# Independent membership oracle via integer linear algebra
# ---------------------------------------------------------------------------


#: Degrees the membership oracle searches beyond deg(g).
ORACLE_HEADROOM = 8


def membership_oracle(g: IntPoly, gens) -> bool:
    """Decide membership by integer linear algebra on one Z-lattice.

    At degree bound b the columns are the products m * gen_i with
    deg(m * gen_i) <= b, and g is a member at b iff it lies in their
    Z-span, which a ``ZLattice`` decides.  The bound escalates from
    deg(g): a member can need products of the raw generators beyond its
    own degree (the degree control of strong-basis division speaks about
    the completed basis, not the generators), e.g. 5y = y(x^2+5) - x(xy).
    The columns at b are among those at b + 1, so one lattice serves
    every bound and each later bound adds only the products whose
    multiplier has the new degree.
    """
    if g.is_zero():
        return True
    lattice = ZLattice(_deglex_key)
    base = g.total_degree()
    for bound in range(base, base + ORACLE_HEADROOM + 1):
        for gen in gens:
            budget = bound - gen.total_degree()
            for m in exponent_vectors(g.nvars, budget):
                if bound == base or sum(m) == budget:
                    lattice.add(gen.term_mul(1, m).terms)
        if lattice.contains(g.terms):
            return True
    return False
