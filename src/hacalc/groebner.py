"""Strong Groebner bases over the integers with the degree-lexicographic
order.

A basis is *strong* when every nonzero ideal member g has some basis
element b whose leading monomial divides lm(g) and whose leading
coefficient divides lc(g); greedy division by such a basis therefore
decides membership, and with deglex every multiplier satisfies
deg(multiplier * basis element) <= deg(g), which witnesses the shift
constant l = 0 of the total-degree filtration.

The kernels key every term by its deglex key (deg, e) = (sum(e), e), so
comparing two keys compares the monomials and the leading term is a plain
``max`` (Monagan and Pearce, "Sparse polynomial division using a heap",
J. Symb. Comp. 46, 2011, keep monomials in such a directly comparable
form).  ``IntPoly.terms`` stays keyed by exponent tuples.  A ``StrongGB``
carries its division table, built with the basis: for each element its
head (deg, e, c), the deglex-leading term, and its other terms keyed the
same way.  ``strong_divide`` reduces by the table, certificate degrees read
the heads, and ``strong_gb`` keeps the table in step as its basis grows
and while it interreduces.  The membership oracle hands its lattice
deglex-keyed columns.  Every entry point refuses polynomials in different
numbers of variables.

Types are checked at the boundary only.  The constructor
``IntPoly(nvars, terms)`` refuses any coefficient that is not an ``int``
and any exponent vector that is not ``nvars`` non-negative ``int``s, and
``term_mul`` checks its own coefficient and shift once.  Arithmetic
between valid polynomials (``+``, ``-``, negation, ``*`` by an ``int`` or
a polynomial), the division kernel's outputs and the witness samples are
built trusted by ``IntPoly._trusted``, which only drops zero entries; the
membership oracle's shifted generators m * gen go to its lattice as plain
dicts.  Their exponents are sums of valid exponents.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from operator import add, le, sub

from .algebra import exponent_vectors
from .errors import DomainError
# Not called here: perfbench/layers.py traces this binding as oracle_snf.
from .linalg import ZLattice, bezout, smith_normal_form  # noqa: F401


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
                if (not all(type(x) is int for x in e)
                        or len(e) != nvars or min(e, default=0) < 0):
                    raise ValueError(f"bad exponent vector {e}")
                self.terms[e] = c

    @classmethod
    def _trusted(cls, nvars, terms: dict) -> "IntPoly":
        """A polynomial built from valid polynomials: zero entries are
        dropped, nothing else is checked."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def from_json(cls, nvars, data) -> "IntPoly":
        """Terms ``[{"e": [exponents], "c": coefficient}, ...]``.

        Every exponent and coefficient must be a JSON integer: a float,
        bool or string is refused rather than rounded into Z.  Every term,
        a zero one too, needs ``nvars`` exponents >= 0, and the
        coefficients of a repeated exponent vector are summed.
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
            if len(e) != nvars or min(e, default=0) < 0:
                raise ValueError(
                    f"term {json.dumps(t)} needs {nvars} exponents >= 0")
            e = tuple(e)
            terms[e] = terms.get(e, 0) + c
        return cls(nvars, terms)

    @classmethod
    def constant(cls, nvars, c) -> "IntPoly":
        return cls(nvars, {(0,) * nvars: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, IntPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return IntPoly._trusted(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return IntPoly._trusted(self.nvars, out)

    def __neg__(self):
        return IntPoly._trusted(self.nvars,
                                {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly._trusted(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def term_mul(self, coeff, expo) -> "IntPoly":
        """The product with coeff * x^expo; coeff must be an ``int`` and
        expo ``nvars`` non-negative ``int``s."""
        if type(coeff) is not int:
            raise ValueError(f"coefficient {coeff!r} is not an integer")
        expo = tuple(expo)
        if (not all(type(x) is int for x in expo)
                or len(expo) != self.nvars or min(expo, default=0) < 0):
            raise ValueError(f"bad exponent vector {expo}")
        return IntPoly._trusted(
            self.nvars, {tuple(map(add, e, expo)): c * coeff
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


def _expo_sub(f, e):
    return tuple(map(sub, f, e))


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
        """The largest total degree of a product multiplier[i] * basis[i],
        0 for a certificate without multipliers.

        No product is built: Z[x] is an integral domain, so the top-degree
        parts of two nonzero factors (``strong_divide`` makes no zero
        multiplier, ``strong_gb`` no zero basis element) multiply to a
        nonzero form, and the degrees add.  A basis element's degree is
        that of its head in the division table: the deglex-leading term
        has the top total degree.
        """
        table = basis.table
        return max((q.total_degree() + table[i][0][0]
                    for i, q in self.multipliers.items()), default=0)


def _division_row(poly: IntPoly) -> tuple:
    """(head, tail) of a nonzero polynomial: head is its deglex-leading
    term (deg, e, c), tail its other terms keyed the same way."""
    terms = [(sum(e), e, c) for e, c in poly.terms.items()]
    head = max(terms)  # the keys (deg, e) differ, so c is never compared
    terms.remove(head)
    return head, tuple(terms)


@dataclass(frozen=True)
class StrongGB:
    """A strong basis and its division table: ``table[i]`` is
    ``_division_row(polys[i])``.  The table holds only ints and tuples, so
    it refers to nothing that could refer back."""

    polys: tuple
    table: tuple = field(repr=False, compare=False)


def _strong_reduce(p: IntPoly, table) -> tuple:
    """Full strong normal form by a division table (a sequence of
    ``_division_row``s); returns (remainder, multipliers).

    The leading term of the working polynomial is divided by the first
    row whose head divides it, or else moved to the remainder.  Each step
    cancels into one working dict keyed by deglex keys (deg, e), so the
    leading term is a plain ``max``; the head cancels exactly, and each
    tail term shifted by (sd, shift) lands on (d + sd, e + shift).
    """
    nvars = p.nvars
    work = {(sum(e), e): c for e, c in p.terms.items()}
    remainder = {}
    mult = {}
    while work:
        key = max(work)
        d, e = key
        c = work[key]
        for i, ((bd, be, bc), tail) in enumerate(table):
            if bd <= d and c % bc == 0 and all(map(le, be, e)):
                break
        else:
            remainder[e] = work.pop(key)
            continue
        del work[key]
        q, sd, shift = c // bc, d - bd, tuple(map(sub, e, be))
        # the leading monomials decrease, so each shift is new for i
        mult.setdefault(i, {})[shift] = q
        for td, te, tc in tail:
            k = (td + sd, tuple(map(add, te, shift)))
            v = work.get(k, 0) - q * tc
            if v:
                work[k] = v
            else:
                del work[k]
    return (IntPoly._trusted(nvars, remainder),
            {i: IntPoly._trusted(nvars, q) for i, q in mult.items()})


def _critical_pair(f: IntPoly, g: IntPoly) -> tuple:
    """(G, S): both shift f and g up to the lcm of their leading
    monomials; G combines the leading coefficients by Bezout, S cancels
    them at their lcm."""
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm_e = tuple(max(a, b) for a, b in zip(fe, ge))
    f_shift, g_shift = _expo_sub(lcm_e, fe), _expo_sub(lcm_e, ge)
    a, b = bezout(fc, gc)  # a fc + b gc = gcd(fc, gc)
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    return (f.term_mul(a, f_shift) + g.term_mul(b, g_shift),
            f.term_mul(lcm_c // fc, f_shift)
            - g.term_mul(lcm_c // gc, g_shift))


#: Pairs the completion may pop before it gives up with DomainError.
MAX_PAIRS = 20000


def _check_nvars(polys, nvars, what):
    """Refuse a polynomial whose variable count is not ``nvars``: the
    kernels zip exponent vectors, which would silently truncate."""
    for poly in polys:
        if poly.nvars != nvars:
            raise ValueError(f"{what} has {poly.nvars} variables, "
                             f"expected {nvars}")


def strong_gb(gens) -> StrongGB:
    """Buchberger completion over Z with S- and G-polynomials.

    G-polynomials (Bezout combinations of leading coefficients) are
    processed before S-polynomials of the same pair, in the normal
    pair-selection strategy (smallest deglex lcm first); the final basis
    is interreduced, sign-normalized, and sorted.  The division table is
    kept in step with the basis throughout.  Generators in different
    numbers of variables raise ValueError; completion that pops more than
    ``MAX_PAIRS`` pairs raises :class:`DomainError`.
    """
    gens = list(gens)
    if gens:
        _check_nvars(gens, gens[0].nvars, "a generator")
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("need at least one nonzero generator")
    table = [_division_row(b) for b in basis]
    # (deglex key of lcm(lm_i, lm_j), i, j): popped smallest lcm first
    pairs = []

    def push_pairs(k):
        lm = table[k][0][1]
        for t in range(k):
            lcm = tuple(map(max, lm, table[t][0][1]))
            heapq.heappush(pairs, ((sum(lcm), lcm), k, t))

    def append(basis, table, nf):
        # not in basis: each row divides its head strongly, no term of +-nf
        if nf.leading()[1] < 0:
            nf = -nf
        basis.append(nf)
        table.append(_division_row(nf))

    for k in range(len(basis)):
        push_pairs(k)
    popped = 0
    while pairs:
        popped += 1
        if popped > MAX_PAIRS:
            raise DomainError(f"completion did not terminate within "
                              f"{MAX_PAIRS} pairs")
        _, i, j = heapq.heappop(pairs)
        for candidate in _critical_pair(basis[i], basis[j]):
            nf, _ = _strong_reduce(candidate, table)
            if not nf.is_zero():
                append(basis, table, nf)
                push_pairs(len(basis) - 1)
    # interreduce deterministically: a changed element moves to the end,
    # a zero one is dropped, and the scan starts again
    i = 0
    while i < len(basis):
        others, rows = basis[:i] + basis[i + 1:], table[:i] + table[i + 1:]
        nf, _ = _strong_reduce(basis[i], rows)
        if nf == basis[i]:
            i += 1
            continue
        if not nf.is_zero():
            append(others, rows, nf)
        basis, table, i = others, rows, 0
    # by deglex leading monomial, then by |leading coefficient|
    order = sorted(range(len(basis)),
                   key=lambda k: (table[k][0][:2], abs(table[k][0][2])))
    return StrongGB(tuple(basis[k] for k in order),
                    tuple(table[k] for k in order))


def strong_divide(g: IntPoly, B: StrongGB) -> DivisionCertificate:
    """Greedy strong division of g by the basis; remainder 0 iff member.
    A dividend in another number of variables raises ValueError."""
    _check_nvars((g,), B.polys[0].nvars, "the dividend")
    remainder, mult = _strong_reduce(g, B.table)
    return DivisionCertificate(mult, remainder)


@dataclass(frozen=True)
class WitnessReport:
    samples: int
    max_shift: int
    failures: int
    basis: StrongGB  # the completion the samples were divided by


def filtered_noetherian_witness(gens, sample_count: int, max_deg: int,
                                rng) -> WitnessReport:
    """Sample random ideal members and measure the filtration shift.

    Each sample is sum r_i gen_i with random r_i keeping the total degree
    <= max_deg; the observed shift max(0, deg(q_j f_j) - deg(g)) is 0 for
    deglex division by a strong basis.  Without a nonzero generator of
    total degree <= max_deg every sample is 0, so that is refused.
    """
    if not any(not g.is_zero() and g.total_degree() <= max_deg
               for g in gens):
        raise DomainError(f"no nonzero generator has total degree <= "
                          f"{max_deg}, so every witness sample is 0")
    gb = strong_gb(gens)
    nvars = gens[0].nvars
    # a generator above max_deg gets no multiplier, and draws nothing;
    # one of degree d draws its multiplier's degree from 0 .. max_deg - d
    drawn = [(tuple(range(max_deg - base.total_degree() + 1)),
              base.terms.items())
             for base in gens if base.total_degree() <= max_deg]
    slots = tuple(range(nvars))
    max_shift = 0
    failures = 0
    done = 0
    while done < sample_count:
        sample = {}
        for steps, terms in drawn:
            for e1, c1 in _random_poly(steps, slots, rng).terms.items():
                for e2, c2 in terms:
                    e = tuple(map(add, e1, e2))
                    sample[e] = sample.get(e, 0) + c1 * c2
        g = IntPoly._trusted(nvars, sample)
        if g.is_zero():
            continue
        done += 1
        cert = strong_divide(g, gb)
        if not cert.remainder.is_zero():
            failures += 1
            continue
        shift = max(0, cert.max_product_degree(gb) - g.total_degree())
        max_shift = max(max_shift, shift)
    return WitnessReport(done, max_shift, failures, gb)


#: The term counts and the coefficients ``_random_poly`` draws from.
_TERM_COUNTS = (1, 2, 3)
_COEFFS = (-3, -2, -1, 0, 1, 2, 3)


def _random_poly(steps: tuple, slots: tuple, rng) -> IntPoly:
    """A random polynomial in len(slots) variables, each term of
    ``choice(steps)`` steps along ``choice(slots)``.  ``choice`` over the
    tuple range(a, b + 1) draws what ``randint(a, b)`` draws, and
    tests/test_draw_streams.py pins that stream."""
    choice = rng.choice
    nvars = len(slots)
    terms = {}
    for _ in range(choice(_TERM_COUNTS)):
        e = [0] * nvars
        if nvars:  # a constant has no exponents to draw
            for _ in range(choice(steps)):
                e[choice(slots)] += 1
        e = tuple(e)
        terms[e] = terms.get(e, 0) + choice(_COEFFS)
    return IntPoly._trusted(nvars, terms)


# ---------------------------------------------------------------------------
# Independent membership oracle via integer linear algebra
# ---------------------------------------------------------------------------


#: Degrees the membership oracle searches beyond deg(g).
ORACLE_HEADROOM = 8


def membership_oracle(g: IntPoly, gens) -> bool:
    """Decide membership by integer linear algebra on one Z-lattice.

    At degree bound b the columns are the products m * gen_i with
    deg(m * gen_i) <= b, and g is a member at b iff it lies in their
    Z-span, which a ``ZLattice`` decides.  The bound runs from deg(g) to
    deg(g) + ``ORACLE_HEADROOM``: a member can need products of the raw
    generators beyond its own degree (the degree control of strong-basis
    division speaks about the completed basis, not the generators), e.g.
    5y = y(x^2+5) - x(xy).  The columns at b are among those at b + 1, so
    one lattice serves every bound: it climbs from bound 0 and adds each
    product m * gen_i once, at its own degree deg(m) + deg(gen_i).  The
    columns and g are keyed by deglex keys (deg, e), so the lattice's
    pivot, the deglex-largest entry, is a plain ``max``.  A generator in
    another number of variables than g raises ValueError.
    """
    _check_nvars(gens, g.nvars, "a generator")
    if g.is_zero():
        return True
    lattice = ZLattice()
    target = {(sum(e), e): c for e, c in g.terms.items()}
    base = g.total_degree()
    shifted = [(gen.total_degree(),
                [(sum(e), e, c) for e, c in gen.terms.items()])
               for gen in gens]
    for bound in range(base + ORACLE_HEADROOM + 1):
        for degree, terms in shifted:
            k = bound - degree
            for m in exponent_vectors(g.nvars, k):
                lattice.add({(d + k, tuple(map(add, e, m))): c
                             for d, e, c in terms})
        if bound >= base and lattice.contains(target):
            return True
    return False
