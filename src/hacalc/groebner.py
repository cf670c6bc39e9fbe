"""Strong Groebner bases over the integers with the degree-lexicographic
order.

A basis is *strong* when every nonzero ideal member g has some basis
element b whose leading monomial divides lm(g) and whose leading
coefficient divides lc(g); greedy division by such a basis therefore
decides membership.  Over the completed basis every multiplier has
deg(multiplier * basis element) <= deg(g) by construction (division cancels
at strictly decreasing deglex keys): the witness's shift is 0, and only its
failures carry information.  Over the generators the shift l can be
positive (2 over x^2 + 5, xy): ``filtration_shift`` computes it exactly
from the completion, and the membership oracle's lattice climb stops at
deg(g) + l.

The kernels key every term by its deglex key (deg, e) = (sum(e), e), so
comparing two keys compares the monomials and the leading term is a plain
``max`` (Monagan and Pearce, "Sparse polynomial division using a heap",
J. Symb. Comp. 46, 2011, keep monomials in such a directly comparable
form).  ``IntPoly.terms`` stays keyed by exponent tuples.  A division row
is a polynomial's head (deg, e, c), its deglex-leading term, and its other
terms keyed the same way.  ``strong_gb`` completes and interreduces one
list of rows, the ``StrongGB``'s division table, and builds each basis
polynomial once from its final row; every basis element has a positive
leading coefficient.  ``strong_divide`` reduces by the table, certificate
degrees read the heads, and the membership oracle hands its lattice
deglex-keyed columns.  Every entry point refuses polynomials in different
numbers of variables.

Types are checked at the boundary only.  The constructor
``IntPoly(nvars, terms)`` refuses any coefficient that is not an ``int``
and any exponent vector that is not ``nvars`` non-negative ``int``s, and
``term_mul`` checks its own coefficient and shift once.  Arithmetic
between valid polynomials (``+``, ``-``, negation, ``*`` by an ``int`` or
a polynomial), the division kernel's outputs and the basis are built
trusted by ``IntPoly._trusted``, which takes a fresh dict as it is, zero
entries dropped; the witness samples go to the division kernel, and the
membership oracle's shifted generators m * gen to its lattice, as plain
dicts.  Their exponents are sums of valid exponents.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import add, le, sub

from .algebra import chooser, exponent_vectors
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
        """A polynomial from valid polynomials or checked terms, unchecked:
        ``terms``, a fresh dict that the caller does not reuse, becomes its
        own, copied only to drop zero entries."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = ({e: c for e, c in terms.items() if c}
                      if 0 in terms.values() else terms)
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
        return cls._trusted(nvars, terms)

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

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __str__(self):
        return self.render([f"x{i}" for i in range(self.nvars)])

    def render(self, names) -> str:
        """The polynomial written in the variable names ``names``."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_deglex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(n if k == 1 else f"{n}^{k}"
                            for n, k in zip(names, e) if k)
            parts.append(f"{c}" if not mono else
                         (mono if c == 1 else
                          f"-{mono}" if c == -1 else f"{c}*{mono}"))
        return " + ".join(parts).replace("+ -", "- ")


def _deglex_key(e):
    return (sum(e), e)


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
        its head's: the deglex-leading term has the top total degree.
        """
        return _product_degree(
            {i: q.terms for i, q in self.multipliers.items()}, basis.table)


def _product_degree(mult: dict, table) -> int:
    """The largest total degree of a product mult[i] * row i, for
    multipliers {row index: {e: c}} by a division table; 0 without
    multipliers.  See ``DivisionCertificate.max_product_degree``."""
    return max((max(map(sum, q), default=0) + table[i][0][0]
                for i, q in mult.items()), default=0)


def _division_row(terms: dict) -> tuple:
    """(head, tail) of a nonzero {e: c} dict: head is its deglex-leading
    term (deg, e, c), tail its other terms keyed the same way."""
    terms = [(sum(e), e, c) for e, c in terms.items()]
    head = max(terms)  # the keys (deg, e) differ, so c is never compared
    terms.remove(head)
    return head, tuple(terms)


def _positive(row) -> tuple:
    """A division row times the sign of its leading coefficient."""
    (d, e, c), tail = row
    return row if c > 0 else (
        (d, e, -c), tuple((td, te, -tc) for td, te, tc in tail))


@dataclass(frozen=True)
class StrongGB:
    """A strong basis and its division table: ``table[i]`` is the division
    row of ``polys[i]``.  The table holds only ints and tuples, so it
    refers to nothing that could refer back."""

    polys: tuple
    table: tuple = field(repr=False, compare=False)


def _strong_reduce(work: dict, table) -> tuple:
    """Full strong normal form of ``work``, a fresh zero-free dict
    {(deg, e): c} that the call consumes, by a division table (a sequence
    of division rows).  Returns (remainder, multipliers) as plain dicts
    {e: c} and {row index: {shift: q}}; there are no multipliers iff the
    remainder is the dividend.

    The leading term is divided by the first row whose head divides it,
    or else moved to the remainder.  Each step cancels into ``work``, so
    the leading term is a plain ``max``; the head cancels exactly, and
    each tail term shifted by (sd, shift) lands on (d + sd, e + shift).
    """
    remainder, mult = {}, {}
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
    return remainder, mult


def _critical_pair(f, g) -> tuple:
    """(G, S) of two division rows as working dicts {(deg, e): c}: both
    shift f and g up to the lcm of their heads' monomials; G combines the
    leading coefficients by Bezout, S cancels them at their lcm."""
    (_, fe, fc), (_, ge, gc) = f[0], g[0]
    lcm_e = tuple(map(max, fe, ge))
    lcm_d = sum(lcm_e)
    a, b = bezout(fc, gc)  # a fc + b gc = gcd(fc, gc) > 0
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    G, S = {(lcm_d, lcm_e): a * fc + b * gc}, {}
    for ((d, e, _), tail), u, v in ((f, a, lcm_c // fc),
                                    (g, b, -(lcm_c // gc))):
        shift = tuple(map(sub, lcm_e, e))
        for td, te, tc in tail:
            k = (td + lcm_d - d, tuple(map(add, te, shift)))
            G[k] = G.get(k, 0) + u * tc
            S[k] = S.get(k, 0) + v * tc
    return tuple({k: c for k, c in X.items() if c} for X in (G, S))


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
    """Buchberger completion over Z on one list of division rows.

    G-polynomials (Bezout combinations of leading coefficients) are
    processed before S-polynomials of the same pair, in the normal
    pair-selection strategy (smallest deglex lcm first).  A new row gets a
    positive leading coefficient; the generators keep their signs, on
    which the Bezout coefficients depend.  The rows are then interreduced,
    given positive leading coefficients and sorted by head, and each basis
    polynomial is built once, from its row.  Generators in different
    numbers of variables raise ValueError; completion that pops more than
    ``MAX_PAIRS`` pairs raises :class:`DomainError`.
    """
    gens = list(gens)
    if gens:
        _check_nvars(gens, gens[0].nvars, "a generator")
    table = [_division_row(g.terms) for g in gens if g.terms]
    if not table:
        raise ValueError("need at least one nonzero generator")
    # (deglex key of lcm(lm_i, lm_j), i, j): popped smallest lcm first
    pairs = []

    def push_pairs(k):
        lm = table[k][0][1]
        for t in range(k):
            lcm = tuple(map(max, lm, table[t][0][1]))
            heapq.heappush(pairs, ((sum(lcm), lcm), k, t))

    for k in range(len(table)):
        push_pairs(k)
    popped = 0
    while pairs:
        popped += 1
        if popped > MAX_PAIRS:
            raise DomainError(f"completion did not terminate within "
                              f"{MAX_PAIRS} pairs")
        _, i, j = heapq.heappop(pairs)
        for candidate in _critical_pair(table[i], table[j]):
            nf, _ = _strong_reduce(candidate, table)
            if nf:  # no row nor its negative: each divides its own head
                table.append(_positive(_division_row(nf)))
                push_pairs(len(table) - 1)
    rows = sorted(map(_positive, _interreduce(table)), key=lambda r: r[0])
    polys = (IntPoly._trusted(gens[0].nvars, {e: c for _, e, c in (h, *t)})
             for h, t in rows)
    return StrongGB(tuple(polys), tuple(rows))


def _interreduce(table) -> list:
    """The rows of a strong basis, each reduced once by the others.

    A row either reduces to 0 by the others, which still form a strong
    basis, or keeps its head, and no head moves when a tail does.  So one
    pass suffices: an unchanged row keeps its place, a changed one goes
    behind all rows and a zero one is dropped, and each row is reduced by
    the others in the order a scan restarting after every change uses.
    """
    kept, moved = [], []
    for k, (head, tail) in enumerate(table):
        work = {(d, e): c for d, e, c in (head, *tail)}
        nf, mult = _strong_reduce(work, kept + table[k + 1:] + moved)
        if not mult:
            kept.append(table[k])
        elif nf:
            moved.append(_division_row(nf))
    return kept + moved


def strong_divide(g: IntPoly, B: StrongGB) -> DivisionCertificate:
    """Greedy strong division of g by the basis; remainder 0 iff member.
    A dividend in another number of variables raises ValueError."""
    _check_nvars((g,), B.polys[0].nvars, "the dividend")
    remainder, mult = _strong_reduce(
        {(sum(e), e): c for e, c in g.terms.items()}, B.table)
    return DivisionCertificate(
        {i: IntPoly._trusted(g.nvars, q) for i, q in mult.items()},
        IntPoly._trusted(g.nvars, remainder))


@dataclass(frozen=True)
class WitnessReport:
    samples: int
    max_shift: int
    failures: int
    basis: StrongGB  # the completion the samples were divided by


def filtered_noetherian_witness(gens, sample_count: int, max_deg: int,
                                rng) -> WitnessReport:
    """Sample random ideal members and divide each by the strong basis.

    Each sample is sum r_i gen_i with random r_i keeping the total degree
    <= max_deg.  The reported shift max(0, deg(q_j f_j) - deg(g)) is 0 by
    construction: strong division cancels at strictly decreasing deglex
    keys, so each product q_j f_j has at most the degree of g; only
    ``failures`` carries information.  Without a nonzero generator of
    total degree <= max_deg every sample is 0, so that is refused.

    A sample is built as a working dict {(deg, e): c} and divided by the
    basis's table; a nonzero remainder is a failure, and the shift is read
    off the multipliers, with no polynomial or certificate per sample.
    """
    if not any(not g.is_zero() and g.total_degree() <= max_deg
               for g in gens):
        raise DomainError(f"no nonzero generator has total degree <= "
                          f"{max_deg}, so every witness sample is 0")
    gb = strong_gb(gens)
    table = gb.table
    choice = chooser(rng)
    # a generator above max_deg gets no multiplier, and draws nothing;
    # one of degree d draws its multiplier's degree from 0 .. max_deg - d
    drawn = [(tuple(range(max_deg - base.total_degree() + 1)),
              [(sum(e), e, c) for e, c in base.terms.items()])
             for base in gens if base.total_degree() <= max_deg]
    slots = tuple(range(gens[0].nvars))
    max_shift = failures = done = 0
    while done < sample_count:
        work = {}
        for steps, terms in drawn:
            for e1, c1 in _random_poly(steps, slots, choice).items():
                d1 = sum(e1)
                for d2, e2, c2 in terms:
                    k = (d1 + d2, tuple(map(add, e1, e2)))
                    work[k] = work.get(k, 0) + c1 * c2
        if 0 in work.values():
            work = {k: c for k, c in work.items() if c}
        if not work:
            continue
        done += 1
        degree = max(work)[0]
        remainder, mult = _strong_reduce(work, table)
        if remainder:
            failures += 1
            continue
        max_shift = max(max_shift, _product_degree(mult, table) - degree)
    return WitnessReport(done, max_shift, failures, gb)


#: The term counts and the coefficients ``_random_poly`` draws from.
_TERM_COUNTS = (1, 2, 3)
_COEFFS = (-3, -2, -1, 0, 1, 2, 3)


def _random_poly(steps: tuple, slots: tuple, choice) -> dict:
    """A random polynomial in len(slots) variables as a zero-free dict
    {e: c}, each term of ``choice(steps)`` steps along ``choice(slots)``,
    where ``choice`` is a ``chooser``.  ``choice`` over the tuple
    range(a, b + 1) draws what ``randint(a, b)`` draws, and
    tests/test_draw_streams.py pins that stream."""
    nvars = len(slots)
    terms = {}
    for _ in range(choice(_TERM_COUNTS)):
        e = [0] * nvars
        if nvars:  # a constant has no exponents to draw
            for _ in range(choice(steps)):
                e[choice(slots)] += 1
        e = tuple(e)
        terms[e] = terms.get(e, 0) + choice(_COEFFS)
    return ({e: c for e, c in terms.items() if c}
            if 0 in terms.values() else terms)


# ---------------------------------------------------------------------------
# Independent membership oracle via integer linear algebra
# ---------------------------------------------------------------------------


#: Degrees above deg(b) by which the shift climb must reach a basis element
#: b before it gives up with DomainError.
MAX_SHIFT = 32


def _climb(gens, nvars):
    """One Z-lattice of the products m * gen of the generators ``gens``,
    climbed one degree bound at a time: yields (bound, lattice) for
    bound = 0, 1, ..., the lattice then spanned by the products of degree
    <= bound.  The columns at a bound are among those at the next,
    so each product is added once, at its own degree.  Columns are keyed
    (deg, e), so the lattice's pivot is a plain ``max``."""
    lattice = ZLattice()
    shifted = [(gen.total_degree(),
                [(sum(e), e, c) for e, c in gen.terms.items()])
               for gen in gens if gen.terms]
    for bound in itertools.count():
        for degree, terms in shifted:
            k = bound - degree
            for m in exponent_vectors(nvars, k):
                lattice.add({(d + k, tuple(map(add, e, m))): c
                             for d, e, c in terms})
        yield bound, lattice


def filtration_shift(gens) -> tuple:
    """(l, shifts): the ideal's filtration shift over its generators.

    ``shifts`` maps each element b of the strong basis, in basis order, to
    s(b) = (the least bound at which b lies in the Z-span of the products
    m * gen of degree <= bound) - deg(b), and l = max s(b); l = 0 and
    ``shifts`` is empty for the zero ideal, which never reaches
    ``strong_gb``.  One lattice climbs from bound 0 and tests, at each
    bound, the basis elements of degree <= bound that have not entered.

    Every member g has a standard representation g = sum q_b * b with
    deg(q_b * b) <= deg(g) over a strong basis (Adams and Loustaunau, *An
    Introduction to Groebner Bases*, AMS GSM 3, ch. 4), and each monomial
    multiple m * b lies in the span at bound deg(m * b) + s(b).  So g lies
    in the span at bound deg(g) + l.  The climb ends because every b is a
    member; a basis element that has not entered MAX_SHIFT degrees above
    its own raises DomainError.  Generators in different numbers of
    variables raise ValueError before any work is done.
    """
    gens = list(gens)
    if gens:
        _check_nvars(gens, gens[0].nvars, "a generator")
    if all(gen.is_zero() for gen in gens):
        return 0, {}
    basis = strong_gb(gens)
    waiting = {i: (head[0], {(d, e): c for d, e, c in (head, *tail)})
               for i, (head, tail) in enumerate(basis.table)}
    shifts = {}
    for bound, lattice in _climb(gens, gens[0].nvars):
        for i, (degree, target) in list(waiting.items()):
            if degree <= bound and lattice.contains(target):
                shifts[i] = bound - degree
                del waiting[i]
        if not waiting:
            break
        if bound >= min(d for d, _ in waiting.values()) + MAX_SHIFT:
            raise DomainError(f"a basis element is not in the ideal "
                              f"{MAX_SHIFT} degrees above its own")
    return max(shifts.values()), {b: shifts[i]
                                  for i, b in enumerate(basis.polys)}


def membership_oracle(g: IntPoly, gens, shift: int | None = None) -> bool:
    """Decide membership by integer linear algebra on one Z-lattice.

    At degree bound b, g is a member iff it lies in the Z-span of the
    products m * gen_i of degree <= b.  A member can need products of the
    raw generators above its own degree, e.g. 5y = y(x^2+5) - x(xy).  One
    lattice climbs from bound 0; g is tested from bound deg(g), and a miss
    there asks ``filtration_shift`` for l and goes on up to deg(g) + l,
    past which no member can first enter (see ``filtration_shift``).  The
    bound rests on the completion, but every verdict is read from the
    lattice: True is a combination found, False a miss at the exact
    bound.  A member usually enters at deg(g), so l is computed only for
    a miss, and only when no ``shift`` = l is passed (once per ideal).  A
    generator in another number of variables than g raises ValueError.
    """
    _check_nvars(gens, g.nvars, "a generator")
    if g.is_zero():
        return True
    target = {(sum(e), e): c for e, c in g.terms.items()}
    climb = _climb(gens, g.nvars)
    _, lattice = next(itertools.islice(climb, g.total_degree(), None))
    if lattice.contains(target):
        return True
    shift = filtration_shift(gens)[0] if shift is None else shift
    return any(lattice.contains(target)
               for _, lattice in itertools.islice(climb, shift))
