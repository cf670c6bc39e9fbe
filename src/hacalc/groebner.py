"""Strong Groebner bases over the integers with the degree-lexicographic
order.

A basis is *strong* when every nonzero ideal member g has some basis
element b whose leading monomial divides lm(g) and whose leading
coefficient divides lc(g); greedy division by such a basis therefore
decides membership.  Over the completed basis every multiplier has
deg(multiplier * basis element) <= deg(g) by construction (division cancels
at strictly decreasing deglex keys): the witness's shift is 0, and only its
failures carry information.

One lattice climb completes the basis (Lazard, "Groebner bases, Gaussian
elimination and resolution of systems of algebraic equations", EUROCAL
'83, LNCS 162, read over Z).  ``_climb`` adds to one ``ZLattice`` the
products m * gen of degree <= B for B = 0, 1, ...; the lattice's rows
are an echelon basis with positive pivots, so the row with pivot u leads
with the generator of the leading coefficients of the members of degree
<= B led by u.  The rows whose head (u, c) no other head strongly
divides are the candidate; once B is large enough they are a strong
basis, and ``strong_gb`` certifies that by the criterion of Kandri-Rody
and Kapur (J. Symb. Comp. 6, 1988): every generator and every G- and
S-polynomial of two candidate rows strongly reduces to 0 by them.

The same climb gives the filtration shift l over the generators, the
least l with every member g in the span of the products of degree <=
deg(g) + l (2 over x^2 + 5, xy).  It is the largest (the first bound at
which (u, c) is a pivot) - deg(u) over the basis heads (u, c).  Every g
lies in the span at deg(g) + l, by induction on its leading term: its
head is strongly divided by some (u, c), a member m * h with head m * u
and h led by (u, c) lies in the span at deg(u) + l + deg(m) <= deg(g) +
l, and subtracting its multiple leaves a member with a lower leading
term and no larger degree.  One bound lower no member has the head that
attains l, so l is least.  The membership oracle climbs a lattice of the
same products and stops at deg(g) + l.

The kernels key every term by its deglex key (deg, e) = (sum(e), e), so
comparing two keys compares the monomials and the leading term is a plain
``max`` (Monagan and Pearce, "Sparse polynomial division using a heap",
J. Symb. Comp. 46, 2011, keep monomials in such a directly comparable
form); the lattice's columns are keyed the same way, so its pivot is the
leading monomial.  ``IntPoly.terms`` stays keyed by exponent tuples.  A
division row is a polynomial's head (deg, e, c), its deglex-leading term,
and its other terms keyed the same way.  The ``StrongGB``'s division
table is the certified rows sorted by head, and each basis polynomial is
built once from its row; the rows are not interreduced, and every basis
element has a positive leading coefficient.  ``strong_divide`` reduces
by the table and certificate degrees read the heads.  Every entry point
refuses polynomials in different numbers of variables.

Types are checked at the boundary only.  The constructor
``IntPoly(nvars, terms)`` refuses any coefficient that is not an ``int``
and any exponent vector that is not ``nvars`` non-negative ``int``s, and
``term_mul`` checks its own coefficient and shift once.  Arithmetic
between valid polynomials (``+``, ``-``, negation, ``*`` by an ``int`` or
a polynomial), the division kernel's outputs and the basis are built
trusted by ``IntPoly._trusted``, which takes a fresh dict as it is, zero
entries dropped; the witness samples go to the division kernel, and the
climb's shifted generators m * gen to its lattice, as plain dicts.  Their
exponents are sums of valid exponents.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class StrongGB:
    """A strong basis, its division table and the ideal's filtration
    shift l over its generators: ``table[i]`` is the division row of
    ``polys[i]``.  The table holds only ints and tuples, so it refers to
    nothing that could refer back."""

    polys: tuple
    table: tuple = field(repr=False, compare=False)
    shift: int = field(compare=False)


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


def _check_nvars(polys, nvars, what):
    """Refuse a polynomial whose variable count is not ``nvars``: the
    kernels zip exponent vectors, which would silently truncate."""
    for poly in polys:
        if poly.nvars != nvars:
            raise ValueError(f"{what} has {poly.nvars} variables, "
                             f"expected {nvars}")


def _climb(gens, nvars):
    """One Z-lattice of the products m * gen of the generators ``gens``,
    climbed one degree bound at a time: yields (bound, lattice) for
    bound = 0, 1, ..., the lattice then spanned by the products of degree
    <= bound.  The columns at a bound are among those at the next,
    so each product is added once, at its own degree.  Columns are keyed
    (deg, e), so the lattice's pivot is a plain ``max``; each generator
    is taken with a positive leading coefficient, as its products then
    reach the lattice's positive pivots without a sign flip."""
    lattice = ZLattice()
    shifted = [(head[0], [(d, e, c if head[2] > 0 else -c)
                          for d, e, c in (head, *tail)])
               for head, tail in (_division_row(gen.terms)
                                  for gen in gens if gen.terms)]
    for bound in itertools.count():
        for degree, terms in shifted:
            k = bound - degree
            for m in exponent_vectors(nvars, k):
                lattice.add({(d + k, tuple(map(add, e, m))): c
                             for d, e, c in terms})
        yield bound, lattice


#: Lattice rows the climb may hold without a certified basis before
#: DomainError: its work grows with the rows, bound^nvars at worst.
MAX_ROWS = 20000


def strong_gb(gens) -> StrongGB:
    """The strong basis and the filtration shift of the ideal of ``gens``,
    read off one lattice climb (see the module docstring).

    From the top generator degree on, each bound's candidate is the rows
    whose head no other row's head strongly divides; it is certified when
    the generators and the G- and S-polynomials of its pairs all strongly
    reduce to 0 by it, else the climb goes on.  A candidate whose heads
    failed at the last attempt is not tried again: the heads alone decide.
    The basis is the certified rows, positive-headed and sorted by head.
    Generators in different numbers of variables or none nonzero raise
    ValueError; a lattice of more than ``MAX_ROWS`` rows without a
    certified candidate raises :class:`DomainError`.
    """
    gens = list(gens)
    if gens:
        _check_nvars(gens, gens[0].nvars, "a generator")
    if all(gen.is_zero() for gen in gens):
        raise ValueError("need at least one nonzero generator")
    nvars, top = gens[0].nvars, max(gen.total_degree() for gen in gens)
    first, failed = {}, None  # pivot -> (entry, first bound); failed heads
    for bound, lattice in _climb(gens, nvars):
        for u, row in lattice.rows.items():
            if first.get(u, (None,))[0] != row[u]:
                first[u] = (row[u], bound)
        if bound >= top:
            heads = []  # (d, e, c), ascending: a strong divisor comes first
            for d, e in sorted(lattice.rows):
                c = lattice.rows[(d, e)][(d, e)]
                if not any(c % hc == 0 and all(map(le, he, e))
                           for _, he, hc in heads):
                    heads.append((d, e, c))
            if heads != failed:
                table = [_division_row({e: c for (_, e), c in
                                        lattice.rows[h[:2]].items()})
                         for h in heads]
                if _certified(gens, table):
                    break
                failed = heads
        if len(lattice.rows) > MAX_ROWS:
            raise DomainError(f"completion did not certify within "
                              f"{MAX_ROWS} lattice rows")
    polys = (IntPoly._trusted(nvars, {e: c for _, e, c in (h, *t)})
             for h, t in table)
    shift = max(first[(d, e)][1] - d for d, e, _ in heads)
    return StrongGB(tuple(polys), tuple(table), shift)


def _certified(gens, table) -> bool:
    """Whether every generator and every G- and S-polynomial of two rows
    of ``table``, a division table of ideal members, strongly reduces to 0
    by it: then it is a strong basis of the ideal (Kandri-Rody and Kapur,
    J. Symb. Comp. 6, 1988)."""
    return (all(not _strong_reduce({(sum(e), e): c
                                    for e, c in gen.terms.items()}, table)[0]
                for gen in gens)
            and all(not _strong_reduce(p, table)[0]
                    for f, g in itertools.combinations(table, 2)
                    for p in _critical_pair(f, g)))


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


def membership_oracle(g: IntPoly, gens, shift: int | None = None) -> bool:
    """Decide membership by integer linear algebra on one Z-lattice.

    At degree bound b, g is a member iff it lies in the Z-span of the
    products m * gen_i of degree <= b.  A member can need products of the
    raw generators above its own degree, e.g. 5y = y(x^2+5) - x(xy).  One
    lattice climbs from bound 0; g is tested from bound deg(g), and a miss
    there goes on up to deg(g) + l, past which no member can first enter
    (see the module docstring).  Every verdict is read from the lattice:
    True is a combination found, False a miss at the exact bound.  A
    member usually enters at deg(g), so l is read from ``strong_gb`` only
    on a miss, and only when no ``shift`` = l is passed (once per ideal);
    the zero ideal has l = 0.  A generator in another number of variables
    than g raises ValueError.
    """
    _check_nvars(gens, g.nvars, "a generator")
    if g.is_zero():
        return True
    target = {(sum(e), e): c for e, c in g.terms.items()}
    climb = _climb(gens, g.nvars)
    _, lattice = next(itertools.islice(climb, g.total_degree(), None))
    if lattice.contains(target):
        return True
    if shift is None:
        shift = (strong_gb(gens).shift
                 if any(gen.terms for gen in gens) else 0)
    return any(lattice.contains(target)
               for _, lattice in itertools.islice(climb, shift))
