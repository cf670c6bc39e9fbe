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
products m * gen of degree <= B for B = d, d + 1, ..., where d is the
least generator degree (below it the lattice is empty); the lattice's rows
are an echelon basis with positive pivots, so the row with pivot u leads
with the generator of the leading coefficients of the members of degree
<= B led by u.  The candidate rule: from the top generator degree on,
the rows whose head (u, c) no other head strongly divides, unless those
heads failed at the last attempt, are tried by the criterion of
Kandri-Rody and Kapur (J. Symb. Comp. 6, 1988): they are a strong basis
if every generator and every G- and S-polynomial of two of them strongly
reduces to 0 by them.  A climb past ``MAX_ROWS`` rows with nothing
certified raises :class:`DomainError`.

The same climb gives the filtration shift l over the generators, the
least l with every member g in the span of the products of degree <=
deg(g) + l (2 over x^2 + 5, xy).  It is the largest (the bound at which
the entry at pivot u became c, the lattice's stamp) - deg(u) over the
basis heads (u, c).  Every g lies in the span at deg(g) + l, by
induction on its leading term: its head is strongly divided by some
(u, c), a member m * h with head m * u and h led by (u, c) lies in the
span at deg(u) + l + deg(m) <= deg(g) + l, and subtracting its multiple
leaves a member with a lower leading term and no larger degree.  One
bound lower no member has the head that attains l, so l is least.  The
membership oracle tests g on its own climb up to the first bound >=
deg(g) + l, and certifies there when it is not given l.

The kernels key every term by one int, its monomial packed in fields of
``FIELD`` = 64 bits: the total degree in the top field, then e_0, e_1,
..., e_{n-1}, so e_{n-1} fills the lowest field (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007, LNCS 4770, and "Sparse polynomial division using a
heap", J. Symb. Comp. 46, 2011).  Comparing two keys compares the
monomials in deglex order, so the leading term is a plain ``max`` and the
lattice's pivot is the leading monomial; the key of a product is the sum
of the keys, and the degree of a key k is k >> (64 n).  With GUARD the
top bit of every field, the monomial keyed m divides the one keyed k iff
((k | GUARD) - m) & GUARD == GUARD: a field where k's exponent is below
m's borrows from its own guard bit, and no borrow crosses into the next
field.  Keys are made only from exponent vectors of total degree below
``MAX_DEGREE`` = 2^61, and a larger one raises :class:`DomainError`; then
every key the kernels form (a product, a shift, an lcm) has fields below
2^62, clear of the guard bits.  Keys are made once per generator,
dividend and drawn sample, and read back once per output polynomial:
``IntPoly.terms``, the bases and the reports keep exponent tuples.

A division row is a polynomial's head (key, c), its deglex-leading term,
and its other terms as (key, c).  The ``StrongGB``'s division table is
the certified rows sorted by head, and each basis polynomial is built
once from its row; the rows are not interreduced, and every basis
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
climb's shifted generators m * gen to its lattice, as plain keyed dicts.
Their exponents are sums of valid exponents.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from operator import add

from .algebra import chooser
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


#: Bits per field of a monomial key; the top bit of each is its guard bit.
FIELD = 64
#: Keys are made only from exponent vectors of total degree below this.
MAX_DEGREE = 1 << 61


class _Keys:
    """The monomial keys in ``nvars`` variables (see the module docstring):
    ``top`` is the degree field's shift, ``guard`` the guard bits and
    ``units[i]`` the key of x_i."""

    __slots__ = ("top", "guard", "units", "_struct")

    def __init__(self, nvars):
        self.top = FIELD * nvars
        self.guard = sum(1 << FIELD * j + FIELD - 1 for j in range(nvars + 1))
        self.units = tuple(1 << self.top | 1 << FIELD * (nvars - 1 - i)
                           for i in range(nvars))
        self._struct = struct.Struct(f">{nvars + 1}Q")

    def keyed(self, terms: dict) -> dict:
        """The terms {e: c} as a fresh dict {key: c}; an exponent vector of
        total degree >= ``MAX_DEGREE`` raises :class:`DomainError`."""
        pack = self._struct.pack
        out = {}
        for e, c in terms.items():
            d = sum(e)
            if d >= MAX_DEGREE:
                raise DomainError(f"a monomial of total degree {d} is at or "
                                  f"above the limit 2^61")
            out[int.from_bytes(pack(d, *e), "big")] = c
        return out

    def terms(self, keyed: dict) -> dict:
        """The terms {key: c} as a fresh dict {e: c}."""
        unpack, size = self._struct.unpack, self._struct.size
        return {unpack(k.to_bytes(size, "big"))[1:]: c
                for k, c in keyed.items()}

    def monomials(self, degree: int) -> list:
        """The keys of the monomials of total degree ``degree``, in the lex
        order of their exponent vectors; none for a negative degree."""
        nvars = len(self.units)
        if degree < 0 or not nvars:
            return [0] if degree == 0 else []
        keys = [(degree << self.top, degree)]  # (key, degree left)
        for i in range(nvars - 1):
            s = FIELD * (nvars - 1 - i)
            keys = [(k + (x << s), r - x) for k, r in keys
                    for x in range(r + 1)]
        return [k + r for k, r in keys]  # the last exponent takes the rest

    def lcm(self, a: int, b: int) -> int:
        """The key of the lcm of the monomials keyed ``a`` and ``b``."""
        ge = ((a | self.guard) - b) & self.guard  # fields where a's >= b's
        mask = ge - (ge >> FIELD - 1)  # those fields' value bits
        e = ((a & mask) | (b & ~mask)) & ((1 << self.top) - 1)
        # 2^64 = 1 mod 2^64 - 1, and the exponents sum to less than that
        return e + (e % ((1 << FIELD) - 1) << self.top)


@functools.lru_cache(maxsize=8)
def _keys(nvars) -> _Keys:
    return _Keys(nvars)


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
        top = FIELD * self.remainder.nvars
        return max((q.total_degree() + (basis.table[i][0][0] >> top)
                    for i, q in self.multipliers.items()), default=0)


def _product_degree(mult: dict, table, top: int) -> int:
    """The largest total degree of a product mult[i] * row i, for keyed
    multipliers {row index: {key: c}} by a division table whose degree
    field is at ``top``; 0 without multipliers.  See
    ``DivisionCertificate.max_product_degree``."""
    return max(((max(q) + table[i][0][0]) >> top for i, q in mult.items()),
               default=0)


def _division_row(terms: dict) -> tuple:
    """(head, tail) of a nonzero {key: c} dict, left as it is: head is its
    deglex-leading term (key, c), tail its other terms (key, c)."""
    head = max(terms)
    return (head, terms[head]), tuple(t for t in terms.items()
                                      if t[0] != head)


@dataclass(frozen=True)
class StrongGB:
    """A strong basis, its division table and the ideal's filtration
    shift l over its generators: ``table[i]`` is the division row of
    ``polys[i]``.  The table holds only ints and tuples, so it refers to
    nothing that could refer back."""

    polys: tuple
    table: tuple = field(repr=False, compare=False)
    shift: int = field(compare=False)


def _strong_reduce(work: dict, table, guard: int) -> tuple:
    """Full strong normal form of ``work``, a fresh zero-free dict
    {key: c} that the call consumes, by a division table (a sequence of
    division rows) whose keys have the guard bits ``guard``.  Returns
    (remainder, multipliers) as keyed dicts {key: c} and
    {row index: {shift: q}}; there are no multipliers iff the remainder is
    the dividend.

    The leading term is divided by the first row whose head divides it,
    or else moved to the remainder.  Each step cancels into ``work``, so
    the leading term is a plain ``max``; the head cancels exactly, and
    each tail term lands on its key plus the shift.
    """
    remainder, mult = {}, {}
    while work:
        k = max(work)
        c = work[k]
        kg = k | guard
        for i, ((bk, bc), tail) in enumerate(table):
            if (kg - bk) & guard == guard and c % bc == 0:
                break
        else:
            remainder[k] = work.pop(k)
            continue
        del work[k]
        q, shift = c // bc, k - bk
        # the leading monomials decrease, so each shift is new for i
        mult.setdefault(i, {})[shift] = q
        for tk, tc in tail:
            tk += shift
            v = work.get(tk, 0) - q * tc
            if v:
                work[tk] = v
            else:
                del work[tk]
    return remainder, mult


def _critical_pair(f, g, keys: _Keys) -> tuple:
    """(G, S) of two division rows as keyed working dicts: both shift f
    and g up to the lcm of their heads' monomials; G combines the leading
    coefficients by Bezout, S cancels them at their lcm."""
    (fk, fc), (gk, gc) = f[0], g[0]
    lcm = keys.lcm(fk, gk)
    a, b = bezout(fc, gc)  # a fc + b gc = gcd(fc, gc) > 0
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    G, S = {lcm: a * fc + b * gc}, {}
    for (((hk, _), tail), u, v) in ((f, a, lcm_c // fc),
                                    (g, b, -(lcm_c // gc))):
        shift = lcm - hk
        for tk, tc in tail:
            tk += shift
            G[tk] = G.get(tk, 0) + u * tc
            S[tk] = S.get(tk, 0) + v * tc
    return tuple({k: c for k, c in X.items() if c} for X in (G, S))


def _check_nvars(polys, nvars, what):
    """Refuse a polynomial whose variable count is not ``nvars``: the
    kernels pack exponent vectors of one length."""
    for poly in polys:
        if poly.nvars != nvars:
            raise ValueError(f"{what} has {poly.nvars} variables, "
                             f"expected {nvars}")


def _climb(keyed: list, keys: _Keys):
    """One Z-lattice of the products m * gen of the generators ``keyed``
    (keyed dicts), climbed one degree bound at a time: yields (bound,
    lattice, certify) for bound = d, d + 1, ..., with d the least degree of
    a nonzero generator (0 without one), the lattice then spanned by the
    products of degree <= bound and stamped with it.  ``certify()``
    applies the candidate rule (module docstring) at the current bound and
    returns (table, l) once a candidate has certified, else None; the
    ``MAX_ROWS`` cap is checked on resuming.  Each product is added once,
    at its own degree, as the keys of m (in lex order) plus the
    generator's, the generator taken with a positive leading coefficient,
    so its products reach the positive pivots without a sign flip."""
    lattice = ZLattice()
    shifted = [(head[0] >> keys.top,
                [(k, c if head[1] > 0 else -c) for k, c in (head, *tail)])
               for head, tail in map(_division_row, filter(None, keyed))]
    degrees = [d for d, _ in shifted]
    done = failed = None  # (table, l) once certified; the failed heads

    def certify():
        nonlocal done, failed
        if done or lattice.stamp < max(degrees):
            return done
        rows, guard = lattice.rows, keys.guard
        heads = []  # (key, c), ascending: a strong divisor comes first
        for u in sorted(rows):
            c, ug = rows[u][u], u | guard
            if not any(c % hc == 0 and (ug - hk) & guard == guard
                       for hk, hc in heads):
                heads.append((u, c))
        if heads != failed:
            table = [_division_row(rows[u]) for u, _ in heads]
            if _certified(keyed, table, keys):
                done = table, max(lattice.since[u] - (u >> keys.top)
                                  for u, _ in heads)
            failed = heads
        return done

    for bound in itertools.count(min(degrees, default=0)):
        lattice.stamp = bound
        for degree, terms in shifted:
            for m in keys.monomials(bound - degree):
                lattice.add({k + m: c for k, c in terms})
        yield bound, lattice, certify
        if not done and len(lattice.rows) > MAX_ROWS:
            raise DomainError(f"completion did not certify within "
                              f"{MAX_ROWS} lattice rows")


#: Lattice rows the climb may hold without a certified basis before
#: DomainError: its work grows with the rows, bound^nvars at worst.
MAX_ROWS = 20000


def strong_gb(gens) -> StrongGB:
    """The strong basis and the filtration shift of the ideal of ``gens``:
    the first candidate of one lattice climb that certifies (see the
    module docstring), its rows positive-headed and sorted by head.
    Generators in different numbers of variables or none nonzero raise
    ValueError; a monomial of degree >= ``MAX_DEGREE``, or the row cap,
    raises :class:`DomainError`."""
    gens = list(gens)
    if gens:
        _check_nvars(gens, gens[0].nvars, "a generator")
    if all(gen.is_zero() for gen in gens):
        raise ValueError("need at least one nonzero generator")
    nvars = gens[0].nvars
    keys = _keys(nvars)
    climb = _climb([keys.keyed(gen.terms) for gen in gens], keys)
    table, shift = next(filter(None, (certify() for *_, certify in climb)))
    polys = (IntPoly._trusted(nvars, keys.terms(dict((h, *t))))
             for h, t in table)
    return StrongGB(tuple(polys), tuple(table), shift)


def _certified(keyed, table, keys: _Keys) -> bool:
    """Whether ``table``, a division table of ideal members, passes the
    criterion of the module docstring over the generators ``keyed``."""
    guard = keys.guard
    return (all(not _strong_reduce(dict(gen), table, guard)[0]
                for gen in keyed)
            and all(not _strong_reduce(p, table, guard)[0]
                    for f, g in itertools.combinations(table, 2)
                    for p in _critical_pair(f, g, keys)))


def strong_divide(g: IntPoly, B: StrongGB) -> DivisionCertificate:
    """Greedy strong division of g by the basis; remainder 0 iff member.
    A dividend in another number of variables raises ValueError."""
    _check_nvars((g,), B.polys[0].nvars, "the dividend")
    keys = _keys(g.nvars)
    remainder, mult = _strong_reduce(keys.keyed(g.terms), B.table,
                                     keys.guard)
    return DivisionCertificate(
        {i: IntPoly._trusted(g.nvars, keys.terms(q))
         for i, q in mult.items()},
        IntPoly._trusted(g.nvars, keys.terms(remainder)))


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

    A sample is drawn as a keyed working dict and divided by the basis's
    table; a nonzero remainder is a failure, and the shift is read off
    the multipliers, with no polynomial or certificate per sample.
    """
    if not any(not g.is_zero() and g.total_degree() <= max_deg
               for g in gens):
        raise DomainError(f"no nonzero generator has total degree <= "
                          f"{max_deg}, so every witness sample is 0")
    gb = strong_gb(gens)
    table = gb.table
    keys = _keys(gens[0].nvars)
    top, guard, units = keys.top, keys.guard, keys.units
    choice = chooser(rng)
    # a generator above max_deg gets no multiplier, and draws nothing;
    # one of degree d draws its multiplier's degree from 0 .. max_deg - d
    drawn = [(tuple(range(max_deg - base.total_degree() + 1)),
              tuple(keys.keyed(base.terms).items()))
             for base in gens if base.total_degree() <= max_deg]
    max_shift = failures = done = 0
    while done < sample_count:
        work = {}
        for steps, terms in drawn:
            for k1, c1 in _random_poly(steps, units, choice).items():
                for k2, c2 in terms:
                    k = k1 + k2
                    work[k] = work.get(k, 0) + c1 * c2
        if 0 in work.values():
            work = {k: c for k, c in work.items() if c}
        if not work:
            continue
        done += 1
        degree = max(work) >> top
        remainder, mult = _strong_reduce(work, table, guard)
        if remainder:
            failures += 1
            continue
        max_shift = max(max_shift,
                        _product_degree(mult, table, top) - degree)
    return WitnessReport(done, max_shift, failures, gb)


#: The term counts and the coefficients ``_random_poly`` draws from.
_TERM_COUNTS = (1, 2, 3)
_COEFFS = (-3, -2, -1, 0, 1, 2, 3)


def _random_poly(steps: tuple, units: tuple, choice) -> dict:
    """A random polynomial as a zero-free keyed dict {key: c}, each term
    of ``choice(steps)`` steps, each step adding ``choice(units)``, the
    key of one variable; ``choice`` is a ``chooser``.  ``choice`` over
    the tuple range(a, b + 1) draws what ``randint(a, b)`` draws, and
    tests/test_draw_streams.py pins that stream."""
    terms = {}
    for _ in range(choice(_TERM_COUNTS)):
        k = 0
        if units:  # a constant has no exponents to draw
            for _ in range(choice(steps)):
                k += choice(units)
        terms[k] = terms.get(k, 0) + choice(_COEFFS)
    return ({k: c for k, c in terms.items() if c}
            if 0 in terms.values() else terms)


def membership_oracle(g: IntPoly, gens, shift: int | None = None) -> bool:
    """Decide membership by integer linear algebra on one Z-lattice.

    At degree bound b, g is a member iff it lies in the Z-span of the
    products m * gen_i of degree <= b.  A member can need products of the
    raw generators above its own degree, e.g. 5y = y(x^2+5) - x(xy).  One
    lattice climbs from the least generator degree; g is tested from the
    first bound >= deg(g), and a miss there goes on up to deg(g) + l, past
    which no member can first enter (see the module docstring; the spans
    only grow, so a miss at any bound >= deg(g) + l is final).  Every
    verdict is read from the lattice: True is a combination found, False
    a miss at or above the exact bound.  Without ``shift`` = l passed
    (once per ideal), a miss certifies a candidate on the same lattice to
    read l.  The zero ideal holds only 0, with no climb.  The climb's row
    cap raises :class:`DomainError`: x^(10^12) over (x) would climb 10^12
    bounds to its first test.  A generator in another number of variables
    than g raises ValueError.
    """
    _check_nvars(gens, g.nvars, "a generator")
    if g.is_zero() or all(gen.is_zero() for gen in gens):
        return g.is_zero()
    keys = _keys(g.nvars)
    target, degree = keys.keyed(g.terms), g.total_degree()
    for bound, lattice, certify in _climb(
            [keys.keyed(gen.terms) for gen in gens], keys):
        if bound < degree:
            continue
        if lattice.contains(target):
            return True
        if shift is None and (done := certify()):
            shift = done[1]
        if shift is not None and bound >= degree + shift:
            return False
