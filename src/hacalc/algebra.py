"""Presented V-algebras with a monomial normal-form basis.

Four presentation kinds are supported:

* ``free``        noncommutative; basis = words in the generators,
* ``polynomial``  commutative; basis = monomials with exponents >= 0,
* ``laurent``     one generator t with a formal inverse; basis = t^n, n in Z,
* ``plane_curve`` V[x,y]/(y^2 - f(x)); basis = x^i y^j with j <= 1.

Every basis monomial is a tuple: a word of generator indices (free), an
exponent vector (polynomial, laurent) or the pair (i, j) of x^i y^j; the
unit is () or the zero vector (a non-unital free algebra adjoins ()).

Every basis monomial carries a filtration degree: the least n such that the
monomial lies in F_n, the span of all products of at most n generators
(laurent counts t and t^-1 both as generators, so deg t^-n = n; on a plane
curve the relation lets y^2 stand in for the top of f, which lowers the
weight of large powers of x).

Growth profiles model degree-homogeneous bounded submodules M as maps
(monomial degree -> minimum required coefficient valuation); the product and
diamond operations mirror M*N and the linear-growth hull sum_i p^i M^{i+1}.
"""

from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import dataclass
from operator import add, sub

from .scalars import INF

KINDS = ("free", "polynomial", "laurent", "plane_curve")


_JSON_KINDS = {int: "integers", str: "strings", list: "lists",
               dict: "objects"}


def json_list(value, kind: type, what: str) -> list:
    """``value`` if it is a JSON list of ``kind`` entries, else ValueError.

    Entries are matched by exact type, so no float or bool passes as an
    integer and no string passes as a list.
    """
    if not (isinstance(value, list) and all(type(x) is kind for x in value)):
        raise ValueError(f"{what} must be a list of {_JSON_KINDS[kind]}, "
                         f"got {json.dumps(value)}")
    return value


def int_entries(values, what: str) -> tuple:
    """``values`` as a tuple if every entry is an int, else ValueError.

    A bool, Fraction or float is refused rather than rounded into Z.
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values


def exponent_vectors(nvars: int, degree: int) -> list:
    """Exponent tuples of length nvars with sum exactly degree, in lex
    order; none for a negative degree."""
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:  # the last exponent is what the degree leaves
        return [(degree,)] if degree >= 0 else []
    return [(e,) + rest for e in range(degree + 1)
            for rest in exponent_vectors(nvars - 1, degree - e)]


def chooser(rng):
    """``choice(seq)``: a uniform entry of a nonempty sequence, drawn from
    ``rng.getrandbits`` alone.

    It draws r = getrandbits(k), k = len(seq).bit_length(), until
    r < len(seq), and returns seq[r]: the rule of ``Random.choice`` and
    its ``_randbelow``, so it draws what ``Random.choice`` draws and leaves
    ``rng`` in the same state, without their two calls per draw.  An
    empty sequence raises IndexError (getrandbits(0) is always 0, so the
    loop would never end).
    """
    getrandbits = rng.getrandbits

    def choice(seq):
        n = len(seq)
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return choice


class ProductTable(dict):
    """``mul_monomials(a, b)`` at the key (a, b) as a tuple of
    (m, c, is_unit_monomial(m)), remembered per presentation.  It holds
    its presentation through a weak proxy: the two form no cycle, so
    both are freed as soon as the presentation is dropped."""

    def __init__(self, presentation):
        self.presentation = weakref.proxy(presentation)

    def __missing__(self, key):
        A = self.presentation
        entry = self[key] = tuple((m, c, A.is_unit_monomial(m)) for m, c
                                  in A.mul_monomials(*key).items())
        return entry


class AlgebraPresentation:
    """A presented algebra with monomial basis and length filtration;
    ``letters``, the alphabet of ``word_of``, is the generator monomials
    in order, then t^-1 = (-1,) on laurent."""

    def __init__(self, kind, generators, f_coeffs=None, unital=None):
        if kind not in KINDS:
            raise ValueError(f"unknown presentation kind {kind!r}")
        generators = tuple(generators)
        if len(set(generators)) != len(generators) or not generators:
            raise ValueError("generators must be nonempty and distinct")
        if kind == "laurent" and len(generators) != 1:
            raise ValueError("laurent takes exactly one generator")
        if kind == "plane_curve":
            if generators != ("x", "y"):
                raise ValueError("plane_curve requires generators (x, y)")
            f_coeffs = int_entries(f_coeffs or (), "f_coeffs")
            while f_coeffs and f_coeffs[-1] == 0:
                f_coeffs = f_coeffs[:-1]
            if len(f_coeffs) < 2:
                raise ValueError("plane_curve needs deg f >= 1")
            if f_coeffs[-1] not in (1, -1):
                raise ValueError("f must have leading coefficient +-1")
        elif f_coeffs is not None:
            raise ValueError("f_coeffs only applies to plane_curve")
        if unital is None:
            unital = kind != "free"
        if kind != "free" and not unital:
            raise ValueError(f"{kind} presentations are unital")
        self.kind = kind
        self.generators = generators
        self.f_coeffs = f_coeffs
        self.unital = unital
        n = len(generators)
        if kind == "free":
            self._one = ()
            self.letters = tuple((i,) for i in range(n))
        else:
            self._one = (0,) * n
            self.letters = tuple(tuple(int(i == k) for i in range(n))
                                 for k in range(n))
            if kind == "laurent":
                self.letters += ((-1,),)
        self._monomials = {}  # bound -> window(bound)
        self.product_table = ProductTable(self)

    # -- constructors ---------------------------------------------------

    @classmethod
    def free(cls, generators, unital=False):
        return cls("free", generators, unital=unital)

    @classmethod
    def polynomial(cls, generators=("t",)):
        return cls("polynomial", generators)

    @classmethod
    def laurent(cls, generator="t"):
        return cls("laurent", (generator,))

    @classmethod
    def plane_curve(cls, f_coeffs):
        return cls("plane_curve", ("x", "y"), f_coeffs=f_coeffs)

    @classmethod
    def from_json(cls, data: dict):
        """A presentation from its JSON payload: generator names are a
        list of strings, ``f_coeffs`` a list of integers and ``unital``
        a bool."""
        kind = data["kind"]
        if kind == "plane_curve":
            return cls.plane_curve(json_list(data["f_coeffs"], int,
                                             "f_coeffs"))
        if kind not in ("laurent", "polynomial", "free"):
            raise ValueError(f"unknown presentation kind {kind!r}")
        gens = json_list(data["generators"] if kind != "laurent"
                         else data.get("generators", ["t"]),
                         str, "generators")
        unital = data.get("unital", kind != "free")
        if type(unital) is not bool:
            raise ValueError(f"unital must be true or false, "
                             f"got {json.dumps(unital)}")
        return cls(kind, gens, unital=unital)

    def __repr__(self):
        if self.kind == "plane_curve":
            return f"AlgebraPresentation(plane_curve, f={list(self.f_coeffs)})"
        return f"AlgebraPresentation({self.kind}, {list(self.generators)})"

    # -- monomials ------------------------------------------------------

    @property
    def is_commutative(self) -> bool:
        return self.kind != "free"

    def one(self) -> tuple:
        """The unit monomial: the empty word on a free algebra, unital or
        not, and the zero exponent vector on the commutative kinds."""
        return self._one

    def is_unit_monomial(self, m: tuple) -> bool:
        return m == self._one

    def generator_monomial(self, name: str) -> tuple:
        return self.letters[self.generators.index(name)]

    def degree(self, m: tuple) -> int:
        """Filtration degree: least n with m in F_n."""
        if self.kind == "free":
            return len(m)
        if self.kind == "laurent":
            return abs(m[0])
        if self.kind == "polynomial":
            return sum(m)
        # y^2 = f(x) makes x^d (d = deg f) a product of two generators:
        # x^i with i = dq + r weighs 2q plus the cheaper of x^r (r) and
        # one more y^2 (2); for d <= 2 a trade saves nothing
        i, j = m
        d = len(self.f_coeffs) - 1
        if d < 3:
            return i + j
        return j + 2 * (i // d) + min(i % d, 2)

    def sort_key(self, m: tuple):
        return (self.degree(m), m)

    def monomial_str(self, m: tuple) -> str:
        if self.is_unit_monomial(m):
            return "1"
        if self.kind == "free":
            return "*".join(self.generators[i] for i in m)
        parts = []
        for name, e in zip(self.generators, m):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def mul_monomials(self, a: tuple, b: tuple) -> dict:
        """Normal form of a*b as a sparse monomial combination."""
        if self.kind == "free":
            return {a + b: 1}
        if self.kind in ("polynomial", "laurent"):
            return {tuple(map(add, a, b)): 1}
        i = a[0] + b[0]
        j = a[1] + b[1]
        if j <= 1:
            return {(i, j): 1}
        # y^2 -> f(x)
        return {(i + k, 0): c for k, c in enumerate(self.f_coeffs) if c}

    def monomials_up_to(self, bound: int) -> tuple:
        """All basis monomials of filtration degree <= bound, sorted.

        The window is enumerated once per bound and cached; every call
        returns that same tuple, without a copy, so the seeded generators
        of :mod:`hacalc.checks` draw from it with a ``chooser``.
        """
        try:
            return self._monomials[bound]
        except KeyError:
            pass
        out = []
        if self.kind == "free":  # the empty word only if unital
            out = [w for k in range(0 if self.unital else 1, bound + 1)
                   for w in itertools.product(range(len(self.generators)),
                                              repeat=k)]
        elif self.kind == "laurent":
            out = [(k,) for k in range(-bound, bound + 1)]
        elif self.kind == "polynomial":
            out = [e for d in range(bound + 1)
                   for e in exponent_vectors(len(self.generators), d)]
        else:
            for j in (0, 1):
                i = 0
                while self.degree((i, j)) <= bound:
                    out.append((i, j))
                    i += 1
        out.sort(key=self.sort_key)
        window = self._monomials[bound] = tuple(out)
        return window

    def word_of(self, m: tuple) -> list:
        """A canonical factorization of m into the monomials of
        ``letters``.

        A free word is its letters; an exponent vector repeats the i-th
        letter e_i times, and a negative laurent exponent repeats the
        formal inverse.  The unit monomial factors as the empty word.
        """
        letters = self.letters
        if self.kind == "free":
            return [letters[i] for i in m]
        return [letters[i if e > 0 else -1]
                for i, e in enumerate(m) for _ in range(abs(e))]

    def cofactor(self, m: tuple, w: tuple) -> tuple:
        """The basis monomial m / w for a letter w of ``word_of(m)``.

        Commutative monomials are exponent vectors, so the product of
        the other letters is m - w, already in normal form.
        """
        return tuple(map(sub, m, w))


# ---------------------------------------------------------------------------
# Growth profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthProfile:
    """Minimum required coefficient valuation per monomial degree.

    ``w[d]`` is the valuation a degree-d coefficient must have for the
    element to lie in the modeled submodule, for d = 0 .. cap; ``INF``
    means the submodule has no degree-d part, as past the cap.
    """

    w: tuple

    @property
    def cap(self) -> int:
        return len(self.w) - 1

    @classmethod
    def filtration(cls, k: int, cap: int) -> "GrowthProfile":
        """Profile of F_k: free coefficients up to degree k, nothing above."""
        return cls(tuple(0 if d <= k else INF for d in range(cap + 1)))

    def __getitem__(self, d: int):
        return self.w[d] if d < len(self.w) else INF


def profile_sum(u: GrowthProfile, v: GrowthProfile) -> GrowthProfile:
    """Profile of the module sum M + N (pointwise minimum)."""
    _same_cap(u, v)
    return GrowthProfile(tuple(min(a, b) for a, b in zip(u.w, v.w)))


def profile_product(u: GrowthProfile, v: GrowthProfile) -> GrowthProfile:
    """Profile of the product module M*N (min-plus convolution)."""
    _same_cap(u, v)
    return GrowthProfile(tuple(
        min(map(add, u.w[:d + 1], v.w[d::-1])) for d in range(u.cap + 1)))


def profile_power_sum(u: GrowthProfile, n: int) -> GrowthProfile:
    """Profile of M^{(n)} = M + M^2 + ... + M^n."""
    acc = u
    power = u
    for _ in range(n - 1):
        power = profile_product(power, u)
        acc = profile_sum(acc, power)
    return acc


def profile_diamond(u: GrowthProfile) -> GrowthProfile:
    """Profile of the linear-growth hull M^* = sum_i p^i M^{i+1}.

    The hull solves M^* = M + p M M^*, so its profile is
    w(d) = min(u(d), 1 + u(a) + w(d - a) for 1 <= a <= d).  The term
    a = 0, 1 + u(0) + w(d), never lowers w(d) when u(0) >= -1; when
    u(0) < -1 the degree-0 requirement i + (i + 1) u(0) of p^i M^{i+1}
    falls without bound, and ValueError is raised.
    """
    if u[0] < -1:
        raise ValueError(f"the hull of a profile with u(0) = {u[0]} < -1 "
                         "is unbounded")
    w = []
    for ud in u.w:
        w.append(min(ud, 1 + min(map(add, u.w[1:], reversed(w)),
                                 default=INF)))
    return GrowthProfile(tuple(w))


@dataclass(frozen=True)
class DiamondLawReport:
    ok: bool
    failed_law: int | None = None
    failed_degree: int | None = None


def profile_check_diam_laws(u: GrowthProfile, v: GrowthProfile
                            ) -> DiamondLawReport:
    """Check the five diamond-hull inclusions as profile inequalities.

    An inclusion of modules M <= N reads pointwise w_M(d) >= w_N(d).
    Laws: (1) M^* + N^* <= (M+N)^*; (2) M N^* <= ((MN+N)^(2))^*, one
    check for both orders, as profile products commute; (3) p M^* M^*
    <= M^*; (4) M^* N^* <= ((M+N)^(2))^*; (5) (M^*)^* = M^*.
    """
    _same_cap(u, v)
    ud, vd = profile_diamond(u), profile_diamond(v)
    mn = profile_product(u, v)
    # (N, M) for each inclusion M <= N of laws 1-4
    inclusions = [
        (profile_diamond(profile_sum(u, v)).w, profile_sum(ud, vd).w),
        (profile_diamond(profile_power_sum(profile_sum(mn, v), 2)).w,
         profile_product(u, vd).w),
        (ud.w, [1 + x for x in profile_product(ud, ud).w]),
        (profile_diamond(profile_power_sum(profile_sum(u, v), 2)).w,
         profile_product(ud, vd).w),
    ]
    for law, (big, small) in enumerate(inclusions, 1):
        for d, (b, s) in enumerate(zip(big, small)):
            if s < b:
                return DiamondLawReport(False, law, d)
    # 5: idempotency, exact equality
    udd = profile_diamond(ud)
    for d in range(u.cap + 1):
        if udd.w[d] != ud.w[d]:
            return DiamondLawReport(False, 5, d)
    return DiamondLawReport(True)


def _same_cap(u, v):
    if u.cap != v.cap:
        raise ValueError("profiles must share a cap")
