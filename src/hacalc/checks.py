"""Seeded property-check suites driven by the CLI and the test suite.

Each suite returns a :class:`CheckResult`; randomness always flows from an
explicit seed so failures replay exactly.

Every draw of the random generators below is ``choice(seq)``, with
``choice = chooser(rng)``, over a cached immutable sequence: a window of
``AlgebraPresentation.monomials_up_to``, a pool built once per suite plan,
or a module constant.  ``choice(seq)`` draws getrandbits(k), k =
len(seq).bit_length(), until the draw is below len(seq) and returns that
entry: the rule of ``Random.choice`` and of the one ``_randbelow`` call that
``randrange`` and ``randint`` make.  So the generators draw what plain
``randrange``/``randint`` code draws and leave the ``Random`` in the same
state.  A change to a generator must keep that stream:
tests/test_draw_streams.py pins it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (AlgebraPresentation, GrowthProfile, chooser,
                      profile_check_diam_laws, profile_power_sum)
from .groebner import IntPoly, membership_oracle, strong_divide, strong_gb
from .ncforms import (Form, MixedForm, differential, fedosov,
                      fedosov_mixed, form_multiply,
                      xcomplex_boundary_checks)
from .scalars import INF, PrimeConfig, val
from .tube import (EvenForm, TubeParams, dm_member, fedosov_even,
                   floor_estimates, form_in_module, jdegree, tube_member)


@dataclass
class CheckResult:
    name: str
    passed: bool
    checks: int
    detail: str = ""


def presentations() -> dict:
    return {
        "polynomial": AlgebraPresentation.polynomial(),
        "laurent": AlgebraPresentation.laurent(),
        "plane_curve": AlgebraPresentation.plane_curve([0, -1, 0, 1]),
        "free": AlgebraPresentation.free(["a", "b"]),
    }


def _offset(name: str) -> int:
    # stable across processes, unlike hash()
    return sum(i * b for i, b in enumerate(name.encode(), 1)) % 1000


# -- random generators -------------------------------------------------------

#: Twice the coefficients -2, -1, 1, 2, 1/2, 3 of ``random_form``: it sums
#: these numerators over den 2.
_FORM_NUMERATORS = (-4, -2, 2, 4, 1, 6)

#: The exponents k of the scale p^-k of a part of ``random_even_form``.
_EVEN_SHIFTS = (0, 1, 2)


def random_monomial(A: AlgebraPresentation, max_deg: int,
                    rng: random.Random) -> tuple:
    return chooser(rng)(A.monomials_up_to(max_deg))


def random_form(A, degree: int, max_deg: int, rng,
                terms: int = 2) -> Form:
    """A sum of ``terms`` random tuples (head; slots) with coefficients
    from -2, -1, 1, 2, 1/2, 3; a slot that draws the unit is redrawn."""
    window = A.monomials_up_to(max_deg)
    unit = A.is_unit_monomial
    choice = chooser(rng)
    num = {}
    for _ in range(terms):
        key = [choice(window)]
        for _ in range(degree):
            m = choice(window)
            while unit(m):
                m = choice(window)
            key.append(m)
        key = tuple(key)
        num[key] = num.get(key, 0) + choice(_FORM_NUMERATORS)
    return Form._trusted(A, degree, num, 2)


def random_monomial_form(A, pool: tuple, nonunit: tuple, degree: int,
                         rng) -> Form:
    """A single-tuple form with its head from ``pool`` and its slots from
    ``nonunit``, the non-unit monomials of the pool: supported in
    Omega^degree(M) when the pool spans M."""
    choice = chooser(rng)
    key = (choice(pool),) + tuple(choice(nonunit) for _ in range(degree))
    return Form._trusted(A, degree, {key: 1})


def random_even_form(A, max_level: int, max_deg: int, rng,
                     cfg: PrimeConfig) -> EvenForm:
    parts = {}
    for n in rng.sample(range(max_level + 1), k=min(2, max_level + 1)):
        scale = cfg.p ** chooser(rng)(_EVEN_SHIFTS)
        f = random_form(A, 2 * n, max_deg, rng)
        if not f.is_zero():
            parts[2 * n] = Form._trusted(A, 2 * n, f.num, f.den * scale)
    return EvenForm(A, parts)


# -- suites -------------------------------------------------------------------


def suite_scalars(cfg: PrimeConfig, samples: int, seed: int) -> CheckResult:
    rng = random.Random(seed)
    n = 0
    for _ in range(samples):
        a = Fraction(rng.randint(-999, 999) or 1,
                     rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999) or 1,
                     rng.randint(1, 999))
        n += 1
        if val(a * b, cfg) != val(a, cfg) + val(b, cfg):
            return CheckResult("scalars", False, n, f"mult: {a}, {b}")
        lhs = val(a + b, cfg)
        lo = min(val(a, cfg), val(b, cfg))
        if lhs < lo:
            return CheckResult("scalars", False, n, f"ultrametric: {a}, {b}")
        if val(a, cfg) != val(b, cfg) and lhs != lo:
            return CheckResult("scalars", False, n, f"equality: {a}, {b}")
    return CheckResult("scalars", True, n)


def suite_floors(N: int = 200) -> CheckResult:
    rep = floor_estimates(N)
    return CheckResult("floors", rep.ok, N,
                       "" if rep.ok else str(rep.counterexample))


def suite_diam(cap: int = 20) -> CheckResult:
    checks = 0
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            u = GrowthProfile.filtration(k1, cap)
            v = GrowthProfile.filtration(k2, cap)
            rep = profile_check_diam_laws(u, v)
            checks += 1
            if not rep.ok:
                return CheckResult(
                    "diam", False, checks,
                    f"law {rep.failed_law} at degree {rep.failed_degree} "
                    f"for F_{k1}, F_{k2}")
    # a non-filtration profile: staircase valuations
    w = GrowthProfile(tuple(d // 2 for d in range(cap + 1)))
    rep = profile_check_diam_laws(w, GrowthProfile.filtration(2, cap))
    checks += 1
    if not rep.ok:
        return CheckResult("diam", False, checks, "staircase profile")
    return CheckResult("diam", True, checks)


def suite_forms(samples_per_kind: int, seed: int) -> CheckResult:
    """d^2 = 0, Leibniz, associativity (ordinary and Fedosov), and the
    curvature identity of the inclusion into even forms."""
    total = 0
    for name, A in presentations().items():
        rng = random.Random(seed + _offset(name))
        rngmax = 3 if name == "free" else 4
        for _ in range(samples_per_kind):
            total += 1
            xi = random_form(A, rng.randint(0, 2), rngmax, rng)
            eta = random_form(A, rng.randint(0, 2), rngmax, rng)
            zeta = random_form(A, rng.randint(0, 1), rngmax, rng)
            if not differential(differential(xi)).is_zero():
                return CheckResult("forms", False, total, f"d^2: {name}")
            lhs = differential(form_multiply(xi, eta))
            sign = -1 if xi.degree % 2 else 1
            rhs = (form_multiply(differential(xi), eta)
                   + form_multiply(xi, differential(eta)).scale(sign))
            if lhs != rhs:
                return CheckResult("forms", False, total, f"Leibniz: {name}")
            a1 = form_multiply(form_multiply(xi, eta), zeta)
            a2 = form_multiply(xi, form_multiply(eta, zeta))
            if a1 != a2:
                return CheckResult("forms", False, total, f"assoc: {name}")
            # Fedosov associativity on even degrees
            e1 = random_form(A, 2 * rng.randint(0, 1), rngmax, rng)
            e2 = random_form(A, 2 * rng.randint(0, 1), rngmax, rng)
            e3 = random_form(A, 2 * rng.randint(0, 1), rngmax, rng)
            f1 = fedosov_mixed(fedosov(e1, e2), MixedForm.of(e3))
            f2 = fedosov_mixed(MixedForm.of(e1), fedosov(e2, e3))
            if f1 != f2:
                return CheckResult("forms", False, total,
                                   f"fedosov assoc: {name}")
            x = random_monomial(A, rngmax, rng)
            y = random_monomial(A, rngmax, rng)
            fx, fy = Form(A, 0, {(x,): 1}), Form(A, 0, {(y,): 1})
            curv = (MixedForm.of(form_multiply(fx, fy))
                    - fedosov(fx, fy))
            # the generic product: fedosov's high part is d_product
            expected = MixedForm.of(
                form_multiply(Form.d_of_monomial(A, x),
                              Form.d_of_monomial(A, y)))
            if curv != expected:
                return CheckResult("forms", False, total,
                                   f"curvature: {name}")
    return CheckResult("forms", True, total)


def suite_xcomplex_boundary(samples_per_kind: int, seed: int) -> CheckResult:
    total = 0
    for name, A in presentations().items():
        rng = random.Random(seed + _offset(name))
        monos = [random_monomial(A, 2, rng) for _ in range(samples_per_kind)]
        forms = [random_form(A, 1, 2, rng) for _ in range(samples_per_kind)]
        ok, msg = xcomplex_boundary_checks(A, monos, forms)
        total += 2 * samples_per_kind
        if not ok:
            return CheckResult("xcomplex-boundary", False, total,
                               f"{name}: {msg}")
    return CheckResult("xcomplex-boundary", True, total)


def suite_tube_closure(cfg: PrimeConfig, samples: int, seed: int,
                       max_level: int = 5, only=None) -> CheckResult:
    """Fedosov closure of tube membership, level monotonicity, D_m
    inclusion, and the level-(m+1) structure map simulation."""
    if max_level < 1:
        raise ValueError(f"tube level must be >= 1, got {max_level}")
    total = 0
    kinds = presentations()
    if only is not None:
        kinds = {only.kind: only}
    cap = 24
    big = GrowthProfile.filtration(cap, cap)
    for name, A in kinds.items():
        rng = random.Random(seed + _offset(name))
        max_deg = 2 if name == "free" else 3
        prof = GrowthProfile.filtration(max_deg, cap)
        for _ in range(samples):
            m = rng.randint(1, max_level)
            x = random_even_form(A, 3, max_deg, rng, cfg)
            y = random_even_form(A, 3, max_deg, rng, cfg)
            total += 1
            if tube_member(x, m, cfg) and tube_member(y, m, cfg):
                z = fedosov_even(x, y)
                if not tube_member(z, m, cfg):
                    return CheckResult("tube-closure", False, total,
                                       f"closure fails: {name}, m={m}")
                jx, jy, jz = jdegree(x), jdegree(y), jdegree(z)
                if jz is not INF and jz < jx + jy:
                    return CheckResult("tube-closure", False, total,
                                       f"jdegree: {name}")
            if tube_member(x, m + 1, cfg) and not tube_member(x, m, cfg):
                return CheckResult("tube-closure", False, total,
                                   f"monotonicity: {name}, m={m}")
            # D_m membership implies tube membership
            alpha = Fraction(1, 2 * m)
            P = TubeParams(m, alpha, rng.randint(0, 2), prof)
            if dm_member(x, P, cfg) and not tube_member(x, m, cfg):
                return CheckResult("tube-closure", False, total,
                                   f"dm inclusion: {name}")
            # level m+1 tube sits in D_m(., 1/(m+1), 0)
            if tube_member(x, m + 1, cfg):
                Pm_full = TubeParams(m, Fraction(1, m + 1), 0, big)
                if not dm_member(x, Pm_full, cfg):
                    return CheckResult("tube-closure", False, total,
                                       f"structure map: {name}")
    return CheckResult("tube-closure", True, total)


def suite_fedosov_growth(cfg: PrimeConfig, samples: int,
                         seed: int) -> CheckResult:
    """Sampled support estimate for iterated Fedosov products.

    Random monomial forms in Omega^{i_k}(M), M = F_1, are multiplied;
    every component of degree i + 2j must be supported in
    Omega^{i+2j}(M^(3)).
    """
    plans = [
        ("polynomial", (2, 2)),
        ("polynomial", (4, 2)),
        ("free", (2, 2, 2)),
        ("laurent", (4, 2)),
        ("laurent", (2, 2)),
        ("plane_curve", (2, 2)),
    ]
    kinds = presentations()
    prof = GrowthProfile.filtration(1, 30)
    m3 = profile_power_sum(prof, 3)
    reach = max((d for d in range(prof.cap + 1) if prof[d] == 0), default=0)
    total = 0
    for name, degrees in plans:
        A = kinds[name]
        pool = tuple(m for m in A.monomials_up_to(reach)
                     if prof[A.degree(m)] == 0)
        nonunit = tuple(m for m in pool if not A.is_unit_monomial(m))
        rng = random.Random(seed + len(degrees))
        i_total = sum(degrees)
        for _ in range(samples):
            total += 1
            factors = [random_monomial_form(A, pool, nonunit, deg, rng)
                       for deg in degrees]
            prod = MixedForm.of(factors[0])
            for f in factors[1:]:
                prod = fedosov_mixed(prod, MixedForm.of(f))
            for deg in prod.degrees():
                j2 = deg - i_total
                if j2 < 0 or j2 % 2 or j2 // 2 > len(degrees) - 1:
                    failure = f"component degree {deg} outside range"
                elif not form_in_module(prod.component(deg), m3, cfg):
                    failure = f"support outside M^(3) in degree {deg}"
                else:
                    continue
                return CheckResult("fedosov-growth", False, total,
                                   f"{name} {degrees}: {failure}")
    return CheckResult("fedosov-growth", True, total)


def suite_groebner(samples_per_ideal: int, seed: int) -> CheckResult:
    """Strong division against the membership oracle on random members
    and perturbations of the corpus ideals, with each certificate's
    reconstruction and degree bound.  Both sides rest on ``ZLattice``:
    the basis is read off one climb per ideal, and the oracle climbs the
    same products to the shift that basis carries, passed in so that a
    miss does not certify a candidate again.  The independent oracles
    (Buchberger's completion, the dense Smith form) are in the tests."""
    corpus = groebner_corpus()
    rng = random.Random(seed)
    total = 0
    for gens in corpus:
        gb = strong_gb(gens)
        # random members and perturbations against the integer oracle
        for _ in range(samples_per_ideal):
            g = IntPoly(2)
            for base in gens:
                budget = 4 - base.total_degree()
                if budget < 0:
                    continue
                e = [0, 0]
                for _ in range(rng.randint(0, budget)):
                    e[rng.randrange(2)] += 1
                g = g + base.term_mul(rng.randint(-2, 2), tuple(e))
            if rng.random() < 0.5:
                g = g + IntPoly.constant(2, rng.randint(-2, 2))
            if g.is_zero() or g.total_degree() > 4:
                continue
            total += 1
            cert = strong_divide(g, gb)
            member_gb = cert.remainder.is_zero()
            if member_gb != membership_oracle(g, list(gens), gb.shift):
                return CheckResult("groebner", False, total,
                                   f"oracle disagrees on {g}")
            if cert.reconstruct(gb) != g:
                return CheckResult("groebner", False, total,
                                   f"certificate broken for {g}")
            if member_gb and cert.multipliers:
                if cert.max_product_degree(gb) > g.total_degree():
                    return CheckResult("groebner", False, total,
                                       f"degree bound broken for {g}")
    return CheckResult("groebner", True, total)


def groebner_corpus():
    def P(terms):
        return IntPoly(2, terms)

    return [
        (P({(1, 0): 2}), P({(0, 1): 3})),
        (P({(1, 0): 1}),),
        (P({(2, 0): 1, (0, 1): -1}), P({(0, 2): 1, (0, 0): -1})),
        (P({(0, 0): 6}), P({(0, 0): 10})),
        (P({(1, 1): 2, (1, 0): 1}), P({(0, 2): 3})),
        (P({(2, 0): 1, (0, 0): 5}), P({(1, 1): 1})),
        (P({(1, 0): 4, (0, 1): 6}),),
        (P({(1, 0): 1, (0, 1): 1}), P({(1, 1): 1, (0, 0): -2})),
        (P({(2, 1): 1}), P({(1, 2): 1})),
        (P({(3, 0): 2, (0, 1): 1}), P({(0, 3): 3, (1, 0): -1})),
    ]


def check_all(cfg: PrimeConfig, seed: int, samples: int) -> list:
    """Every suite at a reduced sample count; used by `ha check`."""
    light = max(10, samples // 10)
    return [
        suite_scalars(cfg, samples, seed),
        suite_floors(200),
        suite_diam(20),
        suite_forms(light, seed),
        suite_xcomplex_boundary(max(4, light // 8), seed),
        suite_tube_closure(cfg, light, seed),
        suite_fedosov_growth(cfg, max(10, light // 2), seed),
        suite_groebner(max(10, light // 2), seed),
    ]
