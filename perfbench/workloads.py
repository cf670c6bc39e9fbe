"""Seeded inputs and one verified pass for each benchmark workload.

A workload is built once from ``(seed, size)`` by :func:`build`; a pass
then asks every query of the workload and checks every answer against a
route that does not share the code under test.  The library is reached
only through module attributes (``ncforms.xcomplex_homology`` and so on),
so the wrappers of a traced run see the benchmark's own calls too.

Each built workload carries its expected values in ``expected``; the
self-test corrupts one of them to show that a wrong answer is counted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from hacalc import checks, derham, graphs, groebner, lift, linalg, ncforms
from hacalc.algebra import AlgebraPresentation
from hacalc.scalars import PrimeConfig
from pace import Pace

WORKLOADS = ("invariants", "groebner", "forms")
SIZES = ("full", "tiny")

# The README curve y^2 = x^3 - x is in every pass.  Seeded curves come from
# the same family y^2 = x^3 + a x: at D = 8 each makes the same eliminations
# as the README curve and costs within about 10 % of it (a = -3 and a = -4
# cost 25 % more and are left out), while curves with a constant or x^2
# term cost up to 2.5 times as much, so a pass's time would depend on the
# seed.
README_CURVE = (0, -1, 0, 1)
CURVE_POOL = ((0, 1, 0, 1), (0, 2, 0, 1), (0, -2, 0, 1),
              (0, 3, 0, 1), (0, 4, 0, 1))
# p >= 5 and p never divides disc(x^3 + a x) = -4 a^3 for the pool above.
PRIMES = (5, 7, 11, 13)
# Truncations for the README curve and the seeded curves; the per-rung
# metrics are named after them, so every size runs the whole ladder.  The
# curve's cost grows about as D^3, and D = 8 keeps a pass near 5 s.
LADDER = (4, 6, 8)
# Past order 3 the Laurent tower explodes (18.8 s at order 4, cap 8, and
# 402 s at order 5, cap 10, against 0.07 s and 0.26 s for the polynomial
# ring), so the forms workload stays at order 3, cap 6.
LIFT_ORDER, LIFT_CAP = 3, 6

SIZING = {
    "full": {"pool_curves": True, "poly_D": 40, "laurent_D": 20,
             "graphs": 12, "graph_vertices": (5, 9),
             "draws": 2, "members": 2, "perturbed": 1, "witness": 40,
             "scalars": 400, "forms": 24, "xboundary": 6, "tube": 40,
             "fedosov": 20, "tower": (LIFT_ORDER, LIFT_CAP)},
    "tiny": {"pool_curves": False, "poly_D": 6, "laurent_D": 4,
             "graphs": 2, "graph_vertices": (3, 4),
             "draws": 1, "members": 1, "perturbed": 0, "witness": 4,
             "scalars": 20, "forms": 1, "xboundary": 1, "tube": 2,
             "fedosov": 1, "tower": (2, 4)},
}


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    queries: list  # (label, kind, args), asked in order by run_pass
    expected: dict  # label -> expected answer
    top_query: str  # label of the designated heavy query

    def fingerprint(self) -> str:
        """A text form of every input, equal for equal seeds."""
        def plain(x):
            if isinstance(x, groebner.IntPoly):
                return (x.nvars, sorted(x.terms.items()))
            if isinstance(x, (tuple, list)):
                return tuple(plain(v) for v in x)
            return x

        return repr(plain((self.name, self.seed, self.size, self.queries,
                           sorted(self.expected.items()))))


@dataclass
class PassResult:
    answers: list = field(default_factory=list)  # (label, answer)
    failures: list = field(default_factory=list)  # (label, reason)
    query_s: dict = field(default_factory=dict)  # label -> seconds
    step_s: dict = field(default_factory=dict)  # label -> seconds, checked
    # the Pace samples taken during the pass and around the top query, as
    # (first, last) slices
    pace_span: tuple = (0, 0)
    top_span: tuple = (0, 0)

    @property
    def attempted(self) -> int:
        return len(self.answers)


# -- inputs -------------------------------------------------------------------


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seed, SIZING[size], size)


def curve_label(f_coeffs, D: int) -> str:
    return f"curve{list(f_coeffs)}@D{D}"


def _build_invariants(rng, seed, sz, size) -> Workload:
    queries, expected = [], {}
    for D in LADDER:
        label = curve_label(README_CURVE, D)
        queries.append((label, "curve", (README_CURVE, 7, D)))
        expected[label] = (1, 2)
        if sz["pool_curves"]:
            f = CURVE_POOL[rng.randrange(len(CURVE_POOL))]
            label = curve_label(f, D)
            queries.append((label, "curve", (f, rng.choice(PRIMES), D)))
            expected[label] = (1, 2)
    queries.append(("polynomial", "ring",
                    ("polynomial", rng.choice(PRIMES), sz["poly_D"])))
    expected["polynomial"] = (1, 0)
    queries.append(("laurent", "ring",
                    ("laurent", rng.choice(PRIMES), sz["laurent_D"])))
    expected["laurent"] = (1, 1)
    lo, hi = sz["graph_vertices"]
    for i in range(sz["graphs"]):
        label = f"graph{i}"
        vertices, edges = _random_graph(rng, rng.randint(lo, hi))
        queries.append((label, "graph", (vertices, edges)))
        expected[label] = _leavitt_dims_by_rank(vertices, edges)
    return Workload("invariants", seed, size, queries, expected,
                    curve_label(README_CURVE, LADDER[-1]))


def _random_graph(rng, n):
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for v in vertices:
        if rng.random() < 0.2:
            continue  # a sink
        for _ in range(rng.randint(1, 3)):
            edges.append((v, vertices[rng.randrange(n)]))
    return vertices, tuple(edges)


def _leavitt_dims_by_rank(vertices, edges):
    """(|E^0| - rank N_E, #regular - rank N_E) with N_E built here and its
    rank taken by fraction-free elimination, not by Smith normal form."""
    regular = [v for v in vertices if any(s == v for s, _ in edges)]
    rows = [[(1 if v == w else 0)
             - sum(1 for s, r in edges if s == w and r == v)
             for w in regular] for v in vertices]
    rank = linalg.int_matrix_rank(rows) if regular else 0
    return (len(vertices) - rank, len(regular) - rank)


def _build_groebner(rng, seed, sz, size) -> Workload:
    queries, expected = [], {}
    for k, shape in enumerate(checks.groebner_corpus()):
        for d in range(sz["draws"]):
            gens = _draw_ideal(shape, rng)
            label = f"ideal{k}.{d}"
            queries.append((label, "ideal", gens))
            for j in range(sz["members"] + sz["perturbed"]):
                g = _draw_member(gens, rng)
                member = j < sz["members"]  # a combination of the generators
                if not member:
                    # g +- 1 is a non-member, as every corpus ideal is
                    # proper; every seed asks the same number of
                    # non-members, which cost the most
                    g = g + groebner.IntPoly.constant(2, rng.choice((-1, 1)))
                tag = f"{label}.sample{j}"
                queries.append((tag, "member", (label, g)))
                expected[tag] = member
            tag = f"{label}.witness"
            queries.append((tag, "witness",
                            (label, sz["witness"], rng.random())))
            expected[tag] = (0, 0)  # (failures, max_shift)
    x2y2p1 = groebner.IntPoly(2, {(2, 2): 1, (0, 0): 1})
    ideal = (groebner.IntPoly.constant(2, 6), groebner.IntPoly.constant(2, 10))
    queries.append(("oracle:x^2y^2+1 in (6,10)", "oracle", (x2y2p1, ideal)))
    expected["oracle:x^2y^2+1 in (6,10)"] = False
    return Workload("groebner", seed, size, queries, expected,
                    "oracle:x^2y^2+1 in (6,10)")


def _draw_ideal(shape, rng):
    """A corpus shape under a seeded variable swap, signs and order.

    Each such ideal is isomorphic to the corpus one, so answers stay
    comparable across seeds while the inputs differ.  The cost of deciding
    a non-member does not: it moves with the generators' order and signs
    (0.37 to 0.57 s for shape 0, 0.61 to 0.78 s for shape 3), so a pass
    draws each shape twice and its time varies less from seed to seed.
    """
    swap = rng.random() < 0.5
    gens = []
    for g in shape:
        sign = rng.choice((1, -1))
        gens.append(groebner.IntPoly(2, {
            (e[::-1] if swap else e): sign * c for e, c in g.terms.items()}))
    rng.shuffle(gens)
    return tuple(gens)


def _draw_member(gens, rng):
    """sum r_i gen_i with monomial multipliers r_i, of total degree 4.

    Draws that cancel in degree 4 are drawn again: the oracle's matrix
    sizes, and so the cost, then depend on the ideal and not on the seed.
    """
    while True:
        g = groebner.IntPoly(2)
        for base in gens:
            budget = 4 - base.total_degree()
            if budget < 0:
                continue
            e = [0, 0]
            for _ in range(budget):
                e[rng.randrange(2)] += 1
            g = g + base.term_mul(rng.choice((-2, -1, 1, 2)), tuple(e))
        if not g.is_zero() and g.total_degree() == 4:
            return g


def _build_forms(rng, seed, sz, size) -> Workload:
    p = rng.choice(PRIMES)
    s = rng.randrange(1 << 30)
    queries = [
        ("suite:scalars", "suite", ("scalars", p, sz["scalars"], s)),
        ("suite:floors", "suite", ("floors", p, 200, s)),
        ("suite:diam", "suite", ("diam", p, 20, s)),
        ("suite:forms", "suite", ("forms", p, sz["forms"], s)),
        ("suite:xcomplex-boundary", "suite",
         ("xcomplex-boundary", p, sz["xboundary"], s)),
        ("suite:tube-closure", "suite", ("tube-closure", p, sz["tube"], s)),
        ("suite:fedosov-growth", "suite",
         ("fedosov-growth", p, sz["fedosov"], s)),
        ("tower:polynomial", "tower", ("polynomial", *sz["tower"])),
        ("tower:laurent", "tower", ("laurent", *sz["tower"])),
    ]
    expected = {label: True for label, _, _ in queries}
    return Workload("forms", seed, size, queries, expected, "tower:laurent")


_BUILDERS = {"invariants": _build_invariants, "groebner": _build_groebner,
             "forms": _build_forms}


# -- one pass -----------------------------------------------------------------


def run_pass(w: Workload, pace=None) -> PassResult:
    """Ask every query of ``w`` once and check each answer.

    Only the library call of a query is timed into ``query_s``; each
    query with its checks is timed into ``step_s``.  A query that raises
    is a failed answer, never an aborted pass.  The reference computation
    of ``pace`` runs between queries, outside those timings: at the start
    and end of the pass, right before and after the top query, and
    otherwise when its interval has gone by.
    """
    res = PassResult()
    state = {}  # per-pass values shared by later queries (Groebner bases)
    pace = pace or Pace()
    first = pace.mark()
    pace.tick(force=True)
    for label, kind, args in w.queries:
        top = label == w.top_query
        if top:
            top_first = pace.mark()
            pace.tick(force=True)
        t = time.perf_counter()
        try:
            answer, problems = _ASK[kind](w, label, args, res, state)
        except Exception as exc:  # a raised error is a wrong answer
            answer, problems = None, [f"{type(exc).__name__}: {exc}"]
        res.step_s[label] = time.perf_counter() - t
        res.answers.append((label, answer))
        res.failures.extend((label, msg) for msg in problems)
        pace.tick(force=top)
        if top:
            res.top_span = (top_first, pace.mark())
    pace.tick(force=True)
    res.pace_span = (first, pace.mark())
    return res


def _timed(res, label, fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    res.query_s[label] = time.perf_counter() - t
    return out


def _expect(w, label, got, problems):
    want = w.expected.get(label)
    if label in w.expected and got != want:
        problems.append(f"expected {want}, got {got}")


def _ask_curve(w, label, args, res, state):
    f, p, D = args
    A = AlgebraPresentation.plane_curve(list(f))
    return _two_routes(w, label, A, PrimeConfig(p), D, res)


def _ask_ring(w, label, args, res, state):
    kind, p, D = args
    A = (AlgebraPresentation.polynomial() if kind == "polynomial"
         else AlgebraPresentation.laurent())
    return _two_routes(w, label, A, PrimeConfig(p), D, res)


def _two_routes(w, label, A, cfg, D, res):
    """X-complex homology, checked against the de Rham route."""
    x = _timed(res, label, ncforms.xcomplex_homology, A, cfg, D)
    dr = derham.h_dr(A, cfg, D)
    got = (x.h0, x.h1)
    problems = []
    _expect(w, label, got, problems)
    if got != (dr.h0, dr.h1):
        problems.append(f"xcomplex {got} vs de Rham {(dr.h0, dr.h1)}")
    if not (x.stable and dr.stable):
        problems.append("window not certified stable")
    return (got, x.reps1), problems


def _ask_graph(w, label, args, res, state):
    vertices, edges = args
    g = graphs.DirectedGraph(vertices, edges)
    r = _timed(res, label, graphs.ha_leavitt, g)
    got = (r.dim_ha0, r.dim_ha1)
    problems = []
    _expect(w, label, got, problems)
    return (got, r.snf_invariants), problems


def _ask_ideal(w, label, args, res, state):
    gb = _timed(res, label, groebner.strong_gb, list(args))
    state[label] = (args, gb)
    return tuple(str(p) for p in gb.polys), []


def _ask_member(w, label, args, res, state):
    ideal, g = args
    gens, gb = state[ideal]
    problems = []
    cert = groebner.strong_divide(g, gb)
    by_gb = cert.remainder.is_zero()
    by_oracle = groebner.membership_oracle(g, list(gens))
    _expect(w, label, by_gb, problems)
    if by_gb != by_oracle:
        problems.append(f"division says {by_gb}, oracle says {by_oracle}")
    if cert.reconstruct(gb) != g:
        problems.append("certificate does not reconstruct the dividend")
    if by_gb and cert.multipliers \
            and cert.max_product_degree(gb) > g.total_degree():
        problems.append("degree bound deg(q_i f_i) <= deg(g) broken")
    return (by_gb, str(cert.remainder)), problems


def _ask_witness(w, label, args, res, state):
    ideal, samples, salt = args
    gens, _ = state[ideal]
    rep = groebner.filtered_noetherian_witness(
        list(gens), samples, 6, random.Random(salt))
    got = (rep.failures, rep.max_shift)
    problems = []
    _expect(w, label, got, problems)
    if rep.samples != samples:
        problems.append(f"{rep.samples} samples drawn, {samples} asked")
    return got, problems


def _ask_oracle(w, label, args, res, state):
    g, gens = args
    got = _timed(res, label, groebner.membership_oracle, g, list(gens))
    problems = []
    _expect(w, label, got, problems)
    by_gb = groebner.strong_divide(g, groebner.strong_gb(list(gens)))
    if by_gb.remainder.is_zero() != got:
        problems.append("oracle and strong division disagree")
    return got, problems


def _ask_suite(w, label, args, res, state):
    name, p, n, seed = args
    cfg = PrimeConfig(p)
    call = {
        "scalars": lambda: checks.suite_scalars(cfg, n, seed),
        "floors": lambda: checks.suite_floors(n),
        "diam": lambda: checks.suite_diam(n),
        "forms": lambda: checks.suite_forms(n, seed),
        "xcomplex-boundary": lambda: checks.suite_xcomplex_boundary(n, seed),
        "tube-closure": lambda: checks.suite_tube_closure(cfg, n, seed),
        "fedosov-growth": lambda: checks.suite_fedosov_growth(cfg, n, seed),
    }[name]
    r = _timed(res, label, call)
    problems = []
    _expect(w, label, r.passed, problems)
    if r.name != name:
        problems.append(f"suite reported as {r.name!r}")
    if r.detail:
        problems.append(r.detail)
    return (r.passed, r.checks), problems


def _ask_tower(w, label, args, res, state):
    kind, order, cap = args
    A = (AlgebraPresentation.polynomial() if kind == "polynomial"
         else AlgebraPresentation.laurent())

    def tower():
        t = lift.phi_psi_recursion(lift.Connection(A), order, cap)
        return lift.section_curvature_check(t, order, cap)

    rep = _timed(res, label, tower)
    problems = []
    _expect(w, label, rep.ok, problems)
    if rep.max_bad_degree is not None:
        problems.append(f"curvature in degree {rep.max_bad_degree} "
                        f"< {2 * (order + 1)}")
    return (rep.ok, rep.degree_constant, rep.pairs_checked), problems


_ASK = {"curve": _ask_curve, "ring": _ask_ring, "graph": _ask_graph,
        "ideal": _ask_ideal, "member": _ask_member, "witness": _ask_witness,
        "oracle": _ask_oracle, "suite": _ask_suite, "tower": _ask_tower}
