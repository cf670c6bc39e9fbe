"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion; every tolerance is exact and every runtime budget is asserted.
"""

import random
import time
from functools import partial

from hacalc.algebra import AlgebraPresentation
from hacalc.checks import (groebner_corpus, suite_diam, suite_fedosov_growth,
                           suite_forms, suite_floors, suite_tube_closure,
                           suite_xcomplex_boundary)
from hacalc.derham import h_dr
from hacalc.graphs import DirectedGraph, ha_cohn, ha_leavitt
from hacalc.groebner import (filtered_noetherian_witness, membership_oracle,
                             strong_divide, strong_gb)
from hacalc.lift import (Connection, _dcupd, _pairs, hochschild_delta,
                         lift_idempotent, phi_psi_recursion,
                         section_curvature_check)
from hacalc.scalars import PrimeConfig


def _report(num, name, elapsed, budget):
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({elapsed:.2f}s"
          f" < {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_fundamental_theorem(tmp_path, capsys):
    import json

    from hacalc.cli import run

    t0 = time.time()
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(
        {"vertices": ["v"], "edges": [{"s": "v", "r": "v"}]}))
    laurent = tmp_path / "laurent.json"
    laurent.write_text(json.dumps({"kind": "laurent", "generators": ["t"]}))
    assert run(["graph", str(loop), "--prime", "5"]) == 0
    graph_out = json.loads(capsys.readouterr().out)["results"]
    assert (graph_out["ha0"], graph_out["ha1"]) == (1, 1)
    for p in (5, 7, 11):
        assert run(["derham", "--algebra", str(laurent),
                    "--truncate", "20", "--prime", str(p)]) == 0
        dr = json.loads(capsys.readouterr().out)["results"]
        assert (dr["h0"], dr["h1"]) == (1, 1)
        assert dr["reps1"] == ["dt/t"]
        assert (graph_out["ha0"], graph_out["ha1"]) == (dr["h0"], dr["h1"])
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(1, "fundamental theorem, loop graph = Laurent", elapsed, 5)


def test_criterion_02_ground_ring():
    t0 = time.time()
    res = ha_leavitt(DirectedGraph(("v",), ()))
    assert (res.dim_ha0, res.dim_ha1) == (1, 0)
    rep = h_dr(AlgebraPresentation.polynomial(), PrimeConfig(5), 20)
    assert (rep.h0, rep.h1) == (1, 0)
    _report(2, "ground ring", time.time() - t0, 1)


def test_criterion_03_leavitt_algebras():
    t0 = time.time()
    for n in range(2, 7):
        res = ha_leavitt(DirectedGraph.loop(n))
        assert (res.dim_ha0, res.dim_ha1) == (0, 0), n
    line = DirectedGraph(("v", "w"), (("v", "w"),))
    res = ha_leavitt(line)
    assert (res.dim_ha0, res.dim_ha1) == (1, 0)
    _report(3, "Leavitt algebras L_n and matrix stability",
            time.time() - t0, 5)


def test_criterion_04_cohn_algebras():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(20):
        nv = rng.randint(1, 8)
        vs = tuple(f"v{i}" for i in range(nv))
        es = tuple((rng.choice(vs), rng.choice(vs))
                   for _ in range(rng.randint(0, 2 * nv)))
        res = ha_cohn(DirectedGraph(vs, es))
        assert (res.dim_ha0, res.dim_ha1) == (nv, 0)
    _report(4, "Cohn algebras", time.time() - t0, 5)


def test_criterion_05_elliptic_curve():
    t0 = time.time()
    curve = AlgebraPresentation.plane_curve([0, -1, 0, 1])
    rep = h_dr(curve, PrimeConfig(7), 20)  # stability re-checks at D = 25
    assert (rep.h0, rep.h1) == (1, 2)
    assert rep.stable
    # independent truncated-cokernel oracle
    from test_derham import _dense_curve_cokernel
    assert _dense_curve_cokernel([0, -1, 0, 1], 20) == 2
    _report(5, "elliptic curve y^2 = x^3 - x at p = 7",
            time.time() - t0, 30)


def test_criterion_06_lifting_recursion():
    from test_lift import triples
    t0 = time.time()
    for A in (AlgebraPresentation.polynomial(),
              AlgebraPresentation.laurent()):
        tower = phi_psi_recursion(Connection(A), 3, 6)
        phi2 = partial(tower.phi, 1)
        for x, y in _pairs(A, 6):
            assert hochschild_delta(A, phi2, x, y) == _dcupd(A, x, y)
        for k in (2, 3):
            psik = partial(tower.psi, k)
            assert all(hochschild_delta(A, psik, *p).is_zero()
                       for p in triples(A, 6)), (A.kind, k)
        for n in range(0, 4):
            rep = section_curvature_check(tower, n, 6)
            assert rep.ok, (A.kind, n, rep.max_bad_degree)
    _report(6, "lifting recursion orders n <= 3", time.time() - t0, 60)


def test_criterion_07_idempotent_lifting():
    t0 = time.time()
    from test_lift import _newton_fixed_point, _random_gl, _mul, _mat_mod
    rng = random.Random(1)
    count = 0
    while count < 100:
        p = rng.choice([5, 7])
        cfg = PrimeConfig(p, 6)
        n = rng.choice([2, 3])
        diag = [[1 if (i == j and rng.random() < 0.6) else 0
                 for j in range(n)] for i in range(n)]
        g, ginv = _random_gl(n, p, rng)
        e = _mat_mod(_mul(_mul(g, diag, p), ginv, p), p)
        hat = lift_idempotent(e, cfg)
        q = p ** 6
        sq = [[sum(hat[i][k] * hat[k][j] for k in range(n)) % q
               for j in range(n)] for i in range(n)]
        assert sq == hat
        assert all((hat[i][j] - e[i][j]) % p == 0
                   for i in range(n) for j in range(n))
        assert hat == _newton_fixed_point(e, p, 6)
        count += 1
    _report(7, "idempotent lifting vs Newton oracle",
            time.time() - t0, 10)


def test_criterion_08_tube_and_bornology_suite():
    t0 = time.time()
    cfg = PrimeConfig(5)
    res = suite_tube_closure(cfg, 1000, seed=0, max_level=5)
    assert res.passed, res.detail
    res = suite_fedosov_growth(cfg, 100, seed=0)
    assert res.passed, res.detail
    res = suite_diam(20)
    assert res.passed, res.detail
    res = suite_floors(200)
    assert res.passed, res.detail
    _report(8, "tube/bornology suite", time.time() - t0, 60)


def test_criterion_09_groebner_suite():
    t0 = time.time()
    rng = random.Random(2)
    for gens in groebner_corpus():
        gb = strong_gb(list(gens))
        for _ in range(20):
            g = gens[0] * 0
            for base in gens:
                budget = 4 - base.total_degree()
                if budget < 0:
                    continue
                e = [0, 0]
                for _ in range(rng.randint(0, budget)):
                    e[rng.randrange(2)] += 1
                g = g + base.term_mul(rng.randint(-2, 2), tuple(e))
            if rng.random() < 0.4:
                from hacalc.groebner import IntPoly
                g = g + IntPoly.constant(2, rng.randint(-2, 2))
            if g.is_zero() or g.total_degree() > 4:
                continue
            member = strong_divide(g, gb).remainder.is_zero()
            assert member == membership_oracle(g, list(gens))
            cert = strong_divide(g, gb)
            if cert.remainder.is_zero() and cert.multipliers:
                assert cert.max_product_degree(gb) <= g.total_degree()
        wit = filtered_noetherian_witness(list(gens), 500, 6, rng)
        assert wit.failures == 0 and wit.max_shift == 0
    _report(9, "strong Groebner suite", time.time() - t0, 60)


def test_criterion_10_forms_kernel():
    t0 = time.time()
    res = suite_forms(256, seed=0)       # 1024 samples per identity
    assert res.passed, res.detail
    res = suite_xcomplex_boundary(128, seed=0)  # 1024 boundary checks
    assert res.passed, res.detail
    _report(10, "forms kernel identities", time.time() - t0, 60)
