"""Command-line front end.

Every subcommand prints one JSON report (schema ``ha/1``, keys sorted) and
exits 0 on success, 1 when a check fails, 2 on input errors, including
input outside a routine's domain.  All randomness is seeded, so reports
are byte-identical across reruns with the same inputs, seed, and version.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__, checks
from .algebra import AlgebraPresentation, json_list
from .derham import crosscheck_loop_graph, h_dr
from .errors import DomainError, HacalcError
from .graphs import DirectedGraph, ha_cohn, ha_leavitt
from .groebner import IntPoly, filtered_noetherian_witness, strong_gb
from .lift import (Connection, lift_idempotent, phi_psi_recursion,
                   section_curvature_check)
from .ncforms import xcomplex_homology
from .scalars import PrimeConfig

SUITES = ("scalars", "floors", "diam", "forms", "xcomplex", "tube",
          "fedosov", "groebner", "all")


def _report(args, subcommand: str, results: dict, passed: bool = True):
    doc = {
        "schema": "ha/1",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": {"prime": args.prime, "precision": args.precision,
                   "truncate": getattr(args, "truncate", None),
                   "seed": args.seed,
                   "payload": getattr(args, "payload", None)},
        "results": results,
        "passed": passed,
    }
    print(json.dumps(doc, sort_keys=True, default=str))
    return 0 if passed else 1


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


class _Payload(dict):
    """A JSON object payload; a missing key is an input error naming it."""

    def __init__(self, path, data):
        super().__init__(data)
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"payload {self.path} is missing key {key!r}")


def _load_object(path) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"payload {path} must be a JSON object")
    return _Payload(path, data)


def _build_parser():
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = argparse.ArgumentParser(
        prog="ha", parents=[common],
        description="Exact invariants of p-adic algebras at finite "
                    "truncation.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", parents=[common],
                       help="path-algebra invariants from N_E")
    g.add_argument("payload", help="graph JSON file")
    g.add_argument("--cohn", action="store_true")

    x = sub.add_parser("xcomplex", parents=[common],
                       help="two-term complex homology")
    x.add_argument("--algebra", dest="payload", required=True)
    x.add_argument("--truncate", type=int, default=10)

    t = sub.add_parser("tube", parents=[common],
                       help="tube membership property suites")
    t.add_argument("--algebra", dest="payload")
    t.add_argument("--level", type=int, default=2)
    t.add_argument("--check", choices=("closure", "floors", "growth"),
                   default="closure")
    t.add_argument("--samples", type=int, default=200)

    lf = sub.add_parser("lift", parents=[common],
                        help="connection lifting recursion")
    lf.add_argument("--algebra", dest="payload", required=True)
    lf.add_argument("--order", type=int, default=2)
    lf.add_argument("--cap", type=int, default=4)

    idm = sub.add_parser("idem", parents=[common],
                         help="idempotent lifting mod p^N")
    idm.add_argument("--matrix", dest="payload", required=True)

    gr = sub.add_parser("groebner", parents=[common],
                        help="strong basis over Z")
    gr.add_argument("payload", help="ideal JSON file")
    gr.add_argument("--witness", type=int, default=0)

    dr = sub.add_parser("derham", parents=[common],
                        help="de Rham reduction")
    dr.add_argument("--algebra", dest="payload", required=True)
    dr.add_argument("--truncate", type=int, default=20)

    ck = sub.add_parser("check", parents=[common], help="property suites")
    ck.add_argument("--suite", choices=SUITES, default="all")
    ck.add_argument("--samples", type=int, default=200)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if not hasattr(args, "prime"):
        print(json.dumps({"schema": "ha/1",
                          "error": "--prime is required"}, sort_keys=True))
        return 2
    args.precision = getattr(args, "precision", 16)
    args.seed = getattr(args, "seed", 0)
    try:
        cfg = PrimeConfig(args.prime, args.precision)
    except ValueError as exc:
        print(json.dumps({"schema": "ha/1", "error": str(exc)},
                         sort_keys=True))
        return 2
    try:
        return _dispatch(args, cfg)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps({"schema": "ha/1", "error": str(exc)},
                         sort_keys=True))
        return 2
    except HacalcError as exc:
        print(json.dumps({"schema": "ha/1", "error": str(exc),
                          "kind": type(exc).__name__}, sort_keys=True))
        return 2 if isinstance(exc, DomainError) else 1


def _dispatch(args, cfg) -> int:
    for flag in ("samples", "witness"):
        if getattr(args, flag, 0) < 0:
            raise ValueError(
                f"--{flag} must be >= 0, got {getattr(args, flag)}")
    if args.command == "graph":
        g = DirectedGraph.from_json(_load_object(args.payload))
        res = ha_cohn(g) if args.cohn else ha_leavitt(g)
        return _report(args, "graph", res.as_dict())

    if args.command == "xcomplex":
        A = AlgebraPresentation.from_json(_load_object(args.payload))
        rep = xcomplex_homology(A, cfg, args.truncate)
        return _report(args, "xcomplex", {
            "h0": rep.h0, "h1": rep.h1, "reps": list(rep.reps1),
            "stable": rep.stable})

    if args.command == "tube":
        if args.check == "floors":
            res = checks.suite_floors(200)
        elif args.check == "growth":
            res = checks.suite_fedosov_growth(cfg, args.samples, args.seed)
        else:
            only = None
            if args.payload:
                only = AlgebraPresentation.from_json(
                    _load_object(args.payload))
            res = checks.suite_tube_closure(cfg, args.samples, args.seed,
                                            max_level=args.level, only=only)
        return _report(args, "tube", asdict(res), res.passed)

    if args.command == "lift":
        A = AlgebraPresentation.from_json(_load_object(args.payload))
        tower = phi_psi_recursion(Connection(A), args.order, args.cap)
        rep = section_curvature_check(tower, args.order, args.cap)
        return _report(args, "lift", {
            "order": rep.order, "ok": rep.ok,
            "max_bad_degree": rep.max_bad_degree,
            "degree_constant": rep.degree_constant,
            "pairs": rep.pairs_checked}, rep.ok)

    if args.command == "idem":
        data = _load_json(args.payload)
        if isinstance(data, dict):
            data = _Payload(args.payload, data)["matrix"]
        e = [json_list(row, int, "matrix row")
             for row in json_list(data, list, "matrix")]
        hat = lift_idempotent(e, cfg)
        return _report(args, "idem", {"lift": hat})

    if args.command == "groebner":
        data = _load_object(args.payload)
        names = json_list(data["vars"], str, "vars")
        gens = [IntPoly.from_json(len(names), g)
                for g in json_list(data["gens"], list, "gens")]
        gb = strong_gb(gens)
        out = {"basis": [p.render(names) for p in gb.polys]}
        passed = True
        if args.witness:
            import random
            rep = filtered_noetherian_witness(
                gens, args.witness, 6, random.Random(args.seed))
            out["witness"] = {"samples": rep.samples,
                              "max_shift": rep.max_shift,
                              "failures": rep.failures}
            passed = rep.failures == 0 and rep.max_shift == 0
        return _report(args, "groebner", out, passed)

    if args.command == "derham":
        A = AlgebraPresentation.from_json(_load_object(args.payload))
        rep = h_dr(A, cfg, args.truncate)
        out = rep.as_dict()
        if A.kind == "laurent":
            cross = crosscheck_loop_graph(rep)
            out["crosscheck"] = cross.ok
        return _report(args, "derham", out)

    if args.command == "check":
        picked = _run_suites(args, cfg)
        results = {r.name: asdict(r) for r in picked}
        return _report(args, "check", results,
                       all(r.passed for r in picked))
    raise ValueError(f"unknown command {args.command}")


def _run_suites(args, cfg):
    s, seed, n = args.suite, args.seed, args.samples
    if s == "all":
        return checks.check_all(cfg, seed, n)
    if s == "scalars":
        return [checks.suite_scalars(cfg, n, seed)]
    if s == "floors":
        return [checks.suite_floors(200)]
    if s == "diam":
        return [checks.suite_diam(20)]
    if s == "forms":
        return [checks.suite_forms(max(10, n // 4), seed)]
    if s == "xcomplex":
        return [checks.suite_xcomplex_boundary(max(4, n // 32), seed)]
    if s == "tube":
        return [checks.suite_tube_closure(cfg, n, seed)]
    if s == "fedosov":
        return [checks.suite_fedosov_growth(cfg, n, seed)]
    return [checks.suite_groebner(max(10, n // 4), seed)]


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
