import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hacalc
from hacalc.cli import run


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(
        {"vertices": ["v"], "edges": [{"s": "v", "r": "v"}]}))
    return str(path)


@pytest.fixture
def laurent_file(tmp_path):
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps({"kind": "laurent", "generators": ["t"]}))
    return str(path)


def test_graph_loop(loop_file, capsys):
    code = run(["--prime", "5", "graph", loop_file])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"] == {"ha0": 1, "ha1": 1, "snf": [0]}
    assert out["schema"] == "ha/1"


def test_missing_file_is_input_error(capsys):
    code = run(["--prime", "5", "graph", "/nonexistent/missing.json"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["xcomplex", "derham"])
def test_negative_truncation_is_input_error(command, laurent_file, capsys):
    code = run(["--prime", "7", command, "--algebra", laurent_file,
                "--truncate", "-3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out == {"schema": "ha/1",
                   "error": "truncation must be >= 0, got -3"}


def test_non_object_payload_is_input_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for argv in (["xcomplex", "--algebra", str(path)],
                 ["derham", "--algebra", str(path)],
                 ["graph", str(path)]):
        code = run(["--prime", "7"] + argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out == {"schema": "ha/1",
                       "error": f"payload {path} must be a JSON object"}


def test_unknown_presentation_kind_is_input_error(tmp_path, capsys):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"kind": "bogus", "generators": ["a"]}))
    for argv in (["lift", "--algebra", str(path)],
                 ["xcomplex", "--algebra", str(path)]):
        code = run(["--prime", "5"] + argv)
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "schema": "ha/1", "error": "unknown presentation kind 'bogus'"}


@pytest.mark.parametrize("argv, payload, key", [
    (["xcomplex", "--algebra"], {"kind": "polynomial"}, "generators"),
    (["graph"], {"vertices": ["v"]}, "edges"),
    (["groebner"], {"vars": ["x"]}, "gens"),
], ids=["xcomplex", "graph", "groebner"])
def test_missing_payload_key_is_input_error(argv, payload, key, tmp_path,
                                            capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = run(["--prime", "5"] + argv + [str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {
        "schema": "ha/1", "error": f"payload {path} is missing key '{key}'"}


@pytest.mark.parametrize("command, flag, value, error", [
    ("lift", "--order", "-1", "order and cap must be >= 0, got -1, 4"),
    ("lift", "--cap", "-2", "order and cap must be >= 0, got 2, -2"),
    ("tube", "--level", "0", "tube level must be >= 1, got 0"),
], ids=["order", "cap", "level"])
def test_out_of_range_lift_and_tube_flags_are_input_errors(
        command, flag, value, error, laurent_file, capsys):
    code = run(["--prime", "5", command, "--algebra", laurent_file,
                flag, value])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {"schema": "ha/1", "error": error}


@pytest.mark.parametrize("argv, error", [
    (["check", "--samples", "-5"], "--samples must be >= 0, got -5"),
    (["tube", "--samples", "-1"], "--samples must be >= 0, got -1"),
    (["tube", "--check", "growth", "--samples", "-2"],
     "--samples must be >= 0, got -2"),
    (["groebner", "@ideal", "--witness", "-5"],
     "--witness must be >= 0, got -5"),
], ids=["check-samples", "tube-samples", "growth-samples", "witness"])
def test_negative_counts_are_input_errors(argv, error, tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": ["x"],
                                "gens": [[{"e": [1], "c": 2}]]}))
    argv = [str(path) if a == "@ideal" else a for a in argv]
    code = run(["--prime", "5"] + argv)
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {"schema": "ha/1", "error": error}


@pytest.mark.parametrize("term", [
    {"e": [1, 0], "c": 2.5},
    {"e": [1, 0], "c": 2.0},
    {"e": [1, 0], "c": True},
    {"e": [1, 0], "c": "2"},
    {"e": [1.0, 0], "c": 2},
    {"e": [False, 1], "c": 2},
    {"e": "10", "c": 2},
    {"e": [1, 0]},
    5,
], ids=["float", "integral-float", "bool", "string", "float-exponent",
        "bool-exponent", "string-exponents", "no-coefficient", "not-a-term"])
def test_non_integer_ideal_terms_are_input_errors(term, tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": ["x", "y"],
                                "gens": [[{"e": [0, 1], "c": 3}, term]]}))
    code = run(["--prime", "5", "groebner", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {
        "schema": "ha/1",
        "error": f"term {json.dumps(term)} needs integer exponents "
                 "and coefficient"}


IDEAL = ["groebner"]
ALGEBRA = ["lift", "--algebra"]
MATRIX = ["idem", "--matrix"]
MALFORMED = {
    "gens-number": (IDEAL, {"vars": ["x"], "gens": 5},
                    "gens must be a list of lists, got 5"),
    "gens-of-numbers": (IDEAL, {"vars": ["x"], "gens": [5]},
                        "gens must be a list of lists, got [5]"),
    "vars-number": (IDEAL, {"vars": 5, "gens": []},
                    "vars must be a list of strings, got 5"),
    "vars-string": (IDEAL, {"vars": "xy", "gens": []},
                    'vars must be a list of strings, got "xy"'),
    "f-float": (["xcomplex", "--algebra"],
                {"kind": "plane_curve", "f_coeffs": [0, -1.5, 0, 1]},
                "f_coeffs must be a list of integers, got [0, -1.5, 0, 1]"),
    "f-bool": (ALGEBRA, {"kind": "plane_curve", "f_coeffs": [0, True, 1]},
               "f_coeffs must be a list of integers, got [0, true, 1]"),
    "f-number": (ALGEBRA, {"kind": "plane_curve", "f_coeffs": 5},
                 "f_coeffs must be a list of integers, got 5"),
    "matrix-float": (MATRIX, {"matrix": [[1.5, 1], [0, 5]]},
                     "matrix row must be a list of integers, got [1.5, 1]"),
    "matrix-string": (MATRIX, [[1, 0], [0, "1"]],
                      'matrix row must be a list of integers, got [0, "1"]'),
    "matrix-number": (MATRIX, {"matrix": 5},
                      "matrix must be a list of lists, got 5"),
    "matrix-missing": (MATRIX, {"rows": []},
                       "payload @ is missing key 'matrix'"),
    "generators-string": (ALGEBRA, {"kind": "free", "generators": "ab"},
                          'generators must be a list of strings, got "ab"'),
    "generators-nested": (ALGEBRA, {"kind": "free", "generators": [["a"]]},
                          'generators must be a list of strings, '
                          'got [["a"]]'),
    "unital-string": (ALGEBRA, {"kind": "free", "generators": ["a"],
                                "unital": "yes"},
                      'unital must be true or false, got "yes"'),
    "laurent-empty": (ALGEBRA, {"kind": "laurent", "generators": []},
                      "generators must be nonempty and distinct"),
    "vertices-string": (["graph"], {"vertices": "v", "edges": []},
                        'vertices must be a list of strings, got "v"'),
    "edges-number": (["graph"], {"vertices": ["v"], "edges": 5},
                     "edges must be a list of objects, got 5"),
    "edge-list": (["graph"], {"vertices": ["v"], "edges": [["v", "v"]]},
                  'edges must be a list of objects, got [["v", "v"]]'),
    "edge-without-r": (["graph"], {"vertices": ["v"], "edges": [{"s": "v"}]},
                       'edge {"s": "v"} is missing key \'r\''),
    "edge-end-list": (["graph"], {"vertices": ["v"],
                                  "edges": [{"s": ["v"], "r": "v"}]},
                      'edge {"s": ["v"], "r": "v"} needs a vertex name '
                      "at 's'"),
}


@pytest.mark.parametrize("argv, payload, error", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_malformed_payloads_are_input_errors(argv, payload, error, tmp_path,
                                             capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    outs = []
    for _ in range(2):
        code = run(["--prime", "5"] + argv + [str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert len(out.splitlines()) == 1
        assert "Traceback" not in out + err
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {
        "schema": "ha/1", "error": error.replace("@", str(path))}


CURVE = {"kind": "plane_curve", "f_coeffs": [0, -1, 0, 1]}


@pytest.mark.parametrize("argv, payload, error, kind", [
    (["--prime", "7", "xcomplex"], {"kind": "free", "generators": ["a", "b"]},
     "homology is computed for commutative presentations only",
     "NotCommutative"),
    (["--prime", "23", "derham"],
     {"kind": "plane_curve", "f_coeffs": [1, -1, 0, 1]},
     "p = 23 divides disc(f) = -23", "BadReduction"),
    (["--prime", "5", "lift", "--order", "2", "--cap", "4"], CURVE,
     "delta(phi_2) != d u d on generator pairs for either sign",
     "InvalidConnection"),
    (["--prime", "5", "lift", "--order", "2", "--cap", "4"],
     {"kind": "polynomial", "generators": ["x", "y"]},
     "delta(phi_2) != d u d on generator pairs for either sign",
     "InvalidConnection"),
    (["--prime", "7", "xcomplex"],
     {"kind": "polynomial", "generators": ["x", "y"]},
     "one-variable polynomial rings only", "DomainError"),
], ids=["xcomplex-free", "derham-bad-prime", "lift-curve", "lift-poly2",
        "xcomplex-poly2"])
def test_domain_errors_are_input_errors(argv, payload, error, kind,
                                        tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(payload))
    code = run(argv + ["--algebra", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"schema": "ha/1", "error": error,
                               "kind": kind}


@pytest.mark.parametrize("matrix", [[[2, 0], [0, 0]], [[1, -1], [0, 1]]],
                         ids=["scaled", "unipotent"])
def test_non_idempotent_matrix_is_an_input_error(matrix, tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code = run(["--prime", "5", "idem", "--matrix", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out.count("\n") == 1
    assert "Traceback" not in out + err
    assert json.loads(out) == {"schema": "ha/1", "error": "e^2 != e mod p",
                               "kind": "NotApproxIdempotent"}


GOLDEN = {
    "xcomplex-14": '{"inputs": {"payload": "curve.json", "precision": 16, '
                   '"prime": 7, "seed": 0, "truncate": 14}, "passed": true, '
                   '"results": {"h0": 1, "h1": 2, "reps": ["x*y d(x)", '
                   '"y d(x)"], "stable": true}, "schema": "ha/1", '
                   '"subcommand": "xcomplex", "version": "0.1.0"}\n',
    "derham-20": '{"inputs": {"payload": "curve.json", "precision": 16, '
                 '"prime": 7, "seed": 0, "truncate": 20}, "passed": true, '
                 '"results": {"h0": 1, "h1": 2, "reps0": ["1"], "reps1": '
                 '["dx/y", "x dx/y"], "stable": true, "truncation": 20, '
                 '"valuation_loss": 0}, "schema": "ha/1", "subcommand": '
                 '"derham", "version": "0.1.0"}\n',
    "lift-poly": '{"inputs": {"payload": "poly.json", "precision": 16, '
                 '"prime": 5, "seed": 0, "truncate": null}, "passed": true, '
                 '"results": {"degree_constant": 0, "max_bad_degree": null, '
                 '"ok": true, "order": 3, "pairs": 28}, "schema": "ha/1", '
                 '"subcommand": "lift", "version": "0.1.0"}\n',
    "lift-laurent": '{"inputs": {"payload": "laurent.json", "precision": 16, '
                    '"prime": 5, "seed": 0, "truncate": null}, '
                    '"passed": true, "results": {"degree_constant": 2, '
                    '"max_bad_degree": null, "ok": true, "order": 3, '
                    '"pairs": 85}, "schema": "ha/1", "subcommand": "lift", '
                    '"version": "0.1.0"}\n',
    "lift-free": '{"inputs": {"payload": "free.json", "precision": 16, '
                 '"prime": 5, "seed": 0, "truncate": null}, "passed": true, '
                 '"results": {"degree_constant": 0, "max_bad_degree": null, '
                 '"ok": true, "order": 3, "pairs": 516}, "schema": "ha/1", '
                 '"subcommand": "lift", "version": "0.1.0"}\n',
    "lift-laurent-4": '{"inputs": {"payload": "laurent.json", "precision": '
                      '16, "prime": 5, "seed": 0, "truncate": null}, '
                      '"passed": true, "results": {"degree_constant": 2, '
                      '"max_bad_degree": null, "ok": true, "order": 4, '
                      '"pairs": 145}, "schema": "ha/1", "subcommand": '
                      '"lift", "version": "0.1.0"}\n',
    "check-p5": '{"inputs": {"payload": null, "precision": 16, "prime": 5, '
                '"seed": 0, "truncate": null}, "passed": true, "results": '
                '{"diam": {"checks": 10, "detail": "", "name": "diam", '
                '"passed": true}, "fedosov-growth": {"checks": 60, '
                '"detail": "", "name": "fedosov-growth", "passed": true}, '
                '"floors": {"checks": 200, "detail": "", "name": "floors", '
                '"passed": true}, "forms": {"checks": 80, "detail": "", '
                '"name": "forms", "passed": true}, "groebner": {"checks": '
                '99, "detail": "", "name": "groebner", "passed": true}, '
                '"scalars": {"checks": 200, "detail": "", "name": '
                '"scalars", "passed": true}, "tube-closure": {"checks": 80, '
                '"detail": "", "name": "tube-closure", "passed": true}, '
                '"xcomplex-boundary": {"checks": 32, "detail": "", "name": '
                '"xcomplex-boundary", "passed": true}}, "schema": "ha/1", '
                '"subcommand": "check", "version": "0.1.0"}\n',
    "check-p7-seed3": '{"inputs": {"payload": null, "precision": 16, '
                      '"prime": 7, "seed": 3, "truncate": null}, "passed": '
                      'true, "results": {"diam": {"checks": 10, "detail": '
                      '"", "name": "diam", "passed": true}, '
                      '"fedosov-growth": {"checks": 60, "detail": "", '
                      '"name": "fedosov-growth", "passed": true}, "floors": '
                      '{"checks": 200, "detail": "", "name": "floors", '
                      '"passed": true}, "forms": {"checks": 40, "detail": '
                      '"", "name": "forms", "passed": true}, "groebner": '
                      '{"checks": 92, "detail": "", "name": "groebner", '
                      '"passed": true}, "scalars": {"checks": 100, '
                      '"detail": "", "name": "scalars", "passed": true}, '
                      '"tube-closure": {"checks": 40, "detail": "", "name": '
                      '"tube-closure", "passed": true}, "xcomplex-boundary": '
                      '{"checks": 32, "detail": "", "name": '
                      '"xcomplex-boundary", "passed": true}}, "schema": '
                      '"ha/1", "subcommand": "check", "version": "0.1.0"}\n',
    "tube-floors-p5": '{"inputs": {"payload": null, "precision": 16, '
                      '"prime": 5, "seed": 0, "truncate": null}, "passed": '
                      'true, "results": {"checks": 200, "detail": "", '
                      '"name": "floors", "passed": true}, "schema": "ha/1", '
                      '"subcommand": "tube", "version": "0.1.0"}\n',
    "check-floors-p5": '{"inputs": {"payload": null, "precision": 16, '
                       '"prime": 5, "seed": 0, "truncate": null}, "passed": '
                       'true, "results": {"floors": {"checks": 200, '
                       '"detail": "", "name": "floors", "passed": true}}, '
                       '"schema": "ha/1", "subcommand": "check", '
                       '"version": "0.1.0"}\n',
    "graph-3": '{"inputs": {"payload": "graph3.json", "precision": 16, '
               '"prime": 5, "seed": 0, "truncate": null}, "passed": true, '
               '"results": {"ha0": 1, "ha1": 1, "snf": [1, 1, 0]}, '
               '"schema": "ha/1", "subcommand": "graph", "version": '
               '"0.1.0"}\n',
    "graph-3-cohn": '{"inputs": {"payload": "graph3.json", "precision": '
                    '16, "prime": 5, "seed": 0, "truncate": null}, '
                    '"passed": true, "results": {"ha0": 3, "ha1": 0, '
                    '"snf": []}, "schema": "ha/1", "subcommand": "graph", '
                    '"version": "0.1.0"}\n',
    "derham-laurent-20": '{"inputs": {"payload": "laurent.json", '
                         '"precision": 16, "prime": 7, "seed": 0, '
                         '"truncate": 20}, "passed": true, "results": '
                         '{"crosscheck": true, "h0": 1, "h1": 1, "reps0": '
                         '["1"], "reps1": ["dt/t"], "stable": true, '
                         '"truncation": 20, "valuation_loss": 1}, '
                         '"schema": "ha/1", "subcommand": "derham", '
                         '"version": "0.1.0"}\n',
    "tube-growth-p5": '{"inputs": {"payload": null, "precision": 16, '
                      '"prime": 5, "seed": 0, "truncate": null}, "passed": '
                      'true, "results": {"checks": 30, "detail": "", '
                      '"name": "fedosov-growth", "passed": true}, '
                      '"schema": "ha/1", "subcommand": "tube", "version": '
                      '"0.1.0"}\n',
    "groebner-witness": '{"inputs": {"payload": "ideal.json", "precision": '
                        '16, "prime": 5, "seed": 0, "truncate": null}, '
                        '"passed": true, "results": {"basis": ["3*y", '
                        '"2*x", "x*y"], "witness": {"failures": 0, '
                        '"max_shift": 0, "samples": 500}}, "schema": '
                        '"ha/1", "subcommand": "groebner", "version": '
                        '"0.1.0"}\n',
}


POLY = {"kind": "polynomial", "generators": ["t"]}
LAURENT = {"kind": "laurent", "generators": ["t"]}
GRAPH3 = {"vertices": ["u", "v", "w"],
          "edges": [{"s": "u", "r": "u"}, {"s": "u", "r": "v"},
                    {"s": "v", "r": "u"}, {"s": "v", "r": "w"},
                    {"s": "w", "r": "v"}, {"s": "w", "r": "w"}]}
IDEAL_XY = {"vars": ["x", "y"],
            "gens": [[{"e": [1, 0], "c": 2}], [{"e": [0, 1], "c": 3}]]}
LIFT3 = ["--order", "3", "--cap", "6", "--prime", "5"]

# key: (payload file name, payload, argv naming that file)
README_RUNS = {
    "xcomplex-14": ("curve.json", CURVE,
                    ["xcomplex", "--algebra", "curve.json", "--truncate",
                     "14", "--prime", "7"]),
    "derham-20": ("curve.json", CURVE,
                  ["derham", "--algebra", "curve.json", "--truncate", "20",
                   "--prime", "7"]),
    "lift-poly": ("poly.json", POLY,
                  ["lift", "--algebra", "poly.json"] + LIFT3),
    "lift-laurent": ("laurent.json", LAURENT,
                     ["lift", "--algebra", "laurent.json"] + LIFT3),
    "lift-free": ("free.json", {"kind": "free", "generators": ["a", "b"]},
                  ["lift", "--algebra", "free.json"] + LIFT3),
    "lift-laurent-4": ("laurent.json", LAURENT,
                       ["lift", "--algebra", "laurent.json", "--order", "4",
                        "--cap", "8", "--prime", "5"]),
    "check-p5": (None, None, ["check", "--prime", "5", "--samples", "200"]),
    "check-p7-seed3": (None, None, ["--prime", "7", "--seed", "3", "check",
                                    "--samples", "100"]),
    "tube-floors-p5": (None, None, ["tube", "--check", "floors", "--prime",
                                    "5"]),
    "check-floors-p5": (None, None, ["--prime", "5", "check", "--suite",
                                     "floors"]),
    "graph-3": ("graph3.json", GRAPH3,
                ["--prime", "5", "graph", "graph3.json"]),
    "graph-3-cohn": ("graph3.json", GRAPH3,
                     ["--prime", "5", "graph", "graph3.json", "--cohn"]),
    "derham-laurent-20": ("laurent.json", LAURENT,
                          ["derham", "--algebra", "laurent.json",
                           "--truncate", "20", "--prime", "7"]),
    "tube-growth-p5": (None, None, ["--prime", "5", "tube", "--check",
                                    "growth", "--samples", "5"]),
    "groebner-witness": ("ideal.json", IDEAL_XY,
                         ["groebner", "ideal.json", "--witness", "500",
                          "--prime", "5"]),
}


@pytest.mark.parametrize("key", list(GOLDEN))
def test_readme_curve_report_bytes(key, tmp_path, monkeypatch, capsys):
    """The exact stdout of the README's commands, of two larger lifting
    towers, of a three-vertex graph and of the Fedosov growth check."""
    name, payload, argv = README_RUNS[key]
    if name is not None:
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    code = run(argv)
    assert code == 0
    assert capsys.readouterr().out == GOLDEN[key]


def test_cli_import_does_not_load_numpy():
    src = Path(hacalc.__file__).resolve().parents[1]
    probe = "import sys, hacalc.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "False"


def test_usage_error_is_exit_2(capsys):
    assert run(["graph", "x.json"]) == 2          # missing --prime
    assert run(["--prime", "5", "bogus"]) == 2    # unknown subcommand
    capsys.readouterr()


def test_check_floors(capsys):
    code = run(["--prime", "5", "check", "--suite", "floors"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"]


def test_groebner_witness_on_zero_variables(tmp_path, capsys):
    """An ideal of constants has no exponents to draw: the witness samples
    constants, and the report is a pass."""
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"vars": [], "gens": [[{"e": [], "c": 2}],
                                                     [{"e": [], "c": 3}]]}))
    argv = ["--prime", "5", "groebner", str(path), "--witness", "5"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    results = json.loads(out)["results"]
    assert results["basis"] == ["1"]
    assert results["witness"] == {"failures": 0, "max_shift": 0,
                                  "samples": 5}
    assert run(argv) == 0
    assert capsys.readouterr().out == out


def test_byte_identical_reruns(loop_file, capsys):
    run(["--prime", "5", "--seed", "3", "graph", loop_file])
    first = capsys.readouterr().out
    run(["--prime", "5", "--seed", "3", "graph", loop_file])
    second = capsys.readouterr().out
    assert first == second
    code = run(["--prime", "5", "check", "--suite", "forms",
                "--samples", "40", "--seed", "3"])
    first = capsys.readouterr().out
    assert code == 0
    run(["--prime", "5", "check", "--suite", "forms",
         "--samples", "40", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_seed_stability_across_values(capsys):
    # identical pass/fail structure for several seeds
    shapes = []
    for seed in range(1, 6):
        code = run(["--prime", "5", "--seed", str(seed), "check",
                    "--suite", "tube", "--samples", "30"])
        out = json.loads(capsys.readouterr().out)
        shapes.append((code, out["passed"],
                       sorted(out["results"])))
    assert len(set(map(str, shapes))) == 1


def test_derham_subcommand(laurent_file, capsys):
    code = run(["--prime", "7", "derham", "--algebra", laurent_file,
                "--truncate", "20"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["h1"] == 1
    assert out["results"]["reps1"] == ["dt/t"]
    assert out["results"]["crosscheck"] is True


def test_derham_names_the_class_after_the_generator(tmp_path, capsys):
    path = tmp_path / "laurent_s.json"
    path.write_text(json.dumps({"kind": "laurent", "generators": ["s"]}))
    reps = {}
    for command in ("derham", "xcomplex"):
        code = run(["--prime", "7", command, "--algebra", str(path)])
        reps[command] = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
    assert reps["derham"]["reps1"] == ["ds/s"]
    assert reps["xcomplex"]["reps"] == ["s^-1 d(s)"]


def test_derham_laurent_truncate_one_is_unstable(laurent_file, capsys):
    # the read at D = 1 cannot see t^-1 dt, of filtration degree 2
    argv = ["--prime", "7", "derham", "--algebra", laurent_file,
            "--truncate", "1"]
    outs = []
    for _ in range(2):
        assert run(argv) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 1
    assert json.loads(outs[0]) == {
        "schema": "ha/1", "kind": "Unstable",
        "error": "dims (1, 0) at D=1 vs (1, 1) at D=6"}


def test_keys_sorted(loop_file, capsys):
    run(["--prime", "5", "graph", loop_file])
    raw = capsys.readouterr().out
    assert raw == json.dumps(json.loads(raw), sort_keys=True,
                             default=str) + "\n"


def test_every_subcommand_documented():
    # doc lint: each subcommand carries a help string naming what it
    # computes
    from hacalc.cli import _build_parser
    parser = _build_parser()
    subactions = [a for a in parser._actions
                  if hasattr(a, "choices") and a.choices]
    helps = {}
    for act in subactions:
        for choice, sub in act.choices.items():
            helps[choice] = act._choices_actions
    names = {c.dest: c.help for c in subactions[0]._choices_actions}
    assert set(names) == {"graph", "xcomplex", "tube", "lift", "idem",
                          "groebner", "derham", "check"}
    assert all(h for h in names.values())


def test_check_all_composition(capsys):
    # every module suite passes under the default orchestration
    code = run(["--prime", "5", "check", "--samples", "60"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"]
    assert set(out["results"]) == {
        "scalars", "floors", "diam", "forms", "xcomplex-boundary",
        "tube-closure", "fedosov-growth", "groebner"}
    assert all(r["passed"] for r in out["results"].values())
