"""Run each README command through ``hacalc.cli.run`` and check it.

Every command is run twice in this process: both runs must exit 0 and
print byte-identical reports, and the report must show the values the
README documents.  Prints one JSON line ``{"attempted", "failed",
"problems"}`` and exits 0 whatever the verdict; ``run.py`` runs this
script in a child process (outside any timing) and keeps the verdict.

    python3 perfbench/readme_check.py      # from the checkout root
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAYLOADS = Path(".bench_build") / "perfbench" / "readme"

FILES = {
    "loop.json": {"vertices": ["v"], "edges": [{"s": "v", "r": "v"}]},
    "laurent.json": {"kind": "laurent", "generators": ["t"]},
    "curve.json": {"kind": "plane_curve", "f_coeffs": [0, -1, 0, 1]},
    "ideal.json": {"vars": ["x", "y"],
                   "gens": [[{"e": [1, 0], "c": 2}],
                            [{"e": [0, 1], "c": 3}]]},
    "poly.json": {"kind": "polynomial", "generators": ["t"]},
    "idem.json": {"matrix": [[1, 1], [0, 5]]},
}

ALL_SUITES = {"scalars", "floors", "diam", "forms", "xcomplex-boundary",
              "tube-closure", "fedosov-growth", "groebner"}


def _dims(h0, h1, stable=True):
    def check(r):
        return (r["h0"], r["h1"], r["stable"]) == (h0, h1, stable)
    return check


def _idempotent_lift(r):
    e, p, n = [[1, 1], [0, 5]], 5, 6
    lifted, q = r["lift"], p ** n
    square = [[sum(lifted[i][k] * lifted[k][j] for k in range(2)) % q
               for j in range(2)] for i in range(2)]
    return square == lifted and all(
        (lifted[i][j] - e[i][j]) % p == 0 for i in range(2) for j in range(2))


# (argv, check on the "results" of the report); "@name" is a payload file
COMMANDS = [
    (["graph", "@loop.json", "--prime", "5"],
     lambda r: (r["ha0"], r["ha1"]) == (1, 1)),
    (["derham", "--algebra", "@laurent.json", "--truncate", "20",
      "--prime", "7"],
     lambda r: _dims(1, 1)(r) and r["crosscheck"] is True),
    (["xcomplex", "--algebra", "@curve.json", "--truncate", "14",
      "--prime", "7"], _dims(1, 2)),
    (["groebner", "@ideal.json", "--witness", "500", "--prime", "5"],
     lambda r: r["witness"] == {"samples": 500, "max_shift": 0,
                                "failures": 0}),
    (["lift", "--algebra", "@poly.json", "--order", "3", "--cap", "6",
      "--prime", "5"],
     lambda r: r["ok"] is True and r["max_bad_degree"] is None),
    (["idem", "--matrix", "@idem.json", "--precision", "6",
      "--prime", "5"], _idempotent_lift),
    (["check", "--prime", "5", "--samples", "200"],
     lambda r: set(r) == ALL_SUITES and all(s["passed"] for s in
                                            r.values())),
    (["tube", "--check", "floors", "--prime", "5"],
     lambda r: r["passed"] is True),
]


def _run(cli_run, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(argv)
    return code, out.getvalue()


def check_all(cli_run) -> dict:
    (ROOT / PAYLOADS).mkdir(parents=True, exist_ok=True)
    for name, payload in FILES.items():
        (ROOT / PAYLOADS / name).write_text(json.dumps(payload))
    problems = []
    for template, check in COMMANDS:
        argv = [str(PAYLOADS / a[1:]) if a.startswith("@") else a
                for a in template]
        cmd = "ha " + " ".join(template)
        try:
            code, first = _run(cli_run, argv)
            code2, second = _run(cli_run, argv)
            report = json.loads(first)
            if code != 0 or code2 != 0:
                problems.append(f"{cmd}: exit codes {code}, {code2}")
            elif first != second:
                problems.append(f"{cmd}: rerun is not byte-identical")
            elif not report.get("passed") or not check(report["results"]):
                problems.append(f"{cmd}: not the documented values")
        except Exception as exc:  # a crash is a failed command
            problems.append(f"{cmd}: {type(exc).__name__}: {exc}")
    return {"attempted": len(COMMANDS), "failed": len(problems),
            "problems": problems}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from hacalc.cli import run
    print(json.dumps(check_all(run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
