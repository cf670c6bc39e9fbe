"""Pinned reports of the de Rham and Kahler windows.

``window_goldens.json`` holds one entry per line:

* ``h_dr(A, PrimeConfig(p), D).as_dict()`` for the polynomial and the
  Laurent ring at p in {5, 7, 11, 13} and every D <= 40, or the error kind
  and text where the read is refused;
* the dims and reps1 of ``kahler_window(A, [R])[R]`` for the presentations
  of ``test_xcomplex_against_dense_oracle`` at every R up to its maximum,
  reps1 printed as the 1-forms h dw of the window's non-pivot columns.

Rewrite the file with ``PYTHONPATH=src python tests/test_window_goldens.py``
only for an announced report change.
"""

import json
from pathlib import Path

from hacalc.algebra import AlgebraPresentation
from hacalc.derham import h_dr
from hacalc.errors import HacalcError
from hacalc.ncforms import Form, kahler_window
from hacalc.scalars import PrimeConfig

GOLDEN_FILE = Path(__file__).with_name("window_goldens.json")

RINGS = {"polynomial": AlgebraPresentation.polynomial(),
         "laurent": AlgebraPresentation.laurent()}
PRIMES = (5, 7, 11, 13)
MAX_D = 40

WINDOWS = {
    "polynomial": (AlgebraPresentation.polynomial(), 6),
    "polynomial2": (AlgebraPresentation.polynomial(["x", "y"]), 4),
    "laurent": (AlgebraPresentation.laurent(), 6),
    "curve": (AlgebraPresentation.plane_curve([0, -1, 0, 1]), 5),
    "curve2": (AlgebraPresentation.plane_curve([1, -1, 0, 1]), 4),
}


def _h_dr_entry(A, p, D):
    try:
        return h_dr(A, PrimeConfig(p), D).as_dict()
    except HacalcError as e:
        return {"error": type(e).__name__, "message": str(e)}


def _window_entry(A, R):
    h0, h1, reps1, _ = kahler_window(A, [R])[R]
    return {"h0": h0, "h1": h1,
            "reps1": [str(Form(A, 1, {t: 1})) for t in reps1]}


def current_entries() -> dict:
    out = {}
    for name, A in RINGS.items():
        for p in PRIMES:
            for D in range(MAX_D + 1):
                out[f"h_dr {name} p={p} D={D}"] = _h_dr_entry(A, p, D)
    for name, (A, D) in WINDOWS.items():
        for R in range(D + 1):
            out[f"kahler_window {name} R={R}"] = _window_entry(A, R)
    return out


def _dump(entries: dict) -> str:
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_window_reports_match_goldens():
    golden = json.loads(GOLDEN_FILE.read_text())
    current = current_entries()
    assert list(current) == list(golden)
    diff = [k for k in golden if current[k] != golden[k]]
    assert not diff, diff[:5]


if __name__ == "__main__":
    GOLDEN_FILE.write_text(_dump(current_entries()))
