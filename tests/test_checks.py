"""Each property suite reports a broken law as a failure.

One library call that a suite reads through ``hacalc.checks`` is
replaced by a wrong one; the suite must return ``passed`` False with a
``detail`` naming the check that failed.
"""

from fractions import Fraction

import pytest

from hacalc import checks
from hacalc.ncforms import Form
from hacalc.scalars import PrimeConfig
from hacalc.tube import EvenForm

CFG = PrimeConfig(5)


def _off_by_one_val(s, cfg, real=checks.val):
    return real(s, cfg) + 1


def _non_member_product(x, y):
    """p^-1 in degree 0: outside the tube at every level."""
    A = x.presentation
    return EvenForm(A, {0: Form(A, 0, {(A.one(),): Fraction(1, CFG.p)})})


def _negated_oracle(g, gens, shift=None, real=checks.membership_oracle):
    return not real(g, gens, shift)


CASES = {
    "scalars": ("val", _off_by_one_val,
                lambda: checks.suite_scalars(CFG, 20, 0), "mult: "),
    "forms": ("differential", lambda f: f,
              lambda: checks.suite_forms(4, 0), "d^2: "),
    "tube-closure": ("fedosov_even", _non_member_product,
                     lambda: checks.suite_tube_closure(CFG, 20, 0),
                     "closure fails: "),
    "fedosov-growth": ("form_in_module", lambda *args: False,
                       lambda: checks.suite_fedosov_growth(CFG, 2, 0),
                       "support outside M^(3)"),
    "groebner": ("membership_oracle", _negated_oracle,
                 lambda: checks.suite_groebner(4, 0), "oracle disagrees"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_suite_reports_a_broken_law(name, monkeypatch):
    attr, wrong, suite, detail = CASES[name]
    assert suite().passed
    monkeypatch.setattr(checks, attr, wrong)
    res = suite()
    assert res.name == name
    assert res.passed is False and res.checks >= 1
    assert detail in res.detail, res.detail


def test_suite_groebner_computes_each_filtration_shift_once(monkeypatch):
    """suite_groebner passes each corpus ideal's shift l to the oracle,
    which then computes none itself: at most one filtration_shift call
    per ideal, wherever it is looked up."""
    from hacalc import groebner
    calls = []

    def counted(gens, real=groebner.filtration_shift):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(groebner, "filtration_shift", counted)
    monkeypatch.setattr(checks, "filtration_shift", counted)
    assert checks.suite_groebner(40, 0).passed
    assert 0 < len(calls) <= len(checks.groebner_corpus())
