"""Level-m tube membership for even differential forms.

Under the identification of the tensor algebra with even forms via the
Fedosov product, the level-m tube is spanned by p^{-floor(n/m)} (2n)-forms,
and the relative linear-growth generators D_m(M, alpha, f) sharpen the
exponent to floor(min(n/m, alpha n + f)) with the (2n)-form part supported
in Omega^{2n} M.  Support is tested slotwise through growth profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import GrowthProfile
from .ncforms import Form, MixedForm, fedosov_mixed
from .scalars import INF, PrimeConfig, _int_val


class EvenForm(MixedForm):
    """A mixed form supported in even degrees: the part of degree 2n is
    the level-n component, read from ``parts`` directly."""

    def __init__(self, presentation, parts=()):
        super().__init__(presentation, parts)
        for n in self.parts:
            if n % 2:
                raise ValueError("even forms only")


@dataclass(frozen=True)
class TubeParams:
    """Level m, slope alpha in (0, 1/m), offset f, and the support module.

    The level is an ``int`` and the slope a ``Fraction``: a float slope
    would be read as its binary value (0.1 as 3602879701896397 / 2^55),
    and a string is no number.
    """

    m: int
    alpha: Fraction
    f: int
    M_profile: GrowthProfile

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"level must be an int >= 1, got {self.m!r}")
        if not isinstance(self.alpha, Fraction):
            raise ValueError(f"alpha must be a Fraction, got {self.alpha!r}")
        if not (0 < self.alpha < Fraction(1, self.m)):
            raise ValueError("alpha must lie in (0, 1/m)")
        if type(self.f) is not int or self.f < 0:
            raise ValueError(f"f must be a natural number, got {self.f!r}")


def jdegree(x: EvenForm):
    """Least n with a nonzero component in degree 2n; INF for zero."""
    return min(x.parts) // 2 if x.parts else INF


def _min_component_val(form: Form, cfg: PrimeConfig):
    """min val(c) over the coefficients c = n / den of the form: the
    least v_p(n), less v_p(den); ``INF`` for zero."""
    if not form.num:
        return INF
    p = cfg.p
    return (min(_int_val(c, p) for c in form.num.values())
            - _int_val(form.den, p))


def tube_member(x: EvenForm, m: int, cfg: PrimeConfig) -> bool:
    """Membership in the level-m tube: val(coeffs of the 2n-part)
    >= -floor(n/m)."""
    for d, form in x.parts.items():
        if _min_component_val(form, cfg) < -(d // 2 // m):
            return False
    return True


def _slot_requirement(A, profile: GrowthProfile, key) -> float:
    """Summed profile requirement over head and d-slots of a tuple."""
    head = key[0]
    need = 0 if A.is_unit_monomial(head) else profile[A.degree(head)]
    for s in key[1:]:
        need += profile[A.degree(s)]
    return need


def form_in_module(form: Form, profile: GrowthProfile, cfg: PrimeConfig,
                   shift: int = 0) -> bool:
    """Is the form in p^{-shift} Omega^deg(M)?  M given as a profile.

    A tuple with coefficient c = n / den lies in Omega(M) iff val(c) =
    v_p(n) - v_p(den) covers the summed per-slot requirement; the head
    contributes through M^+ (the unit is free).
    """
    A, p = form.presentation, cfg.p
    shift -= _int_val(form.den, p)
    for key, c in form.num.items():
        need = _slot_requirement(A, profile, key)
        if _int_val(c, p) + shift < need:
            return False
    return True


def dm_member(x: EvenForm, P: TubeParams, cfg: PrimeConfig) -> bool:
    """Membership in D_m(M, alpha, f).

    Component 2n must lie in p^{-floor(min(n/m, alpha n + f))}
    Omega^{2n} M.  The floor is monotone and f an integer, so the
    exponent is min(floor(n/m), floor(alpha n) + f), in integers.
    """
    a = P.alpha
    for d, form in x.parts.items():
        n = d // 2
        bound = min(n // P.m, a.numerator * n // a.denominator + P.f)
        if not form_in_module(form, P.M_profile, cfg, shift=bound):
            return False
    return True


def fedosov_even(x: EvenForm, y: EvenForm) -> EvenForm:
    """Fedosov product of even forms; j-degrees add (or better)."""
    return EvenForm(x.presentation, fedosov_mixed(x, y).parts)


@dataclass(frozen=True)
class FloorReport:
    """A :func:`floor_estimates` verdict; a failure carries its triple."""

    ok: bool
    counterexample: tuple | None = None


def _split_minimum(m: int, n: int) -> tuple[int, int]:
    """min over 0 <= j < n of floor(j/m) + floor((n-1-j)/m), with the
    first j attaining it."""
    q, r = divmod(n - 1, m)
    if q and r <= m - 2:
        return q - 1, r + 1
    return q, 0


def _shift_minimum(m: int, a: int, N: int) -> tuple[int, int]:
    """min over a <= b <= N - a of floor((a+b)/m) - floor(b/m), with the
    first b attaining it (needs 2a <= N)."""
    s, t = divmod(a, m)
    if 2 * t < m:
        return s, a
    if a - t + m <= N - a:
        return s, a - t + m
    return s + 1, a


def floor_estimates(N: int) -> FloorReport:
    """Check the degree-shift floor inequalities against their minima.

    For all 1 <= m <= N and 0 <= j < n <= N:
        floor(n/2m) <= floor(j/m) + floor((n-j-1)/m),
    and superadditivity floor(a/m) + floor(b/m) <= floor((a+b)/m) for
    0 <= a <= b <= N - a.  Each right side is minimised in closed form
    by the carry argument (Graham-Knuth-Patashnik, Concrete Mathematics,
    ch. 3): for x = um + c and y = vm + d with 0 <= c, d < m,
    floor((x+y)/m) = u + v + [c + d >= m].

    Split: write n - 1 = qm + r with 0 <= r < m.  For x = j and
    y = n-1-j the carry sum c + d lies in [0, 2m - 2] and is r mod m, so
    it is r or r + m, and the sum of floors is q or q - 1.  The value
    q - 1 needs c + d = r + m <= 2m - 2 and u + v = q - 1 >= 0, i.e.
    r <= m - 2 and q >= 1; then c = r + m - d >= r + 1, and j = r + 1
    (u = 0, d = m - 1) is the first j attaining it.  Otherwise every j
    gives q.

    Shift: write a = sm + t with 0 <= t < m.  Taking x = a, y = b gives
    floor((a+b)/m) - floor(b/m) = s + [t + (b mod m) >= m], which is s
    exactly when b mod m <= m - 1 - t.  The first such b >= a is a
    itself when 2t < m; otherwise the residues from a up to the next
    multiple a - t + m of m are all at least t > m - 1 - t, so it is
    a - t + m if that is at most N - a, and else every b gives s + 1.

    A failure reports the triple the exhaustive scan reports, scanning m,
    then n (or a), then j (or b): (m, n, j) with the first j attaining
    the split minimum, and (m, a, b) with the first failing b.  As the
    gap takes only the values s and s + 1, that b is the first one
    attaining the shift minimum, unless the required value exceeds the
    minimum by two or more: then every b fails, and b = a is first.
    """
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            low, j = _split_minimum(m, n)
            if low < n // (2 * m):
                return FloorReport(False, (m, n, j))
        for a in range(N // 2 + 1):
            low, b = _shift_minimum(m, a, N)
            need = a // m
            if low < need:
                return FloorReport(False, (m, a, b if need == low + 1 else a))
    return FloorReport(True)
