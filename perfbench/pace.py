"""The machine's current speed, from a fixed pure-Python computation.

The hosts this benchmark runs on are shared, and their speed changes
from one second to the next and in spells of minutes: one fixed X-complex
call can take 0.9 s in one process and 1.6 s in the next.  Every figure
also depends on that speed, so the benchmark runs :func:`reference`
between the queries of a pass, and :meth:`Pace.scale` turns a measured
time into the time it would have taken at the reference speed: measured
seconds times ``REFERENCE_S`` over the mean reference time around it.

The reference uses no hacalc code, so a change to the library moves the
scaled times exactly as it moves the measured ones.  It mixes the work
the library does: sparse integer rows with gcd clearing (``linalg``),
products of monomials keyed by tuples with ``Fraction`` coefficients
(``ncforms``, ``algebra``) and dense integer row operations (``graphs``,
``groebner``).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

# The unit of every scaled time: about what the reference takes on a
# shared 2-vCPU Xeon (Sapphire Rapids, KVM, 2.1 GHz) with Python 3.11.7,
# where it reads 26 to 36 ms from one quarter of an hour to the next.
REFERENCE_S = 0.040
# A pass runs the reference after a query once this long has gone by since
# the last one, so that the reference costs about a sixth of a pass.
INTERVAL_S = 0.2

_RNG = random.Random(20191219)
_SPARSE = [{_RNG.randrange(110): _RNG.randint(-9, 9) for _ in range(5)}
           for _ in range(90)]
_MONOMIALS = [((i % 7, (i // 7) % 5, i % 3), (i % 4, i % 6, (i // 3) % 4),
               Fraction(i % 11 - 5, 1 + i % 4)) for i in range(2000)]
_DENSE = [[_RNG.randint(-20, 20) for _ in range(28)] for _ in range(28)]
# What reference() returns; a run that sees anything else stops.
EXPECTED = (90, 1536, 318, Fraction(1024681, 144),
            11738663391837423851439171862269416152693480)


def reference():
    """The fixed computation; returns ``EXPECTED``."""
    rows = {}
    for vec in _SPARSE:
        v = {c: x for c, x in vec.items() if x}
        while v:
            p = min(v)
            r = rows.get(p)
            if r is None:
                g = 0
                for x in v.values():
                    g = math.gcd(g, x)
                rows[p] = {c: x // g for c, x in v.items()}
                break
            a, b = r[p], v[p]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            v = {c: a * v.get(c, 0) - b * r.get(c, 0) for c in v.keys() | r}
            v = {c: x for c, x in v.items() if x}
    acc = {}
    for m, n, c in _MONOMIALS:
        k = tuple(x + y for x, y in zip(m, n))
        acc[k] = acc.get(k, 0) + c * c
    det = 0
    for _ in range(4):  # fraction-free (Bareiss) elimination
        a = [row[:] for row in _DENSE]
        prev = 1
        for i in range(len(a)):
            piv = next((j for j in range(i, len(a)) if a[j][i]), None)
            if piv is None:
                break
            a[i], a[piv] = a[piv], a[i]
            g = a[i][i]
            for j in range(i + 1, len(a)):
                f = a[j][i]
                a[j] = [(g * x - f * y) // prev for x, y in zip(a[j], a[i])]
            prev = g
        det = a[-1][-1]
    return (len(rows), sum(len(r) for r in rows.values()), len(acc),
            sum(acc.values()), det)


class Pace:
    """Reference times taken during a run, and the scaling they give."""

    def __init__(self):
        self.samples = []  # seconds each reference computation took
        self._last = 0.0

    def tick(self, force=False):
        """Run the reference if ``INTERVAL_S`` has gone by, or if forced."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL_S:
            return
        out = reference()
        end = time.perf_counter()
        if out != EXPECTED:
            raise RuntimeError(f"reference computation gave {out}")
        self.samples.append(end - start)
        self._last = end

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, seconds, first, last) -> float:
        """``seconds`` at the reference speed, from samples[first:last]."""
        taken = self.samples[first:last]
        return seconds * REFERENCE_S / (sum(taken) / len(taken))
