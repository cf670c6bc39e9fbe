"""Sparse exact linear algebra over the rationals and the integers.

Vectors are dicts mapping integer column ids to nonzero coefficients;
the column order (smaller id eliminated first) is fixed by the caller.
``IntEchelon`` is the one elimination over Q: every rank
(``int_matrix_rank``), kernel (``kernel_basis``) and residual over Q
comes from it.  It is fraction-free and trusted: it takes int vectors and
checks no entry.  The entry points check instead: ``int_matrix_rank``
raises ValueError and ``kernel_basis`` TypeError on a non-int entry.
``kernel_basis`` reduces each vector once, carrying an identity column, in
an echelon the caller may seed with rows: the kernel is taken modulo them.
``ZLattice`` decides exact membership over Z: an echelon basis of the
Z-span, kept with extended-gcd pivoting, positive pivot entries and each
stored row Hermite-reduced at the pivot columns below its own.  It takes
no key function: its columns may be any comparable ids, and a row's pivot
is its largest column (the Groebner climb keys its columns by deglex keys
(deg, e), so each row leads with the head of an ideal member).
``SparseEchelon`` keeps a reduced row echelon form over Q with canonical
coset representatives; it is the only one that divides, the library no
longer eliminates with it, and the tests use it as the rational
reference (the raw commutator window, the Z-lattice oracle).
``smith_normal_form`` is the one Smith kernel: the elementary divisors
of a dense integer matrix, with no transforms.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .algebra import int_entries

AUG = 1 << 40  # kernel_basis's identity columns start here


class SparseEchelon:
    """Incremental reduced row echelon form with a fixed column order.

    Each stored row is monic at its pivot and zero at every other pivot,
    so :meth:`reduce` returns the canonical representative of a vector
    modulo the row space.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict (monic at pivot)

    def add(self, vec: dict):
        """Insert a vector; returns its new pivot column or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        inv = 1 / vec[p]
        row = {c: v * inv for c, v in vec.items()}
        for other in self.rows.values():
            c = other.get(p)
            if c:
                for col, rc in row.items():
                    v = other.get(col, 0) - c * rc
                    if v:
                        other[col] = v
                    else:
                        other.pop(col, None)
        self.rows[p] = row
        return p

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of ``vec``: zero at every pivot column."""
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        heap = [c for c in vec if c in self.rows]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            col = heapq.heappop(heap)
            c = vec.get(col)
            if not c:
                continue
            for rc_col, rc in self.rows[col].items():
                v = vec.get(rc_col, 0) - c * rc
                if v:
                    vec[rc_col] = v
                    if rc_col not in seen and rc_col in self.rows:
                        seen.add(rc_col)
                        heapq.heappush(heap, rc_col)
                else:
                    vec.pop(rc_col, None)
        return vec

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


class IntEchelon:
    """Fraction-free row echelon over Z: fast rank and span membership.

    Rows are gcd-normalized integer vectors with positive pivot entry;
    eliminations rescale the incoming vector, which preserves the row
    space over Q (and so ranks, pivots, and zero-residual tests) without
    any rational arithmetic.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    @staticmethod
    def _normalize(vec: dict) -> dict:
        if not vec:
            return vec
        g = math.gcd(*vec.values())
        if g > 1:
            vec = {c: v // g for c, v in vec.items()}
        if vec[min(vec)] < 0:
            vec = {c: -v for c, v in vec.items()}
        return vec

    def reduce(self, vec: dict) -> dict:
        """Scaled residual; empty iff vec lies in the row span over Q."""
        vec = {c: v for c, v in vec.items() if v}
        rows = self.rows
        gcd = math.gcd
        steps = 0
        while vec:
            p = min(vec)
            row = rows.get(p)
            if row is None:
                return self._normalize(vec)
            a, b = row[p], vec[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            out = vec if a == 1 else {c: a * v for c, v in vec.items()}
            get = out.get
            for c, v in row.items():
                w = get(c, 0) - b * v
                if w:
                    out[c] = w
                else:
                    out.pop(c, None)
            vec = out
            steps += 1
            if steps % 8 == 0:
                vec = self._normalize(vec)
        return vec

    def add(self, vec: dict):
        """Insert a vector; returns its pivot column or None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        self.rows[p] = vec
        return p

    def residuals(self, vectors) -> list:
        """Each vector's residual modulo the rows and the vectors before
        it, columns >= AUG dropped; the rows are left as they are."""
        ech = IntEchelon()
        ech.rows = dict(self.rows)
        out = []
        for vec in vectors:
            out.append({c: v for c, v in ech.reduce(vec).items() if c < AUG})
            ech.add(out[-1])
        return out


def bezout(a: int, b: int) -> tuple:
    """(s, t) with s*a + t*b = gcd(a, b) >= 0, by extended Euclid."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _combine(a: int, u: dict, b: int, w: dict) -> dict:
    """a*u + b*w for sparse int vectors, zeros dropped."""
    out = {c: a * x for c, x in u.items()}
    for c, x in w.items():
        out[c] = out.get(c, 0) + b * x
    return {c: x for c, x in out.items() if x}


def _subtract(vec: dict, q: int, row: dict) -> None:
    """vec -= q * row in place, zeros dropped; q and the entries of row
    are nonzero, so a zero sum has a key in vec."""
    get = vec.get
    for c, x in row.items():
        w = get(c, 0) - q * x
        if w:
            vec[c] = w
        else:
            del vec[c]


class ZLattice:
    """Incremental echelon basis of a Z-lattice: exact membership over Z.

    Vectors are sparse int dicts over comparable columns; a row's pivot
    is its largest column, each pivot has one row, and every pivot entry
    is positive.  When an incoming entry is not a multiple of the pivot
    entry, the row becomes the Bezout combination (pivot entry gcd) and
    the unimodular complement, zero at that pivot, carries on; the rows
    therefore always span exactly the lattice of the added vectors, and
    the pivot entry at p generates the leading coefficients of the
    lattice's members led by column p.

    A row is stored reduced in the manner of the Hermite normal form
    (Cohen, GTM 138, section 2.4.2): from its top column down, its entry
    at each other pivot column c is brought into [0, pivot entry at c) by
    subtracting a multiple of that row.  Only the stored row is reduced,
    never the rows above it; that keeps a Groebner climb's entries to a
    few hundred bits, where unreduced rows grew past 10^5 bits.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    def add(self, vec: dict):
        """Add ``vec``, a zero-free dict that the lattice takes over: the
        caller hands it a fresh dict and does not use it again, since it
        may become a row."""
        rows = self.rows
        while vec:
            p = max(vec)
            row = rows.get(p)
            if row is None:
                if vec[p] < 0:
                    vec = {c: -x for c, x in vec.items()}
                row, vec = vec, None
            else:
                a, b = row[p], vec[p]
                if b % a == 0:
                    _subtract(vec, b // a, row)
                    continue
                s, t = bezout(a, b)
                g = s * a + t * b
                row, vec = (_combine(s, row, t, vec),
                            _combine(a // g, vec, -(b // g), row))
            # subtracting the row at c changes only the columns below c
            c = p
            while len(row) > 1:
                c = max((k for k in row if k < c and k in rows),
                        default=None)
                if c is None:
                    break
                q = row[c] // rows[c][c]
                if q:
                    _subtract(row, q, rows[c])
            rows[p] = row

    def contains(self, vec: dict) -> bool:
        """True iff vec is an integer combination of the added vectors."""
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            p = max(vec)
            row = self.rows.get(p)
            if row is None or vec[p] % row[p]:
                return False
            _subtract(vec, vec[p] // row[p], row)
        return True


def smith_normal_form(M) -> tuple:
    """The Smith diagonal d1 | d2 | ... >= 0 of a list of integer rows.

    The result has min(m, n) entries, the zeros last.  Each step pivots on
    an entry of least absolute value (the first in row-major order) and
    Euclid-reduces its column by row operations and its row by column
    operations.  A nonzero remainder is a smaller pivot for the next step;
    once the pivot's row and column are zero, the pivot is split off with
    them.  The pivots are the diagonal of an equivalent matrix, and one
    pairwise (gcd, lcm) pass turns them into the divisibility chain.
    """
    D = [list(row) for row in M]
    size = min(len(D), len(D[0])) if D else 0
    pivots = []
    while True:
        best = min(((abs(x), i, j) for i, row in enumerate(D)
                    for j, x in enumerate(row) if x), default=None)
        if best is None:
            break
        _, pi, pj = best
        prow = D[pi]
        p = prow[pj]
        done = True
        for i, row in enumerate(D):
            if i != pi and row[pj]:
                q = row[pj] // p
                D[i] = row = [a - q * b for a, b in zip(row, prow)]
                done = done and not row[pj]
        for j, x in enumerate(prow):
            if j != pj and x:
                q = x // p
                for row in D:
                    row[j] -= q * row[pj]
                done = done and not prow[j]
        if done:
            pivots.append(abs(p))
            D = [row[:pj] + row[pj + 1:] for i, row in enumerate(D)
                 if i != pi]
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            a, b = pivots[i], pivots[j]
            pivots[i], pivots[j] = math.gcd(a, b), math.lcm(a, b)
    return tuple(pivots) + (0,) * (size - len(pivots))


def kernel_basis(vectors: list[dict], ech: IntEchelon | None = None):
    """Kernel of the linear map e_i -> vectors[i] modulo the rows of ``ech``.

    Vector i gets the identity column AUG + i (every other column lies
    below AUG) and is reduced once in ``ech``, fresh by default: a residual
    with identity columns alone is a kernel vector, any other becomes a
    row, so ``ech`` then spans the seeded rows and the vectors.
    Takes int vectors, as ``IntEchelon`` does, and raises TypeError on any
    other entry (a bool, Fraction or float); returns coefficient dicts
    {i: int}, content-normalized, deterministic for a fixed input order.
    The vector found at step i has its largest index at i, so
    ``kernel_basis(vectors[:n])`` is the result's vectors whose indices
    are all below n.
    """
    ech = IntEchelon() if ech is None else ech
    kernel = []
    for i, vec in enumerate(vectors):
        for v in vec.values():
            if type(v) is not int:
                raise TypeError(f"kernel_basis takes int entries, got {v!r}")
        res = ech.reduce({**vec, AUG + i: 1})
        if min(res) >= AUG:
            kernel.append({c - AUG: v for c, v in res.items()})
        else:
            ech.rows[min(res)] = res
    return kernel


def int_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over Q of the span of ``rows``, by ``IntEchelon``; the entries
    must be ints (a bool, Fraction or float raises ValueError)."""
    ech = IntEchelon()
    for row in rows:
        ech.add(dict(enumerate(int_entries(row, "matrix entries"))))
    return len(ech.rows)
