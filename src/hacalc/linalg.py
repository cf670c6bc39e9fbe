"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping integer column ids to nonzero coefficients
(Fractions for ``SparseEchelon``, ints for ``IntEchelon``); the column
order (smaller id eliminated first) is fixed by the caller.
``SparseEchelon`` keeps a reduced row echelon form over Q and yields
canonical coset representatives; ``IntEchelon`` is its fraction-free
counterpart over Z for ranks and span membership.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class SparseEchelon:
    """Incremental reduced row echelon form with a fixed column order.

    Each stored row is monic at its pivot and zero at every other pivot,
    so :meth:`reduce` returns the canonical representative of a vector
    modulo the row space.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict (monic at pivot)

    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return self.rows.keys()

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
        self.rows = {}

    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return self.rows.keys()

    @staticmethod
    def _normalize(vec: dict) -> dict:
        if not vec:
            return vec
        g = 0
        for v in vec.values():
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            vec = {c: v // g for c, v in vec.items()}
        if vec[min(vec)] < 0:
            vec = {c: -v for c, v in vec.items()}
        return vec

    def reduce(self, vec: dict) -> dict:
        """Scaled residual; empty iff vec lies in the row span over Q."""
        vec = {c: int(v) for c, v in vec.items() if v}
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
            a //= g
            b //= g
            if a == 1:
                out = vec
            else:
                out = {c: a * v for c, v in vec.items()}
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

    def clone(self) -> "IntEchelon":
        out = IntEchelon()
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out


def kernel_basis(vectors: list[dict]):
    """Kernel of the linear map e_i -> vectors[i].

    Accepts integer or rational vectors (rationals are cleared first);
    returns coefficient dicts {i: int}, content-normalized, deterministic
    for a fixed input order.
    """
    AUG = 1 << 40  # augmented columns sort after all real columns
    ech = IntEchelon()
    kernel = []
    for i, vec in enumerate(vectors):
        row = _clear_denominators(vec)
        row[AUG + i] = 1
        res = ech.reduce(row)
        if not res or min(res) >= AUG:
            kernel.append({c - AUG: v for c, v in res.items()})
        else:
            ech.rows[min(res)] = res
    return kernel


def _clear_denominators(vec: dict) -> dict:
    lcm = 1
    for v in vec.values():
        f = Fraction(v)
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    return {c: int(Fraction(v) * lcm) for c, v in vec.items()
            if Fraction(v)}


def int_matrix_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    m = [[int(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            if m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank
