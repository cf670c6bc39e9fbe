"""Directed graphs, the incidence-style matrix N_E, and path-algebra
invariants.

For a finite directed graph the matrix N_E has one row per vertex and one
column per regular vertex (a vertex emitting at least one edge), with
entry (v, w) = delta_{v,w} - #{edges from w to v}.  The even/odd
dimensions of the invariants of the Leavitt path algebra over the fraction
field are coker and ker of N_E; the Cohn path algebra contributes one even
dimension per vertex.  The integer Smith normal form is reported as
auxiliary integral data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import json_list


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph; parallel edges and loops are allowed."""

    vertices: tuple
    edges: tuple  # (source, range) pairs

    def __post_init__(self):
        names = set(self.vertices)
        if len(names) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        for s, r in self.edges:
            if s not in names or r not in names:
                raise ValueError(f"edge ({s}, {r}) uses undeclared vertex")

    @classmethod
    def from_json(cls, data: dict) -> "DirectedGraph":
        """Vertices are a list of names, edges a list of {"s", "r"}."""
        edges = []
        for e in json_list(data["edges"], dict, "edges"):
            for key in ("s", "r"):
                if key not in e:
                    raise ValueError(
                        f"edge {json.dumps(e)} is missing key {key!r}")
                if type(e[key]) is not str:
                    raise ValueError(
                        f"edge {json.dumps(e)} needs a vertex name at {key!r}")
            edges.append((e["s"], e["r"]))
        return cls(tuple(json_list(data["vertices"], str, "vertices")),
                   tuple(edges))

    @classmethod
    def loop(cls, loops: int = 1) -> "DirectedGraph":
        return cls(("v",), (("v", "v"),) * loops)


def regular_vertices(g: DirectedGraph) -> tuple:
    """Vertices emitting at least one edge, in declaration order."""
    sources = {s for s, _ in g.edges}
    return tuple(v for v in g.vertices if v in sources)


@dataclass(frozen=True)
class IncidenceNE:
    matrix: tuple  # rows over vertices, columns over regular vertices
    row_vertices: tuple
    col_vertices: tuple


def incidence_NE(g: DirectedGraph) -> IncidenceNE:
    """(v, w) -> delta_{v,w} - #(edges w -> v)."""
    reg = regular_vertices(g)
    count = {}
    for s, r in g.edges:
        count[(r, s)] = count.get((r, s), 0) + 1
    rows = tuple(
        tuple((1 if v == w else 0) - count.get((v, w), 0) for w in reg)
        for v in g.vertices)
    return IncidenceNE(rows, tuple(g.vertices), reg)


def _smallest_entry(D, k):
    """(i, j) of the first entry of least nonzero size in the block
    i, j >= k, in row-major order; None if the block is zero."""
    best = None
    for i in range(k, len(D)):
        for j, x in enumerate(D[i][k:], k):
            if x and (best is None or abs(x) < best[0]):
                if abs(x) == 1:
                    return i, j
                best = (abs(x), i, j)
    return None if best is None else best[1:]


def smith_normal_form(M) -> tuple:
    """U, D, W with U M W = D, U and W unimodular, d1 | d2 | ... >= 0.

    Matrices are lists of integer rows.  Deterministic: the pivot is the
    entry of smallest absolute value in the remaining block, ties broken
    by position.  Rows and columns before k are zero off the diagonal
    once step k starts, so the updates of D skip them.
    """
    D = [list(row) for row in M]
    m = len(D)
    n = len(D[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    W = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(min(m, n)):
        while True:
            pos = _smallest_entry(D, k)
            if pos is None:
                # the remaining block is zero, and so is every later one
                return U, D, W
            bi, bj = pos
            if bi != k:
                D[k], D[bi] = D[bi], D[k]
                U[k], U[bi] = U[bi], U[k]
            if bj != k:
                for row in D[k:]:
                    row[k], row[bj] = row[bj], row[k]
                for row in W:
                    row[k], row[bj] = row[bj], row[k]
            Dk, Uk = D[k], U[k]
            pivot = Dk[k]
            done = True
            for i in range(k + 1, m):
                Di = D[i]
                if Di[k]:
                    q = Di[k] // pivot
                    Di[k:] = [a - q * b for a, b in zip(Di[k:], Dk[k:])]
                    U[i] = [a - q * b for a, b in zip(U[i], Uk)]
                    if Di[k]:
                        done = False
            for j in range(k + 1, n):
                if Dk[j]:
                    q = Dk[j] // pivot
                    for row in D[k:]:
                        row[j] -= q * row[k]
                    for row in W:
                        row[j] -= q * row[k]
                    if Dk[j]:
                        done = False
            if done:
                # enforce divisibility of the remaining block
                bad = None
                if abs(pivot) != 1:
                    bad = next((i for i in range(k + 1, m)
                                if any(x % pivot for x in D[i][k + 1:])),
                               None)
                if bad is None:
                    break
                D[k] = [a + b for a, b in zip(Dk, D[bad])]
                U[k] = [a + b for a, b in zip(Uk, U[bad])]
        if D[k][k] < 0:
            D[k] = [-a for a in D[k]]
            U[k] = [-a for a in U[k]]
    return U, D, W


def snf_diagonal(M) -> tuple:
    _, D, _ = smith_normal_form(M)
    return tuple(row[i] for i, row in enumerate(D) if i < len(row))


@dataclass(frozen=True)
class HAResult:
    """F-dimensions in even/odd degree plus the integer elementary
    divisors."""

    dim_ha0: int
    dim_ha1: int
    snf_invariants: tuple = field(default=())

    def as_dict(self):
        return {"ha0": self.dim_ha0, "ha1": self.dim_ha1,
                "snf": list(self.snf_invariants)}


def ha_leavitt(g: DirectedGraph) -> HAResult:
    """Even/odd dimensions coker(N_E), ker(N_E) over the fraction field."""
    ne = incidence_NE(g)
    diag = snf_diagonal(ne.matrix)
    rank = sum(1 for d in diag if d)
    return HAResult(len(g.vertices) - rank,
                    len(ne.col_vertices) - rank, diag)


def ha_cohn(g: DirectedGraph) -> HAResult:
    """One even dimension per vertex, nothing odd."""
    return HAResult(len(g.vertices), 0, ())
