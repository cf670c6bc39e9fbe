"""Directed graphs, the incidence-style matrix N_E, and path-algebra
invariants.

For a finite directed graph the matrix N_E has one row per vertex and one
column per regular vertex (a vertex emitting at least one edge), with
entry (v, w) = delta_{v,w} - #{edges from w to v}.  The even/odd
dimensions of the invariants of the Leavitt path algebra over the fraction
field are coker and ker of N_E; the Cohn path algebra contributes one even
dimension per vertex.  The Smith diagonal of N_E, from
``linalg.smith_normal_form``, is reported as auxiliary integral data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import json_list
from .linalg import smith_normal_form


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


def incidence_NE(g: DirectedGraph) -> tuple:
    """The rows of N_E over the vertices, its columns over the regular
    vertices: (v, w) -> delta_{v,w} - #(edges w -> v)."""
    reg = regular_vertices(g)
    count = {}
    for s, r in g.edges:
        count[(r, s)] = count.get((r, s), 0) + 1
    return tuple(
        tuple((1 if v == w else 0) - count.get((v, w), 0) for w in reg)
        for v in g.vertices)


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
    M = incidence_NE(g)
    diag = smith_normal_form(M)
    rank = sum(1 for d in diag if d)
    return HAResult(len(g.vertices) - rank,
                    (len(M[0]) if M else 0) - rank, diag)


def ha_cohn(g: DirectedGraph) -> HAResult:
    """One even dimension per vertex, nothing odd."""
    return HAResult(len(g.vertices), 0, ())
