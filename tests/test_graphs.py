import random
from fractions import Fraction

import pytest

from hacalc.graphs import (DirectedGraph, HAResult, ha_cohn, ha_leavitt,
                           incidence_NE, regular_vertices)
from hacalc.linalg import int_matrix_rank, smith_normal_form


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def smith_with_transforms(M) -> tuple:
    """U, D, W with U M W = D, U and W unimodular, d1 | d2 | ... >= 0:
    the transform-tracking oracle for the library's Smith diagonal.

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


def oracle_diagonal(M) -> tuple:
    """The diagonal of the oracle's D: min(m, n) entries."""
    _, D, _ = smith_with_transforms(M)
    return tuple(row[i] for i, row in enumerate(D) if i < len(row))


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def test_regular_vertices_examples():
    assert regular_vertices(DirectedGraph.loop()) == ("v",)
    line = DirectedGraph(("v", "w"), (("v", "w"),))
    assert regular_vertices(line) == ("v",)
    assert regular_vertices(DirectedGraph(("v",), ())) == ()


def test_incidence_examples():
    assert incidence_NE(DirectedGraph.loop()) == ((0,),)
    for n in range(2, 7):
        assert incidence_NE(DirectedGraph.loop(n)) == ((1 - n,),)
    line = DirectedGraph(("v", "w"), (("v", "w"),))
    assert incidence_NE(line) == ((1,), (-1,))


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(("v", "v"), ())
    with pytest.raises(ValueError):
        DirectedGraph(("v",), (("v", "u"),))


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0]]) == (0,)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert smith_normal_form([[4, 0], [0, 6]]) == (2, 12)
    assert smith_normal_form([[0, 0], [0, 5]]) == (5, 0)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12],
                              [10, -4, -16]]) == (2, 6, 12)
    assert smith_normal_form([[], []]) == ()
    assert smith_normal_form([]) == ()


def test_snf_random_properties():
    rng = random.Random(0)
    for trial in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        U, D, W = smith_with_transforms(M)
        # naive oracle: the factorization identity, unimodularity, chain
        assert matmul(matmul(U, M), W) == D
        assert abs(bareiss_det(U)) == 1
        assert abs(bareiss_det(W)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # rank over Q agrees with fraction-free elimination
        assert sum(1 for d in diag if d) == int_matrix_rank(M)
        # the library's kernel reads the same diagonal
        assert smith_normal_form(M) == tuple(diag)


def test_snf_kernel_matches_the_oracle():
    """The transform-free kernel gives the oracle's diagonal on seeded
    matrices of every shape up to 7 x 7, empty and sparse ones included,
    and on the N_E of random graphs."""
    rng = random.Random(5)
    for _ in range(2000):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        M = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-99, 99)))
              for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(M) == oracle_diagonal(M), M
    for _ in range(300):
        M = incidence_NE(_random_graph(rng, 9))
        assert smith_normal_form(M) == oracle_diagonal(M), M


def test_ha_leavitt_examples():
    assert ha_leavitt(DirectedGraph.loop()) == HAResult(1, 1, (0,))
    assert ha_leavitt(DirectedGraph(("v",), ())) == HAResult(1, 0, ())
    for n in range(2, 7):
        res = ha_leavitt(DirectedGraph.loop(n))
        assert (res.dim_ha0, res.dim_ha1) == (0, 0)


def test_ha_line_graph_matches_ground_ring():
    # the two-vertex line graph gives a matrix algebra over V, so the
    # dimensions agree with the edgeless single vertex
    line = DirectedGraph(("v", "w"), (("v", "w"),))
    res = ha_leavitt(line)
    assert (res.dim_ha0, res.dim_ha1) == (1, 0)


def test_ha_cohn_examples():
    assert ha_cohn(DirectedGraph.loop()).dim_ha0 == 1
    iso3 = DirectedGraph(("a", "b", "c"), ())
    assert (ha_cohn(iso3).dim_ha0, ha_cohn(iso3).dim_ha1) == (3, 0)
    line = DirectedGraph(("v", "w"), (("v", "w"),))
    assert (ha_cohn(line).dim_ha0, ha_cohn(line).dim_ha1) == (2, 0)


def _random_graph(rng, max_v=8):
    nv = rng.randint(1, max_v)
    vs = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(0, 2 * nv)
    es = tuple((rng.choice(vs), rng.choice(vs)) for _ in range(ne))
    return DirectedGraph(vs, es)


def test_euler_characteristic_random():
    rng = random.Random(4)
    for _ in range(200):
        g = _random_graph(rng)
        res = ha_leavitt(g)
        assert res.dim_ha0 - res.dim_ha1 == \
            len(g.vertices) - len(regular_vertices(g))


def test_from_json():
    g = DirectedGraph.from_json(
        {"vertices": ["v", "w"], "edges": [{"s": "v", "r": "w"}]})
    assert g.edges == (("v", "w"),)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, True],
                         ids=["fraction", "integral-fraction", "float",
                              "bool"])
def test_int_matrix_rank_refuses_non_integers(bad):
    assert int_matrix_rank([[1, 1], [1, 2]]) == 2
    assert int_matrix_rank([[1, 2], [2, 4]]) == 1
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        int_matrix_rank([[bad, 1], [1, 2]])
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        int_matrix_rank([[1, 2], [2, bad]])
