import gc
import hashlib
import heapq
import itertools
import json
import math
import random
import sys
import time
import weakref
from fractions import Fraction
from operator import add, le, sub

import pytest

from hacalc import groebner
from hacalc.algebra import chooser, exponent_vectors
from hacalc.checks import groebner_corpus
from hacalc.errors import DomainError
from hacalc.groebner import (MAX_DEGREE, DivisionCertificate, IntPoly,
                             StrongGB, WitnessReport, _critical_pair,
                             _deglex_key, _division_row, _keys, _random_poly,
                             _strong_reduce, filtered_noetherian_witness,
                             membership_oracle, strong_divide, strong_gb)
from hacalc.linalg import SparseEchelon, ZLattice, bezout
from test_graphs import smith_with_transforms


def P(terms):
    return IntPoly(2, terms)


def _leading(p):
    """(exponent, coefficient) of the deglex-largest term."""
    e = max(p.terms, key=_deglex_key)
    return e, p.terms[e]


def _pack(e) -> int:
    """The key of the exponent vector e by the layout the module states:
    the total degree, then e_0, e_1, ..., each in a field of 64 bits."""
    key = sum(e)
    for x in e:
        key = key << 64 | x
    return key


def _unpack(key, nvars) -> tuple:
    """The exponent vector of a key in nvars variables."""
    return tuple(key >> 64 * (nvars - 1 - i) & (1 << 64) - 1
                 for i in range(nvars))


def _guard(nvars) -> int:
    """The top bit of each of the nvars + 1 fields."""
    return sum(1 << 64 * j + 63 for j in range(nvars + 1))


def _units(nvars) -> tuple:
    """The keys of x_0, ..., x_{nvars - 1}."""
    return tuple(_pack(tuple(int(i == j) for j in range(nvars)))
                 for i in range(nvars))


def _keyed(p):
    """A polynomial as a fresh working dict {key: c}."""
    return {_pack(e): c for e, c in p.terms.items()}


def _unkeyed(terms, nvars):
    """A keyed dict {key: c} as {e: c}."""
    return {_unpack(k, nvars): c for k, c in terms.items()}


def _rows(table, nvars) -> list:
    """A division table with each term (key, c) read back as (deg, e, c),
    the rows of the heads oracle."""
    def term(k, c):
        return (k >> 64 * nvars, _unpack(k, nvars), c)

    return [(term(*head), tuple(term(*t) for t in tail))
            for head, tail in table]


#: ``_random_poly`` draws a term's degree from STEPS[b] = (0, ..., b).
STEPS = [tuple(range(b + 1)) for b in range(8)]


def _sample(steps, nvars, rng):
    """A ``_random_poly`` draw from ``rng`` as an ``IntPoly``."""
    return IntPoly(nvars, _unkeyed(_random_poly(steps, _units(nvars),
                                                chooser(rng)), nvars))


def _exponents_up_to(nvars, bound):
    """Exponent tuples of length nvars with sum <= bound, in lex order,
    by brute force: the test oracles do not share the library's
    enumerator."""
    return sorted(e for e in itertools.product(range(bound + 1),
                                               repeat=nvars)
                  if sum(e) <= bound)


@pytest.mark.parametrize("nvars", range(5))
def test_exponent_vectors_have_exact_degree_in_lex_order(nvars):
    """So do the climb's monomial keys, the same vectors packed."""
    for degree in range(-2, 7):
        want = [e for e in _exponents_up_to(nvars, degree)
                if sum(e) == degree]
        assert exponent_vectors(nvars, degree) == want
        assert _keys(nvars).monomials(degree) == list(map(_pack, want))


def test_deglex_examples():
    assert _deglex_key((2, 0)) > _deglex_key((1, 1))  # x^2 > xy
    assert _deglex_key((1, 0)) < _deglex_key((0, 2))  # x < y^2 by degree
    assert _deglex_key((1, 2)) == _deglex_key((1, 2))


def _key_vectors(rng, nvars) -> list:
    """Seeded exponent vectors in nvars variables: small ones with zero
    entries, ones of any degree below MAX_DEGREE and ones just below it,
    each followed by a vector that divides it, so that both divisibility
    verdicts occur."""
    vectors = []
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            e = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(nvars))
        else:
            total = (MAX_DEGREE - 1 - rng.randrange(4) if kind == 1
                     else rng.randrange(MAX_DEGREE))
            cuts = sorted(rng.randrange(total + 1) for _ in range(nvars - 1))
            e = tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
        vectors += [e, tuple(rng.randint(0, x) if rng.random() < 0.5 else x
                             for x in e)]
    return vectors


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_keys_order_multiply_and_divide_as_exponent_vectors(nvars):
    """On seeded vectors with zero entries and degrees near the limit, the
    library's keys are the stated layout and read back; key order is
    deglex order, the key of a product is the sum of the keys, the
    guard-bit test is componentwise <=, and the lcm is the fieldwise
    maximum."""
    keys = _keys(nvars)
    assert (keys.guard, keys.units) == (_guard(nvars), _units(nvars))
    vectors = _key_vectors(random.Random(40 + nvars), nvars)
    key = {e: _pack(e) for e in vectors}
    assert keys.keyed(dict.fromkeys(vectors, 1)) == dict.fromkeys(
        key.values(), 1)
    assert keys.terms(dict.fromkeys(key.values(), 1)) == dict.fromkeys(
        vectors, 1)
    guard, seen = keys.guard, {True: 0, False: 0}
    for a, b in itertools.product(vectors, repeat=2):
        ka, kb = key[a], key[b]
        assert (ka < kb) == (_deglex_key(a) < _deglex_key(b)), (a, b)
        assert (ka == kb) == (a == b)
        assert _pack(tuple(map(add, a, b))) == ka + kb, (a, b)
        divides = all(map(le, a, b))
        assert (((kb | guard) - ka) & guard == guard) == divides, (a, b)
        assert keys.lcm(ka, kb) == _pack(tuple(map(max, a, b))), (a, b)
        seen[divides] += 1
    assert min(seen.values()) > 100, seen


def test_keys_refuse_degree_two_to_the_sixty_one():
    """Total degree 2^61 - 1 is keyed and completes; 2^61, in one variable
    or spread over two, is refused with DomainError by every entry point
    that makes a key from an input."""
    assert MAX_DEGREE == 2 ** 61
    top = 2 ** 61 - 1
    gens = [P({(top, 0): 1}), P({(0, top): 3})]
    gb = strong_gb(gens)
    assert [str(p) for p in gb.polys] == [f"3*x1^{top}", f"x0^{top}"]
    assert strong_divide(P({(top, 0): -2}), gb).remainder.is_zero()
    assert membership_oracle(P({(top, 0): 5}), gens)
    assert not membership_oracle(P({(1, 0): 1}), gens)
    for e in ((2 ** 61, 0), (2 ** 60, 2 ** 60)):
        over = P({e: 1})
        for make in (lambda: strong_gb([over]),
                     lambda: strong_divide(over, gb),
                     lambda: membership_oracle(over, gens),
                     lambda: membership_oracle(P({(1, 0): 1}), [over])):
            with pytest.raises(DomainError, match="2\\^61"):
                make()


def test_lone_high_degree_generator_completes_within_a_second():
    """The climb starts at the least generator degree, and the oracle
    reads its bounds by value: x^(10^12) is its own basis, with shift 0,
    and the oracle decides above and below that degree at once."""
    x = P({(10 ** 12, 0): 1})
    start = time.perf_counter()
    gb = strong_gb([x])
    assert [str(p) for p in gb.polys] == ["x0^1000000000000"]
    assert gb.shift == 0
    assert membership_oracle(P({(10 ** 12, 1): 2}), [x])
    assert not membership_oracle(P({(1, 0): 1}), [x])
    assert not membership_oracle(P({(10 ** 12 - 1, 1): 1}), [x], 0)
    assert time.perf_counter() - start < 1.0


def test_intpoly_arithmetic():
    f = P({(1, 0): 2, (0, 1): -1})
    g = P({(1, 0): 1})
    assert (f * g).terms == {(2, 0): 2, (1, 1): -1}
    assert (f + g).terms == {(1, 0): 3, (0, 1): -1}
    assert _leading(f) == ((1, 0), 2)
    assert f.total_degree() == 1


def _reference_strong_reduce(p, basis):
    """The reduction one polynomial at a time: each cancelled term is an
    ``IntPoly`` of its own, and every leading term is read afresh."""
    mult = {}
    remainder = IntPoly(p.nvars)
    while not p.is_zero():
        e, c = _leading(p)
        hit = None
        for i, b in enumerate(basis):
            be, bc = _leading(b)
            if all(u <= v for u, v in zip(be, e)) and c % bc == 0:
                hit = (i, c // bc, tuple(v - u for u, v in zip(be, e)))
                break
        if hit is None:
            remainder = remainder + IntPoly(p.nvars, {e: c})
            p = p - IntPoly(p.nvars, {e: c})
            continue
        i, q, shift = hit
        term = IntPoly(p.nvars, {shift: q})
        mult[i] = mult.get(i, term * 0) + term
        p = p - basis[i].term_mul(q, shift)
    return remainder, mult


def _table(basis):
    """The division table of a list of divisors."""
    return [_division_row(_keyed(b)) for b in basis]


def _divisor_lists(gens):
    """The lists the kernel divides by: the raw generators in both orders
    and both signs, and the partial bases of a completion, the generators
    followed by the first k elements of the completed basis."""
    gens = list(gens)
    done = list(strong_gb(gens).polys)
    return [gens[::-1], [-g for g in gens]] + [
        gens + done[:k] for k in range(len(done) + 1)]


def test_strong_reduce_matches_reference():
    rng = random.Random(13)
    compared = 0
    for gens in groebner_corpus():
        for basis in _divisor_lists(gens):
            for _ in range(20):
                g = IntPoly(2, {(rng.randint(0, 3), rng.randint(0, 3)):
                                rng.randint(-12, 12) for _ in range(4)})
                for base in gens:
                    e = (rng.randint(0, 2), rng.randint(0, 2))
                    g = g + base.term_mul(rng.randint(-3, 3), e)
                rem, mult = _strong_reduce(_keyed(g), _table(basis),
                                           _guard(2))
                rem = _unkeyed(rem, 2)
                ref_rem, ref_mult = _reference_strong_reduce(g, basis)
                assert rem == ref_rem.terms, g
                assert list(mult) == list(ref_mult), g
                assert all(_unkeyed(mult[i], 2) == ref_mult[i].terms
                           for i in mult), g
                assert (not mult) == (rem == g.terms), g
                compared += 1
    assert compared > 1000


def test_strong_reduce_leaves_no_strongly_divisible_term():
    """No remainder term c x^e has a divisor b with lm(b) | e and
    lc(b) | c.  Each divisor strongly divides its own leading term, so a
    nonzero remainder is never a divisor or its negative: the Buchberger
    oracle need not test a new element against its basis."""
    rng = random.Random(24)
    ideals = [list(gens) for gens in groebner_corpus()] + [
        _seeded_ideal(rng, nvars, False) for nvars in (1, 3)
        for _ in range(6)]
    checked = 0
    for gens in ideals:
        nvars = gens[0].nvars
        for basis in _divisor_lists(gens):
            heads = [_leading(b) for b in basis]
            table = _table(basis)
            dividends = [p for f, g in itertools.combinations(table, 2)
                         for p in _critical_pair(f, g, _keys(nvars))]
            dividends += [_keyed(_sample(STEPS[3], nvars, rng)
                                 * rng.choice(basis)
                                 + _sample(STEPS[4], nvars, rng))
                          for _ in range(5)]
            for p in dividends:
                rem, _ = _strong_reduce(dict(p), table, _guard(nvars))
                for e, c in _unkeyed(rem, nvars).items():
                    assert not any(
                        c % bc == 0 and all(a <= b for a, b in zip(be, e))
                        for be, bc in heads), (p, basis)
                    checked += 1
    assert checked > 500


def _reference_critical_pair(f, g):
    """(G, S) of two polynomials, each shifted product an ``IntPoly``."""
    (fe, fc), (ge, gc) = _leading(f), _leading(g)
    lcm_e = tuple(map(max, fe, ge))
    f_shift = tuple(a - b for a, b in zip(lcm_e, fe))
    g_shift = tuple(a - b for a, b in zip(lcm_e, ge))
    a, b = bezout(fc, gc)
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    return (f.term_mul(a, f_shift) + g.term_mul(b, g_shift),
            f.term_mul(lcm_c // fc, f_shift)
            - g.term_mul(lcm_c // gc, g_shift))


def test_critical_pair_matches_reference():
    """The pair of two division rows is the pair of their polynomials,
    keyed and zero-free; G leads with gcd(lc f, lc g) at the lcm and S
    stays below it: on the divisor lists of the corpus and of seeded
    ideals in one and three variables, in both orders."""
    rng = random.Random(26)
    ideals = [list(gens) for gens in groebner_corpus()] + [
        _seeded_ideal(rng, nvars, False) for nvars in (1, 3)
        for _ in range(6)]
    checked = 0
    for gens in ideals:
        for basis in _divisor_lists(gens):
            for f, g in itertools.permutations(basis, 2):
                G, S = _critical_pair(*_table([f, g]), _keys(f.nvars))
                ref_G, ref_S = _reference_critical_pair(f, g)
                assert (G, S) == (_keyed(ref_G), _keyed(ref_S)), (f, g)
                assert all(type(c) is int and c for c in (*G.values(),
                                                          *S.values()))
                (fe, fc), (ge, gc) = _leading(f), _leading(g)
                lcm_e = tuple(map(max, fe, ge))
                assert max(G) == _pack(lcm_e)
                assert G[max(G)] == math.gcd(fc, gc)
                assert all(k < _pack(lcm_e) for k in S)
                checked += 1
    assert checked > 300


def test_strong_gb_examples():
    gb = strong_gb([P({(1, 0): 2}), P({(0, 1): 3})])
    lts = {_leading(p) for p in gb.polys}
    assert ((1, 0), 2) in lts      # 2x
    assert ((0, 1), 3) in lts      # 3y
    assert ((1, 1), 1) in lts      # xy = 3y*x - 2x*y is in the ideal
    assert strong_gb([P({(1, 0): 1})]).polys == (P({(1, 0): 1}),)
    gcd_basis = strong_gb([IntPoly.constant(1, 6), IntPoly.constant(1, 10)])
    assert [str(p) for p in gcd_basis.polys] == ["2"]


def test_strong_divide_examples():
    gb = strong_gb([P({(1, 0): 2}), P({(0, 1): 3})])
    cert = strong_divide(P({(1, 1): 3}), gb)
    assert cert.remainder.is_zero()
    assert cert.max_product_degree(gb) <= 2
    # x itself is not in the ideal (set y = 0: x = 2x f is impossible)
    cert = strong_divide(P({(1, 0): 1}), gb)
    assert not cert.remainder.is_zero()
    cert = strong_divide(IntPoly(2), gb)
    assert cert.remainder.is_zero() and not cert.multipliers


def test_certificate_reconstruction_random():
    rng = random.Random(1)
    for gens in groebner_corpus():
        gb = strong_gb(list(gens))
        for _ in range(40):
            g = IntPoly(2)
            for base in gens:
                e = (rng.randint(0, 2), rng.randint(0, 2))
                g = g + base.term_mul(rng.randint(-2, 2), e)
            cert = strong_divide(g, gb)
            assert cert.reconstruct(gb) == g
            if cert.remainder.is_zero() and not g.is_zero():
                assert cert.max_product_degree(gb) <= g.total_degree()


def _product_degree(cert, basis) -> int:
    """The largest degree of a product multiplier * basis element, read
    off the multiplied-out products."""
    return max((q * basis.polys[i]).total_degree()
               for i, q in cert.multipliers.items()) \
        if cert.multipliers else 0


def test_max_product_degree_adds_degrees():
    rng = random.Random(15)
    readme = (P({(1, 0): 2}), P({(0, 1): 3}))
    seen = {"member": 0, "non-member": 0}
    for gens in [*groebner_corpus(), readme]:
        gb = strong_gb(list(gens))
        for _ in range(30):
            g = IntPoly(2)
            for base in gens:
                e = (rng.randint(0, 2), rng.randint(0, 2))
                g = g + base.term_mul(rng.randint(-3, 3), e)
            if rng.random() < 0.5:  # perturbed off the ideal, mostly
                e = (rng.randint(0, 3), rng.randint(0, 3))
                g = g + P({e: rng.choice((-1, 1, 2))})
            cert = strong_divide(g, gb)
            assert cert.max_product_degree(gb) == _product_degree(cert, gb)
            seen["member" if cert.remainder.is_zero()
                 else "non-member"] += 1
    assert min(seen.values()) > 50, seen
    gb = strong_gb(list(readme))
    empty = DivisionCertificate({}, IntPoly(2))
    assert empty.max_product_degree(gb) == _product_degree(empty, gb) == 0


def test_strong_divisibility_of_members():
    rng = random.Random(2)
    for gens in groebner_corpus():
        gb = strong_gb(list(gens))
        for _ in range(25):
            g = IntPoly(2)
            for base in gens:
                e = (rng.randint(0, 2), rng.randint(0, 2))
                g = g + base.term_mul(rng.randint(-2, 2), e)
            if g.is_zero():
                continue
            ge, gc = _leading(g)
            assert any(
                all(a <= b for a, b in zip(_leading(p)[0], ge))
                and gc % _leading(p)[1] == 0
                for p in gb.polys)


def test_membership_agrees_with_integer_oracle():
    rng = random.Random(3)
    checked = 0
    for gens in groebner_corpus():
        gb = strong_gb(list(gens))
        for _ in range(20):
            g = IntPoly(2)
            for base in gens:
                budget = 4 - base.total_degree()
                if budget < 0:
                    continue
                e = [0, 0]
                for _ in range(rng.randint(0, budget)):
                    e[rng.randrange(2)] += 1
                g = g + base.term_mul(rng.randint(-2, 2), tuple(e))
            if rng.random() < 0.5:
                g = g + P({(0, 0): rng.randint(-2, 2)})
            if g.is_zero() or g.total_degree() > 4:
                continue
            checked += 1
            assert strong_divide(g, gb).remainder.is_zero() == \
                membership_oracle(g, list(gens))
    assert checked > 100


def snf_solvable(columns, target) -> bool:
    """Dense oracle: is target an integer combination of the columns?

    Columns and target are sparse int dicts; solvability of A x = t over
    Z is read off the Smith normal form U A W = D as d_i | (U t)_i.
    """
    keys = sorted(set(target).union(*columns))
    if not keys:
        return True
    A = [[col.get(k, 0) for col in columns] or [0] for k in keys]
    U, D, _ = smith_with_transforms(A)
    r = min(len(D), len(D[0]))
    for i, row in enumerate(U):
        rhs = sum(u * target.get(k, 0) for u, k in zip(row, keys))
        d = D[i][i] if i < r else 0
        if (rhs % d if d else rhs):
            return False
    return True


def snf_member_at_bound(g, gens, bound) -> bool:
    """Is g in the Z-span of the products m * gen with degree <= bound?"""
    cols = [gen.term_mul(1, m).terms for gen in gens
            for m in _exponents_up_to(g.nvars, bound - gen.total_degree())]
    return snf_solvable(cols, g.terms)


#: Degrees the dense oracle searches beyond deg(g).
SNF_HEADROOM = 8


def snf_membership_oracle(g, gens) -> bool:
    """The dense oracle: one Smith normal form per degree bound, from
    deg(g) to deg(g) + SNF_HEADROOM.  It is complete only on ideals whose
    filtration shift is at most SNF_HEADROOM, which it asserts."""
    assert strong_gb(gens).shift <= SNF_HEADROOM, gens
    base = g.total_degree()
    return g.is_zero() or any(
        snf_member_at_bound(g, gens, base + extra)
        for extra in range(SNF_HEADROOM + 1))


def _random_system(rng):
    """Small integer columns over exponent keys: gcd > 1 columns,
    duplicates and zero columns included."""
    keys = _exponents_up_to(2, 2)
    cols = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if cols and kind < 0.15:
            cols.append(dict(rng.choice(cols)))
        elif kind < 0.25:
            cols.append({})
        else:
            scale = rng.choice((1, 1, 2, 3, 6))
            cols.append({k: scale * rng.randint(-4, 4)
                         for k in rng.sample(keys, rng.randint(1, 4))})
    return keys, cols


def _random_target(rng, keys, cols):
    """A lattice member, a Q-span vector divided down, or anything."""
    comb = {}
    for col in cols:
        c = rng.randint(-3, 3)
        for k, v in col.items():
            comb[k] = comb.get(k, 0) + c * v
    kind = rng.random()
    if kind < 0.35:
        return comb
    if kind < 0.8:
        d = rng.choice((2, 3))
        if all(v % d == 0 for v in comb.values()):
            return {k: v // d for k, v in comb.items()}
        return comb
    return {k: rng.randint(-3, 3) for k in rng.sample(keys, 2)}


def test_zlattice_agrees_with_snf_solvability():
    rng = random.Random(11)
    seen = {"member": 0, "off_q_span": 0, "q_span_only": 0}
    for _ in range(400):
        keys, cols = _random_system(rng)
        lattice, over_q = ZLattice(), SparseEchelon()
        index = {k: i for i, k in enumerate(keys)}
        for col in cols:
            # the lattice takes over a fresh zero-free dict
            lattice.add({_deglex_key(k): v for k, v in col.items() if v})
            over_q.add({index[k]: v for k, v in col.items()})
        for _ in range(3):
            target = _random_target(rng, keys, cols)
            expected = snf_solvable(cols, target)
            keyed = {_deglex_key(k): v for k, v in target.items()}
            assert lattice.contains(keyed) == expected, (cols, target)
            in_q = over_q.contains({index[k]: v for k, v in target.items()})
            seen["member" if expected else
                 "q_span_only" if in_q else "off_q_span"] += 1
        # the rows are an echelon basis: one positive pivot each, at their
        # maximum
        for p, row in lattice.rows.items():
            assert max(row) == p and row[p] > 0
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zlattice_stamps_each_pivot_at_its_entrys_last_change(seed):
    """Seeded batches of vectors, one stamp per batch: since[p] is the
    last stamp at which the pivot entry rows[p][p] changed, by a scan of
    every pivot after each batch."""
    rng = random.Random(seed)
    lattice, seen = ZLattice(), {}  # pivot -> (entry, stamp of its change)
    for stamp in range(1, 31):
        lattice.stamp = stamp
        for _ in range(rng.randint(0, 4)):
            vec = {c: rng.choice((-6, -4, -3, -2, 2, 3, 4, 6, 9))
                   for c in rng.sample(range(12), rng.randint(1, 3))}
            lattice.add(vec)
        for p, row in lattice.rows.items():
            if seen.get(p, (None,))[0] != row[p]:
                seen[p] = (row[p], stamp)
    assert lattice.since == {p: s for p, (_, s) in seen.items()}
    assert len(set(lattice.since.values())) > 5


def test_membership_oracle_agrees_with_snf_oracle():
    rng = random.Random(12)
    checked = 0
    for gens in groebner_corpus():
        gb = strong_gb(list(gens))
        for _ in range(6):
            g = IntPoly(2)
            for base in gens:
                e = (rng.randint(0, 1), rng.randint(0, 1))
                g = g + base.term_mul(rng.randint(-2, 2), e)
            if rng.random() < 0.5:
                g = g + P({(0, 0): rng.randint(-2, 2)})
            if g.total_degree() > 3:
                continue
            checked += 1
            member = membership_oracle(g, list(gens))
            assert member == snf_membership_oracle(g, list(gens)), g
            assert member == strong_divide(g, gb).remainder.is_zero(), g
    assert checked > 30
    # 5y = y(x^2+5) - x(xy) needs products above deg(5y) = 1
    gens, g = [P({(2, 0): 1, (0, 0): 5}), P({(1, 1): 1})], P({(0, 1): 5})
    assert not snf_member_at_bound(g, gens, 1)
    assert membership_oracle(g, gens) and snf_membership_oracle(g, gens)
    # (6, 10) = (2), so x^2y^2 + 1 is not a member at any bound
    gens = [IntPoly.constant(2, 6), IntPoly.constant(2, 10)]
    g = P({(2, 2): 1, (0, 0): 1})
    assert not membership_oracle(g, gens)
    assert not snf_membership_oracle(g, gens)


def _x_power_plus_five(k):
    """(x^k + 5, xy): 5y = y(x^k + 5) - x^(k-1)(xy) needs products of
    degree k + 1 over the generators, so the shift is k."""
    return [P({(k, 0): 1, (0, 0): 5}), P({(1, 1): 1})]


@pytest.mark.parametrize("k", [2, 9, 10])
def test_oracle_climbs_to_the_shift_of_x_power_plus_five(k):
    gens = _x_power_plus_five(k)
    gb = strong_gb(gens)
    assert gb.shift == k and P({(0, 1): 5}) in gb.polys
    assert membership_oracle(P({(0, 1): 5}), gens)
    assert not membership_oracle(P({(0, 1): 1}), gens)
    seen = {True: 0, False: 0}
    for c in (1, 2, 5, 10):
        for e in _exponents_up_to(2, 3):
            for g in (P({e: c}), P({e: c, (0, 1): 5}),
                      P({e: c}) + gens[0], P({e: c, (1, 0): 1})):
                member = membership_oracle(g, gens)
                assert member == strong_divide(g, gb).remainder.is_zero(), g
                seen[member] += 1
    assert min(seen.values()) > 30, seen


def test_corpus_filtration_shifts():
    corpus = groebner_corpus()
    assert [strong_gb(list(gens)).shift for gens in corpus] == \
        [0, 0, 0, 0, 2, 2, 0, 0, 0, 0]
    assert P({(0, 1): 5}) in strong_gb(list(corpus[5])).polys


def test_shifts_are_least_by_the_dense_oracle():
    """Every basis element b lies in the span at bound deg(b) + l, and for
    l > 0 some b does not lie in it one bound lower, by the dense
    Smith-form test: l is reached and least."""
    checked = 0
    for gens in groebner_corpus() + [_x_power_plus_five(3)]:
        gb = strong_gb(list(gens))
        tops = [b.total_degree() + gb.shift for b in gb.polys]
        assert all(snf_member_at_bound(b, list(gens), top)
                   for b, top in zip(gb.polys, tops)), gens
        assert gb.shift == 0 or not all(
            snf_member_at_bound(b, list(gens), top - 1)
            for b, top in zip(gb.polys, tops)), gens
        checked += gb.shift > 0
    assert checked == 3


def _refuse(*args):
    raise AssertionError("work began")


def test_zero_ideal_never_reaches_completion(monkeypatch):
    """The zero ideal holds only 0, answered before any climb: a climb of
    its empty lattice to x^(10^12) would never end."""
    monkeypatch.setattr(groebner, "strong_gb", _refuse)
    monkeypatch.setattr(groebner, "_climb", _refuse)
    for gens in ([], [IntPoly(2)], [IntPoly(2), IntPoly(2)]):
        assert membership_oracle(IntPoly(2), gens)
        for g in (P({(0, 0): 1}), P({(1, 1): 3, (0, 0): -2})):
            assert not membership_oracle(g, gens)
    assert not membership_oracle(IntPoly(1, {(10**12,): 1}), [IntPoly(1)])


def test_a_miss_completes_on_the_oracles_own_lattice(monkeypatch):
    """Without a shift the oracle reads l by certifying on the lattice it
    climbs, never by a second completion: y misses and 5y is found over
    (x^2 + 5, xy), whose shift is 2."""
    monkeypatch.setattr(groebner, "strong_gb", _refuse)
    gens = _x_power_plus_five(2)
    assert not membership_oracle(P({(0, 1): 1}), gens)
    assert membership_oracle(P({(0, 1): 5}), gens)


def test_mismatched_nvars_are_refused_before_any_work(monkeypatch):
    monkeypatch.setattr(groebner, "_climb", _refuse)
    x = P({(1, 0): 1})
    for gens in ([x, IntPoly(1, {(1,): 1})], [IntPoly(1), x],
                 [IntPoly(2), IntPoly(3)]):
        with pytest.raises(ValueError, match="variables"):
            strong_gb(gens)
    for g, gens in ((IntPoly(3, {(0, 0, 1): 1}), [x]), (x, [IntPoly(1)]),
                    (IntPoly(3), [IntPoly(2)])):
        with pytest.raises(ValueError, match="variables"):
            membership_oracle(g, gens)


def test_climb_raises_when_no_candidate_certifies(monkeypatch):
    """A criterion that never holds stops the climb once its lattice holds
    more than MAX_ROWS rows, with DomainError; the oracle raises on a miss
    instead of denying, and still finds a member on its own lattice."""
    gens = [P({(1, 0): 2})]
    monkeypatch.setattr(groebner, "_certified", lambda *args: False)
    monkeypatch.setattr(groebner, "MAX_ROWS", 50)
    with pytest.raises(DomainError, match="within 50 lattice rows"):
        strong_gb(gens)
    with pytest.raises(DomainError):
        membership_oracle(P({(0, 1): 1}), gens)
    assert membership_oracle(P({(1, 1): 2}), gens)


def test_shift_guard_never_decides_a_verdict(monkeypatch):
    """Below the bound that certifies the basis the guard raises: no False
    comes from it.  (x^2 + 5, xy) certifies at bound 3, one above its
    generators, where its lattice holds 6 rows (2 at bound 2)."""
    monkeypatch.setattr(groebner, "MAX_ROWS", 1)
    gens = _x_power_plus_five(2)
    for g in (P({(0, 1): 5}), P({(0, 1): 1})):
        with pytest.raises(DomainError):
            membership_oracle(g, gens)
    assert membership_oracle(P({(1, 1): 5}), gens)


@pytest.mark.parametrize("nvars", [1, 2])
def test_oracle_refuses_a_runaway_climb(nvars):
    """x^(10^12) over (x) is a member, but its first test waits for 10^12
    bounds: the climb raises once it holds more than MAX_ROWS rows with
    nothing certified, as a completion does."""
    e = (1,) + (0,) * (nvars - 1)
    x = IntPoly(nvars, {e: 1})
    g = IntPoly(nvars, {tuple(10**12 * v for v in e): 1})
    start = time.perf_counter()
    with pytest.raises(DomainError, match="within 20000 lattice rows"):
        membership_oracle(g, [x])
    assert time.perf_counter() - start < 1


def _seeded_ideal(rng, nvars, with_zero):
    """One or two generators of one or two terms, linear in three
    variables and at most quadratic in one; a zero generator optional."""
    monomials = _exponents_up_to(nvars, 1 if nvars > 1 else 2)
    gens = [IntPoly(nvars, {e: rng.choice((-1, 1, 2, 3, 6))
                            for e in rng.sample(monomials, rng.randint(1, 2))})
            for _ in range(rng.randint(1, 2))]
    if with_zero:
        gens.insert(rng.randrange(len(gens) + 1), IntPoly(nvars))
    return gens


@pytest.mark.parametrize("nvars, ideals, draws", [(1, 8, 4), (3, 5, 3)])
def test_membership_oracle_agrees_beyond_two_variables(nvars, ideals, draws):
    rng = random.Random(14 + nvars)
    seen = {True: 0, False: 0}
    for k in range(ideals):
        gens = _seeded_ideal(rng, nvars, k == 0)
        gb = strong_gb(gens)
        for _ in range(draws):
            g = IntPoly(nvars)
            for base in gens:
                e = [0] * nvars
                if rng.random() < 0.5:
                    e[rng.randrange(nvars)] += 1
                g = g + base.term_mul(rng.randint(-2, 2), tuple(e))
            if rng.random() < 0.5:
                g = g + IntPoly.constant(nvars, rng.choice((-2, -1, 1, 2)))
            member = membership_oracle(g, gens)
            assert member == snf_membership_oracle(g, gens), (gens, g)
            assert member == strong_divide(g, gb).remainder.is_zero(), g
            seen[member] += 1
    assert min(seen.values()) >= 3, seen


def test_witness_examples():
    rng = random.Random(4)
    rep = filtered_noetherian_witness(
        [P({(1, 0): 2}), P({(0, 1): 3})], 500, 6, rng)
    assert rep.max_shift == 0 and rep.failures == 0
    rep = filtered_noetherian_witness(
        [P({(2, 0): 1, (0, 1): -1}), P({(0, 2): 1, (0, 0): -1})],
        500, 6, rng)
    assert rep.max_shift == 0 and rep.failures == 0
    rep = filtered_noetherian_witness(
        [P({(1, 0): 1, (0, 1): 1})], 200, 6, rng)
    assert rep.max_shift == 0 and rep.failures == 0


def _reference_witness(gens, sample_count, max_deg, rng):
    """The sampling loop one polynomial at a time: every r_i * gen_i and
    every partial sum is an ``IntPoly`` of its own, and the shift is read
    off the multiplied-out products."""
    gb = strong_gb(gens)
    max_shift = 0
    failures = 0
    done = 0
    while done < sample_count:
        g = IntPoly(gens[0].nvars)
        for base in gens:
            budget = max_deg - base.total_degree()
            if budget < 0:
                continue
            g = g + _sample(STEPS[budget], base.nvars, rng) * base
        if g.is_zero():
            continue
        done += 1
        cert = strong_divide(g, gb)
        if not cert.remainder.is_zero():
            failures += 1
            continue
        shift = max(0, _product_degree(cert, gb) - g.total_degree())
        max_shift = max(max_shift, shift)
    return WitnessReport(done, max_shift, failures, gb)


def test_witness_draws_the_reference_samples():
    ideals = [list(gens) for gens in groebner_corpus()] + [
        [IntPoly.constant(0, 6), IntPoly.constant(0, 10)],  # no variables
        [P({(4, 3): 1}), P({(1, 0): 2}), P({(0, 1): 3})],  # deg 7: no draw
        [P({(1, 0): 2}), P({}), P({(1, 1): 1, (0, 0): -2})],  # a zero gen
        [IntPoly(1, {(2,): 6}), IntPoly(1, {(3,): 10, (0,): 4})],
        [IntPoly(1, {(1,): 4, (0,): -6})],
        [IntPoly(3, {(1, 1, 0): 2, (0, 0, 1): 3}),
         IntPoly(3, {(0, 2, 0): 1, (1, 0, 0): -1})],
        [IntPoly(3, {(1, 0, 0): 2}), IntPoly(3, {(0, 1, 0): 3}),
         IntPoly(3, {(0, 0, 1): 1, (0, 0, 0): -5})],
    ]
    rng = random.Random(30)
    ideals += [_seeded_ideal(rng, nvars, k == 0) for nvars in (1, 3)
               for k in range(4)]
    for salt in range(10):
        for gens in ideals:
            rng, ref_rng = random.Random(salt), random.Random(salt)
            rep = filtered_noetherian_witness(gens, 25, 6, rng)
            ref = _reference_witness(gens, 25, 6, ref_rng)
            assert (rep.samples, rep.max_shift, rep.failures) == \
                (ref.samples, ref.max_shift, ref.failures) == (25, 0, 0)
            assert rep.basis == ref.basis
            assert rng.getstate() == ref_rng.getstate()


def test_product_degree_matches_the_multiplied_out_products():
    """``_product_degree`` on the raw multipliers of divisions by the raw
    generators, an incomplete basis: many leave a remainder, and many
    multipliers have positive degree, so a rule that reads only the heads
    would differ from the multiplied-out products."""
    rng = random.Random(31)
    ideals = [list(gens) for gens in groebner_corpus()] + [
        _seeded_ideal(rng, nvars, False) for nvars in (1, 3)
        for _ in range(6)]
    seen = {"remainder": 0, "above_heads": 0}
    for gens in ideals:
        nvars = gens[0].nvars
        table = tuple(_division_row(_keyed(g)) for g in gens)
        raw = StrongGB(tuple(gens), table, 0)
        for _ in range(20):
            g = _sample(STEPS[3], nvars, rng) * rng.choice(gens) \
                + _sample(STEPS[2], nvars, rng)
            if g.is_zero():
                continue
            remainder, mult = _strong_reduce(_keyed(g), table,
                                             _guard(nvars))
            cert = strong_divide(g, raw)
            want = _product_degree(cert, raw)
            assert groebner._product_degree(mult, table, 64 * nvars) == want
            assert cert.max_product_degree(raw) == want
            seen["remainder"] += bool(remainder)
            heads = max((table[i][0][0] >> 64 * nvars for i in mult),
                        default=0)
            seen["above_heads"] += want > heads
    assert min(seen.values()) > 40, seen


@pytest.mark.parametrize("terms", [
    {(1, 0): Fraction(3, 2)}, {(1, 0): Fraction(2)}, {(1, 0): 2.0},
    {(1, 0): True}, {(1.0, 0): 2}, {(True, 0): 2}, {(0, 0): 0.0},
    {("a", 0): 1}, {(None, 0): 1},
], ids=["fraction", "integral-fraction", "float", "bool", "float-exponent",
        "bool-exponent", "float-zero", "str-exponent", "none-exponent"])
def test_intpoly_refuses_non_integers(terms):
    with pytest.raises(ValueError):
        IntPoly(2, terms)


@pytest.mark.parametrize("coeff, expo", [
    (Fraction(3, 2), (0, 1)), (Fraction(2), (0, 1)), (True, (0, 1)),
    (2.0, (0, 1)), (2, (1,)), (2, (1, 0, 0)), (2, (0, -1)),
    (2, (1.0, 0)), (2, (True, 0)), (1, ("a", 0)), (1, (None, 0)),
], ids=["fraction", "integral-fraction", "bool", "float", "short-shift",
        "long-shift", "negative-shift", "float-shift", "bool-shift",
        "str-exponent", "none-exponent"])
def test_term_mul_refuses_bad_operands(coeff, expo):
    with pytest.raises(ValueError):
        P({(1, 0): 2, (0, 0): -1}).term_mul(coeff, expo)


def test_arithmetic_keeps_int_coefficients_without_zeros():
    f = P({(1, 0): 2, (0, 1): -1, (0, 0): 3})
    g = P({(1, 0): -2, (1, 1): 1})
    assert (f - f).terms == {}
    assert (f * 0).terms == {}
    assert (f + (-f)).terms == {}
    assert f.term_mul(0, (1, 1)).terms == {}
    assert (f * P({})).terms == {}
    for h in (f + g, f - g, -f, f * 3, 3 * f, f * g,
              f.term_mul(-2, (1, 0))):
        assert h.terms and all(type(c) is int and c
                               for c in h.terms.values())
    assert (f + g).terms == {(0, 1): -1, (0, 0): 3, (1, 1): 1}
    assert f.term_mul(-2, (1, 0)).terms == {(2, 0): -4, (1, 1): 2,
                                            (1, 0): -6}


def test_division_table_agrees_with_polys():
    """Each row of a basis's table is the element's leading term, keyed
    (deg, e, c) with deg its total degree, and its other terms keyed the
    same way: on the corpus and on 15 seeded ideals in each of one, two
    and three variables, every fifth with a zero generator."""
    rng = random.Random(25)
    ideals = [list(gens) for gens in groebner_corpus()] + [
        _seeded_ideal(rng, nvars, k % 5 == 0)
        for nvars in (1, 2, 3) for k in range(15)]
    for gens in ideals:
        gb = strong_gb(gens)
        assert len(gb.table) == len(gb.polys)
        for p, (head, tail) in zip(gb.polys,
                                   _rows(gb.table, gens[0].nvars)):
            assert head[1:] == _leading(p)
            assert head[0] == p.total_degree()
            assert sorted((head, *tail)) == sorted(
                (sum(e), e, c) for e, c in p.terms.items())
            assert len(tail) == len(p.terms) - 1


def test_strong_basis_and_table_are_freed_by_reference_counting():
    """A basis, its table and its certificates refer to nothing that
    refers back: with the cyclic collector off they die with their last
    reference, and the collector then finds no garbage."""
    gens = list(groebner_corpus()[3])
    gc.collect()
    gc.disable()
    try:
        gb = strong_gb(gens)
        cert = strong_divide(gens[0].term_mul(2, (1, 1)), gb)
        assert cert.remainder.is_zero()
        gone = weakref.ref(gb), weakref.ref(cert)
        del gb, cert
        assert [ref() for ref in gone] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_intpoly_equality_compares_nvars():
    assert IntPoly(1) != IntPoly(2)
    assert IntPoly.constant(1, 3) != IntPoly.constant(2, 3)
    assert IntPoly(2, {(1, 0): 1}) == P({(1, 0): 1})


def test_mismatched_nvars_are_refused():
    gb = strong_gb([P({(1, 0): 1})])
    for g in (IntPoly(3, {(1, 0, 0): 1, (0, 0, 1): 2}),
              IntPoly(1, {(1,): 1}), IntPoly(3)):
        with pytest.raises(ValueError, match="variables"):
            strong_divide(g, gb)
        with pytest.raises(ValueError, match="variables"):
            membership_oracle(g, [P({(1, 0): 1})])
    with pytest.raises(ValueError, match="variables"):
        membership_oracle(P({(1, 0): 1}), [P({(1, 0): 1}), IntPoly(1)])
    with pytest.raises(ValueError, match="variables"):
        strong_gb([P({(1, 0): 1}), IntPoly(1, {(1,): 1})])
    with pytest.raises(ValueError, match="variables"):
        strong_gb([IntPoly(1), P({(1, 0): 1})])


def test_basis_elements_have_positive_leading_coefficients():
    """Every basis element leads with a positive coefficient, a generator
    that survives unchanged too: (-2x, -3y) has the basis 3y, 2x, xy."""
    gb = strong_gb([P({(1, 0): -2}), P({(0, 1): -3})])
    assert [str(p) for p in gb.polys] == ["3*x1", "2*x0", "x0*x1"]
    ideals = [[-g for g in gens] for gens in groebner_corpus()]
    for gens in ideals + _pinned_ideals():
        gb = strong_gb(gens)
        for p, (head, _) in zip(gb.polys, _rows(gb.table, gens[0].nvars)):
            assert _leading(p)[1] > 0 and head[2] > 0, (gens, p)


def _draw_ideal(rng, nvars, count, degree, terms, coeffs):
    """``count`` generators, each of 1 .. ``terms`` terms of total degree
    <= ``degree`` with coefficients drawn from ``coeffs``."""
    monomials = _exponents_up_to(nvars, degree)
    return [IntPoly(nvars, {e: rng.choice(coeffs)
                            for e in rng.sample(monomials,
                                                rng.randint(1, terms))})
            for _ in range(count)]


def _pinned_ideals():
    """The corpus and 400 seeded ideals: 60 each of one or two
    generators in one, two and three variables; 100 pairs in two
    variables of degree <= 4 with |c| <= 30; 60 triples in two variables
    and 60 pairs in three."""
    rng = random.Random(29)
    small = (-6, -3, -2, -1, 1, 2, 3, 6)
    wide = tuple(c for c in range(-30, 31) if c)
    ideals = [list(gens) for gens in groebner_corpus()]
    for nvars in (1, 2, 3):
        for _ in range(60):
            ideals.append(_draw_ideal(rng, nvars, rng.randint(1, 2),
                                      2 if nvars < 3 else 1, 2, small))
    for _ in range(100):
        ideals.append(_draw_ideal(rng, 2, 2, 4, 3, wide))
    for _ in range(60):
        ideals.append(_draw_ideal(rng, 2, 3, 2, 3, small))
    for _ in range(60):
        ideals.append(_draw_ideal(rng, 3, 2, 2, 2, small))
    return ideals


def _digest(bases) -> str:
    return hashlib.sha256(json.dumps(bases).encode()).hexdigest()


def _polys(table, nvars) -> list:
    """The basis elements of a division table."""
    return [IntPoly._trusted(nvars, {e: c for _, e, c in (h, *t)})
            for h, t in table]


#: sha256 of the rendered bases of ``_pinned_ideals``.
PINNED_BASES = ("81fff023b52c641df1f8db155202eb1d"
                "fcdcf9f1d25df9bbeeedc85bc94e4f2a")


def test_rendered_bases_are_pinned():
    """A change to any basis of the pinned ideals is a change to the
    report and must be announced."""
    assert _digest([[str(p) for p in strong_gb(gens).polys]
                    for gens in _pinned_ideals()]) == PINNED_BASES


# ---------------------------------------------------------------------------
# The heads oracle: Buchberger's completion with interreduction
# ---------------------------------------------------------------------------


#: Pairs the Buchberger oracle may pop before it gives up.
ORACLE_PAIRS = 20000


def _oracle_row(terms: dict) -> tuple:
    """(head, tail) of a nonzero {e: c} dict, keyed by exponent tuples:
    head is its deglex-leading term (deg, e, c), tail its other terms."""
    terms = [(sum(e), e, c) for e, c in terms.items()]
    head = max(terms)  # the keys (deg, e) differ, so c is never compared
    terms.remove(head)
    return head, tuple(terms)


def _oracle_reduce(work: dict, table) -> tuple:
    """The oracle's strong normal form of a working dict {(deg, e): c},
    consumed, by a list of its rows: (remainder {e: c}, multipliers
    {row index: {shift: q}}), the leading term divided by the first row
    whose head strongly divides it."""
    remainder, mult = {}, {}
    while work:
        key = max(work)
        d, e = key
        c = work[key]
        for i, ((bd, be, bc), tail) in enumerate(table):
            if bd <= d and c % bc == 0 and all(map(le, be, e)):
                break
        else:
            remainder[e] = work.pop(key)
            continue
        del work[key]
        q, sd, shift = c // bc, d - bd, tuple(map(sub, e, be))
        mult.setdefault(i, {})[shift] = q
        for td, te, tc in tail:
            k = (td + sd, tuple(map(add, te, shift)))
            v = work.get(k, 0) - q * tc
            if v:
                work[k] = v
            else:
                del work[k]
    return remainder, mult


def _oracle_pair(f, g) -> tuple:
    """(G, S) of two oracle rows as working dicts {(deg, e): c}."""
    (_, fe, fc), (_, ge, gc) = f[0], g[0]
    lcm_e = tuple(map(max, fe, ge))
    lcm_d = sum(lcm_e)
    a, b = bezout(fc, gc)
    lcm_c = abs(fc * gc) // math.gcd(fc, gc)
    G, S = {(lcm_d, lcm_e): a * fc + b * gc}, {}
    for ((d, e, _), tail), u, v in ((f, a, lcm_c // fc),
                                    (g, b, -(lcm_c // gc))):
        shift = tuple(map(sub, lcm_e, e))
        for td, te, tc in tail:
            k = (td + lcm_d - d, tuple(map(add, te, shift)))
            G[k] = G.get(k, 0) + u * tc
            S[k] = S.get(k, 0) + v * tc
    return tuple({k: c for k, c in X.items() if c} for X in (G, S))


def _positive(row) -> tuple:
    """A division row times the sign of its leading coefficient."""
    (d, e, c), tail = row
    return row if c > 0 else (
        (d, e, -c), tuple((td, te, -tc) for td, te, tc in tail))


def buchberger_gb(gens) -> list:
    """Buchberger completion over Z on one list of rows keyed by exponent
    tuples, with its own kernels: the division table of a strong basis,
    read as in ``_rows``, the oracle for the heads of ``strong_gb``.

    G-polynomials (Bezout combinations of leading coefficients) are
    processed before S-polynomials of the same pair, in the normal
    pair-selection strategy (smallest deglex lcm first).  A new row gets a
    positive leading coefficient; the generators keep their signs, on
    which the Bezout coefficients depend.  The rows are then interreduced,
    given positive leading coefficients and sorted by head.  Popping more
    than ``ORACLE_PAIRS`` pairs fails the calling test.
    """
    table = [_oracle_row(g.terms) for g in gens if g.terms]
    # (deglex key of lcm(lm_i, lm_j), i, j): popped smallest lcm first
    pairs = []

    def push_pairs(k):
        lm = table[k][0][1]
        for t in range(k):
            lcm = tuple(map(max, lm, table[t][0][1]))
            heapq.heappush(pairs, ((sum(lcm), lcm), k, t))

    for k in range(len(table)):
        push_pairs(k)
    popped = 0
    while pairs:
        popped += 1
        assert popped <= ORACLE_PAIRS, "the oracle did not finish"
        _, i, j = heapq.heappop(pairs)
        for candidate in _oracle_pair(table[i], table[j]):
            nf, _ = _oracle_reduce(candidate, table)
            if nf:  # no row nor its negative: each divides its own head
                table.append(_positive(_oracle_row(nf)))
                push_pairs(len(table) - 1)
    return sorted(map(_positive, _interreduce(table)), key=lambda r: r[0])


def _interreduce(table) -> list:
    """The rows of a strong basis, each reduced once by the others.

    A row either reduces to 0 by the others, which still form a strong
    basis, or keeps its head, and no head moves when a tail does.  So one
    pass suffices: an unchanged row keeps its place, a changed one goes
    behind all rows and a zero one is dropped, and each row is reduced by
    the others in the order a scan restarting after every change uses.
    """
    kept, moved = [], []
    for k, (head, tail) in enumerate(table):
        work = {(d, e): c for d, e, c in (head, *tail)}
        nf, mult = _oracle_reduce(work, kept + table[k + 1:] + moved)
        if not mult:
            kept.append(table[k])
        elif nf:
            moved.append(_oracle_row(nf))
    return kept + moved


#: sha256 of the oracle's rendered bases of ``_pinned_ideals``: the bases
#: ``strong_gb`` reported while it was this completion.
BUCHBERGER_BASES = ("b7e14378d7eeab112ed1516d3c8051a0"
                    "b71f557fdd2f08a800b5a07307b1daf4")
#: The same bases with the elements at these indices of the flattened
#: bases negated: the bases it reported while a generator that survived
#: unchanged kept its sign.
BUCHBERGER_BASES_WITH_GENERATOR_SIGNS = ("aa526543925be33685893ba0496b7cc3"
                                         "886f07325914cf63ef7163c6b59bf0c9")
GENERATOR_SIGN_FLIPS = frozenset((
    21, 27, 32, 33, 35, 36, 38, 39, 44, 45, 48, 49, 50, 56, 58, 61, 62, 63, 64,
    65, 71, 78, 86, 87, 89, 97, 104, 107, 108, 109, 110, 113, 117, 119, 120,
    124, 125, 128, 131, 136, 140, 141, 142, 144, 147, 148, 153, 155, 159, 164,
    165, 168, 171, 172, 173, 174, 182, 187, 188, 190, 195, 198, 202, 204, 205,
    206, 208, 209, 211, 212, 213, 214, 218, 220, 222, 225, 227, 233, 234, 236,
    238, 239, 240, 242, 246, 249, 250, 254, 256, 257, 260, 261, 262, 265, 266,
    267, 268, 269, 270, 274, 282, 288, 296, 299, 308, 312, 313, 320, 324, 337,
    345, 352, 364, 365, 366, 369, 382, 398, 409, 410, 430, 450, 452, 457, 469,
    479, 487, 496, 497, 502, 505, 506, 521, 524, 536, 564, 576, 581, 588, 595,
    601, 603, 606, 607, 610, 611, 618, 622, 632, 640, 644, 648, 653, 666, 670,
    682, 684, 691, 695, 696, 708, 710, 711, 715, 716, 717, 718, 721, 723, 727,
    746, 747, 748, 756, 760, 763, 765, 778, 784, 790, 798, 801, 824, 830, 838,
    839, 848, 853, 857, 869, 870, 875, 883, 884, 888, 891, 893, 895, 897, 899,
    901, 904, 906, 907, 908, 912, 918, 921, 922, 924, 925, 928, 929, 933, 934,
    936, 946, 947, 954, 960, 961, 966, 967, 972, 979, 980, 983, 984, 990, 992,
    993, 997, 998, 1007, 1008, 1009, 1011,
))


def test_heads_equal_the_buchberger_oracle_on_the_pinned_ideals():
    """The climb's basis has the oracle's heads on all 410 pinned ideals;
    only the tails differ, and the oracle still renders the bases it
    rendered as the library's completion."""
    bases, differ = [], 0
    for gens in _pinned_ideals():
        rows = buchberger_gb(gens)
        gb = strong_gb(gens)
        assert [h for h, _ in _rows(gb.table, gens[0].nvars)] == \
            [h for h, _ in rows], gens
        bases.append(_polys(rows, gens[0].nvars))
        differ += gb.polys != tuple(bases[-1])
    assert _digest([[str(p) for p in polys] for polys in bases]) \
        == BUCHBERGER_BASES
    assert differ > 0
    index = itertools.count()
    assert _digest([[str(-p) if next(index) in GENERATOR_SIGN_FLIPS
                     else str(p) for p in polys] for polys in bases]) \
        == BUCHBERGER_BASES_WITH_GENERATOR_SIGNS
    assert next(index) == 1012 and len(GENERATOR_SIGN_FLIPS) == 237


def test_interreduction_reduces_each_row_once(monkeypatch):
    """The oracle's interreduction calls ``_oracle_reduce`` at most once
    per row it visits, on the corpus and the pinned ideals, where rows
    are dropped and rows change; a scan that restarts after each change
    makes more calls."""
    calls = []
    reduce, interreduce = _oracle_reduce, _interreduce

    def counting(work, table):
        calls.append(1)
        return reduce(work, table)

    seen = []

    def counted(table):
        before = len(calls)
        rows = interreduce(table)
        seen.append((len(table), len(calls) - before, len(rows),
                     sum(row not in table for row in rows)))
        return rows

    monkeypatch.setattr(sys.modules[__name__], "_oracle_reduce", counting)
    monkeypatch.setattr(sys.modules[__name__], "_interreduce", counted)
    for gens in _pinned_ideals():  # the corpus comes first
        buchberger_gb(gens)
    corpus = len(groebner_corpus())
    assert all(reductions <= visited for visited, reductions, _, _ in seen)
    assert any(kept < visited for visited, _, kept, _ in seen[:corpus])
    assert sum(changed > 0 for *_, changed in seen) > 10


#: (30x^4 - 3x^3y + 11, 5x^3y^3 - 16y^4 - 16xy^2, 30xy^3 - 4x^2 - 19x^4):
#: Buchberger's completion does not finish it within minutes.
HARD_IDEAL = [
    [{"e": [0, 0], "c": 11}, {"e": [4, 0], "c": 30}, {"e": [3, 1], "c": -3}],
    [{"e": [0, 4], "c": -16}, {"e": [3, 3], "c": 5},
     {"e": [1, 2], "c": -16}],
    [{"e": [1, 3], "c": 30}, {"e": [2, 0], "c": -4}, {"e": [4, 0], "c": -19}],
]


def test_hard_ideal_completes_within_a_second():
    """Ten elements with heads of degree <= 4, among them the ideal's
    integer N of 156 bits, which first enters the lattice at bound 11."""
    gens = [IntPoly.from_json(2, g) for g in HARD_IDEAL]
    start = time.perf_counter()
    gb = strong_gb(gens)
    assert time.perf_counter() - start < 1.0
    table = _rows(gb.table, 2)
    assert len(gb.polys) == 10 and max(h[0] for h, _ in table) <= 4
    (head, tail), = [row for row in table if row[0][0] == 0]
    assert head[2].bit_length() == 156 and not tail
    assert gb.shift == 11
    assert all(strong_divide(g, gb).remainder.is_zero() for g in gens)


@pytest.mark.parametrize("gens, shift", [
    ([P({(1, 1): 1, (0, 0): -1}), P({(33, 0): 1})], 66),
    ([IntPoly(3, {(1, 1, 1): 1, (0, 0, 0): -1}),
      IntPoly(3, {(10, 0, 0): 1})], 30),
], ids=["xy-1,x^33", "xyz-1,x^10"])
def test_unit_ideals_far_above_their_generators_complete(gens, shift):
    """1 lies in (xy - 1, x^33), but every representation
    1 = A(xy - 1) + B x^33 keeps x^32 y^32 in A, so 1 first enters the
    lattice at bound 66, 33 degrees above the generators; in three
    variables (xyz - 1, x^10) needs bound 30, a lattice of 4,691 rows.
    The Buchberger oracle takes a few dozen pairs on either."""
    start = time.perf_counter()
    gb = strong_gb(gens)
    assert time.perf_counter() - start < 1.0
    assert [str(p) for p in gb.polys] == ["1"] and gb.shift == shift
    assert [h for h, _ in _rows(gb.table, gens[0].nvars)] == \
        [h for h, _ in buchberger_gb(gens)]


def _three_generator_ideals():
    """24 ideals in two variables from ``random.Random(7)``, each of three
    generators of three terms, of total degree <= 2 .. 6 drawn per
    generator, with coefficients 0 < |c| <= 30."""
    rng = random.Random(7)
    wide = [c for c in range(-30, 31) if c]
    return [[IntPoly(2, {e: rng.choice(wide) for e in rng.sample(
        _exponents_up_to(2, rng.randint(2, 6)), 3)}) for _ in range(3)]
        for _ in range(24)]


#: The ideals of ``_three_generator_ideals`` that the oracle completes
#: within five seconds: index 1 in about five (11,175 pairs), the others
#: in under half a second.  On the rest it takes longer than five seconds
#: (index 10 about six, the others more than eight).
ORACLE_FINISHES = (1, 2, 4, 7, 8, 9, 12, 20, 21, 22)


def test_three_generator_ideals_complete_within_a_second():
    for k, gens in enumerate(_three_generator_ideals()):
        start = time.perf_counter()
        gb = strong_gb(gens)
        assert time.perf_counter() - start < 1.0, k
        assert all(strong_divide(g, gb).remainder.is_zero() for g in gens)
        if k in ORACLE_FINISHES:
            assert [h for h, _ in _rows(gb.table, 2)] == \
                [h for h, _ in buchberger_gb(gens)], k


@pytest.mark.parametrize("make, message", [
    (lambda: strong_gb([IntPoly(2), IntPoly(2)]),
     "need at least one nonzero generator"),
    (lambda: IntPoly.from_json(2, {"e": [1, 0], "c": 1}),
     "must be a list of terms"),
    (lambda: IntPoly.from_json(2, 7), "must be a list of terms"),
], ids=["zero-generators", "term-not-in-list", "number"])
def test_groebner_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make()
