import random
from fractions import Fraction

import pytest

import skewseries.exactla as la

from helpers import dense_compose, list_dependencies, naive_left_kernel, naive_rref

FIELDS = [2, 5, None]
BIG_P = 2**31 - 1


def random_matrix(rng, nrows, ncols, p):
    """Seeded random matrix; half the time its last row is the sum of the first two."""
    if p is None:
        rows = [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols))
                for _ in range(nrows)]
    else:
        rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:
        rows[-1] = la.vadd(rows[0], rows[1], p)
    return rows


def rank(rows, p):
    return len(la.rref(rows, p)[0])


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def int_trace_power(L, q):
    """Tr(L^q) with unreduced Python integers: the reference."""
    n = len(L)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(q):
        power = [[sum(power[i][k] * L[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return sum(power[i][i] for i in range(n))


@pytest.mark.parametrize("p", FIELDS)
def test_rref_is_canonical(p):
    rng = random.Random(f"rref/{p}")
    for _ in range(40):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), p)
        reduced, pivots = la.rref(rows, p)
        assert list(pivots) == sorted(set(pivots))
        for r, c in zip(reduced, pivots, strict=True):
            assert r[c] == 1
            assert all(x == 0 for x in r[:c])
            assert all(other[c] == 0 for other in reduced if other is not r)
        # same row space, and the form does not depend on the spanning set
        assert all(la.is_zero_vec(la.reduce_vector(reduced, pivots, r, p)) for r in rows)
        shuffled = list(rows) + [la.vscale(la.fnorm(3, p), rows[0], p)]
        rng.shuffle(shuffled)
        assert la.rref(shuffled, p) == (reduced, pivots)


@pytest.mark.parametrize("p", FIELDS)
def test_left_kernel(p):
    rng = random.Random(f"kernel/{p}")
    for _ in range(40):
        rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 5), p)
        kernel = la.left_kernel(rows, p)
        zero = la.zero_vec(len(rows[0]), p)
        assert all(la.apply_map(rows, x, p) == zero for x in kernel)
        assert len(kernel) == len(rows) - rank(rows, p)
        assert kernel == la.span(kernel, p) == naive_left_kernel(rows, p)


@pytest.mark.parametrize("p", [2, 3, 5, None])
def test_a_zero_system_matches_the_naive_kernel(monkeypatch, p):
    # literally zero rows (none, of length 0, or all-zero of any shape) have the whole space
    # as kernel, the identity, with no elimination; rows zero only mod p, such as (2, 4) over
    # F_2, are eliminated as before and reach the same basis
    eliminated = []
    dependencies = la.dependencies
    monkeypatch.setattr(la, "dependencies", lambda rows, p: eliminated.append(rows) or dependencies(rows, p))
    zero = la.fnorm(0, p)
    literal = [[], [()], [()] * 3, [(Fraction(0), 0)] * 2]
    literal += [[(zero,) * ncols] * nrows for nrows in (1, 2, 5) for ncols in (1, 3, 4)]
    for rows in literal:
        assert la.left_kernel(rows, p) == naive_left_kernel(rows, p) == la.identity_map(len(rows), p)
    assert eliminated == []
    if p is not None:
        for rows in ([(p, 2 * p)], [(2 * p, -p), (0, 0)], [(zero, zero, -p)] * 3, [(p,), (0,), (3 * p,)]):
            assert la.left_kernel(rows, p) == naive_left_kernel(rows, p) == la.identity_map(len(rows), p)
            assert eliminated.pop() == rows


@pytest.mark.parametrize("p", FIELDS)
def test_dependencies_match_naive_left_kernel(p):
    # each yielded c ends in 1 at its vector, kills its prefix, and the
    # padded c span the kernel; cases with no rows, a zero row and n = 1
    rng = random.Random(f"dependency/{p}")
    zero, one = la.fnorm(0, p), la.fnorm(1, p)
    cases = [random_matrix(rng, rng.randint(1, 7), rng.randint(1, 5), p) for _ in range(40)]
    cases += [[], [(zero,)], [(one,), (zero,), (la.fnorm(3, p),)],
              [(zero, zero), (one, zero), (zero, zero)]]
    for rows in cases:
        found = list(la.dependencies(rows, p))
        for c in found:
            assert c[-1] == 1 and len(c) <= len(rows)
            assert la.is_zero_vec(la.apply_map(rows[: len(c)], c, p))
        padded = [c + (zero,) * (len(rows) - len(c)) for c in found]
        assert len({len(c) for c in found}) == len(found) == len(rows) - rank(rows, p)
        assert la.span(padded, p) == naive_left_kernel(rows, p)


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_one_pass_row_operations_match_the_list_reference(p):
    # over F_p rref and dependencies do r - f s as (r + (p - f) s) mod p, over F_2 as r XOR s
    # with no pivot inverse, and skip scaling by 1; reduce_vector subtracts a row with factor
    # 1 once; against naive_rref, naive_left_kernel (which runs on naive_rref),
    # list_dependencies and per_pivot_reduce on unreduced and negative entries,
    # all-(p - 1) rows, no rows and n = 1
    rng = random.Random(f"one-pass/{p}")
    cases = [[tuple(rng.randint(-3 * p, 3 * p) for _ in range(ncols)) for _ in range(nrows)]
             for nrows, ncols in [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]]
    cases += [[(p - 1,) * 4] * 3 + [(p - 1, 0, p - 1, 0)], [], [(-1,)], [(p + 1,), (2 * p,), (-p - 2,)],
              [(p - 1,)] * 3]
    for rows in cases:
        assert la.rref(rows, p) == naive_rref(rows, p)
        assert la.left_kernel(rows, p) == naive_left_kernel(rows, p)
        assert list(la.dependencies(rows, p)) == list(list_dependencies(rows, p))
        basis, pivots = la.rref(rows[: len(rows) // 2], p)
        for v in rows:
            assert la.reduce_vector(basis, pivots, v, p) == per_pivot_reduce(basis, pivots, v, p)


@pytest.mark.parametrize("p", FIELDS)
def test_rref_combinations_of_an_rref_basis_are_rref(p):
    # sum_m c_m B[m] over the rref kernel vectors c, for an rref B, is already its own span:
    # the radical's levels and subspace_intersection take it without another rref
    rng = random.Random(f"combinations/{p}")
    for _ in range(60):
        B = la.span(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), p), p)
        if not B:
            continue
        rows = random_matrix(rng, len(B), rng.randint(1, 4), p)
        combined = tuple(la.apply_map(B, c, p) for c in la.left_kernel(rows, p))
        assert combined == la.span(combined, p)


def test_dependencies_draw_only_what_the_caller_asks():
    drawn = []

    def vectors():
        for v in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            drawn.append(v)
            yield v

    found = la.dependencies(vectors(), 3)
    assert next(found) == (2, 2, 1) and len(drawn) == 3
    assert next(found) == (1, 0, 0, 1) and len(drawn) == 4


@pytest.mark.parametrize("p", FIELDS)
def test_solve(p):
    rng = random.Random(f"solve/{p}")
    for _ in range(30):
        rows = la.span(random_matrix(rng, rng.randint(1, 5), 6, p), p)
        if not rows:
            continue
        c = tuple(la.fnorm(rng.randint(-3, 3), p) for _ in rows)
        assert la.solve(rows, la.apply_map(rows, c, p), p) == c
        outside = None
        for e in la.identity_map(6, p):
            if not la.is_zero_vec(la.reduce_vector(*la.rref(rows, p), e, p)):
                outside = e
                break
        if outside is not None:
            assert la.solve(rows, outside, p) is None
    assert la.solve([], la.zero_vec(3, p), p) == ()
    assert la.solve([], la.identity_map(3, p)[0], p) is None


@pytest.mark.parametrize("p", [2, 5, 9, None])
def test_apply_map_matches_per_scalar_loop(p):
    rng = random.Random(f"apply/{p}")
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), p)
        v = random_matrix(rng, 1, len(m), p)[0]
        expected = list(la.zero_vec(len(m[0]), p))
        for cj, row in zip(v, m, strict=True):
            for i, ri in enumerate(row):
                expected[i] = la.fnorm(expected[i] + cj * ri, p)
        assert la.apply_map(m, v, p) == tuple(expected)


def sparse_entry(rng, p, fractions):
    """Zero half the time, else a random scalar: over Z/m mostly in normal form, sometimes shifted by
    a multiple of m; over Q an int, or with ``fractions`` a Fraction."""
    if rng.random() < 0.5:
        return 0
    if p is None:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if fractions else rng.randint(-4, 4)
    return rng.randrange(p) + p * rng.choice((0, 0, 0, -1, 2))


@pytest.mark.parametrize("p,fractions", [(2, False), (3, False), (2**8, False), (3**4, False),
                                         (None, False), (None, True)])
def test_compose_matches_one_apply_map_per_row(p, fractions):
    # the sparse row-by-row product against the dense reference, on maps with half their
    # entries zero, at n = 1, with no rows in first, and with every entry m - 1 (-1 over Q)
    rng = random.Random(f"compose/{p}/{fractions}")
    top = p - 1 if p else -1
    cases = [((), ((1, 0),)), (((0,),), ((top,),)), (((top,),), ((top, 0, top),))]
    cases += [(((top,) * n,) * 3, ((top,) * n,) * n) for n in (1, 7, 48)]
    for _ in range(60):
        k, n, m = rng.randint(0, 5), rng.randint(1, 8), rng.randint(1, 8)
        cases.append(tuple(tuple(tuple(sparse_entry(rng, p, fractions) for _ in range(cols)) for _ in range(rows))
                           for rows, cols in ((k, n), (n, m))))
    for first, then in cases:
        composed = la.compose(first, then, p)
        assert composed == dense_compose(first, then, p)
        assert all(type(c) is int or c.denominator != 1 for row in composed for c in row)
    with pytest.raises(ValueError):  # a row of first longer than then has rows
        la.compose(((1, 0, 1),), ((1,), (1,)), p)
    with pytest.raises(ValueError):
        dense_compose(((1, 0, 1),), ((1,), (1,)), p)


def test_finv_rejects_non_units():
    assert la.finv(3, 4) == 3
    assert la.finv(3, 7) * 3 % 7 == 1
    assert la.finv(Fraction(2, 3), None) == Fraction(3, 2)
    with pytest.raises(ValueError):
        la.finv(2, 4)
    with pytest.raises(ValueError):
        la.finv(0, 5)
    with pytest.raises(ZeroDivisionError):
        la.finv(0, None)
    # elimination modulo 4 refuses a non-unit pivot instead of guessing
    with pytest.raises(ValueError):
        la.rref([(2, 1)], 4)


@pytest.mark.parametrize("prime,modulus", [(2, 4), (3, 9)])
def test_is_invertible_over_prime_powers(prime, modulus):
    assert la.is_invertible(((1, prime), (prime, 1)), prime)
    assert not la.is_invertible(((1, 1), (1, 1 + prime)), prime)
    rng = random.Random(f"invertible/{modulus}")
    for _ in range(60):
        n = rng.randint(1, 3)
        m = tuple(tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(n))
        assert la.is_invertible(m, prime) == (det(m) % prime != 0)


@pytest.mark.parametrize("p,i", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_radical_traces_reduce_mod_prime_power(p, i):
    """Tr((Lx Ly)^q) mod p^(i+1) from map_power/compose equals the integer trace."""
    q, mod = p**i, p ** (i + 1)
    rng = random.Random(f"trace/{p}/{i}")
    for _ in range(12):
        n = rng.randint(2, 5)
        Lx, Ly = ([[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(2))
        product = [[sum(Lx[a][k] * Ly[k][b] for k in range(n)) for b in range(n)]
                   for a in range(n)]
        exact = int_trace_power(product, q)
        power = la.map_power(la.compose(Lx, Ly, mod), q, mod)
        tr = sum(power[t][t] for t in range(n))
        assert tr % mod == exact % mod
        assert tr % q == exact % q
        assert (tr // q) % p == (exact // q) % p


def test_map_power_matches_repeated_compose():
    rng = random.Random("power")
    for mod in (4, 9, 7, 2, 5, None):
        m = tuple(random_matrix(rng, 3, 3, mod))
        acc = la.identity_map(3, mod)
        for k in range(41):
            assert la.map_power(m, k, mod) == acc
            acc = la.compose(acc, m, mod)


def test_map_power_composes_only_where_needed(monkeypatch):
    # start at the lowest set bit, square no further than the top bit
    calls = []
    compose = la.compose

    def counting(first, then, p):
        calls.append(p)
        return compose(first, then, p)

    monkeypatch.setattr(la, "compose", counting)
    m = ((1, 1), (0, 1))
    for k, expected in ((1, 0), (5, 3), (25, 6)):
        calls.clear()
        assert la.map_power(m, k, 7) == ((1, k % 7), (0, 1))
        assert len(calls) == expected


def test_power_squares_from_the_lowest_set_bit():
    # the schedule map_power, SPSRing.power and the centre split share
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for k in range(1, 65):
        products.clear()
        assert la.power(3, k, mul) == 3**k
        assert len(products) == k.bit_length() - 1 + bin(k).count("1") - 1
    products.clear()
    assert la.power(3, 25, mul) == 3**25 and len(products) == 6
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            la.power(3, k, mul)


def per_pivot_reduce(basis, pivots, v, p):
    """reduce_vector renormalising the whole vector after every pivot: the reference."""
    r = la.vec(v, p)
    for row, c in zip(basis, pivots, strict=True):
        if r[c] != 0:
            r = la.vec([a - r[c] * b for a, b in zip(r, row, strict=True)], p)
    return r


@pytest.mark.parametrize("p", FIELDS)
def test_reduce_vector_matches_per_pivot_reduction(p):
    rng = random.Random(f"reduce/{p}")
    for _ in range(60):
        ncols = rng.randint(1, 7)
        basis, pivots = la.rref(random_matrix(rng, rng.randint(0, 6), ncols, p), p)
        # unreduced input: out-of-range residues, integral Fractions over Q
        v = tuple(rng.randint(-20, 20) if p else Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                  for _ in range(ncols))
        reduced = la.reduce_vector(basis, pivots, v, p)
        assert reduced == per_pivot_reduce(basis, pivots, v, p)
        assert all(type(c) is int or c.denominator != 1 for c in reduced)
        assert all(reduced[c] == 0 for c in pivots)
