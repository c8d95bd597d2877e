"""Exact linear algebra over Q and prime fields F_p.

Vectors are tuples of scalars, matrices ("maps") are tuples of rows where
row j is the image of the j-th basis vector.  All arithmetic is exact;
the field is selected by the parameter ``p`` (a prime, or None for Q).
A scalar over Q is an ``int`` when it is integral and a ``Fraction``
otherwise (``fnorm`` gives that form), so integral instances run on small
ints; over F_p it is an int in [0, p).  Elimination needs a field; vector
and map arithmetic (``apply_map``, ``compose``, ``map_power``) also
accepts a prime-power modulus p^k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Vector = tuple
Matrix = tuple


def fnorm(c, p):
    """c reduced mod p, or over Q an int when integral and a Fraction otherwise."""
    if p is None:
        return c if type(c) is int or c.denominator != 1 else c.numerator
    return c % p


def finv(a, p):
    """Inverse of a; raises on zero over Q and on a non-unit modulo p."""
    if p is None:
        return fnorm(1 / Fraction(a), None)
    return pow(a, -1, p)


def _normed(entries, p) -> list:
    """The entries as a list of normal forms: an inline ``% p`` over F_p, ``fnorm`` over Q."""
    return [c % p for c in entries] if p is not None else [fnorm(c, None) for c in entries]


def vec(entries, p) -> Vector:
    # From a list, not a generator: a tuple sized from a generator never
    # comes off the interpreter's per-length free list but goes back onto
    # it, so hot loops of short-lived vectors would pin 2,000 dead tuples
    # of every length they use.
    return tuple(_normed(entries, p))


def zero_vec(n, p) -> Vector:
    return tuple(fnorm(0, p) for _ in range(n))


def vadd(u, v, p) -> Vector:
    return vec([a + b for a, b in zip(u, v, strict=True)], p)


def vsub(u, v, p) -> Vector:
    return vec([a - b for a, b in zip(u, v, strict=True)], p)


def vscale(c, v, p) -> Vector:
    return vec([c * a for a in v], p)


def is_zero_vec(v) -> bool:
    return all(c == 0 for c in v)


def apply_map(m: Matrix, v: Vector, p) -> Vector:
    """Image of v under the map whose j-th row is the image of e_j."""
    out = [0] * (len(m[0]) if m else 0)
    for cj, row in zip(v, m, strict=True):
        if cj != 0:
            out = [o + cj * r for o, r in zip(out, row, strict=True)]
    return vec(out, p)


def identity_map(n, p) -> Matrix:
    one = fnorm(1, p)
    zero = fnorm(0, p)
    return tuple(tuple(one if i == j else zero for i in range(n)) for j in range(n))


def compose(first: Matrix, then: Matrix, p) -> Matrix:
    """Map sending v to then(first(v)), row by row (Gustavson): each row of ``then`` is read once as its
    nonzero (k, x), and the image of each row of ``first`` is summed in one list and normalised once."""
    rows, n, out = [[(k, x) for k, x in enumerate(r) if x] for r in then], len(then[0]) if then else 0, []
    for v in first:
        acc = [0] * n
        for c, terms in zip(v, rows, strict=True):
            if c:
                for k, x in terms:
                    acc[k] += c * x
        out.append(vec(acc, p))
    return tuple(out)


def power(x, k: int, mul):
    """x^k, k >= 1: square from the lowest set bit of k up to its top bit (k = 25: 6 products)."""
    if k < 1:
        raise ValueError(f"power needs k >= 1, got {k}")
    while not k & 1:
        x, k = mul(x, x), k >> 1
    result = x
    while k > 1:
        x, k = mul(x, x), k >> 1
        if k & 1:
            result = mul(result, x)
    return result


def map_power(m: Matrix, k: int, p) -> Matrix:
    """m^k; k >= 2 through ``power`` with ``compose``."""
    if k <= 1:
        return identity_map(len(m), p) if k == 0 else tuple(vec(row, p) for row in m)
    return power(m, k, lambda a, b: compose(a, b, p))


def map_sub(a: Matrix, b: Matrix, p) -> Matrix:
    return tuple(vsub(ra, rb, p) for ra, rb in zip(a, b, strict=True))


def _minus(r, f, s, p) -> list:
    """The normal form of r - f s over the common length, for normal-form r, s and f != 0:
    over F_2 (f = 1) r XOR s, over F_p one pass as (r + (p - f) s) mod p, over Q by ``fnorm``."""
    if p == 2:
        return [a ^ b for a, b in zip(r, s)]
    if p is None:
        return _normed([a - f * b for a, b in zip(r, s)], p)
    g = p - f
    return [(a + g * b) % p for a, b in zip(r, s)]


def rref(rows: Iterable[Vector], p) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Zero rows are dropped, pivots are 1, pivot columns are cleared, and
    rows are ordered by pivot column, so the result is a canonical form
    for the row space.
    """
    # Lists, not vec() tuples: short tuples freed at once pile up on the
    # interpreter's tuple free lists and measurably raise peak memory.
    work = [_normed(r, p) for r in rows]
    pivots: list[int] = []
    out: list[list] = []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pivot_row = None
        for r in work:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        work.remove(pivot_row)
        inv = 1 if p == 2 else finv(pivot_row[col], p)
        if inv != 1:
            pivot_row = _normed([inv * c for c in pivot_row], p)
        for r in work + out:
            if r[col] != 0:
                r[:] = _minus(r, r[col], pivot_row, p)
        out.append(pivot_row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return (
        tuple(tuple(out[i]) for i in order),
        tuple(pivots[i] for i in order),
    )


def span(vectors: Iterable[Vector], p) -> tuple[Vector, ...]:
    rows, _ = rref(vectors, p)
    return rows


def reduce_vector(basis: Sequence[Vector], pivots: Sequence[int], v: Vector, p) -> Vector:
    """Residue of v modulo the row space, normalised once at the end.

    Each row must be 1 at its pivot and 0 at the pivots of the rows before
    it (an rref basis is one).  Subtracting a row then leaves the earlier
    pivots cleared, so one pass over the rows clears every pivot.
    """
    r = list(v)
    for row, c in zip(basis, pivots, strict=True):
        f = fnorm(r[c], p)
        if f == 1:
            r = [a - b for a, b in zip(r, row, strict=True)]
        elif f != 0:
            r = [a - f * b for a, b in zip(r, row, strict=True)]
    return vec(r, p)


def _reduce_and_store(stored: list, r: list, n: int, p):
    """Reduce r in place against the stored (row, pivot)s, each 1 at its pivot and 0 at the pivots
    stored before it, so one pass in storage order clears every pivot; a residue left among r's
    first n entries is stored, scaled to 1 at its pivot (its first nonzero entry).  The pivot, or None."""
    for s, c in stored:
        if r[c] != 0:
            r[: len(s)] = _minus(r, r[c], s, p)
    pivot = next((c for c in range(n) if r[c] != 0), None)
    if pivot is not None:
        inv = 1 if p == 2 else finv(r[pivot], p)
        stored.append((r if inv == 1 else _normed([inv * a for a in r], p), pivot))
    return pivot


def dependencies(vectors: Iterable[Vector], p) -> Iterator[Vector]:
    """For each v_j in the span of v_0..v_(j-1), the c with c[j] = 1 and sum_i c_i v_i = 0.

    Each vector is drawn only as the caller asks and reduced, as [v_j | e_j]
    so its combination is carried along, against the rows stored so far
    (``_reduce_and_store``).
    """
    stored = []  # (row with its combination as tail, pivot column)
    for j, v in enumerate(vectors):
        r = _normed([*v, *[0] * j, 1], p)
        if _reduce_and_store(stored, r, len(v), p) is None:
            yield tuple(r[len(v):])


def greedy_generators(one: Vector, basis, times, p) -> tuple[int, ...]:
    """The greedy S of an algebra with unit ``one``: each i, in order, with basis[i] outside the span W of
    the words one s_1 ... s_r in the S found before it (times(w, s) is w basis[s]).  W is kept reduced by
    ``_reduce_and_store``, and each new row's products with S, and W's with a new generator, are reduced
    before the next basis[i], so W is the subalgebra S generates."""
    n, S, stored, todo = len(one), [], [], [*((basis[i], i) for i in range(len(one) - 1, -1, -1)), (one, None)]
    while todo and len(stored) < n:  # the products are taken before the next basis[i]
        v, i = todo.pop()
        if _reduce_and_store(stored, _normed(v, p), n, p) is not None:  # a new row of W
            if i is not None:  # basis[i] is a generator, and W times it joins W
                S.append(i)
                todo += [(times(w, i), None) for w, _ in stored[:-1]]
            todo += [(times(stored[-1][0], s), None) for s in S]
    return tuple(S)


def left_kernel(rows: Sequence[Vector], p) -> tuple[Vector, ...]:
    """Basis (rref) of {x : sum_j x_j rows[j] = 0}.

    The dependencies, padded with zeros to len(rows), are independent (each
    ends in its own 1) and as many as the kernel's dimension, so their rref
    is the canonical basis of the kernel.  When every row is literally zero
    (no rows included) the kernel is the whole space, whose rref basis is the
    identity, and nothing is eliminated; a row that is zero only mod p is
    reduced as usual, so the answer is the same either way.
    """
    if all(map(is_zero_vec, rows)):
        return identity_map(len(rows), p)
    return span([c + (0,) * (len(rows) - len(c)) for c in dependencies(rows, p)], p)


def solve(rows: Sequence[Vector], v: Vector, p):
    """Coefficients c with sum_j c_j rows[j] = v, or None if v is not in the span.

    The kernel of [rows; v] holds a vector with nonzero last coordinate
    exactly when v is in the span; the first one in rref order is used,
    which is the only one when the rows are independent.
    """
    for c in left_kernel(list(rows) + [tuple(v)], p):
        if c[-1] != 0:
            return vscale(finv(-c[-1], p), c[:-1], p)
    return None


def subspace_intersection(a: Sequence[Vector], b: Sequence[Vector], p) -> tuple[Vector, ...]:
    """rref basis of the intersection of two row spaces."""
    a = span(a, p)
    b_basis, b_piv = rref(b, p)
    if not a:
        return ()
    residues = [reduce_vector(b_basis, b_piv, v, p) for v in a]
    # already rref: a kernel vector's leading 1 at j gives a 1 at pivot j and 0 at the others'
    return compose(left_kernel(residues, p), a, p)


def preimage(m: Matrix, target_basis: Sequence[Vector], p) -> tuple[Vector, ...]:
    """rref basis of {v : m(v) lies in the span of target_basis}."""
    basis, piv = rref(target_basis, p)
    residues = [reduce_vector(basis, piv, row, p) for row in m]
    return left_kernel(residues, p)


def is_invertible(m: Matrix, p) -> bool:
    """Invertibility over F_p or Q; also over Z/p^k when given the prime p.

    A matrix over Z/p^k is invertible iff it is invertible modulo p.
    """
    return len(rref(m, p)[0]) == len(m)
