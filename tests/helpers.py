"""Shared constructions for the test suite."""

import collections
import functools
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import skewseries.exactla as la
from skewseries.coeffcore import is_prime
from skewseries.core import CoreError, default_cap, stabilization_M
from skewseries.finalg import (
    AlgebraError,
    FinAlgebra,
    IdealSubspace,
    ImplementationError,
    central_idempotents,
    ideal_meet,
    induced_map,
    is_sigma_prime,
    minimal_primes_over,
    prime_spectrum,
    product_of_fields,
    quotient_algebra,
    radical,
    sigma_orbit,
    subspace,
    truncated_poly_algebra,
)
from skewseries.series import SeriesRing
from skewseries.skewder import SkewDerivation, SkewDerivationError, check_skew_derivation, pth_power


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def fraction_fnorm(c, p):
    """``exactla.fnorm`` with every Q scalar a Fraction: the reference for the int-or-Fraction form."""
    if p is None:
        return c if isinstance(c, Fraction) else Fraction(c)
    return c % p


def fraction_finv(a, p):
    """``exactla.finv`` returning a Fraction over Q, the partner of ``fraction_fnorm``."""
    if p is None:
        return Fraction(1) / Fraction(a)
    return pow(a, -1, p)


def ddx_derivation(p, n):
    """(id, d/dX) on F_p[X]/(X^n) (or Q for p=None).

    A skew derivation only when p divides n, since d(X^n) = n X^(n-1);
    some tests use the invalid pairs on purpose, so this does not check.
    """
    A = truncated_poly_algebra(p, n)
    return A, SkewDerivation.from_gen_images(A, A.basis_vec(1), A.one())


def exterior_square_f2():
    """F_2[Y,Z]/(Y^2, Z^2) with basis 1, Y, Z, YZ."""
    rep = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    inv = {v: k for k, v in rep.items()}

    def mul_basis(i, j):
        v = [0] * 4
        y = rep[i][0] + rep[j][0]
        z = rep[i][1] + rep[j][1]
        if y < 2 and z < 2:
            v[inv[(y, z)]] = 1
        return tuple(v)

    structure = [[mul_basis(i, j) for j in range(4)] for i in range(4)]
    return FinAlgebra(2, 4, structure, (1, 0, 0, 0))


def cor36_instance():
    """Valid instance for the delta^(r+s) congruence with r=1, s=2.

    sigma = id, delta(Y) = Z, delta(Z) = 1 on F_2[Y,Z]/(Y^2, Z^2);
    then a = Z escapes (Y, Z) at exponent 1 and b = Y at exponent 2.
    """
    A = exterior_square_f2()
    sigma = la.identity_map(4, 2)
    delta = ((0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    sd = SkewDerivation(A, sigma, delta)
    assert check_skew_derivation(sd).valid
    return A, sd


def perm_skew(n, perm, lam):
    """Q^n with sigma the permutation of coordinates and delta = lam(sigma - id)."""
    A = product_of_fields(None, n)
    sigma = tuple(A.basis_vec(perm[i]) for i in range(n))
    ident = la.identity_map(n, None)
    delta = tuple(
        tuple(Fraction(lam) * (s - i) for s, i in zip(rs, ri))
        for rs, ri in zip(sigma, ident)
    )
    sd = SkewDerivation(A, sigma, delta)
    assert check_skew_derivation(sd).valid
    return A, sd


def random_char0_instance(rng):
    """A random valid (A, sd) over Q with dim <= 5, three families."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(2, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        return perm_skew(n, perm, rng.randint(-3, 3))
    if kind == 1:
        n = rng.randint(2, 5)
        A = truncated_poly_algebra(None, n)
        j = rng.randint(1, n - 1)
        beta = Fraction(rng.randint(-3, 3))
        dg = la.vscale(beta, A.basis_vec(j), None)
        return A, SkewDerivation.from_gen_images(A, A.basis_vec(1), dg)
    n = rng.randint(2, 3)
    A = truncated_poly_algebra(None, n)
    c = Fraction(rng.choice([1, 2, -1, 3]))
    sg = la.vscale(c, A.basis_vec(1), None)
    lam = Fraction(rng.randint(-2, 2))
    sigma = SkewDerivation.from_gen_images(A, sg, A.zero()).sigma_matrix
    ident = la.identity_map(n, None)
    delta = tuple(
        tuple(lam * (s - i) for s, i in zip(rs, ri))
        for rs, ri in zip(sigma, ident)
    )
    return A, SkewDerivation(A, sigma, delta)


def permutation_group(gens):
    """The elements of the group generated by permutations of range(len(gens[0])),
    identity first, in the order of the basis of ``permutation_group_algebra``."""
    elements = [tuple(range(len(gens[0])))]
    for g in elements:  # closure: the list grows while it is walked
        for s in gens:
            h = tuple(g[i] for i in s)
            if h not in elements:
                elements.append(h)
    return elements


def permutation_group_algebra(p, gens, check=True):
    """F_p[G] for the group G generated by permutations of range(len(gens[0])); associative by
    construction, so ``check`` may skip the dim^3 validation."""
    elements = permutation_group(gens)
    identity = elements[0]
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)

    def basis_vec(g):
        return tuple(int(j == index[g]) for j in range(n))

    structure = [[basis_vec(tuple(g[i] for i in h)) for h in elements] for g in elements]
    return FinAlgebra(p, n, structure, basis_vec(identity), check=check)


def iwasawa_group_algebra(k, check=True):
    """(A, sd): A = F_2[C_2^k x C_7], built from its products, and the Iwasawa pair sigma = inversion
    on C_7, delta = sigma - id.  Basis vector e_(7b + r) is the element (b, r), b in C_2^k a k-bit
    int (the product XORs the bits) and r in C_7, so e_i e_j = e_(7(i//7 ^ j//7) + (i + j) % 7)."""
    n = 7 << k
    products = ([{7 * (i // 7 ^ j // 7) + (i + j) % 7: 1} for j in range(n)] for i in range(n))
    A = FinAlgebra(2, n, products, [1] + [0] * (n - 1), check=check)
    sigma = tuple(A.basis_vec(i - i % 7 + -i % 7) for i in range(n))
    return A, SkewDerivation(A, sigma, la.map_sub(sigma, la.identity_map(n, 2), 2))


def naive_sps_mul(S, f, g):
    """f g in S by the literal expansion sum_(i,j) r_i (x^i s_j) x^j.

    Each x^i s_j is expanded exactly (x-degree <= i, nothing dropped),
    shifted by x^j, and the sum is truncated and normalised once at the
    end: the reference SPSRing.mul is compared against.
    """
    base, sd = S.base, S.sd
    out = [base.zero()] * (2 * S.D - 1)
    for j, s in enumerate(g):
        rows = [{0: s}]  # rows[i][k] = coefficient of x^k in x^i s
        for _ in range(1, S.D):
            row = {}
            for k, c in rows[-1].items():
                row[k + 1] = base.add(row.get(k + 1, base.zero()), sd.sigma(c))
                row[k] = base.add(row.get(k, base.zero()), sd.delta(c))
            rows.append(row)
        for i, r in enumerate(f):
            for k, c in rows[i].items():
                out[k + j] = base.add(out[k + j], base.mul(r, c))
    return S.normalize(out)


def per_entry_series_mul(R, a, b):
    """a b in a SeriesRing entry by entry, reduced at every step: the reference SeriesRing.mul
    (one unreduced truncated convolution, reduced once) is compared against."""
    out = [0] * R.T
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x != 0 and y != 0 and i + j < R.T:
                out[i + j] = (out[i + j] + x * y) % R.modulus
    return tuple(out)


def per_term_sps_mul(S, f, g):
    """f g in S by the recurrence of SPSRing.mul, with every term r_i (h_i)_k a reduced base product
    added into its coefficient by a reduced base add: the reference SPSRing.mul, which sums each
    coefficient unreduced and reduces it once, is compared against.  The base products are the
    reference ones (``per_entry_series_mul``, ``naive_mul``), not the ring's."""
    base, sd, zero = S.base, S.sd, S.base.zero()
    base_mul = functools.partial(per_entry_series_mul if isinstance(base, SeriesRing) else naive_mul, base)
    out = [zero] * S.D
    n = max((i + 1 for i, r in enumerate(f) if r != zero), default=0)
    h = g
    for i, r in enumerate(f[:n]):
        if i:  # h = x h: coefficient k is sigma(c_(k-1)) + delta(c_k)
            step = [zero] * S.D
            for k, c in enumerate(h):
                if c == zero:
                    continue
                step[k] = base.add(step[k], sd.delta(c))
                if k + 1 < S.D:
                    step[k + 1] = sd.sigma(c)
            h = step
        if r != zero:
            for k, c in enumerate(h):
                if c != zero:
                    out[k] = base.add(out[k], base_mul(r, c))
    return S.normalize(out)


def naive_delta_core(A, sd, I):
    """Largest (sigma, delta)-ideal inside I, with no reliance on I being an ideal.

    Greatest fixed point of K -> K meet sigma^{-1}K meet delta^{-1}K meet
    the preimages of K under every left and right multiplication by a
    basis element: the reference delta_core is compared against.
    """
    p = A.p
    maps = [sd.sigma_matrix, sd.delta_matrix]
    for e in A.basis():
        maps.append(tuple(A.mul(e, f) for f in A.basis()))
        maps.append(tuple(A.mul(f, e) for f in A.basis()))
    current = I.basis
    while current:
        new = current
        for m in maps:
            new = la.subspace_intersection(new, la.preimage(m, current, p), p)
        if new == current:
            break
        current = new
    return subspace(A, current)


def fr_functional(A, x, i):
    """Friedl-Ronyai g_i(x) = (Tr(L^_x^q) / q) mod p, q = p^i, in plain integers.

    L^_x is the lift of L_x with entries in 0..p-1; its q-th power is
    taken over Z, with no reduction, so this is the definition itself.
    """
    p, q, n = A.p, A.p**i, A.dim

    def matmul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]

    power, base = [[int(r == c) for c in range(n)] for r in range(n)], [list(r) for r in A.left_mult_matrix(x)]
    while q:
        if q & 1:
            power = matmul(power, base)
        base, q = matmul(base, base), q >> 1
    tr = sum(power[t][t] for t in range(n))
    assert tr % p**i == 0
    return (tr // p**i) % p


def upper_triangular_algebra(p, n):
    """Upper-triangular n x n matrices; basis e_rc (r <= c) in row-major order."""
    cells = [(r, c) for r in range(n) for c in range(r, n)]
    index = {cell: k for k, cell in enumerate(cells)}

    def basis_vec(cell):
        return tuple(int(k == index.get(cell)) for k in range(len(cells)))

    structure = [[basis_vec((r1, c2)) if c1 == r2 else basis_vec(None)
                  for (r2, c2) in cells] for (r1, c1) in cells]
    unit = [sum(v) for v in zip(*(basis_vec((r, r)) for r in range(n)))]
    return FinAlgebra(p, len(cells), structure, unit)


def relabel(A, rng):
    """The same algebra in the basis f_m = s_m e_perm(m) with random signs s_m = +-1."""
    n, p = A.dim, A.p
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]

    def coords(v, s=1):
        return tuple(s * sign[m] * v[perm[m]] for m in range(n))

    structure = [[coords(A.structure[perm[i]][perm[j]], sign[i] * sign[j]) for j in range(n)]
                 for i in range(n)]
    return FinAlgebra(p, n, structure, coords(A.unit))


def naive_rref(rows, p):
    """Reduced row echelon form as (rows, pivot columns) by the plain list loop:
    scale each pivot row, subtract f times it, then reduce every entry.  The
    reference exactla.rref, which does a row operation over F_p in one pass
    and skips scaling by 1, is compared against."""
    work = [[la.fnorm(c, p) for c in r] for r in rows]
    pivots, out, col = [], [], 0
    while work and col < len(work[0]):
        pivot_row = next((r for r in work if r[col] != 0), None)
        if pivot_row is not None:
            work.remove(pivot_row)
            inv = la.finv(pivot_row[col], p)
            pivot_row = [la.fnorm(inv * c, p) for c in pivot_row]
            for r in work + out:
                f = r[col]
                r[:] = [la.fnorm(a - f * b, p) for a, b in zip(r, pivot_row)]
            out.append(pivot_row)
            pivots.append(col)
        col += 1
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return tuple(tuple(out[i]) for i in order), tuple(pivots[i] for i in order)


def naive_left_kernel(rows, p):
    """Basis (rref) of {x : sum_j x_j rows[j] = 0} by one rref of [rows | I]: a
    reduced row whose pivot lies in the identity block is [0 | x] with x in
    the kernel.  The reference ``exactla.left_kernel`` is compared against,
    and the kernel of the reference radicals, which so share no kernel code
    with the radical under test."""
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [[*r, *e] for r, e in zip(rows, la.identity_map(len(rows), p), strict=True)]
    reduced, pivots = naive_rref(aug, p)
    return tuple(r[ncols:] for r, c in zip(reduced, pivots, strict=True) if c >= ncols)


def naive_radical_levels(A):
    """Bases of the levels I_(-1) = A, I_0, ... of the pairwise radical over F_p.

    Level i keeps the x in I_(i-1) with g_i(xy) = 0 for every y in
    I_(i-1), computed as Tr((L_x L_y)^q) for every pair of basis vectors.
    """
    p = A.p
    levels = [tuple(A.basis())]
    i = 0
    while p**i <= A.dim and levels[-1]:
        q = p**i
        mod = q * p
        regs = [A.left_mult_matrix(v) for v in levels[-1]]
        rows = []
        for Lx in regs:
            row = []
            for Ly in regs:
                power = la.map_power(la.compose(Lx, Ly, mod), q, mod)
                tr = sum(power[t][t] for t in range(A.dim))
                assert tr % q == 0
                row.append((tr // q) % p)
            rows.append(tuple(row))
        coeff_kernel = naive_left_kernel(rows, p)
        levels.append(la.span([la.apply_map(levels[-1], c, p) for c in coeff_kernel], p))
        i += 1
    return levels


def naive_radical(A):
    """Radical by the pairwise trace forms: the reference radical is compared against.

    Over Q the kernel of Tr(L_x L_y) over all pairs of basis vectors, each
    product of regular matrices formed; over F_p the last pairwise level.
    """
    if A.p is not None:
        return subspace(A, naive_radical_levels(A)[-1])
    reg = [A.left_mult_matrix(e) for e in A.basis()]
    rows = []
    for Lx in reg:
        row = []
        for Ly in reg:
            prod = la.compose(Lx, Ly, None)
            row.append(sum(prod[i][i] for i in range(A.dim)))
        rows.append(tuple(Fraction(c) for c in row))
    return subspace(A, naive_left_kernel(rows, None))


def naive_mul(A, a, b):
    """a b by walking the dense structure vectors: the reference FinAlgebra.mul
    (which runs on the nonzero (k, c) pairs) is compared against."""
    out = [0] * A.dim
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if ai != 0 and bj != 0:
                for k, s in enumerate(A.structure[i][j]):
                    if s != 0:
                        out[k] += ai * bj * s
    return la.vec(out, A.p)


def naive_left_mult_matrix(A, a):
    """Rows a e_j by ``naive_mul``: the reference for FinAlgebra.left_mult_matrix."""
    return tuple(naive_mul(A, a, e) for e in A.basis())


def dense_compose(first, then, p):
    """then(first(v)) as one dense ``exactla.apply_map`` per row of first: the former compose, kept as
    the reference the sparse row-by-row product is compared against."""
    return tuple(la.apply_map(then, row, p) for row in first)


def naive_contains(I, v):
    """v in I when its residue modulo the rref basis is zero: the reference
    for the membership by annihilating functionals."""
    return la.is_zero_vec(la.reduce_vector(I.basis, I.pivots, v, I.parent.p))


def naive_validation_error(A):
    """The message of the first failure of the dense construction check on
    A's constants (None if they pass): each (e_i e_j) e_k against
    e_i (e_j e_k) by ``naive_mul``, in the order (i, j, k), then the unit."""
    basis = A.basis()
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        if naive_mul(A, A.structure[i][j], basis[k]) != naive_mul(A, basis[i], A.structure[j][k]):
            return f"structure constants not associative at ({i},{j},{k})"
    if any(naive_mul(A, A.unit, e) != e or naive_mul(A, e, A.unit) != e for e in basis):
        return "unit vector is not a two-sided identity"
    return None


def full_construction_check(A):
    """(error message or None, integral) of the construction check on every basis triple, on A's
    lifted pairs, in the order (i, j, k), then the unit law: the former loop, kept as the reference
    Light's test on the generators is compared against.  A may be built unchecked."""
    n, P, p, integral = A.dim, A._pairs, A.p, True
    for i, j, k in itertools.product(range(n), repeat=3):
        diff = collections.Counter()
        for a, c in P[i][j]:
            for t, s in P[a][k]:
                diff[t] += c * s
        for b, c in P[j][k]:
            for t, s in P[i][b]:
                diff[t] -= c * s
        if any(diff.values()):
            integral = False
            if not p or any(x % p for x in diff.values()):
                return f"structure constants not associative at ({i},{j},{k})", False
    if any(A.mul(A.unit, e) != e or A.mul(e, A.unit) != e for e in A.basis()):
        return "unit vector is not a two-sided identity", False
    return None, integral


def generated_subalgebra(A, S):
    """rref basis of the unital subalgebra generated by the basis vectors e_s, s in S: the span of
    1, grown by all products of its vectors with each e_s until it stops growing (A.mul and span)."""
    W = la.span([A.unit], A.p)
    while True:
        grown = la.span([*W, *(A.mul(w, A.basis_vec(s)) for w in W for s in S)], A.p)
        if grown == W:
            return W
        W = grown


def greedy_generating_set(A):
    """Each i, in order, whose e_i is outside the subalgebra the earlier ones generate, by
    ``generated_subalgebra``: the reference for A.generators of a checked construction."""
    S = []
    for i in range(A.dim):
        W = generated_subalgebra(A, S)
        if la.span([*W, A.basis_vec(i)], A.p) != W:
            S.append(i)
    return tuple(S)


def full_ideal_generated(A, gens):
    """The smallest ideal holding gens, by closure under e v and v e for every basis vector e: the
    reference ideal_generated, which closes under the generators only, is compared against."""
    current = la.span(list(gens), A.p)
    while True:
        closed = la.span([*current, *(A.mul(x, y) for v in current for e in A.basis() for x, y in ((e, v), (v, e)))],
                         A.p)
        if closed == current:
            return IdealSubspace(A, closed)
        current = closed


def full_is_ideal(I):
    """I.is_ideal() by the former loop over every basis vector e_i, on the pairs: e_i v and v e_i
    in I for each basis vector v of I.  The reference the check on A.generators is compared against."""
    A = I.parent
    return all(I.contains(A._combine((c, i, j) for j, c in enumerate(v) if c))
               and I.contains(A._combine((c, j, i) for j, c in enumerate(v) if c))
               for v in I.basis for i in range(A.dim))


def naive_is_ideal(I):
    """Closure of I under e v and v e through ``naive_mul`` and ``naive_contains``:
    the reference IdealSubspace.is_ideal is compared against."""
    A = I.parent
    return all(
        naive_contains(I, naive_mul(A, x, y))
        for v in I.basis for e in A.basis() for x, y in ((e, v), (v, e))
    )


def naive_adapted_basis(w):
    """ChainFiltration.adapted_basis by a fresh subspace per basis vector:
    from the deepest level up, v in F_j is kept when it lies outside
    F_(j+1) plus the vectors already kept."""
    chosen = []
    for j in range(w.depth - 1, -1, -1):
        higher = list(w.level_basis(j + 1))
        for v in w.level_basis(j):
            if not naive_contains(subspace(w.ring, higher + [c for c, _ in chosen]), v):
                chosen.append((v, j))
    return chosen


def naive_minimal_primes_over(A, I):
    """Minimal primes over I through B = A/I: the radical N of B, the
    semisimple C = B/N, one maximal ideal (1 - e)C per centrally primitive
    idempotent e of C (over Q by ``naive_central_idempotents``), lifted to B
    and then to A.  The reference minimal_primes_over is compared against."""
    B, _, lift_B = quotient_algebra(A, I)
    N = radical(B)
    C, _, lift_C = quotient_algebra(B, N)
    primes = []
    for e in (central_idempotents if A.p else naive_central_idempotents)(C):
        in_B = subspace(B, list(N.basis) + [lift_C(C.sub(v, C.mul(e, v))) for v in C.basis()])
        primes.append(subspace(A, list(I.basis) + [lift_B(v) for v in in_B.basis]))
    return sorted(primes, key=lambda J: J.basis)


def reference_spectrum(A):
    """prime_spectrum(A) over F_p; over Q, where the package splits only a centre Q, the
    primes over 0 by ``naive_minimal_primes_over``."""
    return prime_spectrum(A) if A.p else naive_minimal_primes_over(A, subspace(A, []))


def ideal_intersection(I, J):
    """I meet J by one exactla.subspace_intersection."""
    return IdealSubspace(I.parent, la.subspace_intersection(I.basis, J.basis, I.parent.p))


def naive_meet(ideals):
    """The meet of a nonempty list by pairwise intersections, left to right:
    the reference ideal_meet (one kernel of stacked functionals) is compared against."""
    return functools.reduce(ideal_intersection, ideals)


def naive_is_automorphism(A, sigma):
    """Invertible, fixing 1, and sigma(e_i e_j) = sigma(e_i) sigma(e_j) on dense
    coordinates: apply_map on each structure vector against A.mul of the images."""
    p = A.p
    if not la.is_invertible(sigma, p):
        return False
    if la.apply_map(sigma, A.unit, p) != A.unit:
        return False
    images = [la.vec(row, p) for row in sigma]  # sigma(e_i)
    return all(
        la.apply_map(sigma, A.structure[i][j], p) == A.mul(images[i], images[j])
        for i in range(A.dim)
        for j in range(A.dim)
    )


def naive_core_chain(A, sd, I, cap):
    """The delta^(p^m)-cores of I for m = 0..cap, each naive_delta_core of its own
    pth_power(sd, m), with no period, no stop at I and both maps in every step:
    the reference stabilization_M's chain is compared against."""
    return [naive_delta_core(A, pth_power(sd, m), I) for m in range(cap + 1)]


def naive_theorem_c(A, sd, I, cap=None):
    """(J, M, rounds) of the Theorem-C loop that also waits for M_j to settle:
    it stabilizes I_j once more when I_(j+1) = I_j but M_j moved.  Round j
    stabilizes I_j under pth_power(sd, M_(j-1)) and walks the
    sigma^(p^M_j)-orbit of P afresh.  The reference theorem_c_procedure's
    (J, M) is compared against."""
    cap = default_cap(A) if cap is None else cap
    P = minimal_primes_over(A, I)[0]
    I_j, M_prev = I, 0
    for rounds in range(1, cap + 3):
        M = stabilization_M(A, pth_power(sd, M_prev), I_j, cap=cap).M
        if M is None:  # the chain still moves at the cap
            return None, None, rounds
        M_j = M_prev + M
        I_next = naive_meet(sigma_orbit(P, sd.sigma_pow(A.p**M_j)))
        if I_next == I_j and M_j == M_prev:
            return I_j, M_prev, rounds
        I_j, M_prev = I_next, M_j
    return None, None, rounds


def dense_axiom_violations(sd):
    """The (axiom, witness) list of check_skew_derivation by its former dense loop: every law on
    every basis pair through ring products and map applications, then the q laws.  The reference
    the sparse finalg.law_violations, and check_skew_derivation on it, are compared against."""
    ring, found = sd.ring, []
    if not la.is_invertible(sd.sigma_matrix, ring.p):
        found.append(("sigma bijective", "matrix is singular"))
    if sd.sigma(ring.one()) != ring.one():
        found.append(("sigma(1) = 1", ring.one()))
    basis = ring.basis()
    for i, e in enumerate(basis):
        for j, f in enumerate(basis):
            if sd.sigma(ring.mul(e, f)) != ring.mul(sd.sigma(e), sd.sigma(f)):
                found.append(("sigma multiplicative", (i, j)))
            leib = ring.add(ring.mul(sd.delta(e), f), ring.mul(sd.sigma(e), sd.delta(f)))
            if sd.delta(ring.mul(e, f)) != leib:
                found.append(("Leibniz", (i, j)))
    if sd.delta(ring.one()) != ring.zero():
        found.append(("delta(1) = 0", ring.one()))
    if sd.q is not None:
        q = sd.q
        if not ring.is_central(q):
            found.append(("q central", q))
        if sd.sigma(q) != q:
            found.append(("sigma(q) = q", q))
        if sd.delta(q) != ring.zero():
            found.append(("delta(q) = 0", q))
        for i, e in enumerate(basis):
            if sd.delta(sd.sigma(e)) != ring.mul(q, sd.sigma(sd.delta(e))):
                found.append(("delta sigma = q sigma delta", i))
    return found


def primes_workload_instances(seed=1, theorem_c=True, cycles=0):
    """The F_p Theorem-C instances (the char-0 ones when not theorem_c) of the benchmark's
    primes workload at the seed, after it has run ``cycles`` whole cycles of verdicts on them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = workloads.build("primes", seed)
    for key in itertools.chain.from_iterable(workload.cycle(c) for c in range(cycles)):
        workload.run(key)
    return [(inst.A, inst.sd, inst.I) for _, inst in sorted(workload.instances.items())
            if (inst.I is not None) == theorem_c]


def perturbations(m, mod, entries):
    """The matrix m with one entry (i, j) of entries moved by +1 or -1 (mod mod)."""
    for (i, j), step in itertools.product(entries, (1, -1)):
        rows = [list(row) for row in m]
        rows[i][j] = la.fnorm(rows[i][j] + step, mod)
        yield tuple(map(tuple, rows))


def naive_verdict(A, sd, I, cap=None):
    """(J, M, flags) of a Theorem-C verdict from the references: the refusals
    of theorem_c_procedure in its order (commutation, automorphism, cap,
    minimality by naive_minimal_sigma_primes), (J, M) of naive_theorem_c, and
    each flag from its definition, on sigma^(p^M) and delta^(p^M) raised
    afresh, fresh orbit walks and pairwise meets."""
    if not sd.commuting:
        raise CoreError("requires sigma delta = delta sigma")
    if not naive_is_automorphism(A, sd.sigma_matrix):
        raise CoreError("sigma is not an algebra automorphism")
    cap = default_cap(A, cap)
    if I.dim == A.dim or naive_minimal_sigma_primes(A, sd.sigma_matrix, I) != [I]:
        raise CoreError("I is not a minimal sigma-prime ideal")
    J, M, _ = naive_theorem_c(A, sd, I, cap)
    if J is None:
        return None, None, {"inconclusive": True}

    def stable(K, m):
        return all(K.contains(la.apply_map(m, v, A.p)) for v in K.basis)

    sigma_M = sd.sigma_pow(A.p**M)
    return J, M, {
        "minimal sigma^(p^M)-prime": stable(J, sigma_M) and naive_minimal_sigma_primes(A, sigma_M, J) == [J],
        "I is the sigma-orbit intersection of J": naive_meet(sigma_orbit(J, sd.sigma_matrix)) == I,
        "delta^(p^M)(J) <= J": stable(J, sd.delta_pow(A.p**M)),
        "inconclusive": False,
    }


def naive_minimal_sigma_primes(A, sigma, I):
    """The orbit meets of the primes over I, deduplicated, and of those the
    minimal ones: the reference minimal_sigma_primes is compared against."""
    seen, results = set(), []
    for P in minimal_primes_over(A, I) if A.p else naive_minimal_primes_over(A, I):
        if P in seen:
            continue
        orbit = sigma_orbit(P, sigma)
        seen.update(orbit)
        meet = naive_meet(orbit)
        if meet not in results:
            results.append(meet)
    minimal = [J for J in results if not any(K is not J and J.contains_ideal(K) for K in results)]
    return sorted(minimal, key=lambda J: J.basis)


def naive_char0_checks(A, sd):
    """char0_checks' report by the split it no longer makes: the radical witnesses, then the
    minimal sigma-primes over N = rad A, each N + lift((1 - e_O)C) for C = A/N and e_O the sum of
    the centrally primitive idempotents of C (``naive_central_idempotents``, sympy) over an
    orbit O of the sigma induced on C, with a witness for each basis vector delta moves out of
    one.  The reference char0_checks is compared against."""
    N = radical(A)
    radical_witnesses = [("radical", v) for v in N.basis if not N.contains(sd.delta(v))]
    witnesses = radical_witnesses + [("sigma-prime", v) for P in _sigma_primes_over_radical(A, sd.sigma_matrix)
                                     for v in P.basis if not P.contains(sd.delta(v))]
    return {"radical preserved": not radical_witnesses, "sigma-primes preserved": witnesses == radical_witnesses,
            "witnesses": witnesses}


@functools.cache
def _sigma_primes_over_radical(A, sigma):
    N = radical(A)
    C, project, lift = quotient_algebra(A, N) if N.dim else (A, None, lambda v: v)
    sigma_bar = induced_map(A, sigma, C, project, lift) if N.dim else sigma
    idems, primes = naive_central_idempotents(C), []
    while idems:
        orbit = [idems[0]]
        while (image := la.apply_map(sigma_bar, orbit[-1], None)) != orbit[0]:
            orbit.append(image)
        e = functools.reduce(C.add, orbit)
        primes.append(subspace(A, list(N.basis) + [lift(C.sub(v, C.mul(e, v))) for v in C.basis()]))
        idems = [f for f in idems if f not in orbit]
    return sorted(primes, key=lambda P: P.basis)


def cyclic_quiver_square_zero(k):
    """The radical-square-zero path algebra of the cyclic quiver with k
    vertices over F_2, with sigma rotating the quiver and delta(e_i) = 0,
    delta(a_i) = e_(i+1).

    Basis e_0..e_(k-1), a_0..a_(k-1) with a_i = e_i a_i e_(i+1).  The pair
    commutes; delta(a_i a_(i+1)) = 2 a_(i+1) makes it a skew derivation
    only in characteristic 2.  Theorem C needs a second round here.
    """
    n = 2 * k
    basis = [tuple(int(m == i) for m in range(n)) for i in range(n)]
    structure = [[(0,) * n for _ in range(n)] for _ in range(n)]
    for i in range(k):
        structure[i][i] = basis[i]  # e_i e_i = e_i
        structure[i][k + i] = structure[k + i][(i + 1) % k] = basis[k + i]  # e_i a_i = a_i e_(i+1) = a_i
    A = FinAlgebra(2, n, structure, tuple(int(m < k) for m in range(n)))
    sigma = tuple(basis[(i + 1) % k + (i >= k) * k] for i in range(n))
    delta = tuple((0,) * n if i < k else basis[(i + 1) % k] for i in range(n))
    sd = SkewDerivation(A, sigma, delta)
    assert check_skew_derivation(sd).valid and sd.commuting
    return A, sd


def finalg_spec(A, sd, ideal):
    """An sps-spec 1 text for the finite algebra A with the pair sd and the
    ideal I generated by the vectors ``ideal``."""
    def rows(vectors, sep):
        return sep.join(" ".join(str(c) for c in v) for v in vectors)

    return "\n".join([
        "sps-spec 1", "", "[ring]", "kind = finalg", f"p = {A.p}", f"dim = {A.dim}",
        "structure = " + rows([v for row in A.structure for v in row], ", "),
        "unit = " + rows([A.unit], ""), "", "[skew]",
        "sigma = " + rows(sd.sigma_matrix, "; "), "delta = " + rows(sd.delta_matrix, "; "),
        "", "[ideals]", "I = " + rows(ideal, ", "), "",
    ])


def dense_center(A):
    """rref basis of the center from the dense structure: row i of its system is
    structure[i][j] - structure[j][i] over all j, each through vsub.  The former
    center, kept as the reference the sparse one is compared against."""
    S, p = A.structure, A.p
    return la.left_kernel([tuple(c for j in range(A.dim) for c in la.vsub(S[i][j], S[j][i], p))
                           for i in range(A.dim)], p)


def dense_quotient_algebra(A, I):
    """(B, project, lift) of A/I with every product e_a e_b and the unit projected
    by its own reduce_vector: the former quotient_algebra, kept as the reference
    the once-per-basis-vector projection is compared against."""
    p = A.p
    basis, pivots = I.basis, I.pivots
    free_cols = [c for c in range(A.dim) if c not in pivots]
    qdim = len(free_cols)
    if qdim == 0:
        raise AlgebraError("quotient by the whole algebra is the zero ring")

    def project(v):
        residue = la.reduce_vector(basis, pivots, v, p)
        return tuple(residue[c] for c in free_cols)

    def lift(coords):
        v = [la.fnorm(0, p)] * A.dim
        for c, col in zip(coords, free_cols, strict=True):
            v[col] = la.fnorm(c, p)
        return tuple(v)

    structure = [[project(A.structure[a][b]) for b in free_cols] for a in free_cols]
    B = FinAlgebra(p, qdim, structure, project(A.unit), check=False)
    return B, project, lift


def whole_spectrum_theorem_c(A, sd, I, cap=None):
    """theorem_c_procedure as it was before it split only A/I: P the least prime over I
    from the primes of all of A (prime_spectrum(A), through A/rad A), and I refused
    unless it is the meet of P's sigma-orbit; an I in no prime (the former took
    ``[0]`` of an empty list) is refused too.  The reference the A/I route is compared
    against, result for result and refusal for refusal."""
    p = A.char
    if p == 0 or not is_prime(p):
        raise CoreError("requires characteristic p")
    if not sd.commuting:
        raise CoreError("requires sigma delta = delta sigma")
    if not naive_is_automorphism(A, sd.sigma_matrix):
        raise CoreError("sigma is not an algebra automorphism")
    sd = pth_power(sd, 0)
    cap = default_cap(A, cap)
    spectrum = prime_spectrum(A)
    over = minimal_primes_over(A, I, spectrum) if I.dim < A.dim else []
    orbit = over and sigma_orbit(over[0], sd.sigma_matrix, cap=len(spectrum))
    meet = functools.cache(lambda step: ideal_meet(orbit[::step]))
    if not orbit or meet(1) != I:
        raise CoreError("I is not a minimal sigma-prime ideal")
    P, reports = over[0], []
    I_j, pair, M_j = I, sd, 0
    for _ in range(cap + 2):
        rep = stabilization_M(A, pair, I_j, cap=cap)
        reports.append(rep)
        if rep.M is None:
            return None, None, {"inconclusive": True, "reports": reports}
        M_j += rep.M
        I_next = meet(math.gcd(p**M_j, len(orbit)))
        if I_next == I_j:
            break
        I_j, pair = I_next, pth_power(pair, rep.M)
    else:
        return None, None, {"inconclusive": True, "reports": reports}
    J, M = I_j, M_j
    sd_M = pth_power(sd, M)
    sigma_M, step = sd_M.sigma_matrix, math.gcd(p**M, len(orbit))
    return J, M, {
        "minimal sigma^(p^M)-prime": sd_M.stable(J, sigma_M) and is_sigma_prime(
            J, sigma_M, spectrum, stable=True, orbits=[(orbit[::step], meet(step))]),
        "I is the sigma-orbit intersection of J": (meet(1) if J == P else ideal_meet(
            sigma_orbit(J, sd.sigma_matrix, cap=len(spectrum)))) == I,
        "delta^(p^M)(J) <= J": sd_M.stable(J, sd_M.delta_matrix),
        "inconclusive": False,
        "reports": reports,
    }


def naive_center(A):
    """rref basis of the center from 2 n^2 products through A.mul: the
    reference center is compared against."""
    residue_rows = []
    for e in A.basis():
        row = []
        for f in A.basis():
            row.extend(A.sub(A.mul(e, f), A.mul(f, e)))
        residue_rows.append(tuple(row))
    return la.left_kernel(residue_rows, A.p)


def _min_poly_of_operator(op_rows, p):
    """Minimal polynomial (sympy Poly) of a linear operator via Krylov."""
    import sympy

    n = len(op_rows)
    powers = [la.identity_map(n, p)]
    while True:
        powers.append(la.compose(powers[-1], op_rows, p))
        flat = [tuple(itertools.chain.from_iterable(m)) for m in powers]
        coeffs = la.left_kernel(flat, p)
        if coeffs:
            # lowest-degree dependency: the kernel vector whose last nonzero
            # coordinate is earliest
            best = min(coeffs, key=lambda c: max(i for i, x in enumerate(c) if x != 0))
            deg = max(i for i, x in enumerate(best) if x != 0)
            lead_inv = la.finv(best[deg], p)
            mono = [la.fnorm(lead_inv * c, p) for c in best[: deg + 1]]
            x = sympy.Symbol("x")
            expr = sum(sympy.Rational(c) * x**i if p is None else int(c) * x**i
                       for i, c in enumerate(mono))
            if p is None:
                return sympy.Poly(expr, x, domain="QQ")
            return sympy.Poly(expr, x, modulus=p)


def _poly_eval_on_operator(poly, op_rows, p):
    n = len(op_rows)
    acc = tuple(la.zero_vec(n, p) for _ in range(n))
    power = la.identity_map(n, p)
    for c in reversed(poly.all_coeffs()):  # ascending
        c = la.fnorm(Fraction(c) if p is None else int(c), p)
        acc = tuple(la.vadd(a, la.vscale(c, row, p), p) for a, row in zip(acc, power))
        power = la.compose(power, op_rows, p)
    return acc


def _try_split_block(A, block, splitters):
    if len(block) <= 1:
        return None
    candidates = list(splitters)
    # products of splitters occasionally separate blocks that single basis
    # elements do not
    candidates += [A.mul(a, b) for a, b in itertools.combinations(splitters, 2)]
    _, pivots = la.rref(block, A.p)
    for z in candidates:
        # multiplication by z on the span of block, in block coordinates
        op = [tuple(A.mul(z, v)[c] for c in pivots) for v in block]
        factors = _min_poly_of_operator(op, A.p).factor_list()[1]
        if len(factors) <= 1:
            continue
        pieces = []
        for fac, mult in factors:
            coeff_kernel = la.left_kernel(_poly_eval_on_operator(fac**mult, op, A.p), A.p)
            pieces.append(la.span([la.apply_map(block, c, A.p) for c in coeff_kernel], A.p))
        if sum(len(x) for x in pieces) == len(block):
            return pieces
    return None


def _block_unit(A, block):
    """Solve for e in the block with e*v = v for all block basis vectors."""
    p = A.p
    residue_rows = [tuple(itertools.chain.from_iterable(A.mul(bv, v) for v in block)) for bv in block]
    c = la.solve(residue_rows, tuple(itertools.chain.from_iterable(block)), p)
    if c is not None:
        e = la.apply_map(block, c, p)
        if A.mul(e, e) == e:
            return e
    raise ImplementationError("block has no unit: center decomposition failed")


def naive_central_idempotents(A):
    """Centrally primitive idempotents of a semisimple A by splitting blocks
    of the centre with the factored minimal polynomials (sympy) of every
    centre basis vector and pairwise product, until no block splits: the
    reference central_idempotents is compared against."""
    if radical(A).dim != 0:
        raise AlgebraError("algebra not semisimple")
    z_basis = naive_center(A)
    blocks, progress = [la.span(list(z_basis), A.p)], True
    while progress:
        progress, new_blocks = False, []
        for block in blocks:
            split = _try_split_block(A, block, z_basis)
            progress = progress or split is not None
            new_blocks.extend(split or [block])
        blocks = new_blocks
    return sorted(_block_unit(A, block) for block in blocks)


def poly_rem(a, f, p):
    """a mod the monic f over F_p (Q for p=None); coefficients from the constant term."""
    a, n = [la.fnorm(c, p) for c in a], len(f) - 1
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        for i, fi in enumerate(f):
            a[top - n + i] = la.fnorm(a[top - n + i] - c * fi, p)
    return tuple(a[:n]) + tuple(la.fnorm(0, p) for _ in range(n - len(a)))


def poly_prod(polys, p):
    """Product of polynomials, coefficients from the constant term."""
    out = [1]
    for f in polys:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return [la.fnorm(c, p) for c in out]


def poly_quotient_algebra(p, f):
    """F_p[X]/(f) (Q[X]/(f) for p=None), f monic; basis 1, X, ..., X^(deg f - 1)."""
    n = len(f) - 1
    structure = [[poly_rem([0] * (i + j) + [1], f, p) for j in range(n)] for i in range(n)]
    return FinAlgebra(p, n, structure, [1] + [0] * (n - 1))


def random_basis(A, rng):
    """A random invertible matrix over A's field: row i is the new basis vector f_i."""
    p = A.p
    while True:
        T = tuple(
            tuple(rng.randrange(p) if p else Fraction(rng.randint(-2, 2)) for _ in range(A.dim))
            for _ in range(A.dim)
        )
        if la.is_invertible(T, p):
            return T


def rebase(A, T):
    """A in the basis f_i = row i of the invertible T; old coordinates of a new
    vector v are apply_map(T, v, p).  Isomorphic by construction, so unchecked."""
    p = A.p
    inverse = [la.solve(T, e, p) for e in A.basis()]  # e_k in the new basis

    def new(v):
        return la.apply_map(inverse, v, p)

    structure = [[new(A.mul(a, b)) for b in T] for a in T]
    return FinAlgebra(p, A.dim, structure, new(A.unit), check=False)


def rebase_skew(A, sd, T):
    """(A, sd) in the basis f_i = row i of T, as in ``rebase``."""
    p = A.p
    inverse = [la.solve(T, e, p) for e in A.basis()]

    def conjugate(m):  # row i: the image of f_i in new coordinates
        return tuple(la.apply_map(inverse, la.apply_map(m, f, p), p) for f in T)

    B = rebase(A, T)
    return B, SkewDerivation(B, conjugate(sd.sigma_matrix), conjugate(sd.delta_matrix))


def ideal_product(I, J):
    """The ideal IJ, spanned by the products of the basis vectors of I and J."""
    A = I.parent
    return IdealSubspace(A, la.span([A.mul(u, v) for u in I.basis for v in J.basis], A.p))


def sigma_shift_power(sd, n):
    """(sigma^n, sigma^n - id) for a derivation of shape (sigma, sigma - id)."""
    if not sd.is_sigma_minus_id():
        raise SkewDerivationError("requires delta = sigma - id")
    return SkewDerivation(sd.ring, sd.sigma_pow(n), sd.sigma_minus_id(n), q=sd.q)


def naive_to_algebra(gr):
    """``GradedAlgebra.to_algebra`` by the principal symbol of every product, each solved for
    against F_(d+1) and the degree-d reps: the reference the read-off from adapted coordinates
    is compared against."""
    w = gr.filtration
    flat, degs = [], []
    for d in gr.window:
        for rep in gr.components[d]:
            flat.append(rep)
            degs.append(d)
    n, p = len(flat), w.ring.p
    assert n == w.ring.dim, "window does not cover the whole algebra"

    def placed(d, coords):  # coords at the offset of degree d, zero elsewhere
        out = [la.fnorm(0, p)] * n
        offset = sum(gr.dim(e) for e in gr.window if e < d)
        for t, c in enumerate(coords):
            out[offset + t] = c
        return tuple(out)

    def symbol(x, d):  # the class of x in F_d / F_(d+1), in the degree-d reps
        below = list(w.level_basis(d + 1))
        coords = la.solve(below + list(gr.components[d]), x, p)
        assert coords is not None, "element not in F_d"
        return coords[len(below):]

    structure = []
    for i in range(n):
        row = []
        for j in range(n):
            d, prod = degs[i] + degs[j], w.ring.mul(flat[i], flat[j])
            zero = d not in gr.components or w.value(prod) > d
            row.append(placed(d, ()) if zero else placed(d, symbol(prod, d)))
        structure.append(tuple(row))
    d = w.value(w.ring.one())
    return FinAlgebra(p, n, structure, placed(d, symbol(w.ring.one(), d)), check=False)
