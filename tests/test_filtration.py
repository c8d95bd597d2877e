import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import skewseries.exactla as la
from skewseries.coeffcore import INFINITY
from skewseries.filtration import (
    AdicFiltration,
    ChainFiltration,
    FiltrationError,
    assoc_graded,
    check_axioms,
    endo_degree,
    gr_prime_implies_prime,
    is_compatible,
    lemma16_check,
    quotient_filtration,
)
from skewseries.finalg import (
    FinAlgebra,
    direct_sum,
    ideal_generated,
    is_prime_fd,
    matrix_algebra,
    product_of_fields,
    truncated_poly_algebra,
)
from skewseries.series import SeriesRing
from skewseries.skewder import SkewDerivation

from helpers import (
    ddx_derivation,
    naive_adapted_basis,
    naive_to_algebra,
    permutation_group,
    permutation_group_algebra,
    random_basis,
    rebase,
)


def x_adic_chain(A, n):
    """X-adic chain on F_p[X]/(X^n)."""
    levels = [[A.basis_vec(i) for i in range(j, n)] for j in range(n)]
    return ChainFiltration(A, levels + [[]])


def test_values():
    R = SeriesRing(2, 6)
    w = AdicFiltration(R)
    assert w.value(R.zero()) == INFINITY
    for k in range(6):
        assert w.value(R.monomial(1, k)) == k
    Z = SeriesRing(3, 1, k=3)
    wz = AdicFiltration(Z)
    assert wz.value(Z.element([3])) == 1
    A = truncated_poly_algebra(2, 4)
    wc = x_adic_chain(A, 4)
    assert wc.value(A.basis_vec(2)) == 2
    assert wc.value(A.zero()) == INFINITY


def test_chain_validation():
    A = truncated_poly_algebra(2, 2)
    with pytest.raises(FiltrationError, match="whole algebra"):
        ChainFiltration(A, [[A.basis_vec(1)], []])
    with pytest.raises(FiltrationError, match="separated"):
        ChainFiltration(A, [A.basis(), [A.basis_vec(1)]])
    with pytest.raises(FiltrationError, match="nested"):
        ChainFiltration(A, [A.basis(), [A.basis_vec(1)], [A.basis_vec(0)], []])


def test_check_axioms():
    rng = random.Random(0)
    R = SeriesRing(3, 5)
    assert check_axioms(AdicFiltration(R), samples=30, rng=rng).valid
    A = truncated_poly_algebra(2, 3)
    assert check_axioms(x_adic_chain(A, 3), samples=30, rng=rng).valid
    # Bad chain: F_1 = whole algebra, so w(1) = 1 but w(1*1) = 1 < 2.
    bad = ChainFiltration(A, [A.basis(), A.basis(), []])
    report = check_axioms(bad)
    assert not report.valid
    assert any("w(xy)" in axiom for axiom, _ in report.violations)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=5, max_size=5),
       st.lists(st.integers(min_value=0, max_value=8), min_size=5, max_size=5))
def test_adic_axioms_property(xs, ys):
    R = SeriesRing(3, 5)
    w = AdicFiltration(R)
    a, b = R.element(xs), R.element(ys)
    assert not w.value(R.add(a, b)) < min(w.value(a), w.value(b))
    assert not w.value(R.mul(a, b)) < w.value(a) + w.value(b)


def test_endo_degree():
    R = SeriesRing(3, 9)
    w = AdicFiltration(R)
    zero_map = tuple(la.zero_vec(9, 3) for _ in range(9))
    assert endo_degree(w, zero_map) == INFINITY
    assert endo_degree(w, la.identity_map(9, 3)) == 0
    sd = SkewDerivation.from_gen_images(R, R.gen(), R.monomial(1, 4))
    assert endo_degree(w, sd.delta_matrix) == 3  # delta(t) = t^(p+1)


def test_is_compatible():
    R = SeriesRing(2, 6)
    w = AdicFiltration(R)
    assert is_compatible(w, SkewDerivation.identity(R))
    sd = SkewDerivation.from_gen_images(R, R.gen(), R.monomial(1, 3))
    assert is_compatible(w, sd)
    A, ddx = ddx_derivation(2, 2)
    wc = x_adic_chain(A, 2)
    assert not is_compatible(wc, ddx)


def test_sigma_preserves_symbols_when_compatible():
    from skewseries.sps import iwasawa_demo

    S = iwasawa_demo(2, 8, 4)
    w, sd = S.u, S.sd
    rng = random.Random(1)
    for _ in range(30):
        e = S.base.random_element(rng)
        if e == S.base.zero():
            continue
        assert w.value(sd.sigma(e)) == w.value(e)
        assert w.value(S.base.sub(sd.sigma(e), e)) > w.value(e)


def test_lemma16():
    base = SeriesRing(2, 4, k=4)
    sig_t = base.smul(3, base.gen())  # sigma(t) = (1+p) t
    sd = SkewDerivation.from_gen_images(base, sig_t, base.sub(sig_t, base.gen()))
    w = AdicFiltration(base)
    for n in range(3):
        assert lemma16_check(w, sd, n)
    # sigma of p-power order: identity is of order 1 = p^0
    ident_sd = SkewDerivation.identity(base)
    assert lemma16_check(w, ident_sd, 5)
    R = SeriesRing(2, 4)  # k = 1: w(p) = infinity >= 1 still fine
    sd2 = SkewDerivation.identity(R)
    assert lemma16_check(AdicFiltration(R), sd2, 2)
    bad = SkewDerivation.from_gen_images(base, base.gen(), base.monomial(1, 2))
    with pytest.raises(FiltrationError, match="delta != sigma - id"):
        lemma16_check(w, bad, 1)


def test_assoc_graded_series():
    R = SeriesRing(3, 5)
    w = AdicFiltration(R)
    gr = assoc_graded(w, range(5))
    assert [gr.dim(d) for d in range(5)] == [1] * 5
    with pytest.raises(FiltrationError, match="window"):
        assoc_graded(w, range(20))


def test_assoc_graded_chain_realizes_algebra():
    A = truncated_poly_algebra(2, 2)
    w = x_adic_chain(A, 2)
    gr = assoc_graded(w, range(3))
    assert gr.dim(0) == 1 and gr.dim(1) == 1
    G = gr.to_algebra()
    # gr of F_2[X]/(X^2) along the X-adic chain is the same algebra, graded.
    assert G.dim == 2
    assert G.mul(G.basis_vec(1), G.basis_vec(1)) == G.zero()


def three_step_chain(p):
    """F_p[X]/(X^3) + F_p with F_1 = span(X, X^2), F_2 = span(X^2), F_3 = 0."""
    S = direct_sum(truncated_poly_algebra(p, 3), product_of_fields(p, 1))
    return ChainFiltration(S, [S.basis(), S.basis()[1:3], S.basis()[2:3], []])


def to_algebra_cases():
    """36 chain filtrations whose adapted bases are homogeneous, then 6 whose are not.

    X-adic and trivial chains on F_p[X]/(X^n) for p = 2, 3, 5 and n <= 5, the trivial chain
    on M_2(F_p) and ``three_step_chain(p)``; then the X-adic chain on F_p[X]/(X^4) and the
    three-step chain, each in a random basis, where a product of two reps also has
    coordinates above the sum of their values.
    """
    rng, cases = random.Random("to-algebra"), []
    for p in (2, 3, 5):
        for n in range(1, 6):
            A = truncated_poly_algebra(p, n)
            cases += [x_adic_chain(A, n), ChainFiltration(A, [A.basis(), []])]
        M = matrix_algebra(p, 2)
        cases += [ChainFiltration(M, [M.basis(), []]), three_step_chain(p)]
    for p in (2, 3, 5):
        for w in (x_adic_chain(truncated_poly_algebra(p, 4), 4), three_step_chain(p)):
            T = random_basis(w.ring, rng)
            inverse = [la.solve(T, e, p) for e in w.ring.basis()]  # e_k in the new basis
            levels = [[la.apply_map(inverse, v, p) for v in level] for level in w.levels]
            cases.append(ChainFiltration(rebase(w.ring, T), levels))
    return cases


def test_to_algebra_matches_the_symbol_of_every_product():
    # gr read off the adapted coordinates against one principal symbol per product
    cases = to_algebra_cases()
    assert len(cases) == 42
    for w in cases:
        assert check_axioms(w).valid
        gr = assoc_graded(w, range(w.depth + 1))
        G, expected = gr.to_algebra(), naive_to_algebra(gr)
        assert (G.structure, G.unit) == (expected.structure, expected.unit)


def test_to_algebra_refuses_a_chain_that_is_not_a_ring_filtration():
    # F_1 = span(1 + X) on F_2[X]/(X^2): (1 + X)^2 = 1 lies outside F_1, let alone F_2
    A = truncated_poly_algebra(2, 2)
    w = ChainFiltration(A, [A.basis(), [(1, 1)], []])
    with pytest.raises(FiltrationError, match="not a ring filtration"):
        assoc_graded(w, range(3)).to_algebra()


def test_gr_prime_lemma_on_corpus():
    A = truncated_poly_algebra(2, 3)
    assert gr_prime_implies_prime(x_adic_chain(A, 3))
    M = matrix_algebra(2, 2)
    trivial = ChainFiltration(M, [M.basis(), []])
    gr = assoc_graded(trivial, range(1))
    assert is_prime_fd(gr.to_algebra()) == is_prime_fd(M)
    assert gr_prime_implies_prime(trivial)


def test_quotient_filtration():
    A = truncated_poly_algebra(2, 4)
    w = x_adic_chain(A, 4)
    I = ideal_generated(A, [A.basis_vec(2)])
    wbar, B, project, lift = quotient_filtration(w, I)
    assert wbar.value(project(A.basis_vec(1))) == 1
    assert wbar.value(project(A.basis_vec(2))) == INFINITY
    assert check_axioms(wbar).valid
    zero = ideal_generated(A, [])
    wsame, _, project0, _ = quotient_filtration(w, zero)
    for i in range(4):
        assert wsame.value(project0(A.basis_vec(i))) == w.value(A.basis_vec(i))


def test_quotient_filtration_keeps_compatibility():
    # sigma = id, delta = 0 is compatible; so is any induced pair.
    A = truncated_poly_algebra(2, 4)
    w = x_adic_chain(A, 4)
    sd = SkewDerivation.identity(A)
    I = ideal_generated(A, [A.basis_vec(2)])
    from skewseries.finalg import induced_map

    wbar, B, project, lift = quotient_filtration(w, I)
    sig = induced_map(A, sd.sigma_matrix, B, project, lift)
    dlt = induced_map(A, sd.delta_matrix, B, project, lift)
    assert is_compatible(wbar, SkewDerivation(B, sig, dlt))


def fixture_filtrations():
    """The chain filtration of every shipped spec on a finite algebra."""
    from importlib import resources

    from skewseries.cli import build_context, parse_spec

    out = []
    for entry in sorted(resources.files("skewseries").joinpath("fixtures").iterdir(), key=str):
        ctx = build_context(parse_spec(entry.read_text()))
        if isinstance(ctx.filtration, ChainFiltration):
            out.append(ctx.filtration)
    return out


def test_adapted_basis_matches_a_fresh_subspace_per_vector():
    # one growing echelon basis against a fresh subspace per basis vector,
    # on the fixtures, X-adic chains, their quotients and chains spanned by
    # redundant random vectors in random order
    rng = random.Random("adapted")
    filtrations = fixture_filtrations()
    assert len(filtrations) >= 3
    for p in (2, 3, 5, None):
        A = truncated_poly_algebra(p, 5)
        w = x_adic_chain(A, 5)
        filtrations += [w, quotient_filtration(w, ideal_generated(A, [A.basis_vec(3)]))[0]]
        for _ in range(3):
            levels, vectors = [[]], []
            for _ in range(A.dim):
                vectors.append(A.random_element(rng))
                levels.insert(0, rng.sample(vectors, len(vectors)) + [A.add(vectors[0], vectors[-1])])
            levels[0] = A.basis()
            filtrations.append(ChainFiltration(A, levels))
    for w in filtrations:
        assert w.adapted_basis == naive_adapted_basis(w)
        assert w.adapted_basis is w.adapted_basis  # computed once per filtration


def test_chain_value_and_reduce_match_a_fresh_elimination():
    # levels keep their pivots; a fresh rref of each level gives the same answers
    rng = random.Random("chain-levels")
    for p in (2, 3, None):
        A = truncated_poly_algebra(p, 4)
        w = x_adic_chain(A, 4)
        for _ in range(30):
            a = A.random_element(rng)
            value = 0
            while value + 1 < len(w.levels) and la.is_zero_vec(
                    la.reduce_vector(*la.rref(w.levels[value + 1], p), a, p)):
                value += 1
            assert w.value(a) == (INFINITY if a == A.zero() else value)
            for j in range(-1, 6):
                level = w.levels[min(max(j, 0), w.depth)]  # F_j, clamped to the chain
                expected = la.reduce_vector(*la.rref(level, p), a, p) if level else tuple(a)
                assert w.reduce(a, j) == expected


def _compose(g, h):  # g after h, as in ``permutation_group``
    return tuple(g[i] for i in h)


def _commutator(x, y):
    inverse = [tuple(sorted(range(len(g)), key=g.__getitem__)) for g in (x, y)]
    return functools.reduce(_compose, [x, y, *inverse])


def jennings_series(G, p):
    """D_1 = G >= D_2 >= ... down to the trivial group, D_k generated by the commutators
    [x, y], x in D_(k-1), y in G, and the p-th powers of D_(ceil(k/p))."""
    series = [None, set(G)]
    while len(series[-1]) > 1:
        k = len(series)
        gens = {_commutator(x, y) for x in series[k - 1] for y in G}
        gens |= {functools.reduce(_compose, [x] * p) for x in series[-(-k // p)]}
        series.append(set(permutation_group(sorted(gens))))
    return series[1:]


def jennings_hilbert(series, p):
    """Coefficients of prod_k ((1 - t^(kp)) / (1 - t^k))^(d_k), p^(d_k) = |D_k / D_(k+1)|."""
    out = [1]
    for k, (D, E) in enumerate(zip(series, series[1:]), 1):
        d = next(d for d in itertools.count() if p**d == len(D) // len(E))
        for _ in range(d):  # times 1 + t^k + ... + t^(k(p-1))
            out = [sum(out[n - k * i] for i in range(p) if 0 <= n - k * i < len(out))
                   for n in range(len(out) + k * (p - 1))]
    return out


def lie_algebra_is_abelian(series):
    """[D_i, D_j] lies in D_(i+j+1) for all i, j: the bracket of the Jennings Lie algebra is 0."""
    levels = series + [series[-1]] * (len(series) + 1)  # D_j at j - 1; trivial past the series
    return all(_commutator(x, y) in levels[i + j]
               for i, D in enumerate(series, 1) for j, E in enumerate(series, 1) for x in D for y in E)


def radical_powers(A, gens):
    """J, J^2, ... of F_p[G] down to 0, J the augmentation ideal: J = sum_s (s - 1)A over the
    generators s, so J^(m+1) = J J^m is spanned by the (s - 1)v, v in J^m."""
    p, one = A.p, A.one()
    units = [A.sub(A.basis_vec(i), one) for i in gens]
    powers = [la.span([A.sub(e, one) for e in A.basis()], p)]
    while powers[-1]:
        powers.append(la.span([A.mul(u, v) for u in units for v in powers[-1]], p))
    return powers


def jennings_groups():
    """(name, p, generating permutations): every abelian p-group of order <= 27, as products
    of cycles on disjoint points, and D_8, Q_8 and the Heisenberg group mod 3."""
    groups = []
    for p, orders in ((2, [[2], [4], [2, 2], [8], [4, 2], [2, 2, 2], [16], [8, 2], [4, 4], [4, 2, 2],
                            [2, 2, 2, 2]]),
                      (3, [[3], [9], [3, 3], [27], [9, 3], [3, 3, 3]]), (5, [[5], [25], [5, 5]]),
                      (7, [[7]]), (11, [[11]]), (13, [[13]]), (17, [[17]]), (19, [[19]]), (23, [[23]])):
        for cycle_type in orders:
            degree, gens, start = sum(cycle_type), [], 0
            for n in cycle_type:
                gens.append(tuple(start + (i - start + 1) % n if start <= i < start + n else i
                                  for i in range(degree)))
                start += n
            groups.append((f"C{cycle_type}", p, gens))
    groups.append(("D_8", 2, [(1, 2, 3, 0), (0, 3, 2, 1)]))
    # Q_8 = {+-1, +-i, +-j, +-k} acting on itself: element 4s + u is (-1)^s times unit u
    units = {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3), (1, 0): (0, 1), (2, 0): (0, 2),
             (3, 0): (0, 3), (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0), (1, 2): (0, 3), (2, 3): (0, 1),
             (3, 1): (0, 2), (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}  # (u, v) -> (sign, uv)

    def quaternion(a, b):
        sign, unit = units[a % 4, b % 4]
        return 4 * ((a // 4 + b // 4 + sign) % 2) + unit

    groups.append(("Q_8", 2, [tuple(quaternion(g, h) for h in range(8)) for g in (1, 2)]))
    # upper unitriangular 3 x 3 over F_3, (a, b, c) for [[1, a, c], [0, 1, b], [0, 0, 1]], as 9a + 3b + c
    def heisenberg(x, y):
        (a, b, c), (d, e, f) = (divmod(x // 3, 3) + (x % 3,)), (divmod(y // 3, 3) + (y % 3,))
        return 9 * ((a + d) % 3) + 3 * ((b + e) % 3) + (c + f + a * e) % 3

    groups.append(("Heisenberg mod 3", 3, [tuple(heisenberg(g, h) for h in range(27)) for g in (9, 3)]))
    return groups


def test_radical_filtration_of_a_p_group_algebra_has_jennings_dimensions():
    # Jennings (Trans. AMS 50, 1941): the radical filtration of F_p[G] has Hilbert series
    # prod_k ((1 - t^(kp)) / (1 - t^k))^(d_k); and gr F_p[G] is the restricted enveloping
    # algebra of the Jennings Lie algebra (Quillen, J. Algebra 10, 1968), so it is commutative
    # exactly when that Lie algebra is abelian.  to_algebra's structure is checked too: it
    # is associative and unital, and generated in degree 1, as the associated graded of a
    # radical filtration is (its degree->=m basis vectors span the m-th power of the
    # degree->=1 ones).
    seen = set()
    for name, p, gens in jennings_groups():
        G = permutation_group(gens)
        A = permutation_group_algebra(p, gens, check=False)
        series = jennings_series(G, p)
        w = ChainFiltration(A, [A.basis()] + radical_powers(A, [G.index(s) for s in gens]))
        gr = assoc_graded(w, range(w.depth))
        assert [gr.dim(d) for d in range(w.depth)] == jennings_hilbert(series, p), name
        if len(G) > 16 and name != "Heisenberg mod 3":
            continue  # the big abelian ones: dimensions only, to stay well under a second
        B, flat = gr.to_algebra(), [d for d in gr.window for _ in gr.components[d]]
        FinAlgebra(p, B.dim, B.structure, B.unit)  # associative, with B.unit a two-sided one
        commutative = all(B.mul(a, b) == B.mul(b, a) for a, b in itertools.combinations(B.basis(), 2))
        assert commutative == lie_algebra_is_abelian(series), name
        seen.add(commutative)
        degree_one = [e for e, d in zip(B.basis(), flat) if d == 1]
        power = la.span([e for e, d in zip(B.basis(), flat) if d >= 1], p)
        for m in range(2, w.depth + 1):
            power = la.span([B.mul(e, v) for e in degree_one for v in power], p)
            assert power == la.span([e for e, d in zip(B.basis(), flat) if d >= m], p), (name, m)
    assert seen == {True, False}
