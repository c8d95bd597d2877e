import random
from fractions import Fraction

import pytest

from skewseries.cli import build_context, load_spec_file
from skewseries.coeffcore import INFINITY
from skewseries.filtration import AdicFiltration, ChainFiltration
from skewseries.finalg import ideal_generated, truncated_poly_algebra
from skewseries.series import SeriesRing
from skewseries.skewder import SkewDerivation
from skewseries.sps import (
    PrecisionError,
    SPSError,
    SPSRing,
    crossed_decompose,
    crossed_recompose,
    graded_dim,
    graded_iso_check,
    iwasawa_demo,
    quotient_kernel_check,
    quotient_sps,
    substitute_xN,
    tpow_demo,
)

from helpers import ddx_derivation, naive_sps_mul


def x_adic_chain(A, n):
    levels = [[A.basis_vec(i) for i in range(j, n)] for j in range(n)]
    return ChainFiltration(A, levels + [[]])


def quotient_setting(delta_gen=None, D=4):
    """F_2[X]/(X^2) base, sigma = id, with X-adic chain filtration."""
    A = truncated_poly_algebra(2, 2)
    if delta_gen is None:
        sd = SkewDerivation.identity(A)
    else:
        sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), delta_gen)
    return SPSRing(A, sd, x_adic_chain(A, 2), D)


def test_commutation_rule_tpow():
    S = tpow_demo(2, 6, 4)
    t = S.constant(S.base.gen())
    prod = S.mul(S.x(), t)
    # x t = delta(t) + sigma(t) x = t^3 + t x
    assert S.serialize(prod) == "1*t^3 + 1*t^1*x^1"


def test_commutation_rule_iwasawa():
    S = iwasawa_demo(2, 8, 4)
    t = S.constant(S.base.gen())
    prod = S.mul(S.x(), t)
    expected = S.add(S.constant(S.sd.delta(S.base.gen())),
                     S.mul(S.constant(S.sd.sigma(S.base.gen())), S.x()))
    assert prod == expected


def z4_iwasawa_type(T=6, D=5):
    """(Z/4)[t]/(t^T) with sigma(t) = (1+t)^3 - 1, delta = sigma - id."""
    R = SeriesRing(2, T, k=2)
    one_plus_t = R.add(R.one(), R.gen())
    sigma_t = R.sub(R.mul(R.mul(one_plus_t, one_plus_t), one_plus_t), R.one())
    sd = SkewDerivation.from_gen_images(R, sigma_t, R.sub(sigma_t, R.gen()))
    return SPSRing(R, sd, AdicFiltration(R), D)


def d1_ring():
    S = tpow_demo(3, 4, 2)
    return SPSRing(S.base, S.sd, S.u, 1)


def quotient_ring():
    S = quotient_setting()
    return quotient_sps(S, ideal_generated(S.base, [S.base.basis_vec(1)]))[0]


DIFFERENTIAL_RINGS = {
    **{
        f"{demo.__name__}-p{p}-D{D}": (lambda demo=demo, p=p, D=D: demo(p, 8, D))
        for demo in (iwasawa_demo, tpow_demo)
        for p in (2, 3)
        for D in (2, 5, 12)
    },
    "D1": d1_ring,
    "z4-series": z4_iwasawa_type,
    "chain-filtered": quotient_setting,
    "chain-filtered-quotient": quotient_ring,
}


def sparse_element(S, rng):
    """Few nonzero x-coefficients, each with few nonzero base entries."""
    coeffs = []
    for _ in range(S.D):
        r = S.base.random_element(rng)
        if rng.random() < 0.6:
            r = tuple(0 * c for c in r)
        coeffs.append(tuple(c if rng.random() < 0.4 else 0 * c for c in r))
    return S.normalize(coeffs)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_RINGS))
def test_mul_matches_naive_expansion(name):
    S = DIFFERENTIAL_RINGS[name]()
    rng = random.Random(name)
    for make in (S.random_element, lambda rng: sparse_element(S, rng)):
        for _ in range(4):
            f, g = make(rng), make(rng)
            assert S.mul(f, g) == naive_sps_mul(S, f, g)
    x = S.x() if S.D > 1 else S.one()
    for f, g in ((S.one(), x), (x, S.one()), (S.zero(), x), (x, x)):
        assert S.mul(f, g) == naive_sps_mul(S, f, g)


def test_unit_laws():
    for S in (iwasawa_demo(2, 8, 6), tpow_demo(3, 6, 5)):
        rng = random.Random(0)
        for _ in range(10):
            f = S.random_element(rng)
            assert S.mul(S.one(), f) == f
            assert S.mul(f, S.one()) == f
            assert S.add(f, S.zero()) == f
            assert S.add(f, S.sub(S.zero(), f)) == S.zero()


def test_ring_laws_random_triples():
    for S in (iwasawa_demo(2, 8, 6), tpow_demo(3, 6, 5)):
        rng = random.Random(1)
        for _ in range(25):
            f, g, h = (S.random_element(rng) for _ in range(3))
            assert S.mul(S.mul(f, g), h) == S.mul(f, S.mul(g, h))
            assert S.mul(f, S.add(g, h)) == S.add(S.mul(f, g), S.mul(f, h))
            assert S.mul(S.add(f, g), h) == S.add(S.mul(f, h), S.mul(g, h))


def test_f_u_values():
    S = iwasawa_demo(2, 8, 6)
    assert S.f_u_value(S.zero()) == INFINITY
    assert S.f_u_value(S.one()) == 0
    t = S.base.gen()
    coeffs = [S.base.zero()] * 6
    coeffs[3] = t
    assert S.f_u_value(S.normalize(coeffs)) == Fraction(5, 2)  # u(t) + 3/2
    assert S.f_u_value(S.x()) == Fraction(1, 2)


def test_f_u_submultiplicative():
    # the spec's ring is chain-filtered: its f_u values come from ChainFiltration.value
    quotient_demo = build_context(load_spec_file("quotient_demo.spec")).sps
    assert isinstance(quotient_demo.u, ChainFiltration)
    for S in (iwasawa_demo(2, 10, 8), tpow_demo(2, 10, 8), quotient_demo):
        rng = random.Random(2)
        for _ in range(40):
            f, g = S.random_element(rng), S.random_element(rng)
            assert not S.f_u_value(S.mul(f, g)) < S.f_u_value(f) + S.f_u_value(g)
            assert not S.f_u_value(S.add(f, g)) < min(S.f_u_value(f), S.f_u_value(g))


def test_boundedness_check():
    S = iwasawa_demo(2, 8, 6)
    # membership in the bounded ring over a window: f_u(f) >= floor
    assert S.f_u_value(S.one()) >= 0
    assert not S.f_u_value(S.one()) >= 1
    assert S.f_u_value(S.x()) >= Fraction(1, 2)
    assert S.f_u_value(S.zero()) >= 100


def test_graded_iso_check():
    rng = random.Random(3)
    assert graded_iso_check(iwasawa_demo(2, 12, 12), range(12), rng=rng)
    assert graded_iso_check(tpow_demo(2, 12, 12), range(12), rng=rng)
    with pytest.raises(PrecisionError, match="window"):
        graded_iso_check(iwasawa_demo(2, 8, 6), range(8), rng=rng)


def test_graded_dim_counts_value_and_x_degree_pairs():
    # the one count behind graded_iso_check and the gr command's "dim" lines
    for S in (iwasawa_demo(2, 8, 6), tpow_demo(3, 6, 5), quotient_setting()):
        for h in range(-1, 2 * S.D + 2):
            pairs = [(val, b) for _, val in S.u.adapted_basis for b in range(S.D) if 2 * val + b == h]
            assert graded_dim(S, h) == len(pairs)
    assert [graded_dim(quotient_setting(), h) for h in range(7)] == [1, 1, 2, 2, 1, 1, 0]


def test_quotient_sps_multiplicative():
    S = quotient_setting()
    I = ideal_generated(S.base, [S.base.basis_vec(1)])
    Sbar, project = quotient_sps(S, I)
    rng = random.Random(4)
    for _ in range(40):
        f, g = S.random_element(rng), S.random_element(rng)
        assert project(S.mul(f, g)) == Sbar.mul(project(f), project(g))
        assert project(S.add(f, g)) == Sbar.add(project(f), project(g))


def test_quotient_kernel():
    S = quotient_setting()
    I = ideal_generated(S.base, [S.base.basis_vec(1)])
    _, project = quotient_sps(S, I)
    rng = random.Random(5)
    for _ in range(40):
        f = S.random_element(rng)
        assert quotient_kernel_check(S, I, project, f)
    in_kernel = S.mul(S.constant(S.base.basis_vec(1)), S.x())
    assert all(c == 0 for r in project(in_kernel) for c in r)


def test_quotient_stability_errors():
    A, ddx = ddx_derivation(2, 2)
    S = SPSRing(A, ddx, x_adic_chain(A, 2), 3, check=False)
    I = ideal_generated(A, [A.basis_vec(1)])
    with pytest.raises(SPSError, match="delta"):
        quotient_sps(S, I)
    from skewseries.finalg import product_of_fields, subspace
    import skewseries.exactla as la

    B = product_of_fields(2, 2)
    swap = ((0, 1), (1, 0))
    sdB = SkewDerivation(B, swap, la.map_sub(swap, la.identity_map(2, 2), 2))
    SB = SPSRing(B, sdB, ChainFiltration(B, [B.basis(), []]), 3, check=False)
    J = subspace(B, [B.basis_vec(0)])
    with pytest.raises(SPSError, match="sigma"):
        quotient_sps(SB, J)


def test_substitute_xN():
    S = iwasawa_demo(2, 8, 6)
    assert substitute_xN(S, 0) == S.x()
    # char 2: (x+1)^2 - 1 = x^2
    assert substitute_xN(S, 1) == S.power(S.x(), 2)
    with pytest.raises(PrecisionError):
        substitute_xN(S, 5)


def test_substitute_xN_mixed_characteristic():
    base = SeriesRing(3, 2, k=2)  # Z/9 [[t]]/(t^2)
    sd = SkewDerivation.identity(base)
    from skewseries.filtration import AdicFiltration

    S = SPSRing(base, sd, AdicFiltration(base), 5, check=False)
    xN = substitute_xN(S, 1)
    # (x+1)^3 - 1 = x^3 + 3x^2 + 3x over Z/9
    three = S.constant(base.smul(3, base.one()))
    expected = S.add(S.power(S.x(), 3), S.mul(three, S.add(S.power(S.x(), 2), S.x())))
    assert xN == expected


def test_crossed_decompose_examples():
    S = iwasawa_demo(2, 8, 6)
    t = S.base.gen()
    comps = crossed_decompose(S, 1, S.constant(t))
    assert comps[0][0] == t
    assert all(c == S.base.zero() for c in comps[1])
    comps = crossed_decompose(S, 1, S.power(S.x(), 3))
    # x^3 = (y-1)^3 = y^3 - y^2 ... in y = x+1; with e=2: s_0 = s_1 = x_1
    z = S.base.zero()
    o = S.base.one()
    assert comps[0] == [z, o, z] and comps[1] == [z, o, z]


def test_crossed_round_trip():
    for N in (1, 2):
        S = iwasawa_demo(2, 8, 8)
        rng = random.Random(6 + N)
        for _ in range(30):
            f = S.random_element(rng)
            comps = crossed_decompose(S, N, f)
            assert crossed_recompose(S, N, comps) == f


def test_crossed_refuses_a_negative_N():
    S = iwasawa_demo(2, 8, 6)
    comps = crossed_decompose(S, 0, S.x())
    for call in (lambda: crossed_decompose(S, -1, S.x()), lambda: crossed_recompose(S, -1, comps),
                 lambda: substitute_xN(S, -1)):
        with pytest.raises(SPSError, match="N must be >= 0"):
            call()


def test_crossed_requires_iwasawa_type():
    S = tpow_demo(2, 6, 4)
    with pytest.raises(SPSError, match="sigma - id"):
        crossed_decompose(S, 1, S.one())


def test_serialize_deterministic():
    S = iwasawa_demo(2, 8, 6)
    rng = random.Random(7)
    for _ in range(10):
        f = S.random_element(rng)
        assert S.serialize(f) == S.serialize(S.normalize(list(f)))
    assert S.serialize(S.zero()) == "0"
    assert S.serialize(S.one()) == "1"


def test_power_matches_repeated_mul():
    # square-and-multiply gives the same staircase residue as n - 1 products
    rng = random.Random("sps-power")
    for S in (iwasawa_demo(2, 6, 6), tpow_demo(3, 5, 7), quotient_setting(D=5)):
        f = S.random_element(rng)
        expected = S.one()
        for n in range(10):
            assert S.power(f, n) == expected
            expected = S.mul(expected, f)
