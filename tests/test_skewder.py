import collections
import itertools
import random
from fractions import Fraction

import pytest

import skewseries.exactla as la
from skewseries.core import _rational_scalar
from skewseries.finalg import (
    AlgebraError,
    FinAlgebra,
    ideal_generated,
    induced_map,
    product_of_fields,
    quotient_algebra,
    radical,
    subspace,
    truncated_poly_algebra,
)
from skewseries.series import SeriesRing
from skewseries.sps import iwasawa_demo, tpow_demo
from skewseries.skewder import (
    SkewDerivation,
    SkewDerivationError,
    check_skew_derivation,
    cor36_check,
    delta_n_product,
    evaluate,
    lemma31_check,
    pth_power,
    require_pair,
    trinomial_expand,
)

from helpers import (
    cor36_instance,
    random_basis,
    rebase_skew,
    ddx_derivation,
    dense_axiom_violations,
    perturbations,
    primes_workload_instances,
    sigma_shift_power,
)
from oracle import delta_n_oracle
from test_qscalars import q_instances


def test_check_valid_examples():
    A = truncated_poly_algebra(2, 2)
    assert check_skew_derivation(SkewDerivation.identity(A)).valid
    _, sd = ddx_derivation(2, 2)
    assert check_skew_derivation(sd).valid


def test_check_invalid_char0_derivation():
    A, sd = ddx_derivation(None, 2)
    # Over Q, delta(X) = 1 violates Leibniz at (X, X): delta(X^2) = 2X != 0.
    sigma = la.identity_map(2, None)
    delta = ((0, 0), (1, 0))
    bad = SkewDerivation(A, sigma, delta)
    report = check_skew_derivation(bad)
    assert not report.valid
    assert any(axiom == "Leibniz" and witness == (1, 1) for axiom, witness in report.violations)
    assert sd is not None


def test_q_axioms_checked():
    R = SeriesRing(3, 4)
    sd = SkewDerivation.from_gen_images(R, R.gen(), R.zero(), q=R.one())
    assert check_skew_derivation(sd).valid


def law_sweep():
    """The pairs on which the law pass is compared with the dense loop: every seed-1 primes
    instance and its quotients by its radical and by I, with the induced maps; the iwasawa and
    tpow demo rings at T = 12; and a Z/8 series ring.  Each comes with +-1 moves of single
    entries of sigma and of delta: of three random entries on an algebra, and of every entry of
    the image of t on a series ring, where over Z/8 a moved t^c with 2c >= T breaks a law at
    (1, 1) by 2 t^(c+1) only, which vanishes mod 2."""
    rng, pairs = random.Random(31), []
    for A, sd, I in primes_workload_instances() + primes_workload_instances(theorem_c=False):
        pairs.append(sd)
        for K in {radical(A), I} - {None}:
            if 0 < K.dim < A.dim:
                B, project, lift = quotient_algebra(A, K)
                maps = (induced_map(A, m, K, B, project, lift) for m in (sd.sigma_matrix, sd.delta_matrix))
                pairs.append(SkewDerivation(B, *maps))
    R = SeriesRing(2, 12, k=3)
    pairs += [iwasawa_demo(3, 12, 4).sd, tpow_demo(2, 12, 4).sd,
              SkewDerivation.from_gen_images(R, R.element([0, 3, 2]), R.element([0, 0, 2, 1]))]
    for sd in pairs:
        ring, mod = sd.ring, sd.ring.scalar_mod
        if isinstance(ring, SeriesRing):
            entries = [(1, c) for c in range(ring.dim)]
        else:
            entries = rng.sample(list(itertools.product(range(ring.dim), repeat=2)), min(ring.dim ** 2, 3))
        yield sd
        for sigma in perturbations(sd.sigma_matrix, mod, entries):
            yield SkewDerivation(ring, sigma, sd.delta_matrix, sd.q)
        for delta in perturbations(sd.delta_matrix, mod, entries):
            yield SkewDerivation(ring, sd.sigma_matrix, delta, sd.q)


def test_the_law_pass_matches_the_dense_loop():
    # check_skew_derivation, and so every verify report, against the former dense loop
    seen, valid = collections.Counter(), 0
    for sd in law_sweep():
        report = check_skew_derivation(sd)
        assert report.violations == dense_axiom_violations(sd)
        seen.update(axiom for axiom, _ in report.violations)
        valid += report.valid
    assert valid > 30 and set(seen) == {"sigma bijective", "sigma(1) = 1", "sigma multiplicative",
                                        "Leibniz", "delta(1) = 0"}


def pair_sweep():
    """(sd, q), q the scalar of delta sigma = q sigma delta over Q (None in characteristic p): the pairs
    of the primes benchmark at seed 1, checked copies of its F_p ones in a random basis, the iwasawa
    and tpow demo rings at T = 12, a Z/8 series ring, and ten Q pairs of test_qscalars with their
    rational q, each also with +-1 moves of a random entry of sigma and of delta; and the primes
    pairs of seeds 2 to 4 as they are."""
    rng = random.Random(53)
    pairs = [(sd, None if A.p else 1) for A, sd, _ in primes_workload_instances(1) + primes_workload_instances(1, False)]
    for sd, _ in pairs[:19]:  # the F_p ones: a dense Q basis makes the reference slow
        B, rebased = rebase_skew(sd.ring, sd, random_basis(sd.ring, rng))
        C = FinAlgebra(B.p, B.dim, B.structure, B.unit)
        pairs.append((SkewDerivation(C, rebased.sigma_matrix, rebased.delta_matrix), None))
    R = SeriesRing(2, 12, k=3)
    pairs += [(iwasawa_demo(3, 12, 4).sd, None), (tpow_demo(2, 12, 4).sd, None),
              (SkewDerivation.from_gen_images(R, R.element([0, 3, 2]), R.element([0, 0, 2, 1])), None)]
    pairs += [(sd, 1 if sd.q is None else _rational_scalar(A, sd.q)) for A, sd in rng.sample(q_instances(), 10)]
    for sd, q in pairs:
        ring, entries = sd.ring, [(rng.randrange(sd.ring.dim), rng.randrange(sd.ring.dim))]
        yield sd, q
        for sigma in perturbations(sd.sigma_matrix, ring.scalar_mod, entries):
            yield SkewDerivation(ring, sigma, sd.delta_matrix, sd.q), q
        for delta in perturbations(sd.delta_matrix, ring.scalar_mod, entries):
            yield SkewDerivation(ring, sd.sigma_matrix, delta, sd.q), q
    for seed in (2, 3, 4):
        yield from ((sd, None if A.p else 1)
                    for A, sd, _ in primes_workload_instances(seed) + primes_workload_instances(seed, False))


def full_pair_refusal(sd, q):
    """The refusal of require_pair from the full checks alone: the two maps composed both ways and
    the dense loop on every pair, in its order (None when the pair passes)."""
    mod, sigma, delta, c = sd.ring.scalar_mod, sd.sigma_matrix, sd.delta_matrix, 1 if q is None else q
    commutes = la.compose(sigma, delta, mod) == tuple(la.vscale(c, v, mod) for v in la.compose(delta, sigma, mod))
    laws = dense_axiom_violations(SkewDerivation(sd.ring, sigma, delta))  # no q laws
    if q is None and not commutes:
        return "requires sigma delta = delta sigma"
    if any(axiom.startswith("sigma") for axiom, _ in laws):
        return "sigma is not an algebra automorphism"
    if not commutes:
        return f"requires delta sigma = q sigma delta, q = {q}"
    return "(sigma, delta) is not a skew derivation: {}: witness {}".format(*laws[0]) if laws else None


def test_the_pair_check_on_the_generators_matches_the_full_checks():
    # require_pair proves the laws on the pairs (e_i, s), s in the generators, and delta sigma =
    # q sigma delta on the generators alone; the full checks are the reference
    seen = collections.Counter()
    for sd, q in pair_sweep():
        try:
            require_pair(sd, q)
            refusal = None
        except (SkewDerivationError, AlgebraError) as exc:
            refusal = str(exc)
        assert refusal == full_pair_refusal(sd, q)
        seen[refusal and refusal.split(":")[0].split(", q =")[0]] += 1
    assert seen[None] > 100 and min(seen.values()) > 10 and len(seen) == 5, seen


def test_a_law_check_on_a_series_ring_makes_no_ring_product(monkeypatch):
    # the pass sums over the basis products t^i t^j = t^(i+j); the dense loop made five
    # SeriesRing.mul calls per basis pair, on each delta_n_product call of criterion 1
    sd, calls = tpow_demo(2, 24, 4).sd, []
    mul = SeriesRing.mul
    monkeypatch.setattr(SeriesRing, "mul", lambda *args: calls.append(args) or mul(*args))
    assert check_skew_derivation(sd).valid and calls == []
    assert check_skew_derivation(SkewDerivation(sd.ring, sd.sigma_matrix, sd.delta_matrix, q=sd.ring.one())).valid
    assert calls  # the q laws still multiply


def test_pth_power():
    A, sd = ddx_derivation(2, 2)
    m0 = pth_power(sd, 0)
    assert m0.sigma_matrix == sd.sigma_matrix and m0.delta_matrix == sd.delta_matrix
    m1 = pth_power(sd, 1)
    assert m1.delta_matrix == tuple(la.zero_vec(2, 2) for _ in range(2))
    assert check_skew_derivation(m1).valid
    AQ, sdQ = ddx_derivation(None, 3)
    with pytest.raises(SkewDerivationError, match="characteristic p"):
        pth_power(sdQ, 1)
    for m in range(4):
        _, sd3 = ddx_derivation(3, 3)
        assert check_skew_derivation(pth_power(sd3, m)).valid


def test_characteristic_p_checks_refuse_z_mod_9():
    # char 9 != p 3: a check that refused characteristic 0 alone would compute here
    R = SeriesRing(3, 4, k=2)
    sd = SkewDerivation.from_gen_images(R, R.gen(), R.monomial(1, 2))
    with pytest.raises(SkewDerivationError, match="requires characteristic p"):
        pth_power(sd, 1)
    with pytest.raises(SkewDerivationError, match="requires characteristic p"):
        trinomial_expand(sd, R.one(), R.gen(), R.one(), 2)
    with pytest.raises(SkewDerivationError, match="requires characteristic p"):
        cor36_check(sd, None, R.gen(), R.gen(), R.one(), 1, 2)  # refused before I is read


def power_cases():
    """A derivation with sigma != id on each scalar kind: (Z/9)[t]/(t^5), F_3[X]/(X^3), Q[X]/(X^3)."""
    R = SeriesRing(3, 5, k=2)
    cases = [SkewDerivation.from_gen_images(R, R.element([0, 1, 1]), R.element([0, 0, 3, 1]))]
    for p, half in ((3, 2), (None, Fraction(1, 2))):
        A = truncated_poly_algebra(p, 3)
        X, X2 = A.basis_vec(1), A.basis_vec(2)
        cases.append(SkewDerivation.from_gen_images(A, A.add(A.smul(half, X), X2), A.add(A.one(), X2)))
    return cases


def test_sigma_and_delta_powers_match_repeated_application():
    # sigma^j and delta^i as one matrix power each, and evaluate's atom delta^i sigma^j,
    # against j applications of sigma, then i of delta
    rng = random.Random(3)
    for sd in power_cases():
        ring, mod = sd.ring, sd.ring.scalar_mod
        for a in list(ring.basis()) + [ring.random_element(rng) for _ in range(5)]:
            s = a
            for j in range(7):
                assert la.apply_map(sd.sigma_pow(j), a, mod) == s
                d = s
                for i in range(7):
                    if j == 0:
                        assert la.apply_map(sd.delta_pow(i), a, mod) == d
                    assert evaluate({(("a", i, j),): 1}, sd, {"a": a}) == d
                    d = sd.delta(d)
                s = sd.sigma(s)


def test_sigma_shift_power():
    A = product_of_fields(2, 2)
    swap = ((0, 1), (1, 0))
    ident = la.identity_map(2, 2)
    delta = la.map_sub(swap, ident, 2)
    sd = SkewDerivation(A, swap, delta)
    assert check_skew_derivation(sd).valid
    same = sigma_shift_power(sd, 1)
    assert same.sigma_matrix == sd.sigma_matrix
    sq = sigma_shift_power(sd, 2)
    assert sq.sigma_matrix == ident
    assert all(c == 0 for row in sq.delta_matrix for c in row)
    # agrees with pth_power when char = p = 2
    assert pth_power(sd, 1).sigma_matrix == sq.sigma_matrix
    _, ddx = ddx_derivation(2, 2)
    with pytest.raises(SkewDerivationError, match="sigma - id"):
        sigma_shift_power(ddx, 2)


def test_delta_n_product_matches_oracle():
    rng = random.Random(0)
    A, sd = ddx_derivation(3, 3)
    for _ in range(50):
        a, b = A.random_element(rng), A.random_element(rng)
        assert delta_n_product(sd, a, b, 0) == A.mul(a, b)
        expected1 = A.add(A.mul(sd.delta(a), b), A.mul(sd.sigma(a), sd.delta(b)))
        assert delta_n_product(sd, a, b, 1) == expected1
        for n in range(7):
            assert delta_n_product(sd, a, b, n) == delta_n_oracle(sd, A.mul(a, b), n)


def test_trinomial_expand_matches_oracle():
    rng = random.Random(1)
    A = truncated_poly_algebra(2, 4)
    sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.basis_vec(3))
    assert check_skew_derivation(sd).valid
    for _ in range(30):
        a, x, b = (A.random_element(rng) for _ in range(3))
        prod = A.mul(A.mul(a, x), b)
        assert trinomial_expand(sd, a, x, b, 0) == prod
        for n in range(1, 5):
            assert trinomial_expand(sd, a, x, b, n) == delta_n_oracle(sd, prod, n)
    AQ, sdQ = ddx_derivation(None, 3)
    with pytest.raises(SkewDerivationError, match="characteristic p"):
        trinomial_expand(sdQ, AQ.one(), AQ.one(), AQ.one(), 2)


def test_cor36_preconditions():
    A, sd = ddx_derivation(2, 2)
    I = ideal_generated(A, [A.basis_vec(1)])
    X = A.basis_vec(1)
    with pytest.raises(SkewDerivationError, match="minimal"):
        cor36_check(sd, I, X, X, A.one(), 0, 0)
    with pytest.raises(SkewDerivationError, match="common component"):
        cor36_check(sd, I, X, X, A.one(), 1, 1)
    with pytest.raises(SkewDerivationError, match="must lie in I"):
        cor36_check(sd, I, A.one(), X, A.one(), 1, 1)


def test_cor36_instance():
    rng = random.Random(2)
    A, sd = cor36_instance()
    assert check_skew_derivation(sd).valid
    I = ideal_generated(A, [A.basis_vec(1), A.basis_vec(2)])
    a, b = A.basis_vec(2), A.basis_vec(1)
    for x in [A.basis_vec(i) for i in range(4)] + [A.random_element(rng) for _ in range(20)]:
        assert cor36_check(sd, I, a, b, x, 1, 2)


def test_lemma31():
    A, sd = ddx_derivation(2, 2)
    I = ideal_generated(A, [A.basis_vec(1)])
    assert lemma31_check(sd, I)  # I + delta(I) = whole algebra
    A2, sd2 = cor36_instance()
    I2 = ideal_generated(A2, [A2.basis_vec(1), A2.basis_vec(2)])
    assert lemma31_check(sd2, I2)
    # random sigma-ideals in a product algebra with the swap automorphism
    B = product_of_fields(2, 2)
    swap = ((0, 1), (1, 0))
    sdB = SkewDerivation(B, swap, la.map_sub(swap, la.identity_map(2, 2), 2))
    zero = subspace(B, [])
    assert lemma31_check(sdB, zero)
    with pytest.raises(SkewDerivationError, match="sigma-stable"):
        lemma31_check(sdB, subspace(B, [B.basis_vec(0)]))


def test_the_paper_checks_refuse_a_pair_that_is_no_skew_derivation():
    # delta(X^2) = 1, delta(1) = delta(X) = 0 on F_2[X]/(X^3) with sigma = id breaks Leibniz at
    # (X, X); the expansions read 0 for delta(X X) = 1, and Lemma 3.1 read False, a refutation
    A = truncated_poly_algebra(2, 3)
    sd = SkewDerivation(A, la.identity_map(3, 2), ((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    X, X2 = A.basis_vec(1), A.basis_vec(2)
    assert sd.commuting and sd.delta(A.mul(X, X)) == A.one()
    I = ideal_generated(A, [X2])
    for call in (lambda: lemma31_check(sd, I), lambda: delta_n_product(sd, X, X, 1),
                 lambda: trinomial_expand(sd, X, A.one(), X, 1), lambda: cor36_check(sd, I, X2, X2, X, 1, 2)):
        with pytest.raises(SkewDerivationError,
                           match=r"^\(sigma, delta\) is not a skew derivation: Leibniz: witness \(1, 1\)$"):
            call()


def test_from_gen_images_on_series():
    R = SeriesRing(2, 6)
    sd = SkewDerivation.from_gen_images(R, R.gen(), R.monomial(1, 3))
    assert check_skew_derivation(sd).valid
    assert sd.delta(R.monomial(1, 2)) == R.zero()  # delta(t^2) = 2 t^4 = 0
