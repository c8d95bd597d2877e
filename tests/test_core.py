import collections
import inspect
import itertools
import random
import sys
import types

import pytest

import skewseries.exactla as la
from skewseries import core, finalg, skewder
from skewseries.core import (
    CoreError,
    char0_checks,
    core_flags,
    default_cap,
    delta_core,
    delta_pm_core,
    prop39_check,
    stabilization_M,
    theorem_c_procedure,
)
from skewseries.finalg import (
    AlgebraError,
    FinAlgebra,
    IdealSubspace,
    automorphism,
    direct_sum,
    ideal_generated,
    is_sigma_prime,
    is_stable,
    law_violations,
    minimal_primes_over,
    minimal_sigma_primes,
    prime_spectrum,
    product_of_fields,
    radical,
    sigma_orbit,
    subspace,
    truncated_poly_algebra,
)
from skewseries.skewder import (
    SkewDerivation,
    SkewDerivationError,
    check_skew_derivation,
    cor36_check,
    delta_n_product,
    pth_power,
    trinomial_expand,
)

from helpers import (
    cyclic_quiver_square_zero,
    ddx_derivation,
    iwasawa_group_algebra,
    naive_core_chain,
    naive_delta_core,
    naive_char0_checks,
    naive_minimal_sigma_primes,
    naive_theorem_c,
    naive_verdict,
    perm_skew,
    permutation_group_algebra,
    primes_workload_instances,
    random_basis,
    random_char0_instance,
    rebase_skew,
    reference_spectrum,
    whole_spectrum_theorem_c,
)
from test_qscalars import cycles, q_instances


def bg_instance(p):
    """F_p[X]/(X^p), sigma = id, delta = d/dX, I = (X).

    d/dX is a derivation of F_p[X]/(X^n) only when p divides n, since
    d(X^n) = n X^(n-1) must lie in (X^n).
    """
    A, sd = ddx_derivation(p, p)
    assert check_skew_derivation(sd).valid
    I = ideal_generated(A, [A.basis_vec(1)])
    return A, sd, I


def swap_skew():
    B = product_of_fields(2, 2)
    swap = ((0, 1), (1, 0))
    delta = la.map_sub(swap, la.identity_map(2, 2), 2)
    sd = SkewDerivation(B, swap, delta)
    assert check_skew_derivation(sd).valid
    return B, sd


def test_delta_core_stable_ideal_is_itself():
    A = truncated_poly_algebra(3, 3)
    sd = SkewDerivation.identity(A)
    I = ideal_generated(A, [A.basis_vec(1)])
    assert delta_core(A, sd, I) == I


def test_delta_core_bg_is_zero():
    for p in (2, 3, 5):
        A, sd, I = bg_instance(p)
        assert delta_core(A, sd, I).dim == 0


def test_delta_core_requires_sigma_stable():
    B, sd = swap_skew()
    with pytest.raises(CoreError, match="sigma-stable"):
        delta_core(B, sd, subspace(B, [B.basis_vec(0)]))


def test_delta_core_is_maximal_evidence():
    # any (sigma, delta)-stable ideal inside I lies inside the core
    rng = random.Random(0)
    A, sd = ddx_derivation(2, 4)
    I = ideal_generated(A, [A.basis_vec(1)])
    core = delta_core(A, sd, I)
    for _ in range(30):
        seed = A.random_element(rng)
        K = ideal_generated(A, [seed])
        stable = all(
            I.contains(v) and K.contains(sd.sigma(v)) and K.contains(sd.delta(v))
            for v in K.basis
        )
        if stable:
            assert all(core.contains(v) for v in K.basis)


def conjugation_skew(A, u):
    """(sigma, sigma - id) with sigma(a) = u a u^(-1), for a unit u of finite order."""
    u_inv = u
    while A.mul(u_inv, u) != A.one():
        u_inv = A.mul(u_inv, u)
    sigma = tuple(A.mul(A.mul(u, e), u_inv) for e in A.basis())
    sd = SkewDerivation(A, sigma, la.map_sub(sigma, la.identity_map(A.dim, A.p), A.p))
    assert check_skew_derivation(sd).valid
    return sd


def square_zero_instance():
    """F_2 + m with m = span{Y, Z, W} and m^2 = 0; sigma swaps Y, Z and delta(Z) = W.

    Every subspace of m is an ideal.  I = span{Y, Z} is sigma-stable, and
    its largest delta-stable subspace span{Y} is not, so the core is 0.
    """
    structure = [[tuple(int(k == i + j) if 0 in (i, j) else 0 for k in range(4))
                  for j in range(4)] for i in range(4)]
    A = FinAlgebra(2, 4, structure, (1, 0, 0, 0))
    sigma = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    delta = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    sd = SkewDerivation(A, sigma, delta)
    assert check_skew_derivation(sd).valid
    return A, sd, subspace(A, [A.basis_vec(1), A.basis_vec(2)])


S3 = [(1, 0, 2), (1, 2, 0)]
A4 = [(1, 2, 0, 3), (1, 0, 3, 2)]


def test_delta_core_matches_naive_on_fixed_instances():
    A, sd, I = square_zero_instance()
    assert not sd.commuting
    assert delta_core(A, sd, I).dim == 0 == naive_delta_core(A, sd, I).dim
    # (id, d/dX) on F_p[X]/(X^2) is not a skew derivation for p = 3, 5
    # (d(X^2) = 2X): kept on purpose, as the certified core needs no validity
    cases = []
    for p in (2, 3, 5):
        A, sd = ddx_derivation(p, 2)
        I = ideal_generated(A, [A.basis_vec(1)])
        cases.append((A, sd, [I, subspace(A, []), ideal_generated(A, [A.one()])]))
    for p, gens in ((2, S3), (3, A4)):
        A = permutation_group_algebra(p, gens)
        sd = conjugation_skew(A, A.basis_vec(1))  # conjugation by the first generator
        zero = subspace(A, [])
        augmentation = ideal_generated(A, [A.sub(A.basis_vec(i), A.one()) for i in (1, 2)])
        ideals = [zero, radical(A), augmentation, ideal_generated(A, [A.one()])]
        cases.append((A, sd, ideals + minimal_primes_over(A, zero)))
    for A, sd, ideals in cases:
        if check_skew_derivation(sd).valid:
            pairs = (sd, pth_power(sd, 1))
        else:  # no p-th power of a non-derivation is taken: pth_power refuses it
            pairs = (sd,)
            with pytest.raises(SkewDerivationError, match=r"^\(sigma, delta\) is not a skew derivation: Leibniz"):
                pth_power(sd, 1)
        for pair in pairs:
            for I in ideals:
                assert delta_core(A, pair, I) == naive_delta_core(A, pair, I)


def test_delta_core_matches_naive_on_noncommuting_pairs():
    # F_p[X]/(X^n), sigma(X) = uX + ..., delta(X) random, against every (X^k)
    rng = random.Random(5)
    pairs = moved = 0
    while pairs < 40:
        p = rng.choice((2, 3, 5))
        n = rng.randint(3, 6)
        A = truncated_poly_algebra(p, n)
        X = A.basis_vec(1)
        sg = A.element([0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)])
        dg = A.random_element(rng)
        sd = SkewDerivation.from_gen_images(A, sg, dg)
        if sd.commuting or not check_skew_derivation(sd).valid:
            continue
        if ideal_generated(A, [A.sub(X, sg)]).contains(dg):
            continue  # inner, delta = t(id - sigma): it fixes every sigma-stable ideal
        pairs += 1
        for k in range(n + 1):
            I = ideal_generated(A, [A.basis_vec(k)] if k < n else [])
            core = delta_core(A, sd, I)
            assert core == naive_delta_core(A, sd, I)
            moved += core != I
    assert moved > 0


def test_delta_core_returns_a_stable_ideal_itself():
    # a (sigma, delta)-stable I is its own core and comes back as the same
    # object, with no fixpoint; every core matches the reference at m = 0, 1, 2
    reused = moved = 0
    for A, sd, I in core_chain_cases():
        for m in range(3):
            pair = pth_power(sd, m)
            K = delta_core(A, pair, I)
            assert K == naive_delta_core(A, pair, I)
            assert (K is I) == (K == I)
            reused, moved = reused + (K is I), moved + (K != I)
    assert reused and moved


def test_delta_core_refuses_a_non_ideal_answer():
    A = truncated_poly_algebra(2, 3)
    X = A.basis_vec(1)
    # span{X} is stable under sigma = id and delta = 0, but X * X = X^2 escapes it
    with pytest.raises(CoreError, match="I is not a two-sided ideal"):
        delta_core(A, SkewDerivation.identity(A), subspace(A, [X]))
    # (X) is an ideal, but delta(X^2) = 1, delta(X) = 0 breaks the Leibniz rule
    not_derivation = SkewDerivation(A, la.identity_map(3, 2), ((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    with pytest.raises(CoreError, match="not a skew derivation"):
        delta_core(A, not_derivation, ideal_generated(A, [X]))


def test_delta_pm_core():
    A, sd, I = bg_instance(2)
    assert delta_pm_core(A, sd, I, 0) == delta_core(A, sd, I)
    assert delta_pm_core(A, sd, I, 1) == I  # delta^2 = 0
    AQ, sdQ = ddx_derivation(None, 2)
    with pytest.raises(CoreError, match="characteristic p"):
        delta_pm_core(AQ, sdQ, ideal_generated(AQ, [AQ.basis_vec(1)]), 1)


def test_stabilization_bg():
    for p in (2, 3, 5):
        A, sd, I = bg_instance(p)
        report, flags = core_flags(A, sd, I)
        assert report.conclusive and report.M == 1
        assert report.chain[0] == (0, 0) and report.chain[1] == (1, p - 1)
        assert report.core == I
        assert flags["is ideal"]
        assert flags["sigma^(p^M)-stable"]
        assert flags["delta^(p^M)-stable"]


def test_stabilization_trivial_case():
    A = truncated_poly_algebra(3, 3)
    sd = SkewDerivation.identity(A)
    I = ideal_generated(A, [A.basis_vec(1)])
    report = stabilization_M(A, sd, I)
    assert report.M == 0 and report.core == I


def test_stabilization_inconclusive_at_small_cap():
    A, sd, I = bg_instance(2)
    report = stabilization_M(A, sd, I, cap=1)
    # chain is 0, 1 and still moving at the cap
    assert report.M is None and not report.conclusive
    assert "inconclusive" in report.serialize()


def test_stabilization_cap_zero_compares_nothing():
    # one core, no comparison: inconclusive whether the true M is 1 or 0
    A, sd, I = bg_instance(3)
    report = stabilization_M(A, sd, I, cap=0)
    assert report.M is None and report.chain == [(0, 0)]
    assert report.serialize().splitlines()[2] == "M: inconclusive at cap 0"
    A = truncated_poly_algebra(3, 3)
    trivial = SkewDerivation.identity(A)
    assert stabilization_M(A, trivial, ideal_generated(A, [A.basis_vec(1)]), cap=0).M is None
    J, M, flags = theorem_c_procedure(*bg_instance(3), cap=0)
    assert J is None and M is None and flags["inconclusive"]


def cycled_blocks(p, k, m):
    """k copies of F_p[X]/(X^m), sigma cycling the copies, delta = sigma - id.

    For p prime to k the pairs (sigma^(p^j), delta^(p^j)) repeat with the
    period of p modulo k, so the chain meets earlier pairs again.
    """
    block = A = truncated_poly_algebra(p, m)
    for _ in range(k - 1):
        A = direct_sum(A, block)
    n = k * m
    sigma = tuple(A.basis_vec((i + m) % n) for i in range(n))
    sd = SkewDerivation(A, sigma, la.map_sub(sigma, la.identity_map(n, p), p))
    assert check_skew_derivation(sd).valid
    return A, sd


def core_chain_cases():
    cases = [bg_instance(p) for p in (2, 3, 5)]
    for p, gens in ((2, S3), (3, A4)):
        A = permutation_group_algebra(p, gens)
        cases.append((A, conjugation_skew(A, A.basis_vec(1)), radical(A)))
    for p, k, m in ((2, 3, 2), (3, 2, 3), (2, 5, 1)):
        A, sd = cycled_blocks(p, k, m)
        zero = subspace(A, [])
        cases += [(A, sd, I) for I in [zero, radical(A)] + minimal_sigma_primes(A, sd.sigma_matrix, zero)]
    return cases


def delta_squared_is_delta():
    """F_2[X]/(X^2), sigma = id, delta(X) = 1 + X, I = (X): delta^2 = delta, so every
    pair is P_0, and the chain is 0 at every m, never reaching I."""
    A = truncated_poly_algebra(2, 2)
    sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.add(A.one(), A.basis_vec(1)))
    assert check_skew_derivation(sd).valid and sd.delta_pow(2) == sd.delta_matrix
    return A, sd, ideal_generated(A, [A.basis_vec(1)])


def test_the_iwasawa_quotient_of_dim_56_built_from_its_products():
    # F_2[C_2^3 x C_7] with sigma = inversion on C_7 and delta = sigma - id: rad F_2[P] (x) F_2[H] has
    # dim |G| - |H| = 49; inversion swaps the two cubic factors of X^7 - 1, so the minimal sigma-primes
    # have codimension 1 and 6; delta = sigma - id keeps each, so Theorem C returns it with M = 0
    A, sd = iwasawa_group_algebra(3)
    assert A.dim == 56 and radical(A).dim == 49
    primes = minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))
    assert [P.dim for P in primes] == [55, 50]
    for P in primes:
        J, M, flags = theorem_c_procedure(A, sd, P)
        assert (J, M) == (P, 0) and flags["inconclusive"] is False
        assert [flags[k] for k in flags if k not in ("inconclusive", "reports")] == [True] * 3


def test_stabilization_chain_matches_naive():
    # one p-th power per step, one core per distinct pair, no core after one equal to I
    # and delta-only fixpoints for commuting pairs, against naive_delta_core of its own
    # pth_power(sd, m) at every m: chain, M and core.  The quiver's second round
    # stabilizes J under (sigma, delta)^2
    A, sd = cyclic_quiver_square_zero(4)
    J = theorem_c_procedure(A, sd, radical(A))[0]
    cases = [(case, 5) for case in core_chain_cases() + [
        delta_squared_is_delta(), (A, sd, radical(A)), (A, pth_power(sd, 1), J)]]
    # the primes instances of seeds 1-3 up to cap 3, which keeps the reference near 2 s
    cases += [(case, 3) for seed in (1, 2, 3) for case in primes_workload_instances(seed)]
    for (A, sd, I), top in cases:
        naive = naive_core_chain(A, sd, I, top)
        for cap in (0, 1, top):
            chain = naive[:cap + 1]
            M = next(m for m, K in enumerate(chain) if K == chain[cap])
            report = stabilization_M(A, sd, I, cap=cap)
            assert report.chain == [(m, K.dim) for m, K in enumerate(chain)]
            assert (report.M, report.core) == (None if M == cap else M, chain[cap])


def counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends name to calls."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_stabilization_computes_one_core_per_distinct_pair(monkeypatch):
    # sigma = id and delta^p = 0: P_0 = (id, delta), then P_m = (id, 0) for m >= 1
    calls = []
    counting(monkeypatch, core, "delta_core", calls)
    for p in (2, 3, 5):
        calls.clear()
        report = stabilization_M(*bg_instance(p), cap=5)
        assert report.M == 1 and len(report.chain) == 6
        assert len(calls) <= 2


def test_stabilization_stops_raising_pairs_at_their_period(monkeypatch):
    # pairs are raised up to the first repeat or the first core equal to I only.  The
    # cycled copies' ideals are their own cores: one pair.  For bg the core is 0 at m = 0
    # and I at m = 1: two.  delta^2 = delta repeats P_0 at m = 1, with the core 0 throughout: two.
    # pth_power is called once for the pair's check (P_0), once per raised pair after P_0 and
    # once per core computed, which reads its pair off the ladder: 2, 2, 4, 4 and 3 calls
    A, sd = cycled_blocks(2, 3, 2)
    calls = []
    counting(monkeypatch, core, "pth_power", calls)
    cases = [(A, sd, I) for I in (subspace(A, []), radical(A))] + [bg_instance(2), bg_instance(3)]
    for case, raised in zip(cases + [delta_squared_is_delta()], (2, 2, 4, 4, 3)):
        for cap in (1, 2, 5):
            calls.clear()
            report = stabilization_M(*case, cap=cap)
            assert len(calls) == raised
            assert report.chain == [(m, K.dim) for m, K in enumerate(naive_core_chain(*case, cap))]


def test_no_cache_outlives_a_verdict(monkeypatch):
    # reuse stays inside one call: a repeated verdict repeats all its work
    calls = []
    counting(monkeypatch, core, "delta_core", calls)
    counting(monkeypatch, finalg, "radical", calls)
    for module in (finalg, core):  # every orbit goes through finalg.sigma_orbit
        counting(monkeypatch, module, "sigma_orbit", calls)
    A = permutation_group_algebra(2, S3)
    sd = conjugation_skew(A, A.basis_vec(1))
    group_case = (A, sd, minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))[0])
    for case in (bg_instance(3), group_case):
        counts = []
        for _ in range(2):
            calls.clear()
            assert theorem_c_procedure(*case)[0] is not None
            counts.append({name: calls.count(name) for name in ("delta_core", "radical", "sigma_orbit")})
        assert counts[0] == counts[1] and all(counts[0].values())


def test_each_verdict_does_its_work_once(monkeypatch):
    # per verdict: P's sigma-orbit is walked once (the flags read the
    # sigma^(p^M)-orbit and its meet off it), sigma and delta are raised only
    # up the ladder of the checked copy (a copy at rung 0, one p-th power per
    # rung above), and each (ideal, map) stability test is evaluated once;
    # a second verdict on the same objects does exactly the same work
    walks, powers, tests, pairs = [], [], [], []
    for module in (finalg, core):
        walk = module.sigma_orbit
        monkeypatch.setattr(module, "sigma_orbit", lambda I, sigma, walk=walk, **kw: (
            walks.append((I, sigma)) or walk(I, sigma, **kw)))
    for module in (finalg, skewder):
        test = module.is_stable
        monkeypatch.setattr(module, "is_stable", lambda I, m, test=test: tests.append((I, m)) or test(I, m))
    map_power, stabilize = la.map_power, core.stabilization_M
    monkeypatch.setattr(la, "map_power", lambda m, k, p: powers.append(
        (sys._getframe(1).f_globals["__name__"], k)) or map_power(m, k, p))
    monkeypatch.setattr(core, "stabilization_M", lambda A, sd, I, cap=None: (
        pairs.append(sd) or stabilize(A, sd, I, cap=cap)))
    for A, sd, I in theorem_c_cases():
        P, p = minimal_primes_over(A, I)[0], A.p
        for verdict in (theorem_c_procedure, core_flags):
            counts = []
            for _ in range(2):
                for calls in (walks, powers, tests, pairs):
                    calls.clear()
                verdict(A, sd, I)
                ladder = pairs[0].ladder
                assert all(pair.ladder is ladder for pair in pairs)
                assert [k for name, k in powers if name == "skewseries.skewder"] == \
                    [1, 1] + [p] * (2 * len(ladder) - 2)
                assert len(set(walks)) == len(walks) and len(set(tests)) == len(tests)
                if verdict is theorem_c_procedure:
                    assert [J for J, sigma in walks].count(P) == 1
                counts.append((len(walks), powers[:], len(tests), len(ladder)))
            assert counts[0] == counts[1]


def test_one_ideal_certificate_per_core(monkeypatch):
    # delta_core certifies each core it returns, once per distinct core object
    # (a core equal to I is I itself); the "is ideal" flag of core_flags reads
    # that certificate instead of evaluating it again
    evaluations, cores = [], []
    certify = IdealSubspace._closed_under_products
    monkeypatch.setattr(IdealSubspace, "_closed_under_products",
                        lambda I: evaluations.append(I) or certify(I))
    delta_core = core.delta_core

    def recording(*args, **kwargs):
        cores.append(delta_core(*args, **kwargs))
        return cores[-1]

    monkeypatch.setattr(core, "delta_core", recording)
    A = permutation_group_algebra(2, A4)
    sd = conjugation_skew(A, A.basis_vec(1))
    I = minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))[0]
    evaluations.clear()
    J, _, flags = theorem_c_procedure(A, sd, I)
    assert J is not None
    assert core_flags(A, sd, I)[1]["is ideal"]
    assert cores and len(cores) > len({id(K) for K in cores})  # a core reused
    assert sorted(map(id, evaluations)) == sorted({id(K) for K in cores})


# The non-automorphisms of test_finalg.py::test_law_violations_of_sigma, on F_p[X]/(X^3) and Q[X]/(X^3).
NON_AUTOMORPHISMS = {
    "not multiplicative": ((1, 0, 0), (0, 0, 1), (0, 1, 0)),  # swaps X and X^2
    "singular": ((1, 0, 0), (0, 1, 0), (0, 1, 0)),
    "moves 1": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
}


@pytest.mark.parametrize("sigma", NON_AUTOMORPHISMS.values(), ids=list(NON_AUTOMORPHISMS))
def test_a_non_automorphism_is_refused_everywhere(sigma):
    # the check moved to the entry of each verdict; every entry point still refuses.  A sigma
    # that is an automorphism of F_p^3 (the swap of X and X^2 permutes its idempotents) is
    # passed a second time with its proof for F_p^3, which proves nothing for A
    for p in (2, None):
        A, F = truncated_poly_algebra(p, 3), product_of_fields(p, 3)
        for sigma in [sigma] + ([] if list(law_violations(F, sigma)) else [automorphism(F, sigma)]):
            sd = SkewDerivation(A, sigma, la.map_sub(sigma, sigma, p))  # delta = 0 commutes with sigma
            X, zero = ideal_generated(A, [A.basis_vec(1)]), subspace(A, [])
            assert list(law_violations(A, sigma)) and is_stable(X, sigma) and sd.commuting
            refusals = [(AlgebraError, lambda: sigma_orbit(X, sigma)),
                        (AlgebraError, lambda: is_sigma_prime(X, sigma)),
                        (AlgebraError, lambda: is_sigma_prime(zero, sigma)),
                        (AlgebraError, lambda: minimal_sigma_primes(A, sigma, zero))]
            if p:
                refusals += [(CoreError, lambda: stabilization_M(A, sd, X)),
                             (CoreError, lambda: core_flags(A, sd, X)),
                             (CoreError, lambda: delta_pm_core(A, sd, X, 1)),
                             (CoreError, lambda: prop39_check(A, sd, X)),
                             (CoreError, lambda: theorem_c_procedure(A, sd, X))]
            else:
                refusals.append((CoreError, lambda: char0_checks(A, sd)))
            for error, call in refusals:
                with pytest.raises(error, match="sigma is not an algebra automorphism"):
                    call()


def pair_check_verdicts():
    """(ring, verdict) for Theorem C in one round and in two, the core command, prop39 and the char-0
    checks, each verdict true on a valid pair."""
    A = permutation_group_algebra(2, S3)
    sd = conjugation_skew(A, A.basis_vec(1))
    I = minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))[0]
    A2, sd2 = cyclic_quiver_square_zero(4)  # J is found in a second round
    I2 = minimal_sigma_primes(A2, sd2.sigma_matrix, subspace(A2, []))[0]
    B, swap = swap_skew()
    Q, qsd = perm_skew(5, [1, 2, 0, 4, 3], 2)
    return [(A, lambda: theorem_c_procedure(A, sd, I)[0] is not None),
            (A2, lambda: len(theorem_c_procedure(A2, sd2, I2)[2]["reports"]) == 2),
            (A2, lambda: core_flags(A2, sd2, I2)[0].conclusive),
            (B, lambda: prop39_check(B, swap, subspace(B, []))),
            (Q, lambda: char0_checks(Q, qsd)["sigma-primes preserved"])]


def test_one_automorphism_check_per_verdict(monkeypatch):
    # a verdict proves its pair once, sigma's laws with delta's, by one law pass on the pairs
    # (e_i, s), s in A.generators; no later sigma proof walks a law
    passes, laws = [], finalg._law_pass
    monkeypatch.setattr(finalg, "_law_pass", lambda R, sigma, delta, middles: passes.append(
        (R, delta is not None, tuple(middles))) or laws(R, sigma, delta, middles))
    for ring, verdict in pair_check_verdicts():
        passes.clear()
        assert verdict()
        assert passes == [(ring, True, tuple(ring.generators))] and len(ring.generators) < ring.dim


def test_one_commutation_check_per_verdict(monkeypatch):
    # sigma delta = delta sigma (delta sigma = q sigma delta over Q) is proved on the generators,
    # once the laws hold, and a pair made by pth_power commutes, as powers of commuting maps do:
    # no pair of a valid verdict is composed both ways as whole maps, only on the e_s, s in S
    calls, compose, verdicts = [], la.compose, pair_check_verdicts()
    compose_both_ways = SkewDerivation.commuting.fget
    monkeypatch.setattr(SkewDerivation, "commuting", property(lambda sd: calls.append(sd) or compose_both_ways(sd)))
    monkeypatch.setattr(la, "compose", lambda *args: (  # the full q law of a refusal: every row of a map
        sys._getframe(1).f_code.co_name == "require_pair" and len(args[0]) == len(args[1])
        and calls.append(args)) or compose(*args))
    for _, verdict in verdicts:
        assert verdict()
    assert calls == []
    B, swap = swap_skew()  # a pair that does not commute is composed both ways, for the refusal
    moved = SkewDerivation(B, swap.sigma_matrix, ((1, 0), (0, 0)))
    with pytest.raises(CoreError, match="^requires sigma delta = delta sigma$"):
        prop39_check(B, moved, subspace(B, []))
    assert calls == [moved]
    Q, qsd = perm_skew(5, [1, 2, 0, 4, 3], 2)  # over Q, the full q law for its refusal
    moved = SkewDerivation(Q, qsd.sigma_matrix, ((1, 0, 0, 0, 0),) + ((0,) * 5,) * 4)
    calls.clear()
    with pytest.raises(CoreError, match="^requires delta sigma = q sigma delta, q = 1$"):
        char0_checks(Q, moved)
    assert calls == [(moved.sigma_matrix, moved.delta_matrix, None), (moved.delta_matrix, moved.sigma_matrix, None)]


def theorem_c_cases():
    """Minimal sigma-primes over F_p with a commuting (sigma, delta)."""
    cases = [bg_instance(p) for p in (2, 3, 5)]
    for p, gens in ((2, S3), (3, A4)):
        A = permutation_group_algebra(p, gens)
        sd = conjugation_skew(A, A.basis_vec(1))
        cases += [(A, sd, I) for I in minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))]
    for p, k, m in ((2, 3, 2), (3, 2, 3), (2, 5, 1)):
        A, sd = cycled_blocks(p, k, m)
        cases += [(A, sd, I) for I in minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))]
    for k in (2, 4, 6):  # J is a proper refinement of I, found in a second round
        A, sd = cyclic_quiver_square_zero(k)
        cases += [(A, sd, I) for I in minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))]
    return cases


def test_theorem_c_stabilizes_each_ideal_once(monkeypatch):
    # the loop stops at the first I_(j+1) = I_j; the loop that also waited
    # for M_j to settle stabilized that I_j a second time, for the same (J, M)
    seen = []
    stabilize = core.stabilization_M

    def recording(A, sd, I, cap=None):
        seen.append(I)
        return stabilize(A, sd, I, cap=cap)

    monkeypatch.setattr(core, "stabilization_M", recording)
    saved = 0
    for A, sd, I in theorem_c_cases():
        seen.clear()
        J, M, flags = theorem_c_procedure(A, sd, I)
        naive_J, naive_M, naive_rounds = naive_theorem_c(A, sd, I)
        assert (J, M) == (naive_J, naive_M) and J is not None
        assert len(seen) == len(set(seen))
        assert flags["minimal sigma^(p^M)-prime"] and flags["delta^(p^M)(J) <= J"]
        assert flags["I is the sigma-orbit intersection of J"] and not flags["inconclusive"]
        saved += naive_rounds - len(seen)
    assert saved > 0


def test_a_theorem_c_verdict_computes_no_core_flags(monkeypatch):
    # the core command's flags are core_flags' work; the verdict's rounds only need M and the core
    callers = []
    for module, name in ((skewder, "is_stable"), (core, "is_sigma_prime")):
        original = getattr(module, name)

        def recording(*args, original=original, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)  # a verdict's pairs test stability with skewder's
    for A, sd, I in theorem_c_cases():
        callers.clear()
        J, M, flags = theorem_c_procedure(A, sd, I)
        assert J is not None and flags["minimal sigma^(p^M)-prime"]
        assert "stabilization_M" not in callers and "theorem_c_procedure" in callers
    assert "spectrum" not in inspect.signature(stabilization_M).parameters
    for function in (sigma_orbit, is_sigma_prime, minimal_sigma_primes, delta_pm_core, stabilization_M,
                     core_flags, prop39_check, theorem_c_procedure, char0_checks):  # a proof is checked, not told
        assert not {"automorphism", "known", "sd_pm"} & set(inspect.signature(function).parameters)


def test_theorem_c_flags_a_j_that_is_not_sigma_pm_stable_false(monkeypatch):
    # a J that sigma^(p^M) moves is no sigma^(p^M)-prime: the flag reads False instead of raising
    # J of the square-zero quiver is sigma^2- but not sigma-stable, and M = 1 over F_2
    raise_pair = core.pth_power

    def unraised_for_the_flags(pair, m):
        frame = sys._getframe(1)  # the verdict's flags are taken once J is bound
        at_flags = frame.f_code.co_name == "theorem_c_procedure" and "J" in frame.f_locals
        return raise_pair(pair, 0 if at_flags else m)

    monkeypatch.setattr(core, "pth_power", unraised_for_the_flags)
    A, sd = cyclic_quiver_square_zero(4)
    J, M, flags = theorem_c_procedure(A, sd, radical(A))
    assert M == 1 and not is_stable(J, sd.sigma_matrix)
    assert flags["minimal sigma^(p^M)-prime"] is False


def cold_copy(A, sd, I):
    """(A, sd, I) on a fresh checked copy of A, which keeps nothing computed on A (I may be None)."""
    B = FinAlgebra(A.p, A.dim, A.structure, A.unit)
    ideal = None if I is None else subspace(B, I.basis)
    return B, SkewDerivation(B, sd.sigma_matrix, sd.delta_matrix, sd.q), ideal


def sweep_cases():
    """(A, pair, ideal, cap) from the primes instances and the square-zero quivers, whose J is a
    second-round refinement: each instance's pair, its p-th power and a non-commuting pair; its
    ideal, the zero ideal, the whole ring and its minimal sigma-primes."""
    quivers = [cyclic_quiver_square_zero(k) for k in (2, 4)]
    for A, sd, I in primes_workload_instances() + [(A, sd, radical(A)) for A, sd in quivers]:
        n, p = A.dim, A.p
        pairs = [sd, SkewDerivation(A, sd.sigma_pow(p), sd.delta_pow(p))]
        for which, i, j in itertools.product(((1,), (0,), (0, 1)), range(n), range(n)):
            maps = [[list(row) for row in m] for m in (sd.sigma_matrix, sd.delta_matrix)]
            for k in which:  # sigma + 1 at (i, j), delta + 1 at (j, i)
                row, col = (i, j) if k == 0 else (j, i)
                maps[k][row][col] = (maps[k][row][col] + 1) % p
            if not SkewDerivation(A, *maps).commuting:
                pairs.append(SkewDerivation(A, *maps))
                break
        assert len(pairs) == 3
        zero = subspace(A, [])
        ideals = [I, zero, ideal_generated(A, [A.one()])] + naive_minimal_sigma_primes(A, sd.sigma_matrix, zero)
        for pair in pairs:
            for ideal in dict.fromkeys(ideals):
                for cap in (0, 1, None) if ideal is I else (None,):
                    yield A, pair, ideal, cap


def outcome(verdict, *args):
    try:
        J, M, flags = verdict(*args)
    except (CoreError, AlgebraError) as exc:
        return type(exc), str(exc)
    return J, M, {name: flag for name, flag in flags.items() if name != "reports"}


def test_theorem_c_matches_the_references_on_the_primes_instances():
    # every verdict, refusal and flag of theorem_c_procedure against naive_verdict
    # (naive_theorem_c, naive_minimal_sigma_primes, naive_meet, maps raised afresh)
    kinds = collections.Counter()
    for A, sd, I, cap in sweep_cases():
        expected = outcome(naive_verdict, A, sd, I, cap)
        assert outcome(theorem_c_procedure, A, sd, I, cap) == expected, (A, I.dim, cap)
        J, M = expected[:2]
        kinds[M if isinstance(J, type) else "inconclusive" if J is None else
              "M = 0" if M == 0 else "M > 0, J = I" if J == I else "M > 0, J < I"] += 1
    assert set(kinds) == {"M = 0", "M > 0, J = I", "M > 0, J < I", "inconclusive",
                          "requires sigma delta = delta sigma", "I is not a minimal sigma-prime ideal"}
    for seed in (1, 2, 3):  # warm, each algebra's radical kept by a cycle, against a cold copy
        for A, sd, I in primes_workload_instances(seed, cycles=1):
            assert A._radical is not None
            warm, cold = (full_outcome(theorem_c_procedure, *case) for case in ((A, sd, I), cold_copy(A, sd, I)))
            assert (warm[0].basis, *warm[1:]) == (cold[0].basis, *cold[1:]), (seed, A)


def test_theorem_c_on_each_minimal_sigma_prime_computes_the_radical_once(monkeypatch):
    # the workflow the kept radical serves, on fresh algebras: find the minimal sigma-primes
    # over 0, then run Theorem C on each; every gate's radical(A) is the one that
    # minimal_sigma_primes computed, while each quotient A/I computes its own
    answers = []
    monkeypatch.setattr(finalg, "radical", lambda A, original=finalg.radical: (
        answers.append((A, original(A))) or answers[-1][1]))
    monkeypatch.setattr(core, "radical", finalg.radical)
    verdicts = 0
    for A, sd, _ in (cold_copy(*case) for case in primes_workload_instances()):
        answers.clear()
        ideals = minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))
        for I in ideals:
            J, _, flags = theorem_c_procedure(A, sd, I)
            assert J is not None and all(flags[name] for name in flags if name != "inconclusive")
        on_A = [N for B, N in answers if B is A]
        assert len(on_A) == 1 + len(ideals) and all(N is on_A[0] for N in on_A), A
        verdicts += len(ideals)
    assert verdicts == 25  # 19 algebras, six of them with two minimal sigma-primes


def a_mod_i_sweep_cases():
    """(A, sd, ideal, cap) on the seed-1 primes instances: ideals I, 0, A, each prime, rad A, each
    minimal sigma-prime over 0, span(1) and span(e_1..e_(n-1)), caps None, 0, 1 and 3."""
    for A, sd, I in primes_workload_instances():
        zero = subspace(A, [])
        ideals = [I, zero, ideal_generated(A, [A.one()]), *prime_spectrum(A), radical(A),
                  *minimal_sigma_primes(A, sd.sigma_matrix, zero), subspace(A, [A.one()]),
                  subspace(A, A.basis()[1:])]
        for ideal, cap in itertools.product(dict.fromkeys(ideals), (None, 0, 1, 3)):
            yield A, sd, ideal, cap


def full_outcome(verdict, *args):
    """The verdict's (J, M, flags) with its reports serialized, or its refusal's type and message."""
    try:
        J, M, flags = verdict(*args)
    except (CoreError, AlgebraError) as exc:
        return type(exc), str(exc)
    return J, M, {name: [r.serialize() for r in flag] if name == "reports" else flag
                  for name, flag in flags.items()}


def test_the_a_mod_i_route_matches_the_whole_spectrum_route():
    # the primes over I from A/I against the former route through every prime of A:
    # the same results, serialized reports, refusals and messages
    kinds = collections.Counter()
    for A, sd, I, cap in a_mod_i_sweep_cases():
        expected = full_outcome(whole_spectrum_theorem_c, A, sd, I, cap)
        assert full_outcome(theorem_c_procedure, A, sd, I, cap) == expected, (A, I.dim, cap)
        kinds["refused" if isinstance(expected[0], type) else "inconclusive" if expected[0] is None
              else "verdict"] += 1
    assert min(kinds["refused"], kinds["inconclusive"], kinds["verdict"]) > 0


def test_an_ideal_in_no_prime_is_refused():
    # span(1) is proper but lies in no prime: a refusal, not an IndexError.  In F_2 x F_2,
    # with sigma swapping the factors, span(1) is also sigma-stable and contains rad A = 0
    cases = [(*ddx_derivation(2, 4), lambda A: [A.one()]), (*cycled_blocks(2, 2, 1), lambda A: [A.one()]),
             (*ddx_derivation(2, 4), lambda A: [A.one(), A.basis_vec(2)])]
    for A, sd, vectors in cases:
        I = subspace(A, vectors(A))
        assert I.dim < A.dim and minimal_primes_over(A, I) == []
        with pytest.raises(CoreError, match="^I is not a minimal sigma-prime ideal$"):
            theorem_c_procedure(A, sd, I)


def test_each_verdict_splits_only_a_mod_i(monkeypatch):
    # an F_p verdict builds one quotient, A/I, and takes the radical of A and of A/I only; its
    # central idempotents certify A/I semisimple, and for I = 0 that is a read of A's kept radical
    quotients, radicals = [], []
    quotient, rad = finalg.quotient_algebra, finalg.radical

    def recording(A, I):
        result = quotient(A, I)
        quotients.append((A, I, result[0]))
        return result

    monkeypatch.setattr(finalg, "quotient_algebra", recording)
    for module in (finalg, core):
        monkeypatch.setattr(module, "radical", lambda A: radicals.append(A) or rad(A))
    for A, sd, I in theorem_c_cases() + primes_workload_instances():
        quotients.clear()
        radicals.clear()
        assert theorem_c_procedure(A, sd, I)[0] is not None
        assert [(B, K) for B, K, _ in quotients] == ([(A, I)] if I.dim else [])
        assert radicals == [A, quotients[0][2] if I.dim else A]


def test_theorem_c_refines_in_a_second_round():
    # I_1 is only sigma^2-stable, so round 2 stabilizes it under (sigma, delta)^2
    for k in (2, 4, 6):
        A, sd = cyclic_quiver_square_zero(k)
        I = radical(A)
        assert minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, [])) == [I]
        J, M, flags = theorem_c_procedure(A, sd, I)
        assert (J.dim, M, len(flags["reports"])) == (3 * k // 2, 1, 2)
        assert all(flags[name] for name in flags if name not in ("inconclusive", "reports"))
        assert is_stable(J, sd.sigma_pow(2)) and not is_stable(J, sd.sigma_matrix)


def test_minimal_sigma_primes_match_naive_on_verdict_cases():
    rng = random.Random(3)
    cases = [(A, sd) for A, sd, _ in theorem_c_cases()]
    cases += [perm_skew(5, [1, 2, 0, 4, 3], 2), perm_skew(4, [1, 0, 3, 2], 1)]
    cases += [random_char0_instance(rng) for _ in range(10)]
    for A, sd in cases:
        zero, spectrum = subspace(A, []), reference_spectrum(A)
        meets = minimal_sigma_primes(A, sd.sigma_matrix, zero, spectrum)
        assert meets == naive_minimal_sigma_primes(A, sd.sigma_matrix, zero)
        assert all(is_sigma_prime(I, sd.sigma_matrix, spectrum) for I in meets)


def test_a_noncommuting_pair_is_refused():
    A, sd, I = square_zero_instance()
    a, b = A.basis_vec(1), A.basis_vec(2)
    with pytest.raises(CoreError, match="requires sigma delta = delta sigma"):
        theorem_c_procedure(A, sd, I)
    for call in (lambda: pth_power(sd, 1), lambda: delta_n_product(sd, a, b, 2),
                 lambda: trinomial_expand(sd, a, A.one(), b, 2),
                 lambda: cor36_check(sd, None, a, b, A.one(), 1, 2)):  # refused before I is read
        with pytest.raises(SkewDerivationError, match="requires sigma delta = delta sigma"):
            call()


def test_stabilization_of_the_whole_ring_flags_no_sigma_primality():
    A, sd, _ = bg_instance(2)
    report, flags = core_flags(A, sd, ideal_generated(A, [A.one()]))
    assert (report.M, report.core.dim) == (0, A.dim)
    assert flags["sigma^(p^M)-prime"] is None and flags["is ideal"]


def test_char0_checks_compute_one_radical(monkeypatch):
    # the preservation check's radical is the one the prime spectrum uses
    seen = []
    original = finalg.radical

    def recording(A):
        seen.append(A)
        return original(A)

    for module in (finalg, core):
        monkeypatch.setattr(module, "radical", recording)
    rng = random.Random(2)
    cases = [perm_skew(4, [1, 0, 3, 2], 1), perm_skew(3, [1, 2, 0], 2)]
    cases += [random_char0_instance(rng) for _ in range(8)]
    for A, sd in cases:
        seen.clear()
        char0_checks(A, sd)
        assert sum(B is A for B in seen) == 1


def sigma_spectrum_cases():
    """(A, sd): the Q instances of criterion 5 and the primes benchmark, seeded char-0 draws,
    F_p fields with sigma cycling them, group algebras with conjugation, cycled blocks, and
    random-basis copies of the F_p ones, whose structure constants are not integral."""
    rng = random.Random(20)
    fp = [cycled_blocks(p, k, m) for p, k, m in ((2, 3, 2), (3, 2, 3), (2, 5, 1))]
    for p, t in ((2, (3, 2, 1)), (3, (2, 2)), (5, (4, 1)), (3, (1, 1, 1))):
        A = product_of_fields(p, sum(t))
        sigma = tuple(A.basis_vec(i) for i in cycles(t))
        fp.append((A, SkewDerivation(A, sigma, la.map_sub(sigma, la.identity_map(A.dim, p), p))))
    for p, gens in ((2, S3), (3, S3), (3, A4)):
        A = permutation_group_algebra(p, gens)
        fp.append((A, conjugation_skew(A, A.basis_vec(1))))
    return (q_instances() + [random_char0_instance(rng) for _ in range(20)]
            + fp + [rebase_skew(A, sd, random_basis(A, rng)) for A, sd in fp])


def test_sigma_spectrum_is_the_minimal_sigma_primes():
    # the minimal sigma-primes over 0 are the meets of the sigma-orbits of primes; over Q
    # the spectrum is the reference one, as the package splits no centre larger than Q there
    merged = 0
    for A, sd in sigma_spectrum_cases():
        zero, spectrum = subspace(A, []), reference_spectrum(A)
        meets = minimal_sigma_primes(A, sd.sigma_matrix, zero, spectrum)
        assert meets == naive_minimal_sigma_primes(A, sd.sigma_matrix, zero)
        merged += len(meets) < len(spectrum)
    assert merged >= 20


def test_char0_checks_certify_on_the_sigma_fixed_centre(monkeypatch):
    # on the primes benchmark's Q^10 and Q^8, sigma has 3 orbits of coordinates: the
    # certificate runs on the 3-dimensional fixed centre, one z per orbit, never the whole one
    sizes = []
    left_kernel = core.la.left_kernel

    def recording(rows, p):
        kernel = left_kernel(rows, p)
        if sys._getframe(1).f_code.co_name == "char0_checks":
            sizes.append((len(rows), len(kernel)))
        return kernel

    monkeypatch.setattr(core.la, "left_kernel", recording)
    for t, lam in (((4, 3, 3), -1), ((3, 3, 2), 2)):
        sizes.clear()
        report = char0_checks(*perm_skew(sum(t), cycles(t), lam))
        assert report == {"radical preserved": True, "sigma-primes preserved": True, "witnesses": []}
        assert sizes == [(sum(t), 3)]


def test_char0_checks_refuse_a_delta_moving_a_sigma_fixed_idempotent():
    # Q^2 with sigma = id and delta the swap (the Q analogue of a fields-2 spec over F_2):
    # delta(e_0) = e_1, so delta is no sigma-derivation; the split reported two witnesses, and
    # the pair check refuses it with the first law check_skew_derivation reports
    A = product_of_fields(None, 2)
    swap = SkewDerivation(A, la.identity_map(2, None), ((0, 1), (1, 0)))
    assert check_skew_derivation(swap).violations[0] == ("Leibniz", (0, 0))
    with pytest.raises(CoreError) as raised:
        char0_checks(A, swap)
    assert str(raised.value) == "(sigma, delta) is not a skew derivation: Leibniz: witness (0, 0)"
    assert naive_char0_checks(A, swap)["witnesses"] == [("sigma-prime", (0, 1)), ("sigma-prime", (1, 0))]


def test_char0_checks_refuse_the_pair_of_bad_char0_derivation_spec():
    # Q[X]/(X^2) with sigma = id and delta(X) = 1, the pair of bad_char0_derivation.spec:
    # delta(X^2) = 0 != 2X, so it is no sigma-derivation and is refused, where delta(N) not in
    # N = (X) once left the sigma-prime flag undecided
    A = truncated_poly_algebra(None, 2)
    sd = SkewDerivation(A, la.identity_map(2, None), ((0, 0), (1, 0)))
    with pytest.raises(CoreError) as raised:
        char0_checks(A, sd)
    assert str(raised.value) == "(sigma, delta) is not a skew derivation: Leibniz: witness (1, 1)"
    assert naive_char0_checks(A, sd)["witnesses"] == [("radical", (0, 1)), ("sigma-prime", (0, 1))]


def char0_differential_cases():
    """(A, sd, moved): the Q instances (criterion 5's sweep among them) and the char-0 slots
    of the primes benchmark at seeds 1 to 3, and each with one entry of delta moved by +-1;
    and Q^n under a cycled sigma with delta = lam(sigma - id) plus e_j at e_i and -e_j at e_i',
    i, i' in one cycle and j in another, so that delta(z) = 0 on the sigma-fixed centre."""
    rng = random.Random(26)
    valid = q_instances() + [(A, sd) for seed in (1, 2, 3)
                             for A, sd, _ in primes_workload_instances(seed, theorem_c=False)]
    cases = []
    for A, sd in valid:
        rows = [list(row) for row in sd.delta_matrix]
        rows[rng.randrange(A.dim)][rng.randrange(A.dim)] += rng.choice((1, -1))
        cases += [(A, sd, False), (A, SkewDerivation(A, sd.sigma_matrix, tuple(map(tuple, rows))), True)]
    for t, lam in (((2, 1), 1), ((3, 2), -2), ((4, 3, 3), -1), ((3, 3, 2), 2)):
        A, sd = perm_skew(sum(t), cycles(t), lam)
        rows = [list(row) for row in sd.delta_matrix]
        rows[0][t[0]] += 1
        rows[1][t[0]] -= 1
        bad = SkewDerivation(A, sd.sigma_matrix, tuple(map(tuple, rows)))
        cases += [(A, bad, True), (*rebase_skew(A, bad, random_basis(A, rng)), True)]
    return cases


def obeys_the_q_law(A, sd):
    """delta sigma = q sigma delta on every basis vector, q = 1 when sd has none, by A.mul."""
    q = A.one() if sd.q is None else sd.q
    return all(sd.delta(sd.sigma(e)) == A.mul(q, sd.sigma(sd.delta(e))) for e in A.basis())


def test_char0_checks_match_the_split_of_the_sigma_fixed_centre():
    # against the report the split of the sigma-fixed centre gave: the same dict on every
    # instance and on each moved delta that is still a sigma-derivation; on a moved delta, a
    # refusal when delta sigma != q sigma delta (two of them are sigma-derivations: on Q[X]/(X^2),
    # sigma(X) = -X and delta(X) = 1 + 2X, and on Q[X]/(X^3), sigma(X) = 3X and delta(X) = 4X +
    # X^2), else the refusal of a non-derivation, naming the first law it breaks: whatever the
    # split reported for it, a None (delta(N) not in N), a failed flag or a passed one
    seen = collections.Counter()
    for A, sd, moved in char0_differential_cases():
        expected, laws = naive_char0_checks(A, sd), check_skew_derivation(sd).violations
        if moved and not obeys_the_q_law(A, sd):
            with pytest.raises(CoreError, match=r"^requires delta sigma = q sigma delta, q = "):
                char0_checks(A, sd)
            seen["law", not laws] += 1
        elif laws:
            with pytest.raises(CoreError) as raised:
                char0_checks(A, sd)
            assert str(raised.value) == "(sigma, delta) is not a skew derivation: {}: witness {}".format(*laws[0])
            seen["refused", expected["sigma-primes preserved"] if expected["radical preserved"] else None] += 1
        else:
            assert char0_checks(A, sd) == expected
            assert expected == {"radical preserved": True, "sigma-primes preserved": True, "witnesses": []}
            seen["valid", moved] += 1
    assert seen["valid", False] and seen["refused", None] and seen["refused", True] and seen["refused", False]
    assert seen["law", False] and seen["law", True] == 2
    for seed in (1, 2, 3):  # warm, each algebra's radical kept by a cycle, against a cold copy
        for A, sd, _ in primes_workload_instances(seed, theorem_c=False, cycles=1):
            assert A._radical is not None
            assert char0_checks(A, sd) == char0_checks(*cold_copy(A, sd, None)[:2]), (seed, A)


def test_core_report_serialize_deterministic():
    A, sd, I = bg_instance(3)
    a = stabilization_M(A, sd, I).serialize()
    b = stabilization_M(A, sd, I).serialize()
    assert a == b
    assert a.splitlines()[0] == "ideal dim: 2"


def test_default_cap():
    assert default_cap(truncated_poly_algebra(2, 2)) == 4
    assert default_cap(truncated_poly_algebra(2, 20)) == 7
    assert default_cap(truncated_poly_algebra(2, 20), 0) == 0
    with pytest.raises(CoreError, match="cap must be >= 0, got -1"):
        default_cap(truncated_poly_algebra(2, 2), -1)


def test_default_cap_is_exact_at_powers_of_p():
    # default_cap reads only p and dim; a log in floating point gave 6 and 9 here
    assert default_cap(types.SimpleNamespace(p=5, dim=125)) == 5
    assert default_cap(types.SimpleNamespace(p=5, dim=15_625)) == 8
    assert default_cap(types.SimpleNamespace(p=None, dim=1024)) == 12
    for p in (2, 3, 5, 7):
        for dim in range(5001):
            least = min(m for m in range(20) if p**m >= max(dim, 2))
            assert default_cap(types.SimpleNamespace(p=p, dim=dim)) == max(4, least + 2), (p, dim)


def test_prop39():
    # trivially true: delta = 0, I sigma-prime with M = 0
    B, sd = swap_skew()
    zero_delta = SkewDerivation(B, sd.sigma_matrix, tuple(la.zero_vec(2, 2) for _ in range(2)))
    zero = subspace(B, [])
    assert prop39_check(B, zero_delta, zero)
    A, sdA, I = bg_instance(2)
    with pytest.raises(CoreError, match="hypothesis failed"):
        prop39_check(A, sdA, I)  # I is not sigma-prime (A/I story aside, M=1)


def test_theorem_c_bg():
    for p in (2, 3, 5):
        A, sd, I = bg_instance(p)
        J, M, flags = theorem_c_procedure(A, sd, I)
        assert M == 1
        assert J == I
        assert flags["minimal sigma^(p^M)-prime"]
        assert flags["I is the sigma-orbit intersection of J"]
        assert flags["delta^(p^M)(J) <= J"]
        assert not flags["inconclusive"]


def test_theorem_c_delta_zero():
    A = truncated_poly_algebra(2, 2)
    sd = SkewDerivation.identity(A)
    I = ideal_generated(A, [A.basis_vec(1)])
    J, M, flags = theorem_c_procedure(A, sd, I)
    assert J == I and M == 0
    assert all(flags[k] for k in flags if k not in ("inconclusive", "reports"))


def test_theorem_c_swap():
    B, sd = swap_skew()
    zero = subspace(B, [])
    J, M, flags = theorem_c_procedure(B, sd, zero)
    assert flags["minimal sigma^(p^M)-prime"]
    assert flags["I is the sigma-orbit intersection of J"]
    assert flags["delta^(p^M)(J) <= J"]


def test_theorem_c_rejects_non_minimal():
    A, sd, I = bg_instance(2)
    whole = ideal_generated(A, [A.one()])
    with pytest.raises(CoreError, match="minimal sigma-prime"):
        theorem_c_procedure(A, sd, whole)
    AQ, sdQ = ddx_derivation(None, 2)
    with pytest.raises(CoreError, match="characteristic p"):
        theorem_c_procedure(AQ, sdQ, ideal_generated(AQ, [AQ.basis_vec(1)]))


def test_char0_checks():
    A = truncated_poly_algebra(None, 3)
    sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.basis_vec(2))
    assert check_skew_derivation(sd).valid
    report = char0_checks(A, sd)
    assert report["radical preserved"] and report["sigma-primes preserved"]
    B, sdB = perm_skew(2, [1, 0], 1)
    report = char0_checks(B, sdB)
    assert report["radical preserved"] and report["sigma-primes preserved"]
    Ap, sdp = ddx_derivation(3, 3)
    with pytest.raises(CoreError, match="characteristic 0"):
        char0_checks(Ap, sdp)
    A2, _ = ddx_derivation(None, 2)
    A = A2
    sd = SkewDerivation.identity(A)
    minus = SkewDerivation(
        A,
        sd.sigma_matrix,
        tuple(la.zero_vec(2, None) for _ in range(2)),
        q=A.smul(-1, A.one()),
    )
    with pytest.raises(CoreError, match="root of unity"):
        char0_checks(A, minus)


def test_char0_random_instances():
    rng = random.Random(1)
    for _ in range(30):
        A, sd = random_char0_instance(rng)
        assert check_skew_derivation(sd).valid
        report = char0_checks(A, sd)
        assert report["radical preserved"], report["witnesses"]
        assert report["sigma-primes preserved"], report["witnesses"]
