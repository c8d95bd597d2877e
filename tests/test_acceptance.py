"""Acceptance suite: the ten headline criteria, one pass/fail line each.

Every criterion is exact (no tolerances) and carries the stated wall-clock
budget; the budget is part of the assertion.
"""

import random
import subprocess
import sys
import time

from skewseries.cli import fixture_names
from skewseries.coeffcore import binom_valuation_check
from skewseries.core import (
    char0_checks,
    delta_core,
    delta_pm_core,
    stabilization_M,
    theorem_c_procedure,
)
from skewseries.finalg import ideal_generated, radical, truncated_poly_algebra
from skewseries.skewder import (
    SkewDerivation,
    check_skew_derivation,
    delta_n_product,
)
from skewseries.sps import (
    crossed_decompose,
    crossed_recompose,
    graded_iso_check,
    iwasawa_demo,
    quotient_kernel_check,
    quotient_sps,
    tpow_demo,
)

from helpers import random_char0_instance
from oracle import certify_alpha_table, delta_n_oracle
from test_sps import quotient_setting


def report(num, name, ok, dt, limit):
    ok = ok and dt < limit
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({dt:.2f}s / {limit}s)")
    assert ok, f"criterion {num} ({name}) failed in {dt:.2f}s (limit {limit}s)"


def test_criterion_1_product_formula_vs_oracle():
    start = time.time()
    rng = random.Random(101)
    ok = True
    for p, n in ((2, 2), (3, 3), (2, 4)):
        A = truncated_poly_algebra(p, n)
        sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.one())
        for _ in range(200):
            a, b = A.random_element(rng), A.random_element(rng)
            for m in range(7):
                ok = ok and delta_n_product(sd, a, b, m) == delta_n_oracle(sd, A.mul(a, b), m)
    report(1, "delta^n product formula vs oracle", ok, time.time() - start, 10)


def test_criterion_2_alpha_table_certification():
    start = time.time()
    ok = True
    for p in (2, 3):
        _, passed = certify_alpha_table(p, p**3)
        ok = ok and passed
    report(2, "trinomial alpha table certified", ok, time.time() - start, 60)


def test_criterion_3_binomial_valuations():
    start = time.time()
    ok = all(
        binom_valuation_check(n, i, p)
        for p in (2, 3, 5)
        for n in range(1, 6)
        for i in range(1, p**n + 1)
    )
    report(3, "vp(binom(p^n, i)) = n - vp(i)", ok, time.time() - start, 30)


def test_criterion_4_bergen_grzeszczuk_reproduction():
    start = time.time()
    ok = True
    for p in (2, 3, 5):
        A = truncated_poly_algebra(p, p)
        sd = SkewDerivation.from_gen_images(A, A.basis_vec(1), A.one())
        I = ideal_generated(A, [A.basis_vec(1)])
        ok = ok and radical(A) == I
        ok = ok and delta_core(A, sd, I).dim == 0
        ok = ok and delta_pm_core(A, sd, I, 1) == I
        rep = stabilization_M(A, sd, I)
        ok = ok and rep.M == 1
        J, M, flags = theorem_c_procedure(A, sd, I)
        ok = ok and M == 1
        ok = ok and flags["minimal sigma^(p^M)-prime"]
        ok = ok and flags["I is the sigma-orbit intersection of J"]
        ok = ok and flags["delta^(p^M)(J) <= J"]
    report(4, "Bergen-Grzeszczuk example reproduced", ok, time.time() - start, 5)


def test_criterion_5_char0_sweep():
    start = time.time()
    rng = random.Random(105)
    ok = True
    for _ in range(50):
        A, sd = random_char0_instance(rng)
        ok = ok and check_skew_derivation(sd).valid
        rep = char0_checks(A, sd)
        ok = ok and rep["radical preserved"] and rep["sigma-primes preserved"]
    report(5, "char-0 radical/sigma-prime preservation", ok, time.time() - start, 60)


def test_criterion_6_sps_ring_laws():
    start = time.time()
    rng = random.Random(106)
    ok = True
    for S in (iwasawa_demo(2, 12, 12), tpow_demo(2, 12, 12)):
        for _ in range(100):
            f, g, h = (S.random_element(rng) for _ in range(3))
            ok = ok and S.mul(S.mul(f, g), h) == S.mul(f, S.mul(g, h))
            ok = ok and S.mul(f, S.add(g, h)) == S.add(S.mul(f, g), S.mul(f, h))
            ok = ok and S.mul(S.add(f, g), h) == S.add(S.mul(f, h), S.mul(g, h))
            ok = ok and not S.f_u_value(S.mul(f, g)) < S.f_u_value(f) + S.f_u_value(g)
    report(6, "SPS ring laws + f_u submultiplicativity", ok, time.time() - start, 30)


def test_criterion_7_graded_iso():
    start = time.time()
    rng = random.Random(107)
    window = range(12)  # doubled degrees: all half-integers < 6
    ok = graded_iso_check(iwasawa_demo(2, 12, 12), list(window), rng=rng)
    ok = ok and graded_iso_check(tpow_demo(2, 12, 12), list(window), rng=rng)
    report(7, "graded ring isomorphism dimensions", ok, time.time() - start, 10)


def test_criterion_8_crossed_round_trip():
    start = time.time()
    rng = random.Random(108)
    ok = True
    S = iwasawa_demo(2, 8, 8)
    for N in (1, 2):
        for _ in range(100):
            f = S.random_element(rng)
            comps = crossed_decompose(S, N, f)
            ok = ok and len(comps) == 2**N
            ok = ok and crossed_recompose(S, N, comps) == f
    report(8, "crossed-product round trip", ok, time.time() - start, 10)


def test_criterion_9_quotient():
    start = time.time()
    rng = random.Random(109)
    S = quotient_setting()
    I = ideal_generated(S.base, [S.base.basis_vec(1)])
    Sbar, project = quotient_sps(S, I)
    ok = True
    for _ in range(100):
        f, g = S.random_element(rng), S.random_element(rng)
        ok = ok and project(S.mul(f, g)) == Sbar.mul(project(f), project(g))
        ok = ok and quotient_kernel_check(S, I, project, f)
    report(9, "quotient projection + kernel", ok, time.time() - start, 5)


def _cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "skewseries.cli", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_determinism():
    start = time.time()
    commands = [["demo", "iwasawa"], ["selftest"]]
    for name in fixture_names():
        commands.append(["verify", name])
        commands.append(["gr", name, "--window", "0..4"])
        if name.startswith("bergen"):
            commands.append(["core", name, "--ideal", "I"])
            commands.append(["theoremc", name, "--ideal", "I"])
        if name in ("iwasawa_p2.spec", "tpow_p2.spec", "quotient_demo.spec"):
            commands.append(["mul", name, "f", "g"])
        if name == "iwasawa_p2.spec":
            commands.append(["decompose", name, "--N", "1", "f"])
    ok = True
    for args in commands:
        first = _cli(args)
        second = _cli(args)
        ok = ok and first == second
    report(10, "CLI bytewise determinism", ok, time.time() - start, 120)
