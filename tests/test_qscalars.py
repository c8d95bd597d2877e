"""Q scalars are ints when integral and Fractions otherwise.

Two checks: the results of the ideal layer over Q equal those computed
with every scalar a Fraction (``helpers.fraction_fnorm``), and no routine
hands back a Fraction with denominator 1.
"""

import random
from fractions import Fraction

import skewseries.exactla as la
from skewseries.core import char0_checks
from skewseries.finalg import (
    center,
    central_idempotents,
    minimal_sigma_primes,
    prime_spectrum,
    product_of_fields,
    quotient_algebra,
    radical,
    subspace,
    truncated_poly_algebra,
)
from skewseries.skewder import SkewDerivation, check_skew_derivation

from helpers import (
    fraction_finv,
    fraction_fnorm,
    perm_skew,
    random_basis,
    random_char0_instance,
    rebase_skew,
    upper_triangular_algebra,
)


def scaling_skew(n, c, scale):
    """Q[X]/(X^n) with sigma(X) = c X and delta = scale * (sigma - id)."""
    A = truncated_poly_algebra(None, n)
    sigma = SkewDerivation.from_gen_images(A, la.vscale(c, A.basis_vec(1), None), A.zero()).sigma_matrix
    delta = la.map_sub(sigma, la.identity_map(n, None), None)
    return A, SkewDerivation(A, sigma, tuple(la.vscale(scale, row, None) for row in delta))


def cycles(cycle_type):
    """The permutation of range(sum(cycle_type)) cycling consecutive blocks."""
    image, start = [], 0
    for length in cycle_type:
        image += [start + (i + 1) % length for i in range(length)]
        start += length
    return image


def q_instances():
    """The criterion-5 sweep, the six Q shapes of the primes benchmark, and non-integral ones."""
    rng = random.Random(105)
    cases = [random_char0_instance(rng) for _ in range(50)]
    for n, j, b in ((6, 1, 2), (8, 2, 1), (10, 3, -3)):  # sigma = id, delta(X) = b X^j
        A = truncated_poly_algebra(None, n)
        cases.append((A, SkewDerivation.from_gen_images(A, A.basis_vec(1), la.vscale(b, A.basis_vec(j), None))))
    cases.append(scaling_skew(12, 2, 3))
    cases += [perm_skew(sum(t), cycles(t), lam) for t, lam in (((3, 3, 2), 2), ((4, 3, 3), -1))]
    # sigma(X) = X/2, delta = (1/3)(sigma - id); then random bases with fractional constants
    cases.append(scaling_skew(4, Fraction(1, 2), Fraction(1, 3)))
    rng = random.Random("q/rebase")
    for A, sd in (cases[-1], perm_skew(4, cycles((2, 2)), 1), perm_skew(3, cycles((3,)), Fraction(1, 2)),
                  (product_of_fields(None, 3), SkewDerivation.identity(product_of_fields(None, 3)))):
        cases.append(rebase_skew(A, sd, random_basis(A, rng)))
    for A, sd in cases:
        assert check_skew_derivation(sd).valid
    return cases


def outcomes(A, sd):
    """The ideal layer's results on (A, sd); the spectrum outcomes only where A/rad A has
    centre Q, as the package splits no larger centre over Q (None stands for them)."""
    N = radical(A)
    C = quotient_algebra(A, N)[0] if N.dim else A
    split = len(center(C)) == 1
    return (
        N.basis,
        [P.basis for P in prime_spectrum(A)] if split else None,
        central_idempotents(C) if split else None,
        [J.basis for J in minimal_sigma_primes(A, sd.sigma_matrix, subspace(A, []))] if split else None,
        char0_checks(A, sd),
    )


def test_q_results_match_the_fraction_reference(monkeypatch):
    new = [outcomes(A, sd) for A, sd in q_instances()]
    with monkeypatch.context() as m:
        m.setattr(la, "fnorm", fraction_fnorm)
        m.setattr(la, "finv", fraction_finv)
        cases = q_instances()
        reference = [outcomes(A, sd) for A, sd in cases]
    # the reference really ran on Fractions: its stored products hold them
    assert all(type(c) is Fraction for A, _ in cases for row in A._pairs for prod in row for _, c in prod)
    assert new == reference
    assert any(type(c) is Fraction and c.denominator != 1
               for result in new for P in result[1] or () for v in P for c in v)


def assert_canonical(x):
    """No Fraction with denominator 1 anywhere in the nested tuples or lists x."""
    if isinstance(x, (tuple, list)):
        for y in x:
            assert_canonical(y)
    else:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


SCALARS = (0, 1, -2, 3, Fraction(4), Fraction(-6, 3), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def test_no_q_routine_returns_an_integral_fraction():
    rng = random.Random("canonical")

    def vector(n):
        return tuple(rng.choice(SCALARS) for _ in range(n))

    for _ in range(40):
        n, k = rng.randint(1, 4), rng.randint(1, 5)
        rows = [vector(n) for _ in range(k)]
        if k > 2:  # force a dependency
            rows[-1] = tuple(a * 2 - b for a, b in zip(rows[0], rows[1]))
        square = [vector(n) for _ in range(n)]
        assert_canonical(la.vec(vector(n), None))
        assert_canonical(la.rref(rows, None)[0])
        assert_canonical(la.left_kernel(rows, None))
        assert_canonical(la.apply_map(rows, vector(k), None))
        assert_canonical([la.map_power(square, e, None) for e in range(5)])
        assert_canonical(la.solve(rows, la.apply_map(rows, vector(k), None), None))
        assert_canonical(next(la.dependencies(rows + [vector(n) for _ in range(n + 1)], None)))
    A = upper_triangular_algebra(None, 2)
    for B in (A, rebase_skew(A, SkewDerivation.identity(A), random_basis(A, rng))[0]):
        for _ in range(20):
            a, b, c = vector(B.dim), vector(B.dim), rng.choice(SCALARS)
            assert_canonical([B.mul(a, b), B.add(a, b), B.sub(a, b), B.smul(c, a), B.sub(B.zero(), a)])
