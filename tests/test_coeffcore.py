import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewseries import coeffcore
from skewseries.coeffcore import (
    INFINITY,
    binom_valuation_check,
    carry_free_splits,
    digits,
    multinomial,
    qfactorial,
    vp,
)
from skewseries.finalg import truncated_poly_algebra
from skewseries.skewder import trinomial_terms


def test_vp_basics():
    assert vp(6, 2) == 1
    assert vp(8, 2) == 3
    assert vp(math.comb(4, 2), 2) == 2 - vp(2, 2)
    with pytest.raises(ValueError, match="valuation of zero"):
        vp(0, 2)


def test_extint_ordering_and_arithmetic():
    assert 1 + Fraction(1, 2) == Fraction(3, 2)
    assert 0 < Fraction(1, 2) < 1 < INFINITY
    assert INFINITY + 5 is INFINITY
    assert min(INFINITY, 2) == 2
    assert str(Fraction(5, 2)) == "5/2"
    assert Fraction(6, 2) - 1 == 2
    assert INFINITY - 4 is INFINITY


@pytest.mark.parametrize("n", [-3, 0, 7, 10**30, Fraction(-1, 2), Fraction(5, 2), Fraction(10**30 + 1, 2)])
def test_infinity_is_above_every_int_and_fraction(n):
    assert n < INFINITY and n <= INFINITY and not n > INFINITY and not n >= INFINITY
    assert INFINITY > n and INFINITY >= n and not INFINITY < n and not INFINITY <= n
    assert n != INFINITY and INFINITY != n
    assert INFINITY <= INFINITY and INFINITY >= INFINITY and not INFINITY < INFINITY and not INFINITY > INFINITY
    assert min(n, INFINITY) == n and min(INFINITY, n) == n
    assert max(n, INFINITY) is INFINITY and max(INFINITY, n) is INFINITY
    assert sorted([INFINITY, n, INFINITY]) == [n, INFINITY, INFINITY]
    assert sorted([n, INFINITY]) == sorted([INFINITY, n]) == [n, INFINITY]
    assert n + INFINITY is INFINITY and INFINITY + n is INFINITY
    assert INFINITY - n is INFINITY
    with pytest.raises(TypeError):
        n - INFINITY
    assert not isinstance(INFINITY, float)


def test_infinity_is_one_hashable_value_printed_oo():
    assert repr(INFINITY) == str(INFINITY) == f"{INFINITY}" == "oo"
    assert {INFINITY: 1}[INFINITY] == 1 and len({INFINITY, INFINITY, 0}) == 2
    assert copy.copy(INFINITY) is INFINITY and copy.deepcopy([INFINITY])[0] is INFINITY
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY
    assert INFINITY + INFINITY is INFINITY


def test_digits_examples():
    assert digits(6, 2) == (0, 1, 1)
    assert digits(0, 3) == ()
    for p, k in [(2, 3), (5, 2)]:
        assert digits(p**k, p) == (0,) * k + (1,)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
def test_digits_roundtrip(n, p):
    entries = digits(n, p)
    assert sum(a * p**i for i, a in enumerate(entries)) == n
    assert all(0 <= a < p for a in entries) and entries[-1:] != (0,)


def test_digits_invariants():
    # a base below 2 is refused before the loop: divmod(n, 1) leaves n as it is, and never ends
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match=f"base {p} is below 2"):
            digits(5, p)
        with pytest.raises(ValueError, match=f"base {p} is below 2"):
            carry_free_splits(5, p)
    with pytest.raises(ValueError, match="nonnegative"):
        digits(-1, 2)
    assert digits(9, 4) == (1, 2)  # the base is not proved prime: callers hold a proven p


def test_no_common_component():
    # Corollary 3.6's disjointness test, one zip of two digit tuples, against the digit slots
    # read by division; over p = 2 disjoint digits are the carry-free splits (r, 0, s)
    for p in (2, 3, 5):
        for r in range(60):
            for s in range(60):
                disjoint = not any(u and v for u, v in zip(digits(r, p), digits(s, p)))
                assert disjoint == all(r // p**t % p == 0 or s // p**t % p == 0 for t in range(7))
                if p == 2:
                    assert disjoint == ((r, 0, s) in carry_free_splits(r + s, p))


def test_trinomial_indices_small():
    # the trinomial indices are the keys of carry_free_splits
    assert set(carry_free_splits(1, 2)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    triples = carry_free_splits(3, 2)
    assert len(triples) == 9
    for i, j, k in triples:
        assert i + j + k == 3


def test_trinomial_indices_against_enumeration():
    for p in (2, 3):
        for n in range(p**3 + 1):
            brute = [
                (i, j, n - i - j)
                for i in range(n + 1)
                for j in range(n - i + 1)
                if multinomial(n, i, j, n - i - j) % p != 0
            ]
            assert sorted(brute) == sorted(carry_free_splits(n, p))


def test_trinomial_count_formula():
    for p in (2, 3, 5):
        for n in range(0, 200):
            expected = math.prod(math.comb(a + 2, 2) for a in digits(n, p))
            assert len(carry_free_splits(n, p)) == expected


def test_alpha_coeff():
    # alpha, the unit mod p of a carry-free split, is its carry_free_splits value
    for n in range(1, 20):
        for p in (2, 3):
            assert carry_free_splits(n, p)[n, 0, 0] == 1
    assert carry_free_splits(3, 2)[1, 0, 2] == 1
    assert (1, 1, 1) not in carry_free_splits(3, 3)  # carries: 1 + 1 + 1 = 3 = 10 in base 3


def test_alpha_lucas_consistency():
    for p in (2, 3, 5):
        for n in range(40):
            for (i, j, k), alpha in carry_free_splits(n, p).items():
                assert alpha == multinomial(n, i, j, k) % p
                assert alpha != 0


def test_digit_combinatorics_prove_nothing(monkeypatch):
    # digits, carry_free_splits and trinomial_terms take p from a ring that proved it when built
    calls = []
    is_prime = coeffcore.is_prime
    monkeypatch.setattr(coeffcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p = 2**31 - 1
    terms = trinomial_terms(4, p)
    assert calls == []
    assert terms == {(("a", i, 4 - i), ("x", j, 4 - i - j), ("b", 4 - i - j, 0)): multinomial(4, i, j, 4 - i - j)
                     for i in range(5) for j in range(5 - i)}


def test_qfactorial():
    Q = truncated_poly_algebra(None, 2)
    one = Q.one()
    assert qfactorial(1, one, Q) == one
    assert qfactorial(3, one, Q) == Q.smul(6, one)
    assert qfactorial(4, one, Q) == Q.smul(24, one)
    X = Q.basis_vec(1)
    with pytest.raises(ValueError, match="central"):
        from skewseries.finalg import matrix_algebra

        M = matrix_algebra(2, 2)
        qfactorial(2, M.basis_vec(1), M)
    assert X is not None


def test_binom_valuation_exhaustive_small():
    assert binom_valuation_check(2, 2, 2)
    assert binom_valuation_check(3, 8, 2)
    for p in (2, 3):
        for n in range(1, 4):
            for i in range(1, p**n + 1):
                assert binom_valuation_check(n, i, p)
    with pytest.raises(ValueError):
        binom_valuation_check(2, 0, 2)


def test_binom_valuation_check_proves_p_once(monkeypatch):
    # one proof, by vp(i, p), then prime_vp: two vp calls made two proofs of p
    calls = []
    is_prime = coeffcore.is_prime
    monkeypatch.setattr(coeffcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p = 2**31 - 1
    assert binom_valuation_check(1, 5, p) and binom_valuation_check(2, 3, p)
    assert calls == [p, p]
    for composite in (1, 4):  # refused, before prime_vp could run on p = 1, which never ends
        with pytest.raises(ValueError, match=f"{composite} is not prime"):
            binom_valuation_check(2, 1, composite)
