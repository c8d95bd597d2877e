import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewseries import coeffcore
from skewseries.coeffcore import (
    Digits,
    INFINITY,
    alpha_coeff,
    binom_valuation_check,
    digits,
    multinomial,
    no_common_component,
    qfactorial,
    trinomial_indices,
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
    assert digits(6, 2).entries == (0, 1, 1)
    assert digits(0, 3).entries == ()
    for p, k in [(2, 3), (5, 2)]:
        assert digits(p**k, p).entries == (0,) * k + (1,)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
def test_digits_roundtrip(n, p):
    assert digits(n, p).value() == n


def test_digits_invariants():
    with pytest.raises(ValueError):
        Digits(4, (1,))
    with pytest.raises(ValueError):
        Digits(2, (1, 0))
    with pytest.raises(ValueError):
        Digits(2, (2,))


def test_no_common_component():
    assert no_common_component(digits(1, 2), digits(2, 2))
    assert not no_common_component(digits(3, 2), digits(2, 2))
    for n in range(20):
        assert no_common_component(digits(n, 3), digits(0, 3))
    with pytest.raises(ValueError, match="mismatched"):
        no_common_component(digits(1, 2), digits(1, 3))


def test_trinomial_indices_small():
    assert set(trinomial_indices(1, 2)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    triples = trinomial_indices(3, 2)
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
            assert sorted(brute) == trinomial_indices(n, p)


def test_trinomial_count_formula():
    for p in (2, 3, 5):
        for n in range(0, 200):
            expected = math.prod(
                math.comb(a + 2, 2) for a in digits(n, p).entries
            )
            assert len(trinomial_indices(n, p)) == expected


def test_alpha_coeff():
    for n in range(1, 20):
        for p in (2, 3):
            assert alpha_coeff(n, 0, 0, p) == 1
    assert alpha_coeff(1, 0, 2, 2) == 1
    with pytest.raises(ValueError, match="carries"):
        alpha_coeff(1, 1, 1, 3)


def test_alpha_lucas_consistency():
    for p in (2, 3, 5):
        for n in range(40):
            for i, j, k in trinomial_indices(n, p):
                assert alpha_coeff(i, j, k, p) == multinomial(n, i, j, k) % p
                assert alpha_coeff(i, j, k, p) != 0


def test_trinomial_terms_prove_p_once(monkeypatch):
    # one expansion of n proves p; the coefficients are read off its digit slots
    calls = []
    is_prime = coeffcore.is_prime
    monkeypatch.setattr(coeffcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p = 2**31 - 1
    terms = trinomial_terms(4, p)
    assert calls == [p]
    assert terms == {(("a", i, 4 - i), ("x", j, 4 - i - j), ("b", 4 - i - j, 0)): multinomial(4, i, j, 4 - i - j)
                     for i in range(5) for j in range(5 - i)}
    with pytest.raises(ValueError, match="base 4 is not prime"):
        Digits(4, (1,))


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
