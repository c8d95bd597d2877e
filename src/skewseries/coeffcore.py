"""Base-p digit combinatorics and the exact scalar values they feed.

Everything here is pure integer arithmetic: p-adic valuations, base-p
expansions, carry-free digit splittings and their multinomial
coefficients, q-factorials, and the INFINITY that filtrations give 0.
"""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def vp(n: int, p: int) -> int:
    """Largest e with p^e dividing n.  Raises on n = 0 and on a composite p."""
    if n != 0 and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return prime_vp(n, p)


def prime_vp(n: int, p: int) -> int:
    """vp for a p already known to be prime, such as a ``SeriesRing``'s: raises on n = 0 only."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class _Infinity:
    """The value of 0: above every int and Fraction, absorbing under +.

    Finite filtration values are plain ints and Fractions; this sentinel is
    the one value that is neither.  n - INFINITY is refused (TypeError).
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __sub__ = __add__

    def __reduce__(self):
        return "INFINITY"

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()


def digits(n: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p expansion of n >= 0, trimmed: entry i is the coefficient of p^i.
    The base is not proved prime (every caller holds a ring's proven p), only refused below 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 2:
        raise ValueError(f"base {p} is below 2")
    entries = []
    while n > 0:
        n, a = divmod(n, p)
        entries.append(a)
    return tuple(entries)


def _digit_splits(a: int):
    for u in range(a + 1):
        for v in range(a - u + 1):
            yield u, v, a - u - v


def carry_free_splits(n: int, p: int) -> dict:
    """{(i, j, k): alpha} over the (i, j, k) whose base-p digits sum slotwise, without carries,
    to n's; alpha is the unit mod p that is the product over digit slots t of the multinomial
    (n_t choose i_t, j_t, k_t).  Built slot by slot from one expansion of n; p is not proved prime."""
    splits = {(0, 0, 0): 1}
    for t, a in enumerate(digits(n, p)):
        step = p**t
        splits = {(i + u * step, j + v * step, k + w * step): c * multinomial(a, u, v, w) % p
                  for (i, j, k), c in splits.items() for u, v, w in _digit_splits(a)}
    return splits


def multinomial(n: int, i: int, j: int, k: int) -> int:
    """Exact integer multinomial coefficient n! / (i! j! k!)."""
    if i + j + k != n:
        raise ValueError("parts must sum to n")
    return math.factorial(n) // (math.factorial(i) * math.factorial(j) * math.factorial(k))


def qfactorial(n: int, q, ring):
    """Product of the partial geometric sums 1 + q + ... + q^(m-1), m <= n."""
    if not ring.is_central(q):
        raise ValueError("q must be central")
    result, power, partial = ring.one(), ring.one(), ring.zero()
    for _ in range(n):  # partial: 1 + q + ... + q^(m-1) at step m, and power: q^m
        partial, power = ring.add(partial, power), ring.mul(power, q)
        result = ring.mul(result, partial)
    return result


def binom_valuation_check(n: int, i: int, p: int) -> bool:
    """vp(binom(p^n, i)) == n - vp(i), by exact big-integer arithmetic."""
    if not 1 <= i <= p**n:
        raise ValueError("need 1 <= i <= p^n")
    exponent = n - vp(i, p)  # proves p once, and first: prime_vp never ends on p = 1
    return prime_vp(math.comb(p**n, i), p) == exponent
