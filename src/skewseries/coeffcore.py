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


class Digits:
    """Little-endian base-p expansion; entries[i] is the coefficient of p^i."""

    def __init__(self, base: int, entries: tuple[int, ...]):
        if not is_prime(base):
            raise ValueError(f"base {base} is not prime")
        if any(not (0 <= a < base) for a in entries):
            raise ValueError("digit out of range")
        if entries and entries[-1] == 0:
            raise ValueError("trailing zero digits must be trimmed")
        self.base, self.entries = base, entries

    def value(self) -> int:
        return sum(a * self.base**i for i, a in enumerate(self.entries))

    def digit(self, i: int) -> int:
        return self.entries[i] if i < len(self.entries) else 0

    def __len__(self):
        return len(self.entries)


def digits(n: int, p: int) -> Digits:
    if n < 0:
        raise ValueError("n must be nonnegative")
    entries = []
    while n > 0:
        n, a = divmod(n, p)
        entries.append(a)
    return Digits(p, tuple(entries))


def no_common_component(a: Digits, b: Digits) -> bool:
    """True iff no digit slot is nonzero in both expansions."""
    if a.base != b.base:
        raise ValueError("mismatched bases")
    return all(a.digit(i) == 0 or b.digit(i) == 0 for i in range(max(len(a), len(b))))


def _digit_splits(a: int):
    for u in range(a + 1):
        for v in range(a - u + 1):
            yield u, v, a - u - v


def carry_free_splits(n: int, p: int) -> dict:
    """{(i, j, k): alpha} over the (i, j, k) whose base-p digits sum slotwise, without carries,
    to n's; alpha is the unit mod p that is the product over digit slots t of the multinomial
    (n_t choose i_t, j_t, k_t).  Built slot by slot from one expansion of n: one proof of p."""
    splits = {(0, 0, 0): 1}
    for t, a in enumerate(digits(n, p).entries):
        step = p**t
        splits = {(i + u * step, j + v * step, k + w * step): c * multinomial(a, u, v, w) % p
                  for (i, j, k), c in splits.items() for u, v, w in _digit_splits(a)}
    return splits


def trinomial_indices(n: int, p: int) -> list[tuple[int, int, int]]:
    """All (i, j, k) whose base-p digits sum slotwise, without carries, to n's."""
    return sorted(carry_free_splits(n, p))


def alpha_coeff(i: int, j: int, k: int, p: int) -> int:
    """Unit scalar mod p attached to a carry-free digit splitting: its ``carry_free_splits`` value."""
    coeff = carry_free_splits(i + j + k, p).get((i, j, k))
    if coeff is None:
        raise ValueError("carries present: digit condition violated")
    return coeff


def multinomial(n: int, i: int, j: int, k: int) -> int:
    """Exact integer multinomial coefficient n! / (i! j! k!)."""
    if i + j + k != n:
        raise ValueError("parts must sum to n")
    return math.factorial(n) // (math.factorial(i) * math.factorial(j) * math.factorial(k))


def qfactorial(n: int, q, ring):
    """Product of the partial geometric sums 1 + q + ... + q^(m-1), m <= n."""
    if not ring.is_central(q):
        raise ValueError("q must be central")
    result = ring.one()
    power = ring.one()
    partial = ring.zero()
    for _ in range(1, n + 1):
        partial = ring.add(partial, power)
        # partial now holds 1 + q + ... + q^(m-1) after m-1 updates of power
        result_next = ring.mul(result, partial)
        power = ring.mul(power, q)
        result = result_next
    return result


def binom_valuation_check(n: int, i: int, p: int) -> bool:
    """vp(binom(p^n, i)) == n - vp(i), by exact big-integer arithmetic."""
    if not 1 <= i <= p**n:
        raise ValueError("need 1 <= i <= p^n")
    return vp(math.comb(p**n, i), p) == n - vp(i, p)
