"""Truncated commutative power series base rings (Z/p^k)[t]/(t^T).

These are the coefficient rings under the skew power series machinery:
F_p[[t]]/(t^T) for k = 1, and Z/p^k (as T = 1, or with a t on top) for
the mixed-characteristic demos.  Elements are tuples of T residues
modulo p^k.
"""

from __future__ import annotations

import functools

from .coeffcore import is_prime


class SeriesRing:
    """(Z/p^k)[t]/(t^T), commutative; its (p, t)-adic valuation is ``AdicFiltration``."""

    def __init__(self, p: int, T: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if T < 1 or k < 1:
            raise ValueError("T and k must be >= 1")
        self.p = p
        self.k = k
        self.T = T
        self.modulus = p**k

    @property
    def char(self) -> int:
        return self.modulus

    @property
    def scalar_mod(self) -> int:
        return self.modulus

    @property
    def dim(self) -> int:
        return self.T

    def zero(self):
        return (0,) * self.T

    def one(self):
        return (1,) + (0,) * (self.T - 1)

    def gen(self):
        if self.T < 2:
            raise ValueError("no t generator at T = 1")
        return tuple(1 if i == 1 else 0 for i in range(self.T))

    def element(self, coeffs):
        coeffs = list(coeffs)[: self.T]
        coeffs += [0] * (self.T - len(coeffs))
        return tuple([c % self.modulus for c in coeffs])  # from a list, for the reason given at exactla.vec

    def monomial(self, c: int, n: int):
        if n >= self.T:
            return self.zero()
        return tuple(c % self.modulus if i == n else 0 for i in range(self.T))

    def basis(self):
        return [self.monomial(1, n) for n in range(self.T)]

    generators = property(lambda self: (1,) if self.T > 1 else ())  # t generates the ring, as an algebra

    @functools.cached_property
    def _pairs(self):
        """The nonzero (k, c) of each basis product, as on a FinAlgebra: t^i t^j = t^(i+j) below T."""
        return tuple(tuple(((i + j, 1),) if i + j < self.T else () for j in range(self.T))
                     for i in range(self.T))

    # add, sub and smul build from a list, for the reason given at exactla.vec
    def add(self, a, b):
        return tuple([(x + y) % self.modulus for x, y in zip(a, b, strict=True)])

    def sub(self, a, b):
        return tuple([(x - y) % self.modulus for x, y in zip(a, b, strict=True)])

    def smul(self, c, a):
        return tuple([(c * x) % self.modulus for x in a])

    def mul(self, a, b, acc=None):  # with acc: a b added into that list unreduced, and the list returned
        T, out = self.T, [0] * self.T if acc is None else acc
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:T - i], i):  # the truncated convolution, skipping zeros
                    if y:
                        out[j] += x * y
        return out if acc is not None else tuple([c % self.modulus for c in out])

    def is_central(self, a):
        return True

    def random_element(self, rng):
        return tuple(rng.randrange(self.modulus) for _ in range(self.T))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}[t]/(t^{self.T})"
        return f"(Z/{self.modulus})[t]/(t^{self.T})"
