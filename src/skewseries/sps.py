"""Truncated skew power series rings R[[x; sigma, delta]].

Elements are left-coefficient polynomials sum r_k x^k (k < D) with the
commutation rule x a = sigma(a) x + delta(a).  Naive rectangular
truncation in x is not associative, so the ring computed here is the
quotient by the staircase ideal {h : u(r_k) + k >= D for all k}, which
is a genuine two-sided ideal whenever the base filtration u is positive
and compatible with (sigma, delta).  Coefficients are stored as the
canonical staircase residues, so equality of tuples is equality in the
quotient ring.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import exactla as la
from .coeffcore import INFINITY
from .filtration import (
    AdicFiltration,
    ChainFiltration,
    is_compatible,
    quotient_filtration,
)
from .finalg import FinAlgebra, IdealSubspace, induced_map, is_stable
from .series import SeriesRing
from .skewder import SkewDerivation


class SPSError(ValueError):
    pass


class PrecisionError(SPSError):
    pass


class SPSRing:
    """Truncated skew power series ring over a filtered base."""

    def __init__(self, base, sd: SkewDerivation, u, D: int, check: bool = True):
        if D < 1:
            raise SPSError("D must be >= 1")
        if u.ring is not base or sd.ring is not base:
            raise SPSError("base, filtration and skew derivation must agree")
        self.base = base
        self.sd = sd
        self.u = u
        self.D = D
        if check and not is_compatible(u, sd):
            raise SPSError("skew derivation is not compatible with the filtration")

    # -- element plumbing ---------------------------------------------------

    def normalize(self, coeffs):
        """Canonical staircase residues: r_k reduced modulo value >= D - k."""
        coeffs = list(coeffs)[: self.D]
        coeffs += [self.base.zero()] * (self.D - len(coeffs))
        return tuple(self.u.reduce(c, self.D - k) for k, c in enumerate(coeffs))

    def zero(self):
        return self.normalize([])

    def one(self):
        return self.normalize([self.base.one()])

    def x(self):
        if self.D < 2:
            raise SPSError("no x at D = 1")
        return self.normalize([self.base.zero(), self.base.one()])

    def constant(self, r):
        return self.normalize([r])

    def random_element(self, rng):
        return self.normalize([self.base.random_element(rng) for _ in range(self.D)])

    def add(self, f, g):
        return self.normalize(self.base.add(a, b) for a, b in zip(f, g, strict=True))

    def sub(self, f, g):
        return self.normalize(self.base.sub(a, b) for a, b in zip(f, g, strict=True))

    # -- multiplication -----------------------------------------------------

    def mul(self, f, g):
        """f g = sum_i r_i h_i, where h_0 = g and h_i = x h_(i-1).

        Coefficient k of x (sum c_k x^k) is sigma(c_(k-1)) + delta(c_k).
        Terms of x-degree >= D are dropped; they lie in the staircase
        ideal, which is stable under left multiplication by x and by R.
        """
        base, sd, zero = self.base, self.sd, self.base.zero()
        out = [zero] * self.D
        n = max((i + 1 for i, r in enumerate(f) if r != zero), default=0)
        h = g
        for i, r in enumerate(f[:n]):
            if i:
                step = [zero] * self.D
                for k, c in enumerate(h):
                    if c == zero:
                        continue
                    step[k] = base.add(step[k], sd.delta(c))
                    if k + 1 < self.D:
                        step[k + 1] = sd.sigma(c)
                h = step
            if r != zero:
                for k, c in enumerate(h):
                    if c != zero:
                        out[k] = base.add(out[k], base.mul(r, c))
        return self.normalize(out)

    def power(self, f, n: int):
        return la.power(f, n, self.mul) if n else self.one()

    # -- the filtration f_u --------------------------------------------------

    def f_u_value(self, f) -> Fraction:
        """min over coefficients of u(r_k) + k/2: a Fraction, or INFINITY when f = 0."""
        return min((self.u.value(r) + Fraction(k, 2) for k, r in enumerate(f)), default=INFINITY)

    def serialize(self, f) -> str:
        """Canonical sparse text form, stable across runs."""
        sym = "t" if isinstance(self.base, SeriesRing) else "e"
        terms = []
        for b, r in enumerate(f):
            for a, c in enumerate(r):
                if c == 0:
                    continue
                parts = [str(c)]
                if a > 0 or sym == "e":
                    parts.append(f"{sym}^{a}")
                if b > 0:
                    parts.append(f"x^{b}")
                terms.append("*".join(parts))
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"SPSRing(D={self.D} over {self.base!r})"


# -- graded isomorphism check -------------------------------------------------


def _spanning_symbols(S: SPSRing):
    """Elements m x^b with exact f_u value u(m) + b/2, one per monomial slot."""
    out = []
    for m, val in S.u.adapted_basis:
        for b in range(S.D):
            coeffs = [S.base.zero()] * S.D
            coeffs[b] = m
            out.append((S.normalize(coeffs), m, b, val + Fraction(b, 2)))
    return out


def graded_dim(S: SPSRing, h: int) -> int:
    """Dimension of gr_u(R)[Z] in degree h/2: base basis values v and x-degrees b with 2v + b = h."""
    return sum(1 for _, val in S.u.adapted_basis if 0 <= h - 2 * val < S.D)


SAMPLE_PAIRS = 40  # symbol pairs checked for multiplicativity when an rng is given


def graded_iso_check(S: SPSRing, window_halves, rng=None) -> bool:
    """gr_{f_u}(S) matches gr_u(R)[Z]: dimensions plus symbol multiplicativity.

    ``window_halves`` is an iterable of doubled degrees (so 3 means 3/2);
    every degree must sit strictly below D/2, where the staircase
    truncation cannot interfere.
    """
    if any(h >= S.D for h in window_halves):
        raise PrecisionError("window reaches D/2: truncation interferes")
    spanning = _spanning_symbols(S)
    values = [S.f_u_value(f) for f, *_ in spanning]  # one per symbol
    if any(values.count(Fraction(h, 2)) != graded_dim(S, h) for h in window_halves):
        return False
    # Symbol multiplicativity: x maps to Z, coefficients to their symbols.
    window_max = max(window_halves, default=0)
    candidates = [
        (f, m, b, nominal)
        for f, m, b, nominal in spanning
        if 2 * nominal <= window_max
    ]
    pairs = list(itertools.product(candidates, repeat=2))
    if rng is not None and len(pairs) > SAMPLE_PAIRS:
        pairs = rng.sample(pairs, SAMPLE_PAIRS)
    for (f, m1, b1, v1), (g, m2, b2, v2) in pairs:
        total = v1 + v2
        if 2 * total > window_max:
            continue
        prod = S.mul(f, g)
        if S.f_u_value(prod) != total:
            return False
        # Leading coefficient at x-degree b1+b2 is m1 * sigma^{b1}(m2) up
        # to strictly larger base value (the delta terms).
        lead = prod[b1 + b2]
        twisted = S.base.mul(m1, la.apply_map(S.sd.sigma_pow(b1), m2, S.base.scalar_mod))
        diff = S.base.sub(lead, twisted)
        if not S.u.value(diff) > S.u.value(twisted):
            return False
    return True


# -- quotients ----------------------------------------------------------------


def quotient_sps(S: SPSRing, I: IdealSubspace):
    """(S over base/I, projection): Lemma-style quotient by coefficientwise I.

    The base must be a chain-filtered FinAlgebra and I must be stable
    under both sigma and delta; the error names the failing map.
    """
    base = S.base
    if not isinstance(base, FinAlgebra) or not isinstance(S.u, ChainFiltration):
        raise SPSError("quotients are supported over chain-filtered FinAlgebra bases")
    if not is_stable(I, S.sd.sigma_matrix):
        raise SPSError("ideal is not stable under sigma")
    if not is_stable(I, S.sd.delta_matrix):
        raise SPSError("ideal is not stable under delta")
    wbar, B, project, lift = quotient_filtration(S.u, I)
    sigma_bar = induced_map(base, S.sd.sigma_matrix, I, B, project, lift)
    delta_bar = induced_map(base, S.sd.delta_matrix, I, B, project, lift)
    sd_bar = SkewDerivation(B, sigma_bar, delta_bar, q=S.sd.q)
    Sbar = SPSRing(B, sd_bar, wbar, S.D, check=False)

    def project_elem(f):
        return Sbar.normalize([project(r) for r in f])

    return Sbar, project_elem


def quotient_kernel_check(S: SPSRing, I: IdealSubspace, project_elem, f) -> bool:
    """f projects to zero iff every coefficient lies in I."""
    return all(I.contains(r) for r in f) == all(all(c == 0 for c in r) for r in project_elem(f))


# -- substitution and the crossed product decomposition ------------------------


def _x_exponent(S: SPSRing, N: int) -> int:
    """p^N, refused for N < 0, over Q and for p^N beyond the x-truncation degree."""
    if N < 0:
        raise SPSError(f"N must be >= 0, got {N}")
    if S.base.p is None:
        raise SPSError("p^N needs a base over Z/p^k, not over Q")
    if S.base.p**N > S.D:
        raise PrecisionError("p^N exceeds the x-truncation degree")
    return S.base.p**N


def substitute_xN(S: SPSRing, N: int):
    """x_N = (x+1)^(p^N) - 1."""
    x_plus_1 = S.add(S.x(), S.one()) if S.D >= 2 else S.one()
    return S.sub(S.power(x_plus_1, _x_exponent(S, N)), S.one())


def crossed_decompose(S: SPSRing, N: int, f):
    """Components s_0..s_{p^N - 1} with f = sum s_i (x+1)^i, each in x_N.

    Each component is returned as a list of base coefficients indexed by
    the power of x_N; use crossed_recompose to map back into S.
    """
    if not S.sd.is_sigma_minus_id():
        raise SPSError("requires delta = sigma - id")
    e = _x_exponent(S, N)
    base = S.base
    # Rewrite in y = x + 1: s_j = sum_k r_k binom(k, j) (-1)^(k-j).
    y_coeffs = [base.zero()] * S.D
    for k, r in enumerate(f):
        for j in range(k + 1):
            c = math.comb(k, j) * (-1) ** (k - j)
            y_coeffs[j] = base.add(y_coeffs[j], base.smul(c, r))
    # Split y^j = (x_N + 1)^q y^i with j = q e + i, expanding the binomial.
    width = (S.D - 1) // e + 1
    components = [[base.zero()] * width for _ in range(e)]
    for j, s in enumerate(y_coeffs):
        q, i = divmod(j, e)
        for a in range(q + 1):
            c = math.comb(q, a)
            components[i][a] = base.add(components[i][a], base.smul(c, s))
    return components


def crossed_recompose(S: SPSRing, N: int, components):
    """sum_i (sum_a c_{i,a} x_N^a) (x+1)^i evaluated in S."""
    xN = substitute_xN(S, N)
    x_plus_1 = S.add(S.x(), S.one())
    xN_powers = [S.one()]
    width = max(len(comp) for comp in components)
    for _ in range(1, width):
        xN_powers.append(S.mul(xN_powers[-1], xN))
    y_powers = [S.one()]
    for _ in range(1, len(components)):
        y_powers.append(S.mul(y_powers[-1], x_plus_1))
    total = S.zero()
    for i, comp in enumerate(components):
        part = S.zero()
        for a, c in enumerate(comp):
            part = S.add(part, S.mul(S.constant(c), xN_powers[a]))
        total = S.add(total, S.mul(part, y_powers[i]))
    return total


# -- shipped demo rings ---------------------------------------------------------


def iwasawa_demo(p: int, T: int, D: int) -> SPSRing:
    """Truncated Iwasawa-type ring: base F_p[[t]]/(t^T), sigma(t) = (1+t)^(1+p) - 1."""
    if T < 2 or D < 2:
        raise SPSError("T and D must be >= 2")
    base = SeriesRing(p, T)
    sigma_t = base.sub(la.power(base.add(base.one(), base.gen()), p + 1, base.mul), base.one())
    sd = SkewDerivation.from_gen_images(base, sigma_t, base.sub(sigma_t, base.gen()))
    return SPSRing(base, sd, AdicFiltration(base), D)


def tpow_demo(p: int, T: int, D: int) -> SPSRing:
    """The delta(t) = t^(p+1), sigma = id demo ring over F_p[[t]]/(t^T)."""
    if T < 2 or D < 2:
        raise SPSError("T and D must be >= 2")
    base = SeriesRing(p, T)
    sd = SkewDerivation.from_gen_images(base, base.gen(), base.monomial(1, p + 1))
    return SPSRing(base, sd, AdicFiltration(base), D)
