"""Skew derivations (sigma, delta) and their expansion formulas.

A skew derivation is an automorphism sigma together with an additive
delta obeying the twisted Leibniz rule delta(ab) = delta(a)b +
sigma(a)delta(b).  When sigma and delta commute we get the binomial
expansion of delta^n(ab), and in characteristic p the carry-free
trinomial expansion of delta^n(axb).  Each is written once, as a map
from words of decorated atoms (name, i, j), each standing for
delta^i sigma^j of an element, to coefficients (``binomial_terms``,
``trinomial_terms``); ``evaluate`` substitutes elements into it.
"""

from __future__ import annotations

import functools
import math

from . import exactla as la
from .coeffcore import carry_free_splits, digits
from .finalg import Automorphism, FinAlgebra, IdealSubspace, automorphism, is_stable, law_violations, subspace


class SkewDerivationError(ValueError):
    pass


class AxiomReport:
    def __init__(self, violations=()):
        self.violations = list(violations)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness) -> None:
        self.violations.append((axiom, witness))

    def __str__(self):
        if self.valid:
            return "valid"
        return "\n".join(f"{axiom}: witness {witness}" for axiom, witness in self.violations)


class SkewDerivation:
    """Pair of additive maps on a ring, stored as basis-image matrices."""

    stable = staticmethod(is_stable)  # m(I) <= I, for its maps m; a verdict's pairs share a memo

    def __init__(self, ring, sigma, delta, q=None):
        self.ring = ring
        self.sigma_matrix = tuple(tuple(row) for row in sigma)
        self.delta_matrix = tuple(tuple(row) for row in delta)
        self.q = q

    @classmethod
    def from_gen_images(cls, ring, sigma_gen, delta_gen, q=None):
        """Extend generator images over a monomial basis 1, g, g^2, ... (ring.basis()).

        Works for SeriesRing (g = t) and for truncated polynomial
        FinAlgebras (g = the degree-1 basis vector): sigma extends
        multiplicatively, delta by the twisted Leibniz rule.
        """
        n, monomials = ring.dim, ring.basis()
        sigma_rows = [ring.one()]
        for _ in range(1, n):
            sigma_rows.append(ring.mul(sigma_rows[-1], sigma_gen))
        delta_rows = [ring.zero(), delta_gen]
        for i in range(2, n):
            # delta(g^i) = delta(g) g^(i-1) + sigma(g) delta(g^(i-1))
            delta_rows.append(ring.add(
                ring.mul(delta_gen, monomials[i - 1]),
                ring.mul(sigma_gen, delta_rows[i - 1]),
            ))
        return cls(ring, tuple(sigma_rows), tuple(delta_rows[:n]), q=q)

    @classmethod
    def identity(cls, ring):
        n, mod = ring.dim, ring.scalar_mod
        return cls(ring, la.identity_map(n, mod), tuple(la.zero_vec(n, mod) for _ in range(n)))

    # -- map application ---------------------------------------------------

    def sigma(self, a):
        return la.apply_map(self.sigma_matrix, a, self.ring.scalar_mod)

    def delta(self, a):
        return la.apply_map(self.delta_matrix, a, self.ring.scalar_mod)

    def sigma_pow(self, n: int):
        return la.map_power(self.sigma_matrix, n, self.ring.scalar_mod)

    def delta_pow(self, n: int):
        return la.map_power(self.delta_matrix, n, self.ring.scalar_mod)

    @property
    def commuting(self) -> bool:
        sigma, delta, mod = self.sigma_matrix, self.delta_matrix, self.ring.scalar_mod
        return la.compose(sigma, delta, mod) == la.compose(delta, sigma, mod)

    def sigma_minus_id(self, n: int = 1):
        """The map sigma^n - id."""
        mod = self.ring.scalar_mod
        return la.map_sub(self.sigma_pow(n), la.identity_map(self.ring.dim, mod), mod)

    def is_sigma_minus_id(self) -> bool:
        return self.delta_matrix == self.sigma_minus_id()

    def __repr__(self):
        return f"SkewDerivation(on {self.ring!r})"


def check_skew_derivation(sd: SkewDerivation) -> AxiomReport:
    """Verify all axioms on basis pairs; report violations with witnesses.  The laws of
    sigma and delta are ``finalg.law_violations``; the q laws, when sd has a q, follow."""
    ring = sd.ring
    report = AxiomReport(law_violations(ring, sd.sigma_matrix, sd.delta_matrix))
    if sd.q is not None:
        q = sd.q
        if not ring.is_central(q):
            report.add("q central", q)
        if sd.sigma(q) != q:
            report.add("sigma(q) = q", q)
        if sd.delta(q) != ring.zero():
            report.add("delta(q) = 0", q)
        for i, e in enumerate(ring.basis()):
            if sd.delta(sd.sigma(e)) != ring.mul(q, sd.sigma(sd.delta(e))):
                report.add("delta sigma = q sigma delta", i)
    return report


def require_char_p(sd: SkewDerivation) -> int:
    """sd.ring's p, refused unless it is the characteristic: 0 != None over Q, p^k != p over Z/p^k.
    The ring proved p prime when built; an unchecked FinAlgebra trusts its caller."""
    if sd.ring.char != sd.ring.p:
        raise SkewDerivationError("requires characteristic p")
    return sd.ring.p


def require_commuting(sd: SkewDerivation) -> None:
    if not sd.commuting:
        raise SkewDerivationError("requires sigma delta = delta sigma")


def require_skew_derivation(sd: SkewDerivation) -> None:
    """Refuse a pair that breaks an axiom, naming the first one ``check_skew_derivation`` reports."""
    report = check_skew_derivation(sd)
    if not report.valid:
        axiom, witness = report.violations[0]
        raise SkewDerivationError(f"(sigma, delta) is not a skew derivation: {axiom}: witness {witness}")


def require_pair(sd: SkewDerivation, q=None) -> None:
    """Refuse sd unless it is a skew derivation with delta sigma = q sigma delta (q = 1 when None), proved
    on the generators of sd.ring: ``law_violations`` checks the laws on the pairs (e_i, s), then d = delta
    sigma - q sigma delta has d(1) = 0 and d(xy) = d(x)sigma(y) + sigma^2(x)d(y), so ker d is a subalgebra.
    On a failure the full checks refuse in turn: sigma delta = delta sigma (q None), sigma an
    automorphism, delta sigma = q sigma delta (q given), the laws."""
    ring, sigma, delta, mod, c = sd.ring, sd.sigma_matrix, sd.delta_matrix, sd.ring.scalar_mod, 1 if q is None else q
    sigma_S, delta_S = ([m[s] for s in ring.generators] for m in (sigma, delta))  # the images of each e_s
    if next(law_violations(ring, sigma, delta), None) is not None or la.compose(sigma_S, delta, mod) != tuple(
            la.vscale(c, v, mod) for v in la.compose(delta_S, sigma, mod)):
        if q is None:
            require_commuting(sd)
        automorphism(ring, sigma)
        if q is not None and la.compose(sigma, delta, mod) != tuple(
                la.vscale(q, v, mod) for v in la.compose(delta, sigma, mod)):
            raise SkewDerivationError(f"requires delta sigma = q sigma delta, q = {q}")
        require_skew_derivation(sd)


def pth_power(sd: SkewDerivation, m: int) -> SkewDerivation:
    """The skew derivation (sigma^(p^m), delta^(p^m)) in characteristic p.  Unless sd is itself a
    p-th power, it is checked first: p, then ``require_pair``, refusing as sigma delta = delta sigma,
    ``finalg.automorphism`` and the laws do.  A p-th power of a p-th power is read off, or added
    to, the ladder they share, and the sigma of every rung carries the proof."""
    p = require_char_p(sd)
    if not isinstance(sd, _CommutingPair):
        require_pair(sd)
        rung = (Automorphism(sd.ring, sd.sigma_pow(1)), sd.delta_pow(1))
        sd = _CommutingPair(sd.ring, sd.q, [rung], 0, functools.cache(is_stable))
    ladder, level = sd.ladder, sd.level + m
    while len(ladder) <= level:  # each rung the p-th power of the one below
        sigma, delta = (la.map_power(x, p, sd.ring.scalar_mod) for x in ladder[-1])
        ladder.append((Automorphism(sd.ring, sigma), delta))
    return _CommutingPair(sd.ring, sd.q, ladder, level, sd.stable)


class _CommutingPair(SkewDerivation):
    """A pair made by ``pth_power``: powers of commuting maps commute, and powers of an
    automorphism are automorphisms, so it is not checked again.  The pairs raised from one
    checked copy share its ladder, whose entry m holds its maps to the p^m-th power, and
    ``stable``, which answers each (ideal, map) once."""
    commuting = True

    def __init__(self, ring, q, ladder: list, level: int, stable):
        self.ring, self.q, (self.sigma_matrix, self.delta_matrix) = ring, q, ladder[level]
        self.ladder, self.level, self.stable = ladder, level, stable


def binomial_terms(n: int) -> dict:
    """delta^n(ab) for commuting sigma, delta: sum_k C(n, k) delta^k sigma^(n-k)(a) delta^(n-k)(b)."""
    return {(("a", k, n - k), ("b", n - k, 0)): math.comb(n, k) for k in range(n + 1)}


def trinomial_terms(n: int, p: int) -> dict:
    """delta^n(axb) mod p for commuting sigma, delta: one term per carry-free (i, j, k)."""
    return {(("a", i, n - i), ("x", j, k), ("b", k, 0)): c
            for (i, j, k), c in sorted(carry_free_splits(n, p).items())}


def evaluate(expr: dict, sd: SkewDerivation, assignment: dict):
    """Substitute elements for the names of an expansion and sum it in sd.ring; each power
    of sigma and delta is taken once per call."""
    ring, mod = sd.ring, sd.ring.scalar_mod
    sigma_pow, delta_pow = functools.cache(sd.sigma_pow), functools.cache(sd.delta_pow)
    total = ring.zero()
    for w, c in expr.items():
        prod = ring.one()
        for name, i, j in w:
            a = la.apply_map(sigma_pow(j), assignment[name], mod)
            prod = ring.mul(prod, la.apply_map(delta_pow(i), a, mod))
        total = ring.add(total, ring.smul(c, prod))
    return total


def delta_n_product(sd: SkewDerivation, a, b, n: int):
    """Binomial expansion of delta^n(ab) for a skew derivation with commuting sigma, delta."""
    require_commuting(sd)
    require_skew_derivation(sd)
    return evaluate(binomial_terms(n), sd, {"a": a, "b": b})


def trinomial_expand(sd: SkewDerivation, a, x, b, n: int):
    """Carry-free trinomial expansion of delta^n(axb) in characteristic p, on a pair as delta_n_product's."""
    p = require_char_p(sd)
    require_commuting(sd)
    require_skew_derivation(sd)
    return evaluate(trinomial_terms(n, p), sd, {"a": a, "x": x, "b": b})


def _minimal_escape(sd: SkewDerivation, I: IdealSubspace, a, bound: int):
    """Smallest r with delta^r(a) not in I, or None within the bound."""
    current = a
    for r in range(bound + 1):
        if not I.contains(current):
            return r
        current = sd.delta(current)
    return None


def cor36_check(sd: SkewDerivation, I: IdealSubspace, a, b, x, r: int, s: int) -> bool:
    """delta^(r+s)(axb) = alpha * delta^r sigma^s(a) sigma^s(x) delta^s(b) mod I.

    Preconditions (each reported separately on failure): a skew derivation with commuting
    sigma, delta in characteristic p, a, b in I with minimal escape exponents exactly r and s,
    and [r], [s] carry-free disjoint in base p.
    """
    ring, p = sd.ring, require_char_p(sd)
    require_commuting(sd)
    require_skew_derivation(sd)
    if not I.contains(a) or not I.contains(b):
        raise SkewDerivationError("a and b must lie in I")
    bound = max(r, s) + 1
    ra = _minimal_escape(sd, I, a, bound)
    rb = _minimal_escape(sd, I, b, bound)
    if ra != r:
        raise SkewDerivationError(f"r is not minimal for a (found {ra})")
    if rb != s:
        raise SkewDerivationError(f"s is not minimal for b (found {rb})")
    if any(u and v for u, v in zip(digits(r, p), digits(s, p))):
        raise SkewDerivationError("[r] and [s] share a common component")
    lhs = la.apply_map(sd.delta_pow(r + s), ring.mul(ring.mul(a, x), b), ring.scalar_mod)
    term = (("a", r, s), ("x", 0, s), ("b", s, 0))
    rhs = evaluate({term: trinomial_terms(r + s, p)[term]}, sd, {"a": a, "x": x, "b": b})
    return I.contains(ring.sub(lhs, rhs))


def lemma31_check(sd: SkewDerivation, I: IdealSubspace) -> bool:
    """I + delta(I) is closed under two-sided multiplication, for a skew derivation and a sigma-stable I."""
    A: FinAlgebra = sd.ring
    require_skew_derivation(sd)
    if not is_stable(I, sd.sigma_matrix):
        raise SkewDerivationError("I is not sigma-stable")
    vectors = list(I.basis) + [sd.delta(v) for v in I.basis]
    return subspace(A, vectors).is_ideal()
