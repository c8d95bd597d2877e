"""Filtrations as exact valuation functions, and their graded shadows.

Two kinds are supported: chain filtrations on finite-dimensional
algebras (a nested list of subspaces F_0 >= F_1 >= ...) and the
(p, t)-adic filtration on truncated series bases.  Both expose the same
small protocol -- value, canonical reduction modulo a level, and a
filtration-adapted spanning set -- which is what the degree sweeps and
the skew power series layer consume.
"""

from __future__ import annotations

import functools
import itertools

from . import exactla as la
from .coeffcore import INFINITY, prime_vp
from .finalg import FinAlgebra, IdealSubspace, is_prime_fd, quotient_algebra, subspace
from .series import SeriesRing
from .skewder import AxiomReport, SkewDerivation


class FiltrationError(ValueError):
    pass


class ChainFiltration:
    """Filtration on a FinAlgebra given by a nested chain of subspaces.

    ``levels[j]`` is an rref basis of F_j; F_0 must be the whole algebra
    and the last level must be zero (separatedness).  Values are the
    integers 0 .. len(levels)-1, with value(0) = infinity.  Each level is
    also kept as a subspace with its pivots, for membership and reduction.
    """

    def __init__(self, ring: FinAlgebra, levels):
        self.ring = ring
        self._subspaces = tuple(subspace(ring, lvl) for lvl in levels)
        self.levels = tuple(F.basis for F in self._subspaces)
        if not self.levels or len(self.levels[0]) != ring.dim:
            raise FiltrationError("F_0 must be the whole algebra")
        for higher, lower in zip(self._subspaces[1:], self._subspaces, strict=False):
            if not lower.contains_ideal(higher):
                raise FiltrationError("levels are not nested")
        if self.levels[-1]:
            raise FiltrationError("last level must be zero (separated)")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def _level(self, j: int) -> IdealSubspace:
        return self._subspaces[min(max(j, 0), len(self._subspaces) - 1)]

    def level_basis(self, j: int):
        return self._level(j).basis

    def value(self, a) -> int:
        if la.is_zero_vec(a):
            return INFINITY
        best = 0
        for j in range(1, len(self.levels)):
            if self._subspaces[j].contains(a):
                best = j
            else:
                break
        return best

    def reduce(self, a, j: int):
        """Canonical representative of a modulo F_j."""
        F = self._level(j)
        return la.reduce_vector(F.basis, F.pivots, a, self.ring.p) if F.basis else tuple(a)

    @functools.cached_property
    def adapted_basis(self):
        """Basis vectors tagged with exact values, covering every level gap: from the deepest
        level up, v in F_j is kept when it lies outside the span of everything before it
        (F_(j+1) when level j starts), when ``dependencies`` yields no combination ending at v."""
        tagged = [(v, j) for j in range(self.depth - 1, -1, -1) for v in self.level_basis(j)]
        dependent = {len(c) - 1 for c in la.dependencies([v for v, _ in tagged], self.ring.p)}
        return [pair for i, pair in enumerate(tagged) if i not in dependent]

    def __repr__(self):
        return f"ChainFiltration(depth={self.depth} on {self.ring!r})"


class AdicFiltration:
    """The (p, t)-adic filtration on a truncated series base ring."""

    def __init__(self, ring: SeriesRing):
        self.ring = ring

    def value(self, a) -> int:
        """(p, t)-adic valuation: min over terms of v_p(c_n) + n."""
        ring = self.ring
        return min((prime_vp(c % ring.modulus, ring.p) + n for n, c in enumerate(a) if c % ring.modulus),
                   default=INFINITY)

    def reduce(self, a, j: int):
        """Canonical representative of a modulo {x : value(x) >= j}."""
        ring, out = self.ring, []
        for n, c in enumerate(a):
            keep = j - n
            if keep <= 0:
                out.append(0)
            elif keep >= ring.k:
                out.append(c % ring.modulus)
            else:
                out.append(c % ring.p**keep)
        return tuple(out)

    @functools.cached_property
    def adapted_basis(self):
        """Spanning set p^i t^n with exact valuations, for degree sweeps."""
        ring = self.ring
        return [(ring.monomial(ring.p**i, n), i + n) for n in range(ring.T) for i in range(ring.k)]

    def __repr__(self):
        return f"AdicFiltration(on {self.ring!r})"


def check_axioms(w, samples: int = 0, rng=None) -> AxiomReport:
    """Verify the filtration axioms on basis pairs plus random pairs."""
    ring = w.ring
    report = AxiomReport()
    if w.value(ring.zero()) is not INFINITY:
        report.add("w(0) = infinity", ring.zero())
    pairs = list(itertools.product([v for v, _ in w.adapted_basis], repeat=2))
    if rng is not None:
        pairs += [(ring.random_element(rng), ring.random_element(rng)) for _ in range(samples)]
    for a, b in pairs:
        if w.value(ring.add(a, b)) < min(w.value(a), w.value(b)):
            report.add("w(x+y) >= min(w(x), w(y))", (a, b))
        if w.value(ring.mul(a, b)) < w.value(a) + w.value(b):
            report.add("w(xy) >= w(x) + w(y)", (a, b))
    for a, _ in w.adapted_basis:
        if w.value(a) is INFINITY and tuple(a) != tuple(ring.zero()):
            report.add("separated", a)
    return report


def endo_degree(w, d_matrix) -> int:
    """deg_w(d) = min over a filtration-adapted basis of w(d(v)) - w(v)."""
    mod = w.ring.scalar_mod
    return min((w.value(la.apply_map(d_matrix, v, mod)) - val for v, val in w.adapted_basis), default=INFINITY)


def is_compatible(w, sd: SkewDerivation) -> bool:
    """deg(sigma - id) > 0 and deg(delta) > 0."""
    return endo_degree(w, sd.sigma_minus_id()) > 0 and endo_degree(w, sd.delta_matrix) > 0


def lemma16_check(w, sd: SkewDerivation, n: int) -> bool:
    """deg(sigma^(p^n) - id) >= n when w(p) >= 1 and deg(sigma - id) >= 1."""
    ring = w.ring
    p = getattr(ring, "p", None)
    if p is None:
        raise FiltrationError("precondition failed: base has no prime p")
    if w.value(ring.smul(p, ring.one())) < 1:
        raise FiltrationError("precondition failed: w(p) < 1")
    if endo_degree(w, sd.sigma_minus_id()) < 1:
        raise FiltrationError("precondition failed: deg(sigma - id) < 1")
    if not sd.is_sigma_minus_id():
        raise FiltrationError("precondition failed: delta != sigma - id")
    return not endo_degree(w, sd.sigma_minus_id(p**n)) < n


class GradedAlgebra:
    """Associated graded data over a finite degree window.

    Each component is a list of representative ring elements whose
    classes form a basis of F_d / F_{d+1}: ``dim`` counts them, and
    ``to_algebra`` multiplies them.
    """

    def __init__(self, w, window):
        self.filtration = w
        self.window = tuple(window)
        comps = {d: [] for d in self.window}
        for v, val in w.adapted_basis:
            if val in comps:
                comps[val].append(v)
        self.components = comps

    def dim(self, d: int) -> int:
        return len(self.components.get(d, ()))

    def to_algebra(self) -> FinAlgebra:
        """Realize the full graded ring as a FinAlgebra (chain case only).

        The window's reps b_k, of values v_k, are the adapted basis, which is triangular:
        F_j = span{b_k : v_k >= j}.  So the symbol of x in F_d is its coordinates in that basis
        at value d, and gr's structure constants are those of b_i b_j at value v_i + v_j.
        """
        w = self.filtration
        if not isinstance(w, ChainFiltration):
            raise FiltrationError("only chain filtrations realize as FinAlgebra")
        A, p, flat = w.ring, w.ring.p, [(v, d) for d in self.window for v in self.components[d]]
        if len(flat) != A.dim:
            raise FiltrationError("window does not cover the whole algebra")
        inverse = [la.solve([v for v, _ in flat], e, p) for e in A.basis()]  # e_k in the reps

        def at_value(x, d):  # {k: c} of x in the reps at value d; those below d are 0 in F_d
            coords = list(zip(la.apply_map(inverse, x, p), (v for _, v in flat)))
            if any(c for c, v in coords if v < d):
                raise FiltrationError("w(xy) < w(x) + w(y): the chain is not a ring filtration")
            return {k: c for k, (c, v) in enumerate(coords) if v == d}

        products = [[at_value(A.mul(a, b), i + j) for b, j in flat] for a, i in flat]
        unit = at_value(A.one(), w.value(A.one()))
        return FinAlgebra(p, A.dim, products, [unit.get(k, 0) for k in range(A.dim)], check=False)


def assoc_graded(w, window) -> GradedAlgebra:
    """Graded components F_d / F_{d+1} for the integer degrees in window."""
    window = tuple(window)
    if isinstance(w, ChainFiltration) and any(d > w.depth for d in window):
        raise FiltrationError("window exceeds the chain depth")
    if isinstance(w, AdicFiltration):
        cap = (w.ring.k - 1) + (w.ring.T - 1)
        if any(d > cap for d in window):
            raise FiltrationError("window exceeds the truncation")
    return GradedAlgebra(w, window)


def gr_prime_implies_prime(w: ChainFiltration) -> bool:
    """If the full graded algebra is prime, so is the parent (vacuous otherwise)."""
    gr = assoc_graded(w, range(w.depth + 1))
    if not is_prime_fd(gr.to_algebra()):
        return True
    return is_prime_fd(w.ring)


def quotient_filtration(w: ChainFiltration, I: IdealSubspace):
    """Filtration on the quotient with wbar(r + I) = sup over the coset.

    Returns (wbar, B, project, lift); the levels of wbar are the images
    of the levels of w, which realizes the sup formula exactly.
    """
    A = w.ring
    B, project, lift = quotient_algebra(A, I)
    levels = [la.span([project(v) for v in lvl], A.p) for lvl in w.levels]
    # Trim so the chain still ends at zero.
    while len(levels) > 1 and levels[-2] == levels[-1] == ():
        levels.pop()
    if levels[-1]:
        levels.append(())
    wbar = ChainFiltration(B, levels)
    return wbar, B, project, lift
