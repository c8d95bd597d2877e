"""Finite-dimensional associative unital algebras, stored as their nonzero products.

Algebras live over F_p or Q; elements are coordinate tuples; ideals are
subspaces in reduced row echelon form (so equality is literal tuple
equality).  On top of the arithmetic sit radicals, Wedderburn block
detection via central idempotents, automorphism orbits of ideals, and
sigma-prime testing.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import exactla as la
from .coeffcore import is_prime


class AlgebraError(ValueError):
    pass


class OrbitCapExceeded(AlgebraError):
    pass


class ImplementationError(RuntimeError):
    """An internal consistency check failed: a defect here, not bad input."""


class FinAlgebra:
    """Associative unital algebra given by its products: ``structure[i][j]`` is e_i * e_j, as its coordinate
    vector or as a dict {k: c} of its nonzero coordinates (the form for a large algebra).  ``p`` is a prime
    for F_p coefficients or None for Q.  The one stored form is ``_pairs[i][j]``, the nonzero (k, c) of
    e_i * e_j in k order, so the arithmetic costs O(nonzeros) per basis product (one pair in a group
    algebra) and memory grows with the nonzeros, not as dim^3; the ``structure`` attribute is a dense
    view of it.  Over F_p each c is lifted to (-p/2, p/2]; ``integral``: a checked construction found these
    integers associative over Z.  ``generators``: basis indices generating A as a unital algebra, found by
    a checked construction (every index otherwise)."""

    def __init__(self, p, dim, structure, unit, check=True):
        self.p, self.dim = p, dim
        equal = {}  # equal products share one tuple: a group algebra has dim of them, not dim^2
        self._pairs = tuple(tuple(equal.setdefault(t, t) for t in map(self._nonzeros, row)) for row in structure)
        self.unit = la.vec(unit, p)
        self._zero = la.zero_vec(dim, p)
        self._basis = tuple(self.basis_vec(i) for i in range(dim))
        self.generators = range(dim)
        self.integral = check and self._validate()
        self._radical = None  # radical(self), kept by its first call

    @functools.cached_property
    def structure(self) -> tuple:  # the dense view of _pairs: e_i * e_j as a coordinate vector in normal form
        return tuple(tuple(la.vec(self._combine([(1, i, j)]), self.p) for j in range(self.dim)) for i in range(self.dim))

    @property
    def char(self) -> int:
        return self.p if self.p is not None else 0

    @property
    def scalar_mod(self):
        """Modulus for coordinatewise scalar arithmetic (None over Q)."""
        return self.p

    def _nonzeros(self, v) -> tuple:  # the nonzero (k, c) of v, a coordinate vector or a dict {k: c}, in k order
        p, terms = self.p, v.items() if isinstance(v, dict) else enumerate(v)
        normed = ((k, la.fnorm(c, None) if p is None else int(c) % p) for k, c in terms)
        return tuple(sorted((k, c - p if p and 2 * c > p else c) for k, c in normed if c))

    def _validate(self) -> bool:
        """Associativity and the unit law; True when the lift is integral.  Given the unit law, the
        triples with a middle in S = ``exactla.greedy_generators`` prove all (Light's test: the a with
        (xa)y = x(ay) for all x, y form a subspace closed under products), and on the lift, where S's
        words span, once its unit is exact.  Else every triple is checked, in order."""
        n, p = self.dim, self.p
        if n < 1:
            raise AlgebraError("dim must be >= 1")
        if p is not None and not is_prime(p):  # F_p must be a field: radicals and splits assume one
            raise AlgebraError(f"p = {p} is not prime")
        u = self._nonzeros(self.unit)  # its products with each e_i, on the lift
        products = [(self._combine((c, k, i) for k, c in u), self._combine((c, i, k) for k, c in u)) for i in range(n)]
        unit_law = all(la.vec(x, p) == e == la.vec(y, p) for (x, y), e in zip(products, self._basis))
        if unit_law:  # the unit, with ints over F_p; times(r, s) is r e_s
            self.generators = la.greedy_generators([dict(u).get(k, 0) for k in range(n)], self._basis, lambda r, s: (
                self._combine((c, k, s) for k, c in enumerate(r) if c)), p)
            witness, integral = self._first_associator(self.generators)
            if witness is None and (not integral or all(x == list(e) == y for (x, y), e in zip(products, self._basis))):
                return integral
        witness, integral = self._first_associator(range(n))
        if witness is not None:
            raise AlgebraError("structure constants not associative at ({},{},{})".format(*witness))
        if not unit_law:
            raise AlgebraError("unit vector is not a two-sided identity")
        return integral

    def _first_associator(self, middles) -> tuple:
        """(the first (i, j, k), j in middles, with (e_i e_j) e_k - e_i (e_j e_k) not 0 mod p, or None;
        True when every one is 0 on the lift, which is then integral for these triples)."""
        n, P, p, integral = self.dim, self._pairs, self.p, True
        for i, j, k in itertools.product(range(n), middles, range(n)):
            diff = {}  # coordinate by coordinate
            for a, c in P[i][j]:
                for t, s in P[a][k]:
                    diff[t] = diff.get(t, 0) + c * s
            for b, c in P[j][k]:
                for t, s in P[i][b]:
                    diff[t] = diff.get(t, 0) - c * s
            if any(diff.values()):
                if not p or any(x % p for x in diff.values()):
                    return (i, j, k), False
                integral = False
        return None, integral

    # -- element arithmetic ------------------------------------------------

    def basis_vec(self, i):
        return tuple(int(j == i) for j in range(self.dim))

    def basis(self):
        return list(self._basis)

    def zero(self):
        return self._zero

    def one(self):
        return self.unit

    def element(self, coords):
        if len(coords) != self.dim:
            raise AlgebraError("coordinate length mismatch")
        return la.vec(coords, self.p)

    def add(self, a, b):
        return la.vadd(a, b, self.p)

    def sub(self, a, b):
        return la.vsub(a, b, self.p)

    def smul(self, c, a):
        return la.vscale(c, a, self.p)

    def _combine(self, terms, out=None):
        """sum c e_i e_j over the (c, i, j) in terms, unnormalised, added into out (a new list by default)."""
        out, P = [0] * self.dim if out is None else out, self._pairs
        for c, i, j in terms:
            for k, s in P[i][j]:
                out[k] += c * s
        return out

    def mul(self, a, b, mod=None, acc=None):  # mod: a multiple of p to reduce by, for a product on the lift
        right = [(j, bj) for j, bj in enumerate(b) if bj]  # acc: as at SeriesRing.mul
        out = self._combine(((ai * bj, i, j) for i, ai in enumerate(a) if ai for j, bj in right), acc)
        return out if acc is not None else la.vec(out, mod or self.p)

    def is_central(self, z):  # z commutes with each e_s, s in generators (its commutant is a subalgebra)
        return all(self.mul(z, self._basis[s]) == self.mul(self._basis[s], z) for s in self.generators)

    def random_element(self, rng):
        if self.p is not None:
            return tuple(rng.randrange(self.p) for _ in range(self.dim))
        return tuple(rng.randint(-3, 3) for _ in range(self.dim))

    def left_mult_matrix(self, a):
        """Map v -> a*v in the row-is-image convention: row j is sum_i a_i e_i e_j."""
        terms = [(i, ai) for i, ai in enumerate(a) if ai != 0]
        return tuple(la.vec(self._combine((ai, i, j) for i, ai in terms), self.p)
                     for j in range(self.dim))

    def __repr__(self):
        field = "Q" if self.p is None else f"F_{self.p}"
        return f"FinAlgebra(dim={self.dim}, field={field})"


class IdealSubspace:
    """Two-sided ideal stored as an rref basis (canonical, hashable; never mutated).  ``pivots``,
    ``functionals`` and the ``is_ideal`` certificate are slots, filled on first read."""
    __slots__ = ("parent", "basis", "_pivots", "_functionals", "_ideal")

    def __init__(self, parent: FinAlgebra, basis: tuple):
        self.parent, self.basis = parent, basis
        self._pivots = self._functionals = self._ideal = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        """Pivot columns of the rref basis: each row's first nonzero entry."""
        if self._pivots is None:
            self._pivots = tuple(next(c for c, x in enumerate(row) if x != 0) for row in self.basis)
        return self._pivots

    @property
    def functionals(self) -> tuple:
        """(f, the nonzero (pivot_m, basis[m][f])) per free column f, in order, for the functional v -> v_f -
        sum v[pivot_m] basis[m][f]: its value is v's residue modulo I at f, so together they vanish exactly on I."""
        if self._functionals is None:
            at = list(zip(self.pivots, self.basis))
            self._functionals = tuple((f, tuple((c, row[f]) for c, row in at if row[f] != 0))
                                      for f in sorted(set(range(self.parent.dim)) - set(self.pivots)))
        return self._functionals

    def contains(self, v) -> bool:
        """Every functional vanishes on v, mod p over F_p (v need not be reduced), exactly over Q."""
        p = self.parent.p
        for f, terms in self.functionals:
            s = v[f]
            for c, x in terms:
                s -= v[c] * x
            if s % p if p else s:
                return False
        return True

    def contains_ideal(self, other: "IdealSubspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def is_ideal(self) -> bool:
        """Closed under e_s v and v e_s for each basis vector v and s in A.generators: the a with aI <= I
        (or Ia <= I) form a subalgebra, so it holds every a.  Evaluated once, as I never changes."""
        if self._ideal is None:
            self._ideal = self._closed_under_products()
        return self._ideal

    def _closed_under_products(self) -> bool:
        A = self.parent
        terms = [[(j, c) for j, c in enumerate(v) if c != 0] for v in self.basis]
        return all(self.contains(A._combine((c, s, j) for j, c in t))  # e_s v
                   and self.contains(A._combine((c, j, s) for j, c in t))  # v e_s
                   for t in terms for s in A.generators)

    def __eq__(self, other):
        return (isinstance(other, IdealSubspace) and self.parent is other.parent
                and self.basis == other.basis)

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"IdealSubspace(dim={self.dim})"


def subspace(A: FinAlgebra, vectors) -> IdealSubspace:
    """Wrap a set of vectors as an (unchecked) IdealSubspace in rref."""
    return IdealSubspace(A, la.span(list(vectors), A.p))


def ideal_generated(A: FinAlgebra, gens) -> IdealSubspace:
    """Smallest two-sided ideal containing gens, by closure under e_s v and v e_s, s in A.generators."""
    current = la.span(list(gens), A.p)
    while True:
        closed = la.span([*current, *(A.mul(x, y) for v in current for s in A.generators
                                      for x, y in ((A._basis[s], v), (v, A._basis[s])))], A.p)
        if closed == current:
            return IdealSubspace(A, closed)
        current = closed


def ideal_meet(ideals) -> IdealSubspace:
    """Intersection of a nonempty list of ideals (the first itself when alone): the common kernel
    of all their ``functionals``, each the column 1 at f and -x at c, for its terms (c, x), of one system."""
    if len(ideals) == 1:
        return ideals[0]
    A = ideals[0].parent
    columns = [[int(c == f) - at.get(c, 0) for c in range(A.dim)]
               for I in ideals for f, terms in I.functionals for at in [dict(terms)]]
    return IdealSubspace(A, la.left_kernel(list(zip(*columns)) if columns else [()] * A.dim, A.p))


# -- radicals ---------------------------------------------------------------


def radical(A: FinAlgebra) -> IdealSubspace:
    """Largest nilpotent two-sided ideal: the last Friedl-Ronyai level.

    The levels are I_i = {x in I_(i-1) : g_i(xy) = 0 for all y in A}, with
    I_(-1) = A and g_i(x) = (Tr(L^_x^q) / q) mod p, q = p^i, L^_x an integer
    lift of L_x; the radical is the last level with q <= dim.  Over Q only
    level 0 is needed: the kernel of the trace form.  Level 0 is the trace
    form in any characteristic and is read off the structure constants:
    g_0(e_a e_b) = sum_k (e_a e_b)_k t_k with t_k = Tr(L_(e_k)).  Cohen,
    Ivanyos and Wales (J. Pure Appl. Algebra 117, 1997) show that g_i is
    linear on I_(i-1) (over F_p; semilinear over F_(p^k)) and free of the
    lift: q-th powers of integer matrices equal mod p have traces equal mod
    qp.  So g_i is taken once per rref basis vector x_k of I_(i-1): on an
    ``A.integral`` lift L^_x L^_y = L^_(xy), so Tr(L^_x^q) = sum_k (x^q)_k t_k
    with x^q by log2 q products in A mod qp; otherwise as L^_x^q mod qp.
    Extended to A by phi(v) = sum_k v[pivot_k] g_i(x_k), the rows g_i(x e_j)
    = sum_m x_m Phi[m][j] come from one table Phi[m][j] = phi(e_m e_j).
    Two kinds of level need no system: level 0 is A when every t_k is 0
    mod p (the trace form is 0), and a level whose phi is 0 at every pivot,
    once the traces pass the divisibility check, is I_(i-1) (the kernel of a
    zero system is everything, and an rref basis is its own image).
    The answer is kept on A, which is never mutated: the first call pays
    and later calls return the same object.  A refusal is not kept.
    """
    if A._radical is not None:
        return A._radical
    p, n, P = A.p, A.dim, A._pairs
    traces = [sum(c for i in range(n) for k, c in P[t][i] if k == i) for t in range(n)]
    if any(la.fnorm(t, p) for t in traces):
        trace_form = [tuple(sum(c * traces[k] for k, c in prod) for prod in row) for row in P]
        I = IdealSubspace(A, la.left_kernel(trace_form, p))
    else:  # every t_k is 0 (mod p): the trace form vanishes and level 0 is A
        I = IdealSubspace(A, la.identity_map(n, p))
    q = p or n + 1  # over Q there is no level past 0
    while q <= n and I.dim:
        # Tr(L^q) is read only through tr % q and (tr // q) % p, both fixed by
        # tr mod qp, and powers commute with reduction, so they are taken mod qp.
        mod = q * p
        if A.integral:
            trs = [sum(map(operator.mul, la.power(x, q, lambda a, b: A.mul(a, b, mod)), traces))
                   for x in I.basis]
        else:
            powers = (la.map_power(A.left_mult_matrix(x), q, mod) for x in I.basis)
            trs = [sum(L[t][t] for t in range(n)) for L in powers]
        if any(tr % q for tr in trs):
            raise AlgebraError("trace-like functional not divisible: invalid input")
        phi = dict(zip(I.pivots, ((tr // q) % p for tr in trs)))
        if any(phi.values()):  # else g_i = 0 on I_(i-1), which is the level again
            table = [tuple(sum(c * phi.get(k, 0) for k, c in prod) for prod in row) for row in P]
            # rref, as in subspace_intersection: rref kernel vectors combining an rref basis
            I = IdealSubspace(A, la.compose(la.left_kernel(la.compose(I.basis, table, p), p), I.basis, p))
        q *= p
    A._radical = I
    return I


def quotient_algebra(A: FinAlgebra, I: IdealSubspace):
    """Quotient algebra with projection / section maps.

    Returns (B, project, lift) where project maps an element of A to its
    coset coordinates and lift picks the canonical coset representative.
    """
    p, free = A.p, [f for f, _ in I.functionals]
    if not free:
        raise AlgebraError("quotient by the whole algebra is the zero ring")

    def project(v):  # the functionals' values: v's residue modulo I at the free columns
        return la.vec([v[f] - sum([v[c] * x for c, x in terms]) for f, terms in I.functionals], p)

    def lift(coords):  # coords, in normal form as B's elements are, at the free columns
        at = dict(zip(free, coords, strict=True))
        return tuple(at.get(k, zero) for k, zero in enumerate(A.zero()))

    image = [[] for _ in A._basis]  # project(e_k) as its nonzero (t, x): functional t is 1 at f, -x at c
    for t, (f, terms) in enumerate(I.functionals):
        for c, x in [(f, -1), *terms]:
            image[c].append((t, -x))

    def product(a, b):  # the projected e_a e_b; the free basis vectors e_a lift the quotient basis
        acc = {}
        for k, c in A._pairs[a][b]:
            for t, x in image[k]:
                acc[t] = acc.get(t, 0) + c * x
        return acc

    B = FinAlgebra(p, len(free), [[product(a, b) for b in free] for a in free], project(A.unit), check=False)
    return B, project, lift


def induced_map(A: FinAlgebra, m, B, project, lift):
    """Matrix of the map m induces on the quotient B = A/I that ``project`` and ``lift`` come from
    (requires m(I) <= I)."""
    return tuple(map(project, la.compose([lift(v) for v in B.basis()], m, A.p)))


# -- semisimple structure ---------------------------------------------------


def center(A: FinAlgebra) -> tuple:
    """rref basis of the center, the z commuting with each e_s: row i is e_i e_s - e_s e_i over A.generators."""
    return la.left_kernel([[x - y for s in A.generators for x, y in zip(A._combine([(1, i, s)]), A._combine([(1, s, i)]))]
                           for i in range(A.dim)], A.p)


def central_idempotents(A: FinAlgebra) -> list:
    """Centrally primitive idempotents of a semisimple algebra (radical(A) = 0 is checked), sorted.

    They are the primitive idempotents of the centre Z, a product of fields, split in one pass
    over F_p by the Frobenius fixed space.  Over Q only a centre Q (one block) is answered: no
    command splits a larger one.  They are certified nonzero, idempotent, orthogonal and summing to 1.
    """
    if radical(A).dim != 0:
        raise AlgebraError("algebra not semisimple")
    p, Z, zero = A.p, center(A), A.zero()
    if len(Z) > 1 and not p:
        raise AlgebraError(f"splitting a centre of dim {len(Z)} over Q is not supported")
    idems = [A.one()] if len(Z) == 1 else _split_centre_fp(A, Z)
    if not (all(e != zero and A.mul(e, e) == e for e in idems)
            and all(A.mul(a, b) == zero for a, b in itertools.combinations(idems, 2))
            and functools.reduce(A.add, idems) == A.one()):
        raise ImplementationError("central idempotents fail their certificate")
    return sorted(idems)


def _split_centre_fp(A: FinAlgebra, Z) -> list:
    """Primitive idempotents of the centre Z over F_p, from its Frobenius fixed space.

    z -> z^p is F_p-linear on Z = prod F_(p^k_i), one field per block (Z: a basis), and
    fixes F_p in each, so its fixed space F is F_p^r, r the number of blocks,
    with the block units as primitive idempotents.  They refine {1} by each
    basis vector f of F: if g = ef is not in F_p e, eF = F_p^s and g has two
    distinct coordinates.  For u = g + be, u^(p-1) is 1 on the nonzero
    coordinates of u and u^((p-1)/2) is their quadratic character, so
    e - u^(p-1) and (u^(p-1) +- u^((p-1)/2))/2 are orthogonal idempotents
    summing to e (for p = 2, e - u and u), two of them nonzero once b = -g_i.
    When eF = F_p e for every f, each e is primitive; there must be r.
    """
    p, half = A.p, (A.p + 1) // 2
    frobenius_minus_id = [A.sub(la.power(z, p, A.mul), z) for z in Z]
    F = la.compose(la.left_kernel(frobenius_minus_id, p), Z, p)
    idems = [A.one()]
    for f in F:
        todo, idems = idems, []
        while todo:
            e = todo.pop()
            g, k = A.mul(e, f), next(i for i, x in enumerate(e) if x != 0)
            if A.smul(g[k] * la.finv(e[k], p), e) == g:
                idems.append(e)
                continue
            for b in range(p):
                u = A.add(g, A.smul(b, e))
                h = u if p == 2 else la.power(u, (p - 1) // 2, A.mul)
                t = A.mul(h, h)  # u^(p-1); u itself when p = 2
                halves = [t] if p == 2 else [A.smul(half, A.add(t, h)), A.smul(half, A.sub(t, h))]
                pieces = [x for x in [A.sub(e, t), *halves] if x != A.zero()]
                if len(pieces) > 1:
                    todo += pieces
                    break
    if len(idems) != len(F):
        raise ImplementationError(f"{len(idems)} idempotents, Frobenius fixed space of dim {len(F)}")
    return idems


def is_prime_fd(A: FinAlgebra) -> bool:
    """Prime = zero radical and a single Wedderburn block."""
    return radical(A).dim == 0 and len(central_idempotents(A)) == 1


def prime_spectrum(A: FinAlgebra, N: IdealSubspace | None = None) -> list[IdealSubspace]:
    """The prime (= maximal) ideals of A over N, sorted by echelon basis.  ``N``: an ideal
    containing rad A (radical(A) when None).

    Every maximal ideal contains rad A, and C = A/N (A if N = 0) is semisimple, the sum of its
    simple blocks Ce, e centrally primitive idempotent, so the maximal ideals over N are N + the
    lifts of the (1 - e)C.  C is tested to be semisimple: a certificate that N contains rad A
    (for C = A, a read of the radical kept on A).
    """
    if N is None:
        N = radical(A)
    C, _, lift = quotient_algebra(A, N) if N.dim else (A, None, lambda v: v)
    primes = [
        subspace(A, list(N.basis) + [lift(C.sub(v, C.mul(e, v))) for v in C.basis()])
        for e in central_idempotents(C)
    ]
    return sorted(primes, key=lambda P: P.basis)


def minimal_primes_over(A: FinAlgebra, I: IdealSubspace, spectrum=None) -> list[IdealSubspace]:
    """Minimal primes over the proper ideal I: the primes containing I.

    Every prime P of a finite-dimensional algebra is maximal: in B = A/P the
    ideal 0 is prime, so the nilpotent radical (a power of it is 0) is 0, and
    a central idempotent e has Be * B(1 - e) = 0, so B is one simple block.
    Maximal ideals are pairwise incomparable, so the minimal primes over I
    are all the primes containing I.  ``spectrum``: prime_spectrum(A), if known.
    """
    if I.dim == A.dim:
        raise AlgebraError("the whole algebra lies in no prime ideal")
    return [P for P in spectrum or prime_spectrum(A) if P.contains_ideal(I)]


# -- sigma machinery --------------------------------------------------------


def law_violations(R, sigma, delta=None):
    """Each (axiom, witness) that (sigma, delta) breaks on R, in order: sigma bijective, sigma(1) = 1,
    per basis pair (i, j) sigma multiplicative and, with a delta, Leibniz, then delta(1) = 0.  The
    pairs (i, s), s in R.generators, are walked first, and every pair only when they show a violation:
    given sigma(1) = 1, the y with sigma(xy) = sigma(x)sigma(y) for all x form a subalgebra, as then,
    given delta(1) = 0, do those with delta(xy) = delta(x)y + sigma(x)delta(y)."""
    if next(_law_pass(R, sigma, delta, R.generators), None) is not None:
        yield from _law_pass(R, sigma, delta, range(R.dim))


def _law_pass(R, sigma, delta, middles):
    """law_violations on the pairs (i, j), j in middles.  Both sides are summed over nonzero entries
    only, of R._pairs and of the maps' rows, and compared mod R.scalar_mod, or exactly over Q."""
    mod, n, P, one = R.scalar_mod, R.dim, R._pairs, R.one()
    if not la.is_invertible(sigma, R.p):
        yield "sigma bijective", "matrix is singular"
    if la.apply_map(sigma, one, mod) != one:
        yield "sigma(1) = 1", one
    s = [[(a, c) for a, c in enumerate(row) if c != 0] for row in sigma]  # sigma(e_i)
    laws = [("sigma multiplicative", s, [(s, s)])]  # m(e_i e_j) = sum of left(e_i) right(e_j)
    if delta is not None:
        d = [[(a, c) for a, c in enumerate(row) if c != 0] for row in delta]
        laws.append(("Leibniz", d, [(d, [[(j, 1)] for j in range(n)]), (s, d)]))
    for i, j in itertools.product(range(n), middles):
        for axiom, m, products in laws:
            diff = {}  # m(e_i e_j) - sum left(e_i) right(e_j), coordinate by coordinate
            for k, c in P[i][j]:
                for t, x in m[k]:
                    diff[t] = diff.get(t, 0) + c * x
            for left, right in products:
                for a, c in left[i]:
                    for b, e in right[j]:
                        for t, x in P[a][b]:
                            diff[t] = diff.get(t, 0) - c * e * x
            if any(x % mod for x in diff.values()) if mod else any(diff.values()):
                yield axiom, (i, j)
    if delta is not None and any(la.apply_map(delta, one, mod)):
        yield "delta(1) = 0", one


class Automorphism(tuple):
    """A sigma matrix proved an automorphism of ``algebra``: made by ``automorphism`` and by the
    p-power ladder of a checked pair (``skewder.pth_power``), as powers of one are automorphisms."""

    def __new__(cls, algebra: FinAlgebra, sigma):
        proof = super().__new__(cls, sigma)
        proof.algebra = algebra
        return proof


def automorphism(A: FinAlgebra, sigma) -> Automorphism:
    """sigma with its proof for A: at once for a proof made for A itself, else by law_violations."""
    if isinstance(sigma, Automorphism) and sigma.algebra is A:
        return sigma
    if next(law_violations(A, sigma), None):
        raise AlgebraError("sigma is not an algebra automorphism")
    return Automorphism(A, sigma)


def sigma_orbit(I: IdealSubspace, sigma, cap: int = 64) -> list[IdealSubspace]:
    """The distinct ideals I, sigma(I), sigma^2(I), ... in order; at most ``cap`` of them.

    sigma is proved an automorphism of I.parent (``automorphism``).  An orbit of a prime is
    bounded by the prime spectrum; the orbit of an arbitrary ideal over Q can be infinite.
    """
    A = I.parent
    sigma = automorphism(A, sigma)
    orbit, current = [I], I
    for _ in range(cap):
        current = subspace(A, la.compose(current.basis, sigma, A.p))
        if current == I:
            return orbit
        orbit.append(current)
    raise OrbitCapExceeded(f"orbit cap {cap} exceeded")


def is_stable(I: IdealSubspace, m) -> bool:
    """m(I) <= I for the map m."""
    return all(map(I.contains, la.compose(I.basis, m, I.parent.p)))


def is_sigma_prime(I: IdealSubspace, sigma, spectrum=None, stable=None, orbits=()) -> bool:
    """I is its own one minimal sigma-prime: the primes over I form one sigma-orbit meeting in I.
    ``stable`` and ``orbits``: as for minimal_sigma_primes."""
    A = I.parent
    sigma = automorphism(A, sigma)
    if I.dim == A.dim:
        raise AlgebraError("the whole ring is not a sigma-prime ideal")
    return minimal_sigma_primes(A, sigma, I, spectrum, stable=stable, orbits=orbits) == [I]


def minimal_sigma_primes(
    A: FinAlgebra, sigma, I: IdealSubspace, spectrum=None, stable=None, orbits=()
) -> list[IdealSubspace]:
    """Minimal sigma-prime ideals containing I: the meets of the sigma-orbits of the primes over I.

    sigma permutes the primes over the sigma-stable I, so each orbit is
    walked once, bounded by their number.  Distinct orbit meets are
    incomparable: if meet(O1) <= meet(O2), each Q in O2 contains the
    product of O1; Q is prime, so it contains some P in O1, and P is
    maximal, so Q = P.  So O2 lies in O1, and orbits that meet are equal.
    sigma is proved an automorphism of A (``automorphism``).  ``spectrum``: prime_spectrum(A),
    ``stable``: is_stable(I, sigma), and ``orbits``: sigma-orbits of primes (in any order) with
    their meets, as (orbit, meet) pairs, if known.
    """
    sigma = automorphism(A, sigma)
    if not (is_stable(I, sigma) if stable is None else stable):
        raise AlgebraError("ideal is not sigma-stable")
    primes, meets = minimal_primes_over(A, I, spectrum), []
    known = {P: pair for pair in orbits for P in pair[0]}  # each member's (orbit, meet)
    while primes:
        if primes[0] not in known:
            orbit = sigma_orbit(primes[0], sigma, cap=len(primes))
            known[primes[0]] = orbit, ideal_meet(orbit)
        orbit, meet = known[primes[0]]
        meets.append(meet)
        primes = [P for P in primes if P not in orbit]
    return sorted(meets, key=lambda J: J.basis)


# -- convenience constructors ----------------------------------------------


def truncated_poly_algebra(p, n: int) -> FinAlgebra:
    """F_p[X]/(X^n) (or Q[X]/(X^n) for p=None) with basis 1, X, ..., X^(n-1)."""
    return FinAlgebra(p, n, [[{i + j: 1} if i + j < n else {} for j in range(n)] for i in range(n)], [1] + [0] * (n - 1))


def product_of_fields(p, n: int) -> FinAlgebra:
    """F_p x ... x F_p (n factors), coordinatewise multiplication."""
    return FinAlgebra(p, n, [[{i: 1} if i == j else {} for j in range(n)] for i in range(n)], [1] * n)


def matrix_algebra(p, n: int) -> FinAlgebra:
    """Full n x n matrix algebra; basis e_{rc} ordered row-major."""
    cells = [divmod(a, n) for a in range(n * n)]  # (r, c) of each basis element
    # e_{r1 c1} e_{r2 c2} is e_{r1 c2} when c1 = r2, else 0
    products = [[{r1 * n + c2: 1} if c1 == r2 else {} for r2, c2 in cells] for r1, c1 in cells]
    return FinAlgebra(p, n * n, products, [int(r == c) for r, c in cells])


def direct_sum(A: FinAlgebra, B: FinAlgebra) -> FinAlgebra:
    if A.p != B.p:
        raise AlgebraError("field mismatch")
    n, m = A.dim, B.dim  # e_i e_j in A + B: A's products, B's shifted by n, and 0 across
    products = [[*map(dict, row), *[{}] * m] for row in A._pairs]
    products += [[*[{}] * n, *({k + n: c for k, c in prod} for prod in row)] for row in B._pairs]
    return FinAlgebra(A.p, n + m, products, A.unit + B.unit, check=False)
