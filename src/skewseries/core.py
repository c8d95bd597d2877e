"""Delta-cores, their p-power stabilization, and the Theorem-C procedure.

The delta-core of a sigma-ideal I is the largest (sigma, delta)-ideal
inside I; raising the pair to p-th powers in characteristic p gives an
ascending chain of cores that stabilizes.  On top of that sit the
sigma-primeness statement for stabilized cores and the constructive
procedure producing, from a minimal sigma-prime I, an ideal J with
delta^(p^M)(J) contained in J.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import exactla as la
from .finalg import (
    AlgebraError,
    FinAlgebra,
    IdealSubspace,
    ImplementationError,
    center,
    ideal_meet,
    induced_map,
    is_sigma_prime,
    prime_spectrum,
    quotient_algebra,
    radical,
    sigma_orbit,
)
from .skewder import SkewDerivation, SkewDerivationError, pth_power, require_pair


class CoreError(ValueError):
    pass


def _proved(check, *args):
    """check(*args), its refusal as a CoreError: ``_proved(pth_power, sd, 0)`` is a verdict's one
    check of its pair (p, then ``skewder.require_pair``)."""
    try:
        return check(*args)
    except (SkewDerivationError, AlgebraError) as exc:
        raise CoreError(exc) from None


def default_cap(A: FinAlgebra, cap: int | None = None) -> int:
    """``cap``, refused when negative; when None, a default from dim A and p."""
    if cap is None:
        p = A.p if A.p is not None else 2
        m = 1  # the least m with p^m >= max(dim, 2)
        while p**m < A.dim:
            m += 1
        return max(4, m + 2)
    if cap < 0:
        raise CoreError(f"cap must be >= 0, got {cap}")
    return cap


def delta_core(A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace) -> IdealSubspace:
    """Largest (sigma, delta)-ideal contained in the sigma-ideal I.

    Computed as K, the greatest fixed point of K -> K meet sigma^{-1}K
    meet delta^{-1}K starting from I: the largest subspace of I stable
    under sigma and delta, i.e. the a with w(a) in I for every word w in
    sigma and delta.  K is already an ideal.  From sigma(ab) =
    sigma(a)sigma(b) and delta(ab) = delta(a)b + sigma(a)delta(b), every
    word satisfies w(ab) = sum u(a)v(b) with u, v words, so if a lies in
    K then w(ra) and w(ar) lie in the two-sided ideal I for every r.

    K is returned only when it is an ideal, which makes it the answer whatever I and
    (sigma, delta) are: every (sigma, delta)-ideal inside I is a stable subspace of I, hence
    inside K.  A delta-stable I is its own core and is returned itself, with its once-per-ideal
    certificate.  A commuting pair drops the sigma-step, and a non-commuting one keeps it: by
    induction from I, each iterate K stays sigma-stable, as x in K meet delta^{-1}K has
    delta(sigma x) = sigma(delta x) in sigma K <= K.
    """
    if not sd.stable(I, sd.sigma_matrix):
        raise CoreError("ideal is not sigma-stable")
    K = I
    if not sd.stable(I, sd.delta_matrix):
        p, current = A.p, I.basis
        maps = (sd.delta_matrix,) if sd.commuting else (sd.sigma_matrix, sd.delta_matrix)
        while current:
            new = current
            for m in maps:
                new = la.subspace_intersection(new, la.preimage(m, current, p), p)
            if new == current:
                break
            current = new
        K = IdealSubspace(A, current)
    if not K.is_ideal():
        raise CoreError(
            "the (sigma, delta)-stable part of I is not an ideal: "
            "I is not a two-sided ideal or (sigma, delta) is not a skew derivation"
        )
    return K


def delta_pm_core(A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace, m: int) -> IdealSubspace:
    """Largest (sigma^(p^m), delta^(p^m))-ideal in I; a checked pair's rung m is read off its ladder."""
    return delta_core(A, _proved(pth_power, sd, m), I)


class CoreReport:
    __slots__ = ("ideal_dim", "cap", "M", "dims", "core")

    def __init__(self, ideal_dim: int, cap: int = 0, M: int | None = None):
        self.ideal_dim, self.cap, self.M = ideal_dim, cap, M
        self.dims = []  # the core dimension at m = 0, 1, ...; small ints, shared by every report
        self.core: IdealSubspace | None = None

    @property
    def chain(self) -> list:  # (m, core dimension)
        return list(enumerate(self.dims))

    @property
    def conclusive(self) -> bool:
        return self.M is not None

    def serialize(self) -> str:
        lines = [f"ideal dim: {self.ideal_dim}"]
        lines.append("chain: " + " ".join(f"m={m}:dim={d}" for m, d in self.chain))
        lines.append(f"M: inconclusive at cap {self.cap}" if self.M is None else f"M: {self.M}")
        if self.core is not None:
            lines.append(f"core dim: {self.core.dim}")
        return "\n".join(lines)


def stabilization_M(
    A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace, cap: int | None = None
) -> CoreReport:
    """Ascending chain of delta^(p^m)-cores and its first stable exponent.

    M is claimed only when the chain is constant from M up to the cap and M < cap, so at least
    one comparison backs it; otherwise (including cap 0, which compares nothing) the report is
    flagged inconclusive.  P_m = (sigma^(p^m), delta^(p^m)) is the p-th power of P_(m-1), so
    from the first P_m equal to an earlier P_j the pairs, and their cores, repeat with period
    m - j: each distinct pair gets one p-th power and one core (sigma = id, delta^p = 0: P_m =
    (id, 0) for m >= 1).  From the first core equal to I the chain is constant, with no more
    pairs or cores: it ascends inside I, which every later pair keeps, being a p-power of that
    core's pair.  The pair is checked first, then the cap.
    """
    sd = _proved(pth_power, sd, 0)
    cap = default_cap(A, cap)
    report = CoreReport(ideal_dim=I.dim, cap=cap)
    cores, first, period = [], {}, 0
    for m in range(cap + 1):
        if not period:  # P_m = P_(m-1)^p up to the first repeat P_m = P_(m - period)
            pair = pth_power(pair, 1) if m else sd
            period = m - first.setdefault((pair.sigma_matrix, pair.delta_matrix), m)
        cores.append(cores[m - period] if period else delta_pm_core(A, sd, I, m))
        period = 1 if cores[m] == I else period
        report.dims.append(cores[m].dim)
    for earlier, later in zip(cores, cores[1:]):
        if later is not earlier and not later.contains_ideal(earlier):
            raise ImplementationError("core chain is not ascending")
    # the chain ascends, so the first core equal to the last starts the stable tail
    M = next(m for m, K in enumerate(cores) if K == cores[cap])
    report.M = None if M == cap else M  # still moving at the cap, or nothing compared at cap 0
    report.core = cores[cap]
    return report


def core_flags(A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace, cap: int | None = None) -> tuple:
    """The ``core`` command: report = stabilization_M(A, sd, I, cap) and the flags that check it.

    The pair, then the cap, are checked once, in stabilization_M's order.  Each flag is taken on
    the final core and (sigma, delta)^(p^M), with M the cap when the report is inconclusive;
    sigma^(p^M)-primality is None for the whole ring, which is no sigma-prime.
    """
    sd = _proved(pth_power, sd, 0)  # the one check: its p-th powers commute and sigma's are automorphisms
    report = stabilization_M(A, sd, I, cap=cap)
    final = report.core
    sd_M = pth_power(sd, report.cap if report.M is None else report.M)  # a rung the chain built
    flags = {
        "is ideal": final.is_ideal(),
        "sigma^(p^M)-stable": sd_M.stable(final, sd_M.sigma_matrix),
        "delta^(p^M)-stable": sd_M.stable(final, sd_M.delta_matrix),
    }
    try:
        flags["sigma^(p^M)-prime"] = is_sigma_prime(
            final, sd_M.sigma_matrix, stable=flags["sigma^(p^M)-stable"])
    except AlgebraError:
        flags["sigma^(p^M)-prime"] = None
    return report, flags


def prop39_check(
    A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace, cap: int | None = None
) -> bool:
    """Stabilized delta-cores of sigma-prime ideals are sigma-prime.

    Hypothesis failures (the pair, I not sigma-prime, the cap, or M != 0) raise CoreError, in
    that order; a False return refutes the conclusion only.
    """
    sd = _proved(pth_power, sd, 0)
    spectrum = prime_spectrum(A)
    if not is_sigma_prime(I, sd.sigma_matrix, spectrum):
        raise CoreError("hypothesis failed: I is not sigma-prime")
    report = stabilization_M(A, sd, I, cap=cap)
    if report.M != 0:
        raise CoreError(
            f"hypothesis failed: delta-core is not the delta^(p^infinity)-core (M={report.M})"
        )
    try:  # M = 0: the stabilised core is the delta-core
        return is_sigma_prime(report.core, sd.sigma_matrix, spectrum)
    except AlgebraError as exc:
        raise CoreError(f"conclusion not decidable: {exc}") from exc


def theorem_c_procedure(
    A: FinAlgebra, sd: SkewDerivation, I: IdealSubspace, cap: int | None = None
):
    """Constructive procedure: from a minimal sigma-prime I, produce (J, M).

    I must be a proper, sigma-stable ideal containing rad A.  Then A/I is
    semisimple, and its blocks give the primes over I, the only primes the
    procedure reads (``prime_spectrum(A, I)``, certified by radical(A/I) =
    0; rad A <= I cross-checks the two radicals against each other).
    Follows the inductive construction: fix the lexicographically least
    minimal prime P over I and walk its sigma-orbit [P, sigma P, ...] of
    length L once; the sigma^n-orbit of P is then every gcd(n, L)-th
    member.  I is a minimal sigma-prime exactly when it is the meet of that
    orbit: a prime over the meet contains the orbit's product, so a member,
    which it equals, both being maximal.  Round j stabilizes I_j under
    (sigma, delta)^(p^(M_(j-1))), to which I_j is stable (M_(-1) = 0), adds
    that exponent to M_j, and sets I_(j+1) = the intersection of the
    sigma^(p^(M_j))-orbit of P.  It stops at the first I_(j+1) = I_j, with
    (J, M) = (I_j, M_j): a further round would stabilize I_j under
    (sigma, delta)^(p^(M_j)), whose core chain is the stable tail of this
    round's, so it would add 0 to M_j.  Checks, with the rounds' maps,
    stability answers, orbit and meets, that J is a minimal sigma^(p^M)-prime
    (the primes over J make up the sigma^(p^M)-orbit of P, whose meet J is),
    I the meet of the sigma-orbit of J, and delta^(p^M)(J) <= J.
    """
    sd, p = _proved(pth_power, sd, 0), A.char  # the verdict's one check of its pair
    cap = default_cap(A, cap)
    refusal = "I is not a minimal sigma-prime ideal"
    if not (I.dim < A.dim and I.is_ideal() and I.contains_ideal(radical(A))
            and sd.stable(I, sd.sigma_matrix)):
        raise CoreError(refusal)
    try:  # the primes over I, certified by radical(A/I) = 0
        spectrum = prime_spectrum(A, I)
    except AlgebraError:
        raise CoreError(refusal) from None
    P = spectrum[0]  # the least echelon basis
    orbit = sigma_orbit(P, sd.sigma_matrix, cap=len(spectrum))
    meet = functools.cache(lambda step: ideal_meet(orbit[::step]))  # of every step-th member
    if meet(1) != I:  # then the primes over I are this one orbit
        raise CoreError(refusal)
    reports = []
    I_j, pair, M_j = I, sd, 0
    for _ in range(cap + 2):
        rep = stabilization_M(A, pair, I_j, cap=cap)
        reports.append(rep)
        if rep.M is None:
            return None, None, {"inconclusive": True, "reports": reports}
        M_j += rep.M
        I_next = meet(math.gcd(p**M_j, len(orbit)))
        if I_next == I_j:
            break
        I_j, pair = I_next, pth_power(pair, rep.M)
    else:
        return None, None, {"inconclusive": True, "reports": reports}
    J, M = I_j, M_j
    sd_M = pth_power(sd, M)  # a rung the last round built
    sigma_M, step = sd_M.sigma_matrix, math.gcd(p**M, len(orbit))
    flags = {  # a sigma^(p^M)-prime is minimal: it is the meet of an orbit of maximal ideals
        "minimal sigma^(p^M)-prime": sd_M.stable(J, sigma_M) and is_sigma_prime(
            J, sigma_M, spectrum, stable=True, orbits=[(orbit[::step], meet(step))]),
        "I is the sigma-orbit intersection of J": (meet(1) if J == P else ideal_meet(
            sigma_orbit(J, sd.sigma_matrix, cap=len(spectrum)))) == I,
        "delta^(p^M)(J) <= J": sd_M.stable(J, sd_M.delta_matrix),
        "inconclusive": False,
        "reports": reports,
    }
    return J, M, flags


def _rational_scalar(A: FinAlgebra, q):
    """The c with q = c * 1, or None if q is not a scalar multiple of 1."""
    candidates = {Fraction(x) / Fraction(ux) for x, ux in zip(q, A.unit) if ux != 0}
    for c in candidates:
        if A.smul(c, A.one()) == tuple(q):
            return c
    return None


def char0_checks(A: FinAlgebra, sd: SkewDerivation) -> dict:
    """Characteristic-0 preservation checks for the radical and sigma-primes, in a report dict.

    Requires q = 1 or q not a root of unity (for rational q, q in {1, -1}), then a skew derivation
    with delta sigma = q sigma delta (``require_pair``; q = 1 when sd has none).  If delta(N) is not
    in N = rad A, its witnesses are listed and the sigma-prime flag is None (undecided).  Otherwise
    the flag is certified on the sigma-fixed centre, with no split: a minimal sigma-prime over N is
    N + lift((1 - e)C), C = A/N, e a sigma-fixed central idempotent of C, so a combination of a
    basis z of Z(C)^sigma.  If each delta(z) lies in N, so does delta(za) - z delta(a) = delta(z)a +
    (sigma(z) - z)delta(a), and the prime is delta-stable.  Z(C)^sigma is a product of number
    fields, on which every sigma-derivation of C vanishes."""
    if A.char != 0:
        raise CoreError("requires characteristic 0")
    c = 1 if sd.q is None else _rational_scalar(A, sd.q)
    if c is None:
        raise CoreError("q is not a rational scalar")
    if c == -1:
        raise CoreError("q = -1 is a nontrivial root of unity")
    if c == 0:
        raise CoreError("q must be a unit")
    _proved(require_pair, sd, c)
    sigma = sd.sigma_matrix
    N = radical(A)
    witnesses = [("radical", v) for v in N.basis if not N.contains(sd.delta(v))]
    report = {"radical preserved": not witnesses, "sigma-primes preserved": None if witnesses else True,
              "witnesses": witnesses}
    if witnesses:  # delta induces no map on A/N
        return report
    C, project, lift = quotient_algebra(A, N) if N.dim else (A, None, lambda v: v)
    sigma = induced_map(A, sigma, C, project, lift) if N.dim else sigma
    Z = center(C)
    fixed = la.left_kernel([C.sub(s, z) for s, z in zip(la.compose(Z, sigma, None), Z)], None)  # Z(C)^sigma
    for z in map(lift, la.compose(fixed, Z, None)):
        if not N.contains(sd.delta(z)):
            raise CoreError(f"delta is not a sigma-derivation: delta(z) is not in rad A, "
                            f"for the sigma-fixed central z = {z}")
    return report
