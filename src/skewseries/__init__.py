"""Exact arithmetic for truncated skew power series rings.

Skew derivations (sigma, delta) on finite-dimensional algebras and
truncated series bases, filtration calculus, base-p digit combinatorics,
delta-cores with their p-power stabilization, and truncated skew power
series rings -- every identity cross-checked against brute-force
oracles.
"""

from .coeffcore import (
    INFINITY,
    binom_valuation_check,
    digits,
    multinomial,
    qfactorial,
    vp,
)
from .core import (
    CoreReport,
    char0_checks,
    default_cap,
    delta_core,
    delta_pm_core,
    prop39_check,
    stabilization_M,
    theorem_c_procedure,
)
from .filtration import (
    AdicFiltration,
    ChainFiltration,
    GradedAlgebra,
    assoc_graded,
    check_axioms,
    endo_degree,
    is_compatible,
    lemma16_check,
    quotient_filtration,
)
from .finalg import (
    FinAlgebra,
    IdealSubspace,
    central_idempotents,
    ideal_generated,
    is_prime_fd,
    is_sigma_prime,
    matrix_algebra,
    minimal_primes_over,
    minimal_sigma_primes,
    prime_spectrum,
    product_of_fields,
    radical,
    sigma_orbit,
    truncated_poly_algebra,
)
from .series import SeriesRing
from .skewder import (
    SkewDerivation,
    check_skew_derivation,
    cor36_check,
    delta_n_product,
    lemma31_check,
    pth_power,
    trinomial_expand,
)
from .sps import (
    SPSRing,
    crossed_decompose,
    crossed_recompose,
    graded_iso_check,
    iwasawa_demo,
    quotient_sps,
    substitute_xN,
    tpow_demo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
