"""Exact arithmetic for truncated multiple zeta(-star) values and the
shuffle-family sums they satisfy.

The package computes, with rational arithmetic throughout:

* truncated multiple zeta values and their star (weak-inequality) variants,
* sums of those values over two families of shuffled indices,
* bivariate generating series for the family sums via 2x2 matrix recursions,
* symbolic identities in the quasi-shuffle (harmonic) algebra, and
* closed-form evaluations as rational multiples of powers of pi.

Every identity check returns a small report object stating whether two exact
quantities agreed; nothing is compared in floating point except the final
convergence diagnostics.
"""

from .closedform import (
    ConvergenceRow,
    PiCoefficient,
    bernoulli,
    bernoulli_via_tangent,
    beta,
    converge_report,
    s_closed,
    s_star_closed,
)
from .harmonic import (
    HPoly,
    WordIdentityReport,
    harmonic_mul,
    star_expand,
    verify_identity_s_symbolic,
    verify_identity_t_symbolic,
    word_sum_s,
    word_sum_t,
    z_eval,
    z_star_eval,
)
from .indices import (
    AbcParams,
    index_family_I,
    index_family_J,
    shuffles,
    validate_index,
)
from .series import (
    BivarPoly,
    GridSweep,
    SeriesIdentityReport,
    UnivarPoly,
    check_star_factorization,
    check_symmetric_form,
    extract_s,
    extract_t,
    family_series,
    family_series_star,
    iter_family_series,
    iter_family_series_star,
    zeta_run_poly,
    zeta_star_run_poly,
)
from .zeta import (
    IdentityReport,
    ZetaCache,
    decompositions,
    s_direct,
    s_star_direct,
    t_direct,
    t_star_direct,
    verify_identity_s,
    verify_identity_t,
    zeta_star_trunc,
    zeta_trunc,
)

__version__ = "0.1.0"

__all__ = [
    "AbcParams",
    "BivarPoly",
    "ConvergenceRow",
    "GridSweep",
    "HPoly",
    "IdentityReport",
    "PiCoefficient",
    "SeriesIdentityReport",
    "UnivarPoly",
    "WordIdentityReport",
    "ZetaCache",
    "bernoulli",
    "bernoulli_via_tangent",
    "beta",
    "check_star_factorization",
    "check_symmetric_form",
    "converge_report",
    "decompositions",
    "extract_s",
    "extract_t",
    "family_series",
    "family_series_star",
    "harmonic_mul",
    "index_family_I",
    "index_family_J",
    "iter_family_series",
    "iter_family_series_star",
    "s_closed",
    "s_direct",
    "s_star_closed",
    "s_star_direct",
    "shuffles",
    "star_expand",
    "t_direct",
    "t_star_direct",
    "validate_index",
    "verify_identity_s",
    "verify_identity_s_symbolic",
    "verify_identity_t",
    "verify_identity_t_symbolic",
    "word_sum_s",
    "word_sum_t",
    "z_eval",
    "z_star_eval",
    "zeta_run_poly",
    "zeta_star_run_poly",
    "zeta_star_trunc",
    "zeta_trunc",
]
