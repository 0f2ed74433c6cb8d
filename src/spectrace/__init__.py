"""Trace functionals and spectral measures of covariance operators.

Estimators (plug-in, size-aggregated with bias-cancelling weights, and a
subset-averaged jackknife), the deterministic theory they are compared
against, and a seeded Monte Carlo harness with a CLI.
"""

from .estimators import (
    AggregationScheme,
    ComputeBudgetError,
    SchemeError,
    SignedSpectralMeasure,
    aggregate_estimate,
    coeffs_closed_form,
    jackknife_estimate,
    linear_term,
    make_scheme,
    spectral_measure_estimate,
    taylor_remainder,
)
from .functions import (
    FunctionClassGrid,
    TestFunction,
    builtin,
    default_grid,
    grid_to_csv,
    tau_f,
)
from .linalg import (
    CovarianceModel,
    EigenSolverError,
    SampleSet,
    derive_seed,
    gram_spectra,
    load_samples_csv,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    RateSweepResult,
    ReplicateError,
    SupnormResult,
    config_hash,
    ks_to_normal,
    normality_check,
    parse_model,
    rate_sweep,
    run,
    supnorm_experiment,
    wasserstein1_to_normal,
    write_qq_csv,
    write_result_csvs,
)
from .theory import (
    RateBudget,
    effective_rank,
    esd_mp_ks,
    gaussian_limit_std,
    mp_atom,
    mp_cdf,
    mp_support,
    rate_budget,
)

__version__ = "0.1.0"
