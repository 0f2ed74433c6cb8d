"""Trace-functional estimators: plug-in, size-aggregated, and jackknife.

The aggregated estimator evaluates the plug-in on nested prefixes of the
sample at geometrically spaced sizes and combines them with signed
coefficients chosen so that all inverse-power bias terms up to order m-1
cancel. The jackknife variant replaces each prefix by an average over
random subsets of the same size, which symmetrizes the estimate over the
sample at extra compute cost.

All three multi-level estimators read one engine, ``_level_spectra``,
which computes the subsample covariance spectra of every level once: the
aggregate and jackknife estimates are weighted sums of tau_f over its
output, and the signed spectral measure is the same output as atoms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import floor, sqrt
from pathlib import Path

import numpy as np

from .functions import TestFunction, tau_f
from .linalg import (
    CovarianceModel,
    SampleSet,
    derive_seed,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)

__all__ = [
    "SchemeError",
    "ComputeBudgetError",
    "AggregationScheme",
    "coeffs_closed_form",
    "coeffs_linear_system",
    "make_scheme",
    "degenerate_scheme",
    "plugin_estimate",
    "aggregate_estimate",
    "jackknife_estimate",
    "SignedSpectralMeasure",
    "spectral_measure_estimate",
    "linear_term",
    "taylor_remainder",
    "BiasFit",
    "fit_bias_expansion",
]

# Tolerances tied to the scheme's defining identities.
_SUM_TOL = 1e-10
_CANCEL_TOL = 1e-10
_CROSSCHECK_TOL = 1e-8

# Most covariance eigendecompositions a single estimate may request.
_MAX_EVALS = 10_000


class SchemeError(ValueError):
    """Aggregation scheme cannot be built or is inconsistent."""


class ComputeBudgetError(RuntimeError):
    """Requested subset evaluations exceed the allowed budget."""


@dataclass(frozen=True)
class AggregationScheme:
    """Subsample sizes n_1 < ... < n_m = n and signed weights C_1..C_m.

    The weights satisfy sum_j C_j = 1 and sum_j C_j / n_j**l = 0 for
    l = 1..m-1, which is what cancels the low-order bias terms: this is
    Richardson extrapolation in 1/n, C_j being the Lagrange weights at 0
    for the nodes 1/n_1, ..., 1/n_m. Both identities are re-checked at
    construction; the cancellation check is relative to the largest term,
    since the raw sums shrink like n**-l.
    """

    sizes: tuple[int, ...]
    coeffs: np.ndarray
    q: float = 2.0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if len(sizes) == 0 or coeffs.shape != (len(sizes),):
            raise SchemeError("sizes and coeffs must be nonempty and aligned")
        if sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise SchemeError(f"sizes must be strictly increasing and >= 1: {sizes}")
        if not (self.q >= 1.0):
            raise SchemeError("q must be >= 1")
        m = len(sizes)
        if m > 1:
            # smallest size stays within the geometric span (0.5 covers rounding)
            if sizes[0] < sizes[-1] / self.q ** (m - 1) - 0.5:
                raise SchemeError(
                    f"smallest size {sizes[0]} below n/q^(m-1) for n={sizes[-1]}, q={self.q}"
                )
        total = float(coeffs.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise SchemeError(f"coefficients sum to {total!r}, expected 1")
        ns = np.asarray(sizes, dtype=float)
        for ell in range(1, m):
            terms = coeffs / ns ** ell
            resid = abs(float(terms.sum()))
            top = float(np.max(np.abs(terms)))
            if resid > _CANCEL_TOL * top:
                raise SchemeError(
                    f"order-{ell} cancellation fails: residual {resid:.3e} "
                    f"vs largest term {top:.3e}"
                )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "q", float(self.q))

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return self.sizes[-1]

    def coeff_l1(self) -> float:
        """sum |C_j|, the variance-inflation factor of the aggregation."""
        return float(np.abs(self.coeffs).sum())


def coeffs_closed_form(sizes) -> np.ndarray:
    """Weights C_j = prod_{i != j} n_j / (n_j - n_i) for distinct sizes.

    These are the Lagrange interpolation weights at 0 for the nodes
    h_j = 1/n_j, i.e. the Richardson extrapolation of the plug-in to
    1/n = 0.
    """
    ns = np.asarray(sizes, dtype=float)
    m = ns.size
    if m == 1:
        return np.ones(1)
    if len(set(ns.tolist())) != m:
        raise SchemeError(f"sizes must be distinct: {sizes}")
    out = np.empty(m)
    for j in range(m):
        ratio = ns[j] / (ns[j] - np.delete(ns, j))
        out[j] = np.prod(ratio)
    return out


def coeffs_linear_system(sizes) -> np.ndarray:
    """Same weights via the defining linear system, solved independently.

    Uses nodes z_j = n_1 / n_j in (0, 1] so the Vandermonde system stays
    well-conditioned for the m values in practical use.
    """
    ns = np.asarray(sizes, dtype=float)
    m = ns.size
    z = ns[0] / ns
    mat = np.vander(z, m, increasing=True).T  # row l is z**l
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return np.linalg.solve(mat, rhs)


def make_scheme(m: int, n: int, q: float = 2.0) -> AggregationScheme:
    """Geometric scheme: sizes round(q**(j-m) * n), largest pinned to n.

    Requires n >= 2 * q**(m-1) so the smallest subsample has at least two
    observations; rounding collisions (two levels landing on the same
    size) are errors rather than silent merges.
    """
    if m < 2:
        raise SchemeError("m must be >= 2 (degenerate_scheme covers m = 1)")
    if not q > 1.0:
        raise SchemeError("q must be > 1")
    if n < 2.0 * q ** (m - 1):
        raise SchemeError(
            f"n={n} is too small for m={m}, q={q} (needs n >= {2.0 * q ** (m - 1):g}): "
            "increase n or decrease q"
        )
    sizes = [int(floor(q ** float(j - m) * n + 0.5)) for j in range(1, m + 1)]
    sizes[-1] = int(n)
    if len(set(sizes)) != m:
        raise SchemeError(
            f"subsample sizes collide after rounding: {sizes}; "
            "increase n or decrease q"
        )
    closed = coeffs_closed_form(sizes)
    solved = coeffs_linear_system(sizes)
    gap = float(np.max(np.abs(closed - solved)))
    scale = float(np.max(np.abs(closed)))
    if gap > _CROSSCHECK_TOL * scale:
        raise SchemeError(
            f"coefficient cross-check failed for sizes {sizes}: "
            f"max gap {gap:.3e} vs scale {scale:.3e}"
        )
    return AggregationScheme(tuple(sizes), closed, float(q))


def degenerate_scheme(n: int) -> AggregationScheme:
    """Single-level scheme; aggregation with it is exactly the plug-in."""
    if n < 1:
        raise SchemeError("n must be >= 1")
    return AggregationScheme((int(n),), np.ones(1), 1.0)


def _cov_eigvalues(x: np.ndarray) -> np.ndarray:
    # covariance of the rows of x, eigenvalues only (sorted, clipped)
    a = x.T @ x
    a += a.T
    a /= 2.0 * x.shape[0]
    return sym_eigvalues(a)


def _level_spectra(
    samples: SampleSet, scheme: AggregationScheme, subsets: int | None, seed: int
) -> list[tuple[float, list[np.ndarray]]]:
    """Subsample covariance spectra, one (C_j, spectra) pair per level.

    With ``subsets=None`` level j holds the spectrum of the prefix of the
    first n_j observations. Otherwise every level with n_j < n holds the
    spectra of ``subsets`` uniformly drawn size-n_j subsets, seeded per
    (seed, level, subset) so the result does not depend on evaluation
    order; the full-sample level always holds one spectrum.
    """
    if scheme.n != samples.n:
        raise SchemeError(
            f"scheme expects n={scheme.n} observations, sample has n={samples.n}"
        )
    if subsets is not None and subsets < 1:
        raise ValueError("subsets_per_level must be >= 1")
    # only the last level has n_j = n, and it is never subsampled
    evals = scheme.m if subsets is None else 1 + subsets * (scheme.m - 1)
    if evals > _MAX_EVALS:
        raise ComputeBudgetError(
            f"{evals} covariance eigendecompositions requested, budget is "
            f"{_MAX_EVALS}; lower subsets_per_level"
        )
    x = samples.data
    n = samples.n
    levels = []
    for level, (size, weight) in enumerate(zip(scheme.sizes, scheme.coeffs)):
        if subsets is None or size == n:
            spectra = [_cov_eigvalues(x[:size])]
        else:
            spectra = [
                _cov_eigvalues(
                    x[rng_from(seed, level, b).choice(n, size=size, replace=False)]
                )
                for b in range(subsets)
            ]
        levels.append((weight, spectra))
    return levels


def _combine(f: TestFunction, levels) -> float:
    # sum_j C_j * mean_b tau_f(spectrum_{j,b})
    total = 0.0
    for weight, spectra in levels:
        acc = 0.0
        for lam in spectra:
            acc += tau_f(f, lam)
        total += weight * (acc / len(spectra))
    return float(total)


def plugin_estimate(f: TestFunction, samples: SampleSet) -> float:
    """tau_f of the sample covariance of all observations."""
    return tau_f(f, sym_eigvalues(sample_covariance(samples)))


def aggregate_estimate(
    f: TestFunction, samples: SampleSet, scheme: AggregationScheme
) -> float:
    """Signed combination of plug-ins on nested prefixes of the sample.

    Level j uses the first n_j observations; the full sample is always the
    last level.
    """
    return _combine(f, _level_spectra(samples, scheme, None, 0))


def jackknife_estimate(
    f: TestFunction,
    samples: SampleSet,
    scheme: AggregationScheme,
    subsets_per_level: int = 50,
    seed: int = 0,
) -> float:
    """Aggregation with each prefix replaced by an average over subsets.

    For every level with n_j < n, the plug-in is averaged over
    ``subsets_per_level`` uniformly drawn size-n_j subsets; the full-sample
    level needs no averaging. Subset draws are seeded per (seed, level,
    subset), so the result is a pure function of the inputs regardless of
    evaluation order. One estimate may request at most 10,000 covariance
    eigendecompositions; more raises :class:`ComputeBudgetError`.
    """
    return _combine(f, _level_spectra(samples, scheme, subsets_per_level, seed))


@dataclass(frozen=True)
class SignedSpectralMeasure:
    """Atoms (location, signed weight); integration is the weighted sum."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        loc = np.asarray(self.locations, dtype=float)
        wgt = np.asarray(self.weights, dtype=float)
        if loc.ndim != 1 or loc.shape != wgt.shape:
            raise ValueError("locations and weights must be aligned 1-d arrays")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(wgt))):
            raise ValueError("atoms must be finite")
        if loc.size and float(loc.min()) < 0.0:
            raise ValueError(f"locations must be >= 0, min = {float(loc.min()):.3e}")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wgt)

    def integrate(self, f: TestFunction) -> float:
        return float(np.dot(self.weights, f.deriv(0, self.locations)))

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def to_csv(self, path) -> None:
        path = Path(path)
        order = np.lexsort((self.weights, self.locations))
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["location", "weight"])
            for i in order:
                writer.writerow(
                    [repr(float(self.locations[i])), repr(float(self.weights[i]))]
                )


def spectral_measure_estimate(
    samples: SampleSet,
    scheme: AggregationScheme,
    mode: str = "aggregate",
    subsets_per_level: int = 50,
    seed: int = 0,
) -> SignedSpectralMeasure:
    """Signed combination of subsample spectral measures.

    Uses the same prefixes (aggregate mode) or seeded subsets (jackknife
    mode) as the scalar estimators, so integrating a test function against
    the result reproduces the scalar estimate up to summation round-off.
    """
    if mode not in ("aggregate", "jackknife"):
        raise ValueError(f"mode must be 'aggregate' or 'jackknife', got {mode!r}")
    subsets = subsets_per_level if mode == "jackknife" else None
    levels = _level_spectra(samples, scheme, subsets, seed)
    return SignedSpectralMeasure(
        np.concatenate([lam for _, spectra in levels for lam in spectra]),
        np.concatenate([
            np.full(lam.size, weight / len(spectra))
            for weight, spectra in levels
            for lam in spectra
        ]),
    )


def linear_term(f: TestFunction, model: CovarianceModel, sigma_hat: np.ndarray) -> float:
    """First-order term <f'(Sigma), Sigma_hat - Sigma> in Sigma's eigenbasis."""
    a = np.asarray(sigma_hat, dtype=float)
    if a.shape != (model.dim, model.dim):
        raise ValueError(f"sigma_hat must be {model.dim}x{model.dim}, got {a.shape}")
    h = a - model.matrix()
    if model.basis is None:
        diag_h = np.diag(h).copy()
    else:
        diag_h = np.einsum("ij,ij->j", model.basis, h @ model.basis)
    return float(np.dot(f.deriv(1, model.eigenvalues), diag_h))


def taylor_remainder(
    f: TestFunction, model: CovarianceModel, sigma_hat: np.ndarray
) -> float:
    """tau_f(sigma_hat) - tau_f(Sigma) - linear term.

    Bounded in magnitude by Lip(f') / 2 times the squared Frobenius norm
    of sigma_hat - Sigma; for f(x) = x**2 it equals that norm squared.
    Eigenvalues of sigma_hat below the round-off clip band are evaluated
    through f's analytic extension.
    """
    lin = linear_term(f, model, sigma_hat)
    lam_hat = sym_eigvalues(np.asarray(sigma_hat, dtype=float))
    value_hat = float(np.sum(f.deriv(0, lam_hat)))
    value = float(np.sum(f.deriv(0, model.eigenvalues)))
    return value_hat - value - lin


@dataclass(frozen=True)
class BiasFit:
    """Weighted least-squares fit of empirical bias against 1/n**l terms."""

    orders: tuple[int, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    n_values: tuple[int, ...]
    bias: np.ndarray
    bias_se: np.ndarray


def fit_bias_expansion(
    f: TestFunction,
    model: CovarianceModel,
    num_terms: int,
    n_values,
    reps: int,
    seed: int,
) -> BiasFit:
    """Estimate inverse-power bias coefficients of the plug-in by Monte Carlo.

    For each n, runs ``reps`` seeded replicates of the plug-in, takes the
    empirical bias against tau_f(model), and fits
    bias(n) ~ sum_l b_l / n**l for l = 1..num_terms by least squares
    weighted with the inverse variances of the bias estimates. Standard
    errors of the fitted b_l come from the weighted normal equations;
    whether they are small enough to resolve a coefficient is the caller's
    judgment, the fit does not enforce it.
    """
    ns = sorted(set(int(v) for v in n_values))
    if num_terms < 1:
        raise ValueError("num_terms must be >= 1")
    if len(ns) < max(3, num_terms):
        raise ValueError(
            f"need at least {max(3, num_terms)} distinct n values, got {len(ns)}"
        )
    if reps < 2:
        raise ValueError("reps must be >= 2")
    truth = tau_f(f, model.eigenvalues)
    bias = np.empty(len(ns))
    bias_se = np.empty(len(ns))
    for i, n in enumerate(ns):
        ests = np.empty(reps)
        for r in range(reps):
            s = sample_gaussian(model, n, derive_seed(seed, n, r))
            ests[r] = plugin_estimate(f, s)
        bias[i] = ests.mean() - truth
        bias_se[i] = ests.std(ddof=1) / sqrt(reps)
    design = np.column_stack(
        [1.0 / np.asarray(ns, dtype=float) ** ell for ell in range(1, num_terms + 1)]
    )
    w = 1.0 / bias_se ** 2 if np.all(bias_se > 0) else np.ones(len(ns))
    xtw = design.T * w
    normal = xtw @ design
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular design for n values {ns}: {exc}") from exc
    coef = cov @ (xtw @ bias)
    return BiasFit(
        orders=tuple(range(1, num_terms + 1)),
        coefficients=coef,
        standard_errors=np.sqrt(np.diag(cov)),
        n_values=tuple(ns),
        bias=bias,
        bias_se=bias_se,
    )
