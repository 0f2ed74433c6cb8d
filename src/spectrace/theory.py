"""Effective rank, limiting variance, error-rate budgets, and the
Marchenko-Pastur law.

These are the deterministic quantities the Monte Carlo harness compares
against: the scale of the Gaussian fluctuation of trace estimates, the
structural error budget for the aggregated estimator, and the limiting
spectral distribution of sample covariances in the proportional regime.
The Marchenko-Pastur distribution function is evaluated in closed form
(Marchenko & Pastur 1967; Bai & Silverstein 2010, ch. 3), vectorized over
the evaluation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .functions import TestFunction
from .linalg import CLIP_REL, CovarianceModel, check_int, check_real

__all__ = [
    "RateBudget",
    "effective_rank",
    "gaussian_limit_std",
    "rate_budget",
    "mp_support",
    "mp_atom",
    "mp_cdf",
    "ks_distance",
    "esd_mp_ks",
]


def effective_rank(model: CovarianceModel) -> float:
    """trace(Sigma) / ||Sigma||, in [1, dim]. Needs a nonzero spectrum."""
    lam = model.eigenvalues
    if lam[0] <= 0.0:
        raise ValueError("effective rank is undefined for an all-zero spectrum")
    return float(lam.sum() / lam[0])


def gaussian_limit_std(f: TestFunction, model: CovarianceModel) -> float:
    """Frobenius norm of Sigma f'(Sigma): sqrt(sum_k (lam_k f'(lam_k))**2).

    Scales the Gaussian fluctuation of trace estimates; the standardized
    statistic divides by sqrt(2) times this. Raises FloatingPointError when
    some lam_k f'(lam_k) is not finite; when only the plain sum of squares
    overflows, the norm is taken of vals / max|vals| and scaled back.
    """
    lam = model.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        vals = lam * f.deriv(1, lam)
        norm = float(np.sqrt(np.sum(vals * vals)))
    if not np.isfinite(vals).all():
        raise FloatingPointError(
            f"lam f'(lam) of {f.name} is not finite at these eigenvalues"
        )
    if not np.isfinite(norm):
        scale = float(np.max(np.abs(vals)))
        unit = vals / scale
        norm = scale * float(np.sqrt(np.sum(unit * unit)))
    return norm


@dataclass(frozen=True)
class RateBudget:
    """Structural error budget for the aggregated estimator at (n, m).

    main_term is the Gaussian fluctuation scale, linear_residual the
    second-order concentration cost r/n, and bias_term the residual bias
    r * (r/n)**((m+1)/2) left after aggregation.
    """

    main_term: float
    linear_residual: float
    bias_term: float

    @property
    def total(self) -> float:
        return self.main_term + self.linear_residual + self.bias_term


def rate_budget(
    f: TestFunction, model: CovarianceModel, n: int, m: int
) -> RateBudget:
    n, m = check_int("n", n, 1), check_int("m", m, 1)
    r = effective_rank(model)
    ratio = r / n
    return RateBudget(
        main_term=gaussian_limit_std(f, model) / sqrt(n),
        linear_residual=ratio,
        bias_term=r * ratio ** ((m + 1) / 2.0),
    )


# --- Marchenko-Pastur law --------------------------------------------------


def mp_support(gamma: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(g))**2, (1 + sqrt(g))**2) of the bulk."""
    s = sqrt(check_real("gamma", gamma, 0))
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_atom(gamma: float) -> float:
    """Mass at zero: max(0, 1 - 1/gamma); positive only for gamma > 1."""
    return max(0.0, 1.0 - 1.0 / check_real("gamma", gamma, 0))


def mp_cdf(gamma: float, x) -> np.ndarray | float:
    """Distribution function including the atom at zero when gamma > 1.

    Closed form (Marchenko & Pastur 1967; Bai & Silverstein 2010, ch. 3).
    With r = sqrt((x - a)(b - x)), G(x) / (2 pi gamma) is an antiderivative
    of the bulk density on [a, b], where

        G(x) = r + (a + b)/2 * asin((2x - a - b) / (b - a))
                 - sqrt(ab) * asin(((a + b)x - 2ab) / ((b - a)x)),

    so F(x) = atom + (G(x) - G(a)) / (2 pi gamma) there. Each asin is
    evaluated as arctan2 of its exact sine and cosine, since rounding
    pushes the plain asin argument off +-1 near the edges.
    """
    gamma = check_real("gamma", gamma, 0)
    a, b = mp_support(gamma)
    sab = sqrt(a * b)

    def antiderivative(x, r):
        return (
            r
            + 0.5 * (a + b) * np.arctan2(2.0 * x - a - b, 2.0 * r)
            - sab * np.arctan2((a + b) * x - 2.0 * a * b, 2.0 * sab * r)
        )

    arr = np.asarray(x, dtype=float)
    xc = np.clip(arr, a, b)
    r = np.sqrt((xc - a) * (b - xc))
    bulk = (antiderivative(xc, r) - antiderivative(a, 0.0)) / (2.0 * pi * gamma)
    out = np.where(arr < 0.0, 0.0, np.minimum(mp_atom(gamma) + bulk, 1.0))
    return float(out) if arr.ndim == 0 else out


def ks_distance(cdf, cdf_left=None) -> float:
    """Two-sided Kolmogorov-Smirnov distance from the values of a cdf F.

    ``cdf`` holds F at the points of a sorted sample, whose empirical
    distribution puts mass 1/r on each of its r points, and ``cdf_left``
    the left limits F(x-), ``cdf`` by default as for a continuous F. Ties
    need no grouping: the gap above F peaks at a tied run's last point,
    the gap below it at the run's first.
    """
    cdf = np.asarray(cdf, dtype=float)
    left = cdf if cdf_left is None else np.asarray(cdf_left, dtype=float)
    r = cdf.size
    if r == 0:
        raise ValueError("sample must be nonempty")
    i = np.arange(1, r + 1)
    return float(max(np.max(i / r - cdf), np.max(left - (i - 1) / r), 0.0))


def esd_mp_ks(eigenvalues, gamma: float) -> float:
    """Two-sided sup gap between the empirical spectral cdf and the law.

    eigenvalues are all d sample-covariance eigenvalues, the null ones
    included (``linalg.gram_spectra`` leaves out the d - n null ones when
    n < d); their empirical distribution (mass 1/d each) is compared
    against mp_cdf(gamma, .), whose left limit at the atom is F(0-) = 0.
    A d x d solve returns its null eigenvalues as round-off, not exact
    zeros, so every |lam| within ``linalg.CLIP_REL`` of max|lam| is taken
    as a point of the atom.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    cdf = mp_cdf(gamma, lam)
    null = np.abs(lam) <= CLIP_REL * np.abs(lam).max(initial=0.0)
    return ks_distance(cdf, np.where(null, 0.0, cdf))
