"""Effective rank, limiting variance, error-rate budgets, and the
Marchenko-Pastur law.

These are the deterministic quantities the Monte Carlo harness compares
against: the scale of the Gaussian fluctuation of trace estimates, the
structural error budget for the aggregated estimator, and the limiting
spectral distribution of sample covariances in the proportional regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .functions import TestFunction
from .linalg import CovarianceModel

__all__ = [
    "RateBudget",
    "effective_rank",
    "gaussian_limit_std",
    "rate_budget",
    "mp_support",
    "mp_atom",
    "mp_density",
    "mp_cdf",
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
    statistic divides by sqrt(2) times this.
    """
    lam = model.eigenvalues
    vals = lam * f.deriv(1, lam)
    return float(np.sqrt(np.sum(vals * vals)))


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    r = effective_rank(model)
    ratio = r / n
    return RateBudget(
        main_term=gaussian_limit_std(f, model) / sqrt(n),
        linear_residual=ratio,
        bias_term=r * ratio ** ((m + 1) / 2.0),
    )


# --- Marchenko-Pastur law --------------------------------------------------


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (gamma > 0.0 and np.isfinite(gamma)):
        raise ValueError(f"gamma must be a positive finite number, got {gamma!r}")
    return gamma


def mp_support(gamma: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(g))**2, (1 + sqrt(g))**2) of the bulk."""
    gamma = _check_gamma(gamma)
    s = sqrt(gamma)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_atom(gamma: float) -> float:
    """Mass at zero: max(0, 1 - 1/gamma); positive only for gamma > 1."""
    gamma = _check_gamma(gamma)
    return max(0.0, 1.0 - 1.0 / gamma)


def mp_density(gamma: float, x) -> np.ndarray | float:
    """Bulk density sqrt((x - a)(b - x)) / (2 pi gamma x) on [a, b], else 0."""
    gamma = _check_gamma(gamma)
    a, b = mp_support(gamma)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    inside = (arr > a) & (arr < b) & (arr > 0.0)
    xv = arr[inside]
    out[inside] = np.sqrt((xv - a) * (b - xv)) / (2.0 * pi * gamma * xv)
    return float(out[0]) if scalar else out


def _adaptive_simpson(fn, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Adaptive Simpson quadrature with local error control.

    Plain recursion on interval halves; the integrands fed to it here are
    smooth by construction (edge singularities are removed by substitution
    before calling), so the recursion stays shallow.
    """
    if hi <= lo:
        return 0.0

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return recurse(x0, x1, f0, flm, f1, left, half, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, half, depth + 1
        )

    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = fn(lo), fn(mid), fn(hi)
    whole = simpson(lo, hi, f_lo, f_mid, f_hi)
    return recurse(lo, hi, f_lo, f_mid, f_hi, whole, tol, 0)


def _mp_bulk_mass(gamma: float, upto: float) -> float:
    """Integral of the bulk density over [a, min(upto, b)].

    The density has inverse-square-root edges; substituting x = a + t**2
    near the left edge and x = b - t**2 near the right one hands the
    quadrature smooth integrands.
    """
    a, b = mp_support(gamma)
    hi = min(float(upto), b)
    if hi <= a:
        return 0.0
    mid = 0.5 * (a + b)

    def left_sub(t: float) -> float:
        x = a + t * t
        return float(mp_density(gamma, x)) * 2.0 * t

    def right_sub(t: float) -> float:
        x = b - t * t
        return float(mp_density(gamma, x)) * 2.0 * t

    if hi <= mid:
        return _adaptive_simpson(left_sub, 0.0, sqrt(hi - a))
    mass = _adaptive_simpson(left_sub, 0.0, sqrt(mid - a))
    mass += _adaptive_simpson(right_sub, sqrt(b - hi), sqrt(b - mid))
    return mass


def mp_cdf(gamma: float, x) -> np.ndarray | float:
    """Distribution function including the atom at zero when gamma > 1."""
    gamma = _check_gamma(gamma)
    atom = mp_atom(gamma)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    for i, xi in enumerate(arr):
        if xi < 0.0:
            out[i] = 0.0
        else:
            out[i] = atom + _mp_bulk_mass(gamma, xi)
    out = np.minimum(out, 1.0)
    return float(out[0]) if scalar else out


def esd_mp_ks(eigenvalues, gamma: float) -> float:
    """Two-sided sup gap between the empirical spectral cdf and the law.

    eigenvalues are the d sample-covariance eigenvalues; their empirical
    distribution (mass 1/d each) is compared against mp_cdf(gamma, .).
    """
    gamma = _check_gamma(gamma)
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    d = lam.size
    if d == 0:
        raise ValueError("eigenvalues must be nonempty")
    cdf = np.asarray(mp_cdf(gamma, lam))
    i = np.arange(1, d + 1)
    upper = float(np.max(i / d - cdf))
    lower = float(np.max(cdf - (i - 1) / d))
    return max(upper, lower, 0.0)
