"""Trace-functional estimators: plug-in, size-aggregated, and jackknife.

The aggregated estimator evaluates the plug-in on nested prefixes of the
sample at geometrically spaced sizes and combines them with signed
coefficients chosen so that all inverse-power bias terms up to order m-1
cancel. The jackknife variant replaces each prefix by an average over
random subsets of the same size, which symmetrizes the estimate over the
sample at extra compute cost. The plug-in is the one-level scheme.

``check_plan`` holds the rules a plan must meet at every sample size;
``level_plan`` turns a mode into the (scheme, subsets) pair that one
engine, ``level_spectra``, runs; it computes the covariance spectra of
every level once, the full sample always last (``full_spectrum``).
Scalar estimates are the weighted sum ``combine_levels`` of tau_f over
its output, and the signed spectral measure is the same output as atoms.

The engine works a level at a time: a level's index sets all come from
one generator seeded by (seed, level), and they are drawn, their rows
gathered, their Grams formed and eigendecomposed in blocks of at most
``_BLOCK_BYTES``, one solver call per block; ``combine_levels``
evaluates f once per level.

Every spectrum, the plug-in's included, comes from ``linalg.gram_spectra``:
a level of n_j < d rows solves the n_j x n_j dual X X'/n_j and keeps its
n_j eigenvalues, the nonzero ones of X'X/n_j. With f(0) = 0, tr f and the
measure's integrals need none of the d - n_j null ones; only the solver's
round-off differs from the d x d solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isfinite

import numpy as np

from .functions import TestFunction, tau_f, tau_f_rows
from .linalg import (
    CovarianceModel,
    SampleSet,
    Stream,
    gram_spectra,
    rng_from,
    sym_eigvalues,
)
# unused; bench/bench_tests.py expects this module among its import sites
from .linalg import derive_seed, sample_gaussian  # noqa: F401

__all__ = [
    "SchemeError",
    "ComputeBudgetError",
    "AggregationScheme",
    "coeffs_closed_form",
    "coeffs_linear_system",
    "make_scheme",
    "check_plan",
    "degenerate_scheme",
    "plugin_estimate",
    "aggregate_estimate",
    "jackknife_estimate",
    "SignedSpectralMeasure",
    "spectral_measure_estimate",
    "linear_term",
    "taylor_remainder",
]

# Tolerances tied to the scheme's defining identities.
_SUM_TOL = 1e-10
_CANCEL_TOL = 1e-10
_CROSSCHECK_TOL = 1e-8

# Most covariance eigendecompositions a single estimate may request.
_MAX_EVALS = 10_000

# Most bytes ``level_spectra`` holds at once for a block of subsets: their
# uniform draws and its argsort, their gathered rows, the Grams formed
# (primal or dual) and the spectra. A block takes at least one subset, so a
# large level never holds the work of all its subsets at once.
_BLOCK_BYTES = 512 * 1024

MODES = ("plugin", "aggregate", "jackknife")


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
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "q", float(self.q))
        for ell, (resid, top) in enumerate(self.cancellation(), start=1):
            if abs(resid) > _CANCEL_TOL * top:
                raise SchemeError(
                    f"order-{ell} cancellation fails: residual {abs(resid):.3e} "
                    f"vs largest term {top:.3e}"
                )

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return self.sizes[-1]

    def cancellation(self) -> list[tuple[float, float]]:
        """(sum_j C_j / n_j**l, max_j |C_j / n_j**l|) for l = 1..m-1: each
        residual the weights cancel, next to its largest term."""
        ns = np.asarray(self.sizes, dtype=float)
        terms = [self.coeffs / ns ** ell for ell in range(1, self.m)]
        return [(float(t.sum()), float(np.max(np.abs(t)))) for t in terms]

    def coeff_l1(self) -> float:
        """sum |C_j|, how far the weights can amplify a level's error; at q = 2 it
        is 3 (m = 2) and 5 (m = 3), not the first-order variance inflation 2 and 4."""
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

    Requires m >= 2, q finite and > 1 (``check_plan``) and n >= 2 * q**(m-1)
    so the smallest subsample has at least two observations; rounding
    collisions (two levels landing on the same size) are errors rather
    than silent merges.
    """
    check_plan("aggregate", m, q)
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
    return AggregationScheme((int(n),), np.ones(1), 1.0)


def level_plan(
    mode: str, n: int, m: int, q: float, subsets: int
) -> tuple[AggregationScheme, int | None]:
    """The (scheme, subsets) pair that ``level_spectra`` runs for ``mode``.

    The plug-in is the one-level scheme and ignores m and q; aggregate
    and jackknife use the geometric m-level scheme, and only the
    jackknife draws ``subsets`` random subsets per sub-full level.
    """
    check_plan(mode, m, q, subsets)
    scheme = degenerate_scheme(n) if mode == "plugin" else make_scheme(m, n, q)
    return scheme, _mode_subsets(mode, subsets)


def _mode_subsets(mode: str, subsets: int) -> int | None:
    """Subsets per sub-full level: only the jackknife draws them."""
    return subsets if mode == "jackknife" else None


def check_plan(mode: str, m: int, q: float, subsets: int | None = None) -> None:
    """Raise unless a (mode, m, q, subsets) plan can run at some sample size.

    The plug-in is the one-level scheme and ignores m; the rules that
    depend on n are :func:`make_scheme`'s.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not (q > 1.0 and isfinite(q)):
        raise SchemeError("q must be finite and > 1")
    if mode != "plugin" and m < 2:
        raise SchemeError("m must be >= 2 to build an aggregation scheme")
    if mode == "jackknife":
        check_compute_budget(m, subsets)


def check_compute_budget(m: int, subsets: int | None) -> None:
    """Raise :class:`ComputeBudgetError` if ``level_spectra`` would exceed it.

    An m-level run computes m spectra, or 1 + subsets * (m - 1) when it
    draws subsets: only the last level has n_j = n, and it is never
    subsampled.
    """
    evals = m if subsets is None else 1 + subsets * (m - 1)
    if evals > _MAX_EVALS:
        raise ComputeBudgetError(
            f"{evals} covariance eigendecompositions requested, budget is "
            f"{_MAX_EVALS}; lower the number of subsets per level"
        )


def level_spectra(
    samples: SampleSet, scheme: AggregationScheme, subsets: int | None, seed: int
) -> list[tuple[float, np.ndarray]]:
    """Subsample covariance spectra, one (C_j, spectra) pair per level.

    ``spectra`` has one row per spectrum. With ``subsets=None`` level j
    holds the spectrum of the prefix of the first n_j observations.
    Otherwise every level with n_j < n holds the spectra of ``subsets``
    uniformly drawn size-n_j subsets; the full-sample level always holds
    one spectrum. Subset b of a level is the first n_j entries of the
    argsort of row b of a ``(subsets, n)`` block of uniforms drawn from
    one generator seeded by (seed, level), so the result is a pure
    function of the inputs. The block is drawn in row order, a block of
    subsets at a time, and each block's spectra come from one solver call.
    Every spectrum comes from ``gram_spectra``, so a level's spectra are
    min(n_j, d) wide: below d it solves the n_j x n_j dual Gram, and tau_f
    needs no null eigenvalues because f(0) = 0.
    """
    if scheme.n != samples.n:
        raise SchemeError(
            f"scheme expects n={scheme.n} observations, sample has n={samples.n}"
        )
    if subsets is not None and subsets < 1:
        raise ValueError("subsets_per_level must be >= 1")
    check_compute_budget(scheme.m, subsets)
    x = samples.data
    n, d = x.shape
    levels = []
    for level, (size, weight) in enumerate(zip(scheme.sizes, scheme.coeffs)):
        if subsets is None or size == n:
            spectra = gram_spectra(x[:size])[np.newaxis]
        else:
            rng = rng_from(seed, level, Stream.LEVEL)
            spectra = np.empty((subsets, min(size, d)))
            block = _subsets_per_block(n, size, d)
            for start in range(0, subsets, block):
                stop = min(start + block, subsets)
                rows = np.argsort(rng.random((stop - start, n)), axis=1)[:, :size]
                # same rows as x[rows], gathered faster: 0.12 against 0.22 ms
                # for 50 subsets of 200 rows in 20 dimensions (numpy 2.4)
                spectra[start:stop] = gram_spectra(np.take(x, rows, axis=0))
        levels.append((weight, spectra))
    return levels


def _subsets_per_block(n: int, size: int, d: int) -> int:
    """Subsets whose draw, argsort, rows, Gram and spectrum fit in ``_BLOCK_BYTES``.

    The Gram formed is min(size, d) square and the spectrum min(size, d)
    long (``gram_spectra``); a block holds at least one subset.
    """
    width = min(size, d)
    return max(1, _BLOCK_BYTES // (8 * (2 * n + size * d + width * width + width)))


def full_spectrum(levels) -> np.ndarray:
    """The full-sample covariance spectrum, the last level of ``level_spectra``."""
    return levels[-1][1][0]


def combine_levels(f: TestFunction, levels) -> float:
    """sum_j C_j * mean_b tau_f(spectrum_{j,b}) over ``level_spectra`` output.

    f is evaluated once per level; the per-subset values are summed in
    subset order, so the result equals the same sum of ``tau_f`` calls.
    Raises FloatingPointError when the sum overflows, which Python floats
    do without a warning.
    """
    total = 0.0
    for weight, spectra in levels:
        acc = 0.0
        for value in tau_f_rows(f, spectra).tolist():
            acc += value
        total += float(weight) * (acc / len(spectra))
    if not isfinite(total):
        raise FloatingPointError(f"the level sum of tau_f of {f.name} overflows")
    return total


def plugin_estimate(f: TestFunction, samples: SampleSet) -> float:
    """tau_f of the sample covariance of all observations."""
    return tau_f(f, gram_spectra(samples.data))


def aggregate_estimate(
    f: TestFunction, samples: SampleSet, scheme: AggregationScheme
) -> float:
    """Signed combination of plug-ins on nested prefixes of the sample.

    Level j uses the first n_j observations; the full sample is always the
    last level.
    """
    return combine_levels(f, level_spectra(samples, scheme, None, 0))


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
    level needs no averaging. A level's subsets come from one generator
    seeded by (seed, level), so the result is a pure function of the
    inputs regardless of evaluation order. One estimate may request at most
    10,000 covariance eigendecompositions; more raises
    :class:`ComputeBudgetError`.
    """
    return combine_levels(f, level_spectra(samples, scheme, subsets_per_level, seed))


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


def spectral_measure_estimate(
    samples: SampleSet,
    scheme: AggregationScheme,
    mode: str = "aggregate",
    subsets_per_level: int = 50,
    seed: int = 0,
) -> SignedSpectralMeasure:
    """Signed combination of subsample spectral measures.

    Uses the same prefixes (plugin mode, one-level scheme only, and
    aggregate mode) or seeded subsets (jackknife mode) as the scalar
    estimators, so integrating a test function against the result
    reproduces the scalar estimate up to summation round-off.
    """
    if mode not in MODES or (mode == "plugin" and scheme.m != 1):
        raise ValueError(f"mode must be one of {MODES} (plugin needs m=1), "
                         f"got {mode!r} with m={scheme.m}")
    levels = level_spectra(samples, scheme, _mode_subsets(mode, subsets_per_level), seed)
    return SignedSpectralMeasure(
        np.concatenate([spectra.ravel() for _, spectra in levels]),
        np.concatenate([
            np.full(spectra.size, weight / len(spectra)) for weight, spectra in levels
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
