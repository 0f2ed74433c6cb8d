"""Trace-functional estimators: plug-in, size-aggregated, and jackknife.

The aggregated estimator evaluates the plug-in on nested prefixes of the
sample at geometrically spaced sizes and combines them with signed
coefficients chosen so that all inverse-power bias terms up to order m-1
cancel. The jackknife variant replaces each prefix by an average over
random subsets of the same size, which symmetrizes the estimate over the
sample at extra compute cost. The plug-in is the one-level scheme
``AggregationScheme((n,))`` in aggregate mode; it has no function of its own.

``level_plan`` owns a plan's ranges and turns a mode into the one
``AggregationScheme`` that the engine, ``level_spectra``, runs: its sizes,
the weights it derives from them and, for the jackknife, the subsets drawn
per level. The scheme checks its rules and its compute budget when it is
built, so the engine does not. The engine computes the covariance spectra
of every level once and returns them as the paper's signed spectral
measure, mu = sum_j C_j mu_{Sigma_hat_{n_j}} (``SignedSpectralMeasure``),
the full sample always last (its ``full_spectrum``).
``spectral_measure_estimate`` is the library's one path to it, and each
scalar estimator is that measure's integral, ``integrate(f)`` = int f dmu,
so the scalar, measure and supnorm paths read one sum.

The engine works a level at a time: a level's index sets all come from
one generator seeded by (seed, level), and they are drawn, their rows
gathered, their Grams formed and eigendecomposed in blocks of at most
``_BLOCK_BYTES``, one solver call per block; ``integrate`` evaluates f
once per level.

Every spectrum, the plug-in's included, comes from ``linalg.gram_spectra``:
a level of n_j < d rows solves the n_j x n_j dual X X'/n_j and keeps its
n_j eigenvalues, the nonzero ones of X'X/n_j. With f(0) = 0, tr f and the
measure's integrals need none of the d - n_j null ones; only the solver's
round-off differs from the d x d solve.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field, replace
from math import floor, isfinite, log

import numpy as np

from .functions import TestFunction, tau_f, tau_f_rows
from .linalg import (
    CovarianceModel,
    SampleSet,
    Stream,
    check_int,
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
    "make_scheme",
    "aggregate_estimate",
    "jackknife_estimate",
    "SignedSpectralMeasure",
    "spectral_measure_estimate",
    "linear_term",
    "taylor_remainder",
]

# Largest sum |C_j| a scheme may have: a level's value carries a round-off of
# at least 2**-52 of it, and the weights amplify that by up to sum |C_j|.
_MAX_COEFF_L1 = 2.0 ** 52

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


class ComputeBudgetError(SchemeError):
    """A scheme would request more covariance eigendecompositions than allowed."""


@dataclass(frozen=True)
class AggregationScheme:
    """Subsample sizes n_1 < ... < n_m = n and the signed weights C_1..C_m.

    The weights are derived from the sizes (:func:`coeffs_closed_form`):
    they satisfy sum_j C_j = 1 and sum_j C_j / n_j**l = 0 for l = 1..m-1,
    which is what cancels the low-order bias terms. This is Richardson
    extrapolation in 1/n, C_j being the Lagrange weights at 0 for the
    nodes 1/n_1, ..., 1/n_m, exact to round-off. Strictly increasing integer
    sizes >= 1 define a scheme; it holds no q. Weights that are not finite,
    or whose sum |C_j| (:meth:`coeff_l1`) reaches 2**52, are refused: past
    that, no bit of an estimate is significant.

    ``subsets`` is how many random size-n_j subsets the jackknife averages
    at each level with n_j < n; None runs every level on its prefix. One
    estimate computes m spectra, or 1 + subsets * (m - 1) when it draws
    subsets, since the full-sample level is never subsampled; more than
    10,000 raises :class:`ComputeBudgetError` at construction.
    """

    sizes: tuple[int, ...]
    coeffs: np.ndarray = field(init=False)
    _: KW_ONLY
    subsets: int | None = None

    def __post_init__(self) -> None:
        sizes = tuple(_plan_int("sizes", s, 1) for s in self.sizes)
        if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise SchemeError(f"sizes must be strictly increasing and >= 1: {sizes}")
        m = len(sizes)
        object.__setattr__(self, "sizes", sizes)
        # weights past the float range are refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "coeffs", coeffs_closed_form(sizes))
            l1 = self.coeff_l1()
        if not l1 < _MAX_COEFF_L1:  # NaN fails it too
            raise SchemeError(
                f"sum |C_j| is {l1:.3g} for sizes {sizes[0]}..{sizes[-1]} (m={m}), past "
                "2**52, so no bit of an estimate is significant: increase q or decrease m")
        if self.subsets is not None:
            object.__setattr__(self, "subsets", _plan_int("subsets", self.subsets, 1))
        evals = m if self.subsets is None else 1 + self.subsets * (m - 1)
        if evals > _MAX_EVALS:
            raise ComputeBudgetError(
                f"{evals} covariance eigendecompositions requested, budget is "
                f"{_MAX_EVALS}; lower the number of subsets per level"
            )

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return self.sizes[-1]

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
    if len(set(ns.tolist())) != m:
        raise SchemeError(f"sizes must be distinct: {sizes}")
    out = np.empty(m)
    for j in range(m):
        ratio = ns[j] / (ns[j] - np.delete(ns, j))
        out[j] = np.prod(ratio)
    return out


def _plan_int(name: str, value, low: int | None = None) -> int:
    try:  # check_int, refusing as every plan value is refused, with a SchemeError
        return check_int(name, value, low)
    except ValueError as exc:
        raise SchemeError(str(exc)) from None


def _check_q(q: float) -> float:
    if isinstance(q, (str, bytes)) or not (q > 1.0 and isfinite(q)):
        raise SchemeError("q must be finite and > 1")
    return float(q)


def make_scheme(m: int, n: int, q: float = 2.0, subsets: int | None = None) -> AggregationScheme:
    """Geometric scheme: sizes round(q**(j-m) * n), largest pinned to n.

    Requires q finite and > 1, integers m >= 2 and n >= 2 * q**(m-1) so the
    smallest subsample has at least two observations; rounding collisions
    (two levels landing on the same size) are errors rather than silent
    merges. The scheme derives its weights from the sizes and checks them.
    """
    q, m, n = _check_q(q), _plan_int("m", m, 2), _plan_int("n", n)
    # q**(m-1) overflows a float long before it could be below any n
    need = 2.0 * q ** (m - 1) if (m - 1) * log(q) < 700.0 else float("inf")
    if n < need:
        raise SchemeError(
            f"n={n} is too small for m={m}, q={q} (needs n >= {need:g}): "
            "increase n or decrease q"
        )
    sizes = [int(floor(q ** float(j - m) * n + 0.5)) for j in range(1, m + 1)]
    sizes[-1] = n
    if len(set(sizes)) != m:
        raise SchemeError(
            f"subsample sizes collide after rounding: {sizes}; "
            "increase n or q"
        )
    return AggregationScheme(tuple(sizes), subsets=subsets)


def level_plan(mode: str, n: int, m: int, q: float, subsets: int) -> AggregationScheme:
    """The scheme that ``level_spectra`` runs for ``mode`` at sample size n.

    It refuses n, m and subsets that are not integers >= 1 and a q that is
    not finite and > 1 in every mode, though the plug-in, the one-level
    scheme, ignores m, q and subsets; aggregate and jackknife use the
    geometric m-level scheme of :func:`make_scheme`, and only the
    jackknife's carries ``subsets``, so only it is held to the compute budget.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n, m, subsets = _plan_int("n", n, 1), _plan_int("m", m, 1), _plan_int("subsets", subsets, 1)
    if mode == "plugin":
        _check_q(q)
        return AggregationScheme((n,))
    return make_scheme(m, n, q, subsets if mode == "jackknife" else None)


@dataclass(frozen=True)
class SignedSpectralMeasure:
    """mu = sum_j C_j * mean_b (counting measure of spectrum_{j,b}).

    It is read through ``levels``, ``full_spectrum`` and ``integrate``.
    ``levels`` holds one (C_j, spectra) pair per level, as ``level_spectra``
    builds it: ``spectra`` has one row per subset's spectrum, and the last
    level is the full sample's one spectrum, its ``full_spectrum``. Each row
    is an atom set of mass 1 per eigenvalue, so a row's integral of f with
    f(0) = 0 is tau_f, and ``integrate(f)`` weighs those by C_j / B_j.
    """

    levels: tuple[tuple[float, np.ndarray], ...]

    @property
    def full_spectrum(self) -> np.ndarray:
        """The full-sample covariance spectrum, the last level's one row."""
        return self.levels[-1][1][0]

    def integrate(self, f: TestFunction) -> float:
        """int f dmu = sum_j C_j * mean_b tau_f(spectrum_{j,b}).

        f is evaluated once per level; the per-subset values are summed in
        subset order, so the result equals the same sum of ``tau_f`` calls,
        and a negative atom is refused as ``tau_f`` refuses it. A sum whose
        terms overflow, which Python floats do without a warning, is redone
        with every value divided by the largest |value| and scaled back;
        FloatingPointError when that overflows too.
        """
        rows = [tau_f_rows(f, spectra) for _, spectra in self.levels]
        top = max(float(np.max(np.abs(values))) for values in rows)
        # cumsum adds in subset order (np.sum is pairwise); overflow is caught below
        with np.errstate(over="ignore"):
            for scale in (1.0, top):
                total = 0.0
                for (weight, _), values in zip(self.levels, rows):
                    acc = float(np.cumsum(values / scale)[-1])
                    total += float(weight) * (acc / len(values))
                if isfinite(scale * total):
                    return scale * total
        raise FloatingPointError(f"the level sum of tau_f of {f.name} overflows")


def level_spectra(
    samples: SampleSet, scheme: AggregationScheme, seed: int
) -> SignedSpectralMeasure:
    """The signed spectral measure of ``scheme`` on ``samples``.

    Its ``levels`` hold one (C_j, spectra) pair per level, the full sample
    last; ``spectra`` has one row per spectrum. When ``scheme.subsets`` is
    None level j holds the spectrum of the prefix of the first n_j
    observations. Otherwise every level with n_j < n holds the spectra of
    ``subsets`` uniformly drawn size-n_j subsets; the full-sample level
    always holds one spectrum. Subset b of a level is the first n_j entries
    of the argsort of row b of a ``(subsets, n)`` block of uniforms drawn
    from one generator seeded by (seed, level), so the result is a pure
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
    subsets = scheme.subsets
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
    return SignedSpectralMeasure(tuple(levels))


def _subsets_per_block(n: int, size: int, d: int) -> int:
    """Subsets whose draw, argsort, rows, Gram and spectrum fit in ``_BLOCK_BYTES``.

    The Gram formed is min(size, d) square and the spectrum min(size, d)
    long (``gram_spectra``); a block holds at least one subset.
    """
    width = min(size, d)
    return max(1, _BLOCK_BYTES // (8 * (2 * n + size * d + width * width + width)))


def aggregate_estimate(
    f: TestFunction, samples: SampleSet, scheme: AggregationScheme
) -> float:
    """int f dmu of the aggregate measure, a signed combination of plug-ins
    on nested prefixes; the plug-in is the one-level ``AggregationScheme((n,))``."""
    return spectral_measure_estimate(samples, scheme).integrate(f)


def jackknife_estimate(
    f: TestFunction,
    samples: SampleSet,
    scheme: AggregationScheme,
    subsets_per_level: int | None = None,
    seed: int = 0,
) -> float:
    """int f dmu of the jackknife measure: the aggregate with each prefix
    replaced by an average over ``subsets_per_level`` seeded subsets; None
    reads B from the plan, ``scheme.subsets``, or 50 when the plan has none."""
    return spectral_measure_estimate(
        samples, scheme, "jackknife", subsets_per_level, seed).integrate(f)


def spectral_measure_estimate(
    samples: SampleSet,
    scheme: AggregationScheme,
    mode: str = "aggregate",
    subsets_per_level: int | None = None,
    seed: int = 0,
) -> SignedSpectralMeasure:
    """The signed spectral measure of ``scheme`` on ``samples``; every scalar
    estimate is its integral.

    ``"aggregate"`` runs level j on the first n_j observations, whatever
    ``scheme.subsets`` says; the plug-in is the one-level scheme
    ``AggregationScheme((n,))``. ``"jackknife"`` averages every level with
    n_j < n over B uniformly drawn size-n_j subsets: ``subsets_per_level``
    when given, else the plan's ``scheme.subsets``, else 50. A level's
    subsets come from one generator seeded by (seed, level), so the result
    is a pure function of the inputs.
    One estimate may request at most 10,000 covariance eigendecompositions;
    more raises :class:`ComputeBudgetError`.
    """
    if mode not in ("aggregate", "jackknife"):
        raise ValueError(f"mode must be 'aggregate' or 'jackknife', got {mode!r}")
    if subsets_per_level is None:
        subsets_per_level = scheme.subsets or 50
    subsets = subsets_per_level if mode == "jackknife" else None
    return level_spectra(samples, replace(scheme, subsets=subsets), seed)


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
    return value_hat - tau_f(f, model.eigenvalues) - lin
