"""Seeded Monte Carlo experiments over the trace-functional estimators.

Replicate i of an experiment is a pure function of (config, i): sampling
uses a seed derived from (master seed, i), subset draws inside the
jackknife get their own derived stream, and summaries are computed over
index-ordered arrays. Worker threads only change scheduling, never
results.

The normal distribution function and quantiles behind the KS and W1
distances come from the standard library (``math.erf``/``math.erfc``
and ``statistics.NormalDist``), so the package needs numpy only.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from copy import copy
from dataclasses import asdict, dataclass
from math import erf, erfc, sqrt
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from .estimators import SignedSpectralMeasure, level_plan, level_spectra
from .functions import FunctionClassGrid, builtin, tau_f
from .linalg import (
    CovarianceModel, Stream, check_int, check_seed, derive_seed, sample_gaussian, write_csv)
# unused; bench/bench_tests.py expects this module among its import sites
from .linalg import sym_eigvalues  # noqa: F401
from .theory import gaussian_limit_std, ks_distance

__all__ = [
    "STANDARDIZE",
    "NORMALITY_MIN_REPS",
    "ReplicateError",
    "ExperimentConfig",
    "ExperimentResult",
    "RateSweepResult",
    "SupnormResult",
    "parse_model",
    "run",
    "rate_sweep",
    "supnorm_experiment",
    "normality_check",
    "ks_to_normal",
    "wasserstein1_to_normal",
    "config_hash",
    "write_result_csvs",
    "write_qq_csv",
]

# Scales that standardize a run's errors: the model's, or each replicate's
# full-sample plug-in of it.
STANDARDIZE = ("oracle", "plugin")

# Fewest replicates a normality check accepts; far fewer make the KS and
# W1 distances meaningless.
NORMALITY_MIN_REPS = 200


class ReplicateError(RuntimeError):
    """A replicate failed; the message carries its index, its n and derived seeds."""


def parse_model(profile: str) -> CovarianceModel:
    """Model from a profile string.

    ``identity:<dim>``, ``poly_decay:<dim>:<beta>``, or
    ``custom:<v1>,<v2>,...`` (eigenvalues, any order).
    """
    parts = str(profile).split(":")
    kind = parts[0]
    try:
        if kind == "identity" and len(parts) == 2:
            return CovarianceModel.identity(int(parts[1]))
        if kind == "poly_decay" and len(parts) == 3:
            return CovarianceModel.poly_decay(int(parts[1]), float(parts[2]))
        if kind == "custom" and len(parts) == 2:
            values = [float(v) for v in parts[1].split(",") if v.strip() != ""]
            if not values:
                raise ValueError("empty eigenvalue list")
            return CovarianceModel.from_values(values)
    except ValueError as exc:
        raise ValueError(f"bad model profile {profile!r}: {exc}") from exc
    raise ValueError(
        f"bad model profile {profile!r}; expected identity:<dim>, "
        "poly_decay:<dim>:<beta>, or custom:<v1>,<v2>,..."
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment's outputs.

    ``workers`` is a scheduling hint and is excluded from the config hash;
    all other fields are statistical. Construction reads the seed with
    ``check_seed`` and the other integer fields with ``check_int``, storing
    Python ints, and stores q, refused as a str, as a float, so equal configs
    hash equally (q=2 and q=2.0, n=np.int64(100) and n=100). A config with
    ``replications`` or ``workers`` below 1, a seed ``check_seed`` refuses,
    an ``n_list`` that is no rate-sweep design (fewer than three distinct
    sizes, or a span under a factor of four), a plan (``level_plan``, which
    owns n, m, q and subsets) that cannot run at its n or at each n_list
    size, or a model or f that does not parse is not built.

    Construction keeps what it built, as attributes outside the fields (so
    ``asdict`` and ``config_hash`` do not see them): ``covariance``, the
    model's ``CovarianceModel``; ``test_function``, f's ``TestFunction``;
    and ``plans``, the plan at n and at each n_list size, keyed by size.
    """

    model: str
    f: str
    seed: int
    mode: str = "plugin"
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    m: int = 2
    q: float = 2.0
    subsets: int = 50
    replications: int = 1000
    workers: int = 1
    standardize: str = "oracle"

    def __post_init__(self) -> None:
        if self.standardize not in STANDARDIZE:
            raise ValueError(
                f"standardize must be one of {STANDARDIZE}, got {self.standardize!r}"
            )
        object.__setattr__(self, "seed", check_seed(self.seed))
        # level_plan floors n, m and subsets, at n and at each n_list size, and checks q
        for name, low in (("m", None), ("replications", 1), ("subsets", None), ("workers", 1),
                          ("n", None)):
            if name != "n" or self.n is not None:  # n may be None when n_list is set
                object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if self.n is None and self.n_list is None:
            raise ValueError("one of n or n_list must be set")
        if self.n_list is not None:
            object.__setattr__(self, "n_list", tuple(check_int("n_list", v) for v in self.n_list))
            ns = sorted(set(self.n_list))
            if len(ns) < 3:
                raise ValueError(f"need at least 3 distinct n values, got {ns}")
            if ns[-1] < 4 * ns[0]:
                raise ValueError(
                    f"n values must span at least a factor of 4, got {ns[0]}..{ns[-1]}"
                )
        plans = {n: level_plan(self.mode, n, self.m, self.q, self.subsets)
                 for n in (self.n, *(self.n_list or ())) if n is not None}
        object.__setattr__(self, "plans", plans)
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "covariance", parse_model(self.model))
        object.__setattr__(self, "test_function", builtin(self.f))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    truth: float
    estimates: np.ndarray
    standardized: np.ndarray
    summary: dict


@dataclass(frozen=True)
class RateSweepResult:
    config: ExperimentConfig
    n_values: tuple[int, ...]
    rmse: np.ndarray
    slope: float
    slope_se: float
    runs: tuple[ExperimentResult, ...]


@dataclass(frozen=True)
class SupnormResult:
    config: ExperimentConfig
    names: tuple[str, ...]
    truths: np.ndarray
    errors: np.ndarray  # (replications, len(names)) absolute errors
    per_function_mean: np.ndarray
    max_error: np.ndarray  # per-replicate max over the family
    max_error_mean: float


_SQRT1_2 = sqrt(0.5)


def _normal_cdf(x: float) -> float:
    """Standard normal distribution function, with cephes ``ndtr``'s branches.

    erf near zero, where it is accurate; erfc in the tails, where
    1 - erf would cancel.
    """
    t = x * _SQRT1_2
    if abs(t) < _SQRT1_2:
        return 0.5 + 0.5 * erf(t)
    tail = 0.5 * erfc(abs(t))
    return 1.0 - tail if t > 0.0 else tail


def normal_quantiles(r: int) -> np.ndarray:
    """Standard normal quantiles at the plotting positions (i - 1/2)/r.

    Wichura's AS241 through ``statistics.NormalDist``.
    """
    p = (np.arange(1, r + 1) - 0.5) / r
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(v) for v in p.tolist()])


def ks_to_normal(sample) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=float))
    if not np.all(np.isfinite(z)):
        return float("nan")
    return ks_distance([_normal_cdf(v) for v in z.tolist()])


def wasserstein1_to_normal(sample) -> float:
    """Mean absolute gap between sample and normal quantiles at (i-1/2)/R."""
    z = np.sort(np.asarray(sample, dtype=float))
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(z)):
        return float("nan")
    return float(np.mean(np.abs(z - normal_quantiles(z.size))))


def _summarize(truth: float, estimates: np.ndarray, standardized: np.ndarray) -> dict:
    """Moments of the estimates and normality of the standardized errors.

    Raises FloatingPointError when a moment of finite errors overflows, or
    when a standardized error does.
    """
    est = np.sort(estimates)
    err = est - truth
    r = est.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(est.mean())
        moments = {
            "std": float(est.std(ddof=1)) if r > 1 else 0.0,
            "rmse": float(np.sqrt(np.mean(err * err))),
            "l4_error": float(np.mean(err ** 4) ** 0.25),
        }
    if np.all(np.isfinite(err)):
        for key, value in moments.items():
            if not np.isfinite(value):
                raise FloatingPointError(f"{key} of the {r} estimates overflows")
    z = np.sort(standardized)
    if not np.isfinite(z).all():
        raise FloatingPointError(f"the standardized errors of the {r} estimates overflow")
    return {
        "mean": mean,
        "bias": mean - truth,
        "bias_se": moments["std"] / sqrt(r) if r > 1 else float("nan"),
        **moments,
        "ks_normal": ks_to_normal(z),
        "w1_normal": wasserstein1_to_normal(z),
        "standardized_mean": float(z.mean()),
        "standardized_var": float(z.var(ddof=1)) if r > 1 else float("nan"),
    }


def _map_replicates(
    config: ExperimentConfig, one: Callable[[SignedSpectralMeasure], object]
) -> list:
    """One result per replicate, in index order, on ``config.workers`` threads.

    The one replicate body of every experiment: replicate i samples the
    config's model on its sampling seed and returns
    ``one(level_spectra(...))`` of the config's plan at n on its subset seed.
    Both seeds are derived here only (the subset seed is 0, and unread,
    when the scheme draws no subsets). Each worker thread draws every one
    of its samples into one (n, d) buffer of its own, so the replicate loop
    allocates no sample array; nothing outlives the replicate that draws
    into it, as ``level_spectra`` returns fresh spectra. A failing
    replicate raises :class:`ReplicateError` naming its index, n and those
    seeds, so it can be re-run alone.
    """
    if config.n is None:
        raise ValueError("config.n is required; n_list is for rate_sweep")
    n, model, scheme = config.n, config.covariance, config.plans[config.n]
    draws = scheme.subsets is not None
    local = threading.local()

    def guarded(i: int):
        sampling = derive_seed(config.seed, i)
        subset = derive_seed(config.seed, i, Stream.SUBSET) if draws else 0
        try:
            if not hasattr(local, "buffer"):
                local.buffer = np.empty((n, model.dim))
            samples = sample_gaussian(model, n, sampling, out=local.buffer)
            return one(level_spectra(samples, scheme, subset))
        except Exception as exc:
            seeds = f"sampling seed {sampling}"
            if draws:
                seeds += f", subset seed {subset}"
            raise ReplicateError(f"replicate {i} at n={n} ({seeds}): {exc}") from exc

    indices = range(config.replications)
    if config.workers == 1:
        return [guarded(i) for i in indices]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(guarded, indices))


def _limit_scale(f, model: CovarianceModel) -> float:
    """``gaussian_limit_std``, refused unless > 0: standardizing divides by it."""
    scale = gaussian_limit_std(f, model)
    if not scale > 0.0:
        raise FloatingPointError(
            f"limit scale of {f.name} is {scale!r}; the standardized errors divide by it"
        )
    return scale


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment; deterministic given the config.

    The oracle scale is checked before any replicate runs, a plug-in scale
    inside its replicate, so a zero scale fails naming the seeds.
    """
    model, f = config.covariance, config.test_function
    truth = tau_f(f, model.eigenvalues)
    oracle = config.standardize == "oracle"
    oracle_std = _limit_scale(f, model) if oracle else None

    def one(measure: SignedSpectralMeasure) -> tuple[float, float]:
        est = measure.integrate(f)
        if oracle:
            return est, oracle_std
        return est, _limit_scale(f, CovarianceModel(measure.full_spectrum))

    estimates, scales = np.array(_map_replicates(config, one), dtype=float).T

    with np.errstate(over="ignore", invalid="ignore"):
        standardized = sqrt(config.n) * (estimates - truth) / (sqrt(2.0) * scales)
    summary = _summarize(truth, estimates, standardized)
    return ExperimentResult(config, truth, estimates, standardized, summary)


def rate_sweep(config: ExperimentConfig) -> RateSweepResult:
    """Run the experiment across config.n_list and fit a log-log RMSE slope.

    The config has checked that the list holds at least three distinct
    sizes spanning a factor of four or more; size n runs on its own master
    seed ``(seed, n, Stream.RATE)``, and on the sweep's model, f and plan at n.
    """
    if not config.n_list:
        raise ValueError("config.n_list is required for rate_sweep")
    ns = sorted(set(config.n_list))
    runs = []
    for n in ns:
        # the fields replace(config, n=n, n_list=None, seed=...) sets, nothing rebuilt
        sub = copy(config)
        vars(sub).update(n=n, n_list=None, seed=derive_seed(config.seed, n, Stream.RATE),
                         plans={n: config.plans[n]})
        runs.append(run(sub))
    rmse = np.array([res.summary["rmse"] for res in runs])
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(rmse)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(ns) - 2
    slope_se = float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof > 0 else float("nan")
    return RateSweepResult(config, tuple(ns), rmse, slope, slope_se, tuple(runs))


def supnorm_experiment(
    grid: FunctionClassGrid, config: ExperimentConfig
) -> SupnormResult:
    """Worst-case estimation error over a function family, by replicate.

    Computes the engine's measure once per replicate and integrates every
    family member against it, so the per-function estimates within a
    replicate share the same randomness, and member j's error is exactly
    that of ``run`` with f = member j.
    """
    model = config.covariance
    truths = np.array([tau_f(f, model.eigenvalues) for f in grid.members])

    def one(measure: SignedSpectralMeasure) -> np.ndarray:
        ests = np.array([measure.integrate(f) for f in grid.members])
        return np.abs(ests - truths)

    errors = np.array(_map_replicates(config, one))
    max_error = errors.max(axis=1)
    return SupnormResult(
        config=config,
        names=grid.names,
        truths=truths,
        errors=errors,
        per_function_mean=errors.mean(axis=0),
        max_error=max_error,
        max_error_mean=float(max_error.mean()),
    )


def normality_check(config: ExperimentConfig) -> ExperimentResult:
    """``run(config)``, refused below ``NORMALITY_MIN_REPS`` replications.

    The KS and W1 distances of the standardized replicates to N(0, 1) are
    the result's ``summary["ks_normal"]`` and ``summary["w1_normal"]``;
    :func:`write_qq_csv` writes its QQ pairs.
    """
    if config.replications < NORMALITY_MIN_REPS:
        raise ValueError(
            f"normality check needs >= {NORMALITY_MIN_REPS} replications, "
            f"got {config.replications}"
        )
    return run(config)


# --- CSV output -------------------------------------------------------------


def config_hash(config: ExperimentConfig) -> str:
    """12-hex digest of the statistical fields (workers excluded)."""
    fields = asdict(config)
    fields.pop("workers", None)
    canon = "\n".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_result_csvs(result: ExperimentResult, outdir) -> tuple[Path, Path]:
    """Write replicates and summary CSVs; filenames embed the config hash."""
    tag = config_hash(result.config)
    summary = result.summary
    rep_path = write_csv(
        Path(outdir) / f"experiment_{tag}_replicates.csv",
        ["replicate", "estimate", "standardized"],
        zip(range(result.estimates.size), result.estimates, result.standardized),
    )
    sum_path = write_csv(
        Path(outdir) / f"experiment_{tag}_summary.csv",
        ["metric", "value", "se"],
        ([key, value, summary["bias_se"] if key in ("mean", "bias") else ""]
         for key, value in summary.items() if key != "bias_se"),
    )
    return rep_path, sum_path


def write_qq_csv(result: ExperimentResult, outdir) -> Path:
    """Write the QQ pairs of the standardized replicates to CSV.

    Row i pairs the normal quantile at (i - 1/2)/r with the i-th smallest
    standardized error, the pairs whose mean gap is ``w1_normal``. The
    filename embeds the config hash.
    """
    z = np.sort(result.standardized)
    return write_csv(
        Path(outdir) / f"experiment_{config_hash(result.config)}_qq.csv",
        ["normal_quantile", "sample_quantile"],
        zip(normal_quantiles(z.size), z),
    )
