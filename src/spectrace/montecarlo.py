"""Seeded Monte Carlo experiments over the trace-functional estimators.

Replicate i of an experiment is a pure function of (config, i): sampling
uses a seed derived from (master seed, i), subset draws inside the
jackknife get their own derived stream, and summaries are computed over
index-ordered arrays. Worker threads only change scheduling, never
results.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from math import sqrt
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .estimators import (
    AggregationScheme,
    aggregate_estimate,
    degenerate_scheme,
    jackknife_estimate,
    make_scheme,
    plugin_estimate,
    spectral_measure_estimate,
)
from .functions import FunctionClassGrid, TestFunction, builtin, tau_f
from .linalg import (
    CovarianceModel,
    derive_seed,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from .theory import gaussian_limit_std

__all__ = [
    "ReplicateError",
    "ExperimentConfig",
    "ExperimentResult",
    "RateSweepResult",
    "SupnormResult",
    "NormalityResult",
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

_MODES = ("plugin", "aggregate", "jackknife")
_STANDARDIZE = ("oracle", "plugin")

# Stream tag separating jackknife subset seeds from sampling seeds.
_SUBSET_STREAM = 1


class ReplicateError(RuntimeError):
    """A replicate failed; the message carries its index."""


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
    all other fields are statistical.
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
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.standardize not in _STANDARDIZE:
            raise ValueError(
                f"standardize must be one of {_STANDARDIZE}, got {self.standardize!r}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.subsets < 1:
            raise ValueError("subsets must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n is None and self.n_list is None:
            raise ValueError("one of n or n_list must be set")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_list is not None:
            object.__setattr__(
                self, "n_list", tuple(int(v) for v in self.n_list)
            )


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


@dataclass(frozen=True)
class NormalityResult:
    result: ExperimentResult
    ks: float
    w1: float
    qq: np.ndarray  # columns: normal quantile, sample quantile


def ks_to_normal(sample) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=float))
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(z)):
        return float("nan")
    r = z.size
    cdf = ndtr(z)
    i = np.arange(1, r + 1)
    return float(max(np.max(i / r - cdf), np.max(cdf - (i - 1) / r), 0.0))


def wasserstein1_to_normal(sample) -> float:
    """Mean absolute gap between sample and normal quantiles at (i-1/2)/R."""
    z = np.sort(np.asarray(sample, dtype=float))
    if z.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.all(np.isfinite(z)):
        return float("nan")
    r = z.size
    q = ndtri((np.arange(1, r + 1) - 0.5) / r)
    return float(np.mean(np.abs(z - q)))


def _resolve(config: ExperimentConfig, n: int):
    model = parse_model(config.model)
    f = builtin(config.f)
    if config.mode == "plugin":
        scheme = None
    else:
        scheme = make_scheme(config.m, n, config.q)
    return model, f, scheme


def _plugin_std(f: TestFunction, samples) -> float:
    lam = sym_eigvalues(sample_covariance(samples))
    return gaussian_limit_std(f, CovarianceModel(lam))


def _summarize(
    truth: float, n: int, estimates: np.ndarray, standardized: np.ndarray
) -> dict:
    est = np.sort(estimates)
    err = est - truth
    r = est.size
    mean = float(est.mean())
    std = float(est.std(ddof=1)) if r > 1 else 0.0
    z = np.sort(standardized)
    finite = bool(np.all(np.isfinite(z)))
    summary = {
        "mean": mean,
        "bias": mean - truth,
        "bias_se": std / sqrt(r) if r > 1 else float("nan"),
        "std": std,
        "rmse": float(np.sqrt(np.mean(err * err))),
        "l4_error": float(np.mean(err ** 4) ** 0.25),
        "ks_normal": ks_to_normal(z) if finite else float("nan"),
        "w1_normal": wasserstein1_to_normal(z) if finite else float("nan"),
        "standardized_mean": float(z.mean()) if finite else float("nan"),
        "standardized_var": float(z.var(ddof=1)) if finite and r > 1 else float("nan"),
    }
    return summary


def _map_replicates(one: Callable[[int], object], r: int, workers: int) -> list:
    """[one(0), ..., one(r - 1)] in index order, on ``workers`` threads.

    A failing replicate raises :class:`ReplicateError` naming its index.
    """

    def guarded(i: int):
        try:
            return one(i)
        except Exception as exc:
            raise ReplicateError(f"replicate {i}: {exc}") from exc

    if workers == 1:
        return [guarded(i) for i in range(r)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, range(r)))


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment; deterministic given the config."""
    if config.n is None:
        raise ValueError("config.n is required for run(); n_list is for rate_sweep")
    n = int(config.n)
    model, f, scheme = _resolve(config, n)
    truth = tau_f(f, model.eigenvalues)
    oracle_std = gaussian_limit_std(f, model)

    def one(i: int) -> tuple[float, float]:
        s = sample_gaussian(model, n, derive_seed(config.seed, i))
        if config.mode == "plugin":
            est = plugin_estimate(f, s)
        elif config.mode == "aggregate":
            est = aggregate_estimate(f, s, scheme)
        else:
            est = jackknife_estimate(
                f,
                s,
                scheme,
                subsets_per_level=config.subsets,
                seed=derive_seed(config.seed, i, _SUBSET_STREAM),
            )
        if config.standardize == "plugin":
            scale = _plugin_std(f, s)
        else:
            scale = oracle_std
        return est, scale

    pairs = _map_replicates(one, config.replications, config.workers)
    estimates = np.array([est for est, _ in pairs], dtype=float)
    scales = np.array([scale for _, scale in pairs], dtype=float)

    with np.errstate(divide="ignore", invalid="ignore"):
        standardized = np.where(
            scales > 0.0,
            sqrt(n) * (estimates - truth) / (sqrt(2.0) * scales),
            float("nan"),
        )
    summary = _summarize(truth, n, estimates, standardized)
    return ExperimentResult(config, truth, estimates, standardized, summary)


def rate_sweep(config: ExperimentConfig) -> RateSweepResult:
    """Run the experiment across config.n_list and fit a log-log RMSE slope.

    Needs at least three distinct sizes spanning a factor of four or more;
    each size gets its own derived master seed.
    """
    if not config.n_list:
        raise ValueError("config.n_list is required for rate_sweep")
    ns = sorted(set(config.n_list))
    if len(ns) < 3:
        raise ValueError(f"need at least 3 distinct n values, got {ns}")
    if ns[-1] < 4 * ns[0]:
        raise ValueError(
            f"n values must span at least a factor of 4, got {ns[0]}..{ns[-1]}"
        )
    runs = []
    for n in ns:
        sub = replace(config, n=n, n_list=None, seed=derive_seed(config.seed, n))
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

    Builds the signed spectral measure once per replicate and integrates
    every family member against it, so the per-function estimates within a
    replicate share the same randomness.
    """
    if config.n is None:
        raise ValueError("config.n is required for supnorm_experiment")
    n = int(config.n)
    model = parse_model(config.model)
    if config.mode == "plugin":
        scheme: AggregationScheme = degenerate_scheme(n)
        mode = "aggregate"
    else:
        scheme = make_scheme(config.m, n, config.q)
        mode = config.mode
    truths = np.array([tau_f(f, model.eigenvalues) for f in grid.members])

    def one(i: int) -> np.ndarray:
        s = sample_gaussian(model, n, derive_seed(config.seed, i))
        measure = spectral_measure_estimate(
            s,
            scheme,
            mode=mode,
            subsets_per_level=config.subsets,
            seed=derive_seed(config.seed, i, _SUBSET_STREAM),
        )
        ests = np.array([measure.integrate(f) for f in grid.members])
        return np.abs(ests - truths)

    errors = np.array(_map_replicates(one, config.replications, config.workers))
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


def normality_check(config: ExperimentConfig) -> NormalityResult:
    """KS/W1 distances of the standardized replicates plus QQ pairs.

    Requires at least 200 replications; far fewer makes the distances
    meaningless.
    """
    if config.replications < 200:
        raise ValueError(
            f"normality check needs >= 200 replications, got {config.replications}"
        )
    result = run(config)
    z = np.sort(result.standardized)
    r = z.size
    q = ndtri((np.arange(1, r + 1) - 0.5) / r)
    qq = np.column_stack([q, z])
    return NormalityResult(
        result=result,
        ks=result.summary["ks_normal"],
        w1=result.summary["w1_normal"],
        qq=qq,
    )


# --- CSV output -------------------------------------------------------------

_SUMMARY_ORDER = (
    "mean",
    "bias",
    "std",
    "rmse",
    "l4_error",
    "ks_normal",
    "w1_normal",
    "standardized_mean",
    "standardized_var",
)


def config_hash(config: ExperimentConfig) -> str:
    """12-hex digest of the statistical fields (workers excluded)."""
    fields = asdict(config)
    fields.pop("workers", None)
    canon = "\n".join(f"{k}={fields[k]!r}" for k in sorted(fields))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_result_csvs(result: ExperimentResult, outdir) -> tuple[Path, Path]:
    """Write replicates and summary CSVs; filenames embed the config hash."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = config_hash(result.config)
    rep_path = outdir / f"experiment_{tag}_replicates.csv"
    sum_path = outdir / f"experiment_{tag}_summary.csv"
    with rep_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "estimate", "standardized"])
        for i, (est, z) in enumerate(zip(result.estimates, result.standardized)):
            writer.writerow([i, repr(float(est)), repr(float(z))])
    with sum_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value", "se"])
        for key in _SUMMARY_ORDER:
            se = repr(result.summary["bias_se"]) if key in ("mean", "bias") else ""
            writer.writerow([key, repr(float(result.summary[key])), se])
    return rep_path, sum_path


def write_qq_csv(check: NormalityResult, outdir) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = config_hash(check.result.config)
    path = outdir / f"experiment_{tag}_qq.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["normal_quantile", "sample_quantile"])
        for q, z in check.qq:
            writer.writerow([repr(float(q)), repr(float(z))])
    return path
