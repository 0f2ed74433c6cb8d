"""Command-line interface.

Subcommands: estimate, coeffs, rates, normality, supnorm, mp-compare.
Options resolve in three layers: built-in defaults, then a flat
``key=value`` config file given with --config, then explicit flags. The
effective configuration is echoed to ``<out>/config.resolved`` in exactly
the accepted format, so re-running with ``--config <out>/config.resolved``
reproduces the outputs byte for byte.

Exit codes: 0 on success, 2 for configuration errors (bad flags, missing
keys, conflicting sources), 3 for numerical failures (scheme collisions,
eigensolver non-convergence, compute-budget overruns).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .estimators import (
    ComputeBudgetError,
    SchemeError,
    aggregate_estimate,
    jackknife_estimate,
    make_scheme,
)
from .functions import builtin, default_grid, grid_to_csv, tau_f
from .linalg import (
    CovarianceModel,
    EigenSolverError,
    derive_seed,
    load_samples_csv,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from .montecarlo import (
    _MODES,
    _STANDARDIZE,
    ExperimentConfig,
    ReplicateError,
    config_hash,
    normality_check,
    parse_model,
    rate_sweep,
    run,
    supnorm_experiment,
    write_qq_csv,
    write_result_csvs,
)
from .theory import esd_mp_ks, mp_cdf, rate_budget

__all__ = ["ConfigError", "main", "entrypoint"]

# Stream tag for the supnorm function grid, seeded (master, 0, tag) like the
# three-part subset seeds, so it cannot meet a two-part replicate seed.
_GRID_STREAM = 2


class ConfigError(ValueError):
    """Configuration cannot be resolved; maps to exit code 2."""


@dataclass(frozen=True)
class _Key:
    """One option: its config-file key, its --flag and how to convert it.

    Flags spell the key with dashes (``n_list`` is ``--n-list``). Values
    arrive as strings from both flags and config files, and ``conv``
    turns them into their type.
    """

    name: str
    conv: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    help: str | None = None
    short: str | None = None  # extra one-letter flag


def _conv_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in str(text).split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"bad n_list {text!r}; expected comma-separated integers")
    if not values:
        raise ConfigError(f"bad n_list {text!r}; expected comma-separated integers")
    return values


_MODEL = _Key("model", required=True,
              help="identity:<d> | poly_decay:<d>:<beta> | custom:<v1>,<v2>,...")
_F = _Key("f", required=True, help="test function, e.g. log1p or scaled_sine:0.5")
_MODE = _Key("mode", default="plugin", help=" | ".join(_MODES))
_M = _Key("m", int, default=2, help="number of aggregation levels")
_Q = _Key("q", float, default=2.0, help="geometric spacing of subsample sizes")
_SUBSETS = _Key("subsets", int, default=50, help="jackknife subsets per level",
                short="-B")
_N = _Key("n", int, required=True, help="sample size")
_REPS = _Key("reps", int, default=1000, help="Monte Carlo replications")
_WORKERS = _Key("workers", int, default=1,
                help="replicate worker threads; outputs do not depend on it")
_OUT = _Key("out", default=".", help="output directory")

_COMMON = [
    _Key("seed", int, required=True, help="master seed"),
    _OUT,
]

_EXPERIMENT = [
    _MODEL,
    _F,
    _MODE,
    _M,
    _Q,
    _SUBSETS,
    _REPS,
    _WORKERS,
    _Key("standardize", default="oracle", help=" | ".join(_STANDARDIZE)),
]

_COMMAND_HELP = {
    "estimate": "estimate a trace functional on one dataset",
    "coeffs": "print an aggregation scheme's sizes and weights",
    "rates": "RMSE vs n sweep with a fitted log-log slope",
    "normality": "KS/W1 distance of standardized replicates to normal",
    "supnorm": "worst-case error over a derivative-bounded family",
    "mp-compare": "empirical spectral law vs the limiting bulk law",
}

_COMMAND_KEYS: dict[str, list[_Key]] = {
    "estimate": [
        replace(_MODEL, required=False),
        _Key("data", help="CSV of observations, one row each"),
        _F,
        _MODE,
        _M,
        _Q,
        _SUBSETS,
        replace(_N, required=False, help="sample size (with --model)"),
        *_COMMON,
    ],
    "coeffs": [
        replace(_M, default=None, required=True),
        _N,
        _Q,
        _OUT,
    ],
    "rates": [
        *_EXPERIMENT,
        _Key("n_list", _conv_n_list, required=True, help="comma-separated sizes"),
        *_COMMON,
    ],
    "normality": [
        *_EXPERIMENT,
        _N,
        *_COMMON,
    ],
    "supnorm": [
        _MODEL,
        replace(_MODE, default="aggregate"),
        _M,
        _Q,
        _SUBSETS,
        replace(_REPS, default=200),
        _WORKERS,
        _Key("grid_size", int, default=5, help="number of functions in the test family"),
        _N,
        *_COMMON,
    ],
    "mp-compare": [
        _Key("gamma", float, required=True, help="dimension-to-sample ratio of the law"),
        _Key("d", int, required=True, help="dimension"),
        _N,
        *_COMMON,
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrace",
        description="Trace-functional and spectral-measure estimation for "
        "Gaussian covariance models, with Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            flags = ["--" + key.name.replace("_", "-")]
            if key.short:
                flags.append(key.short)
            p.add_argument(*flags, dest=key.name, help=key.help)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    keys = _COMMAND_KEYS[command]
    known = {k.name for k in keys}
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = _parse_config_file(args.config)
        if "command" in file_cfg:
            if file_cfg["command"] != command:
                raise ConfigError(
                    f"config file is for {file_cfg['command']!r}, "
                    f"invoked command is {command!r}"
                )
            del file_cfg["command"]
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {', '.join(unknown)}"
            )
    resolved: dict = {}
    for key in keys:
        value = getattr(args, key.name, None)
        if value is None and key.name in file_cfg:
            value = file_cfg[key.name]
        if value is None:
            value = key.default
        if isinstance(value, str) and key.conv is not None:
            try:
                value = key.conv(value)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key.name}: {value!r} ({exc})")
        if value is None and key.required:
            raise ConfigError(f"{key.name} is required for {command}")
        resolved[key.name] = value
    _validate(command, resolved)
    return resolved


def _validate(command: str, cfg: dict) -> None:
    if command == "estimate":
        if (cfg["model"] is None) == (cfg["data"] is None):
            raise ConfigError("exactly one of model or data must be given")
        if cfg["model"] is not None and cfg["n"] is None:
            raise ConfigError("n is required when simulating from a model")
        if cfg["data"] is not None and cfg["n"] is not None:
            raise ConfigError("n conflicts with data; the CSV fixes the sample size")
    if command == "mp-compare":
        if cfg["d"] < 50 or cfg["n"] < 50:
            raise ConfigError("mp-compare needs d >= 50 and n >= 50")
        if not (cfg["gamma"] > 0 and np.isfinite(cfg["gamma"])):
            raise ConfigError("gamma must be finite and > 0")
    if "q" in cfg and not (cfg["q"] > 1 and np.isfinite(cfg["q"])):
        raise ConfigError("q must be finite and > 1")
    if "mode" in cfg and cfg["mode"] not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg['mode']!r}")
    if cfg.get("standardize") not in (None, *_STANDARDIZE):
        raise ConfigError(
            f"standardize must be one of {_STANDARDIZE}, got {cfg['standardize']!r}"
        )
    for name in ("m", "n", "subsets", "reps", "workers", "grid_size"):
        if name in cfg and cfg[name] is not None and cfg[name] < 1:
            raise ConfigError(f"{name} must be >= 1")
    # resolve names early so typos exit with a config error, not a run error
    if cfg.get("model"):
        try:
            parse_model(cfg["model"])
        except ValueError as exc:
            raise ConfigError(str(exc))
    if cfg.get("f"):
        try:
            builtin(cfg["f"])
        except ValueError as exc:
            raise ConfigError(str(exc))


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _resolved_text(command: str, cfg: dict) -> str:
    lines = [f"command={command}"]
    for key in sorted(cfg):
        if cfg[key] is None:
            continue
        lines.append(f"{key}={_format_value(cfg[key])}")
    return "\n".join(lines) + "\n"


def _write_resolved(command: str, cfg: dict) -> str:
    text = _resolved_text(command, cfg)
    outdir = Path(cfg.get("out") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(text)
    return text


def _result_line(**kv) -> None:
    parts = " ".join(f"{k}={_format_value(v)}" for k, v in kv.items())
    print(f"RESULT {parts}")


# --- commands ---------------------------------------------------------------


def _cmd_estimate(cfg: dict) -> int:
    f = builtin(cfg["f"])
    model = None
    if cfg["data"] is not None:
        samples = load_samples_csv(cfg["data"])
    else:
        model = parse_model(cfg["model"])
        samples = sample_gaussian(model, cfg["n"], cfg["seed"])
    mode = cfg["mode"]
    scheme = None
    lam = sym_eigvalues(sample_covariance(samples))
    if mode == "plugin":
        estimate = tau_f(f, lam)
    else:
        scheme = make_scheme(cfg["m"], samples.n, cfg["q"])
        if mode == "aggregate":
            estimate = aggregate_estimate(f, samples, scheme)
        else:
            estimate = jackknife_estimate(
                f, samples, scheme,
                subsets_per_level=cfg["subsets"], seed=cfg["seed"],
            )
    print(f"estimate: {estimate!r}")
    print(f"f: {f.name}  mode: {mode}  n: {samples.n}  dim: {samples.dim}")
    if scheme is not None:
        print(f"sizes: {','.join(str(s) for s in scheme.sizes)}")
        print(f"coeffs: {','.join(repr(c) for c in scheme.coeffs.tolist())}")
        print(f"coeff_l1: {scheme.coeff_l1()!r}")
    if lam[0] > 0:
        print(f"sample effective rank: {float(lam.sum() / lam[0]):.6g}")
    if model is not None:
        truth = tau_f(f, model.eigenvalues)
        budget = rate_budget(
            f, model, samples.n, cfg["m"] if mode != "plugin" else 1
        )
        print(f"model value: {truth!r}  deviation: {estimate - truth!r}")
        print(
            f"rate budget: main {budget.main_term:.6g} "
            f"+ linear {budget.linear_residual:.6g} "
            f"+ bias {budget.bias_term:.6g} = {budget.total:.6g}"
        )
    _result_line(
        command="estimate", estimate=float(estimate), f=f.name, mode=mode,
        n=samples.n, dim=samples.dim, seed=cfg["seed"],
    )
    return 0


def _cmd_coeffs(cfg: dict) -> int:
    scheme = make_scheme(cfg["m"], cfg["n"], cfg["q"])
    print(f"sizes: {','.join(str(s) for s in scheme.sizes)}")
    print(f"coeffs: {','.join(repr(c) for c in scheme.coeffs.tolist())}")
    print(f"sum: {float(scheme.coeffs.sum())!r}")
    print(f"coeff_l1: {scheme.coeff_l1()!r}")
    ns = np.asarray(scheme.sizes, dtype=float)
    for ell in range(1, scheme.m):
        terms = scheme.coeffs / ns ** ell
        print(f"cancellation l={ell}: {float(terms.sum()):.3e} "
              f"(largest term {float(np.max(np.abs(terms))):.3e})")
    _result_line(
        command="coeffs",
        sizes=",".join(str(s) for s in scheme.sizes),
        coeffs=",".join(repr(c) for c in scheme.coeffs.tolist()),
        coeff_l1=scheme.coeff_l1(),
    )
    return 0


def _experiment_config(cfg: dict, with_n_list: bool = False) -> ExperimentConfig:
    return ExperimentConfig(
        model=cfg["model"],
        f=cfg.get("f", "identity"),
        seed=cfg["seed"],
        mode=cfg["mode"],
        n=cfg.get("n"),
        n_list=cfg.get("n_list") if with_n_list else None,
        m=cfg["m"],
        q=cfg["q"],
        subsets=cfg["subsets"],
        replications=cfg["reps"],
        workers=cfg["workers"],
        standardize=cfg.get("standardize", "oracle"),
    )


def _cmd_rates(cfg: dict) -> int:
    config = _experiment_config(cfg, with_n_list=True)
    sweep = rate_sweep(config)
    outdir = Path(cfg["out"])
    for res in sweep.runs:
        write_result_csvs(res, outdir)
    tag = config_hash(config)
    path = outdir / f"rates_{tag}.csv"
    with path.open("w", newline="") as fh:
        fh.write("n,rmse\n")
        for n, rmse in zip(sweep.n_values, sweep.rmse):
            fh.write(f"{n},{rmse!r}\n")
    print(f"n values: {','.join(str(n) for n in sweep.n_values)}")
    print(f"rmse: {','.join(repr(float(v)) for v in sweep.rmse)}")
    print(f"slope: {sweep.slope!r} +- {sweep.slope_se!r}")
    print(f"wrote {path}")
    _result_line(
        command="rates", slope=sweep.slope, slope_se=sweep.slope_se,
        n_list=sweep.n_values, seed=cfg["seed"],
    )
    return 0


def _cmd_normality(cfg: dict) -> int:
    config = _experiment_config(cfg)
    check = normality_check(config)
    outdir = Path(cfg["out"])
    write_result_csvs(check.result, outdir)
    qq_path = write_qq_csv(check, outdir)
    var = check.result.summary["standardized_var"]
    print(f"ks: {check.ks!r}")
    print(f"w1: {check.w1!r}")
    print(f"standardized variance: {var!r}")
    print(f"wrote {qq_path}")
    _result_line(
        command="normality", ks=check.ks, w1=check.w1,
        standardized_var=var, reps=cfg["reps"], seed=cfg["seed"],
    )
    return 0


def _cmd_supnorm(cfg: dict) -> int:
    config = _experiment_config(cfg)
    grid_seed = derive_seed(cfg["seed"], 0, _GRID_STREAM)
    grid = default_grid(cfg["m"], cfg["grid_size"], grid_seed)
    result = supnorm_experiment(grid, config)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = hashlib.sha256(_resolved_text("supnorm", cfg).encode()).hexdigest()[:12]
    grid_path = outdir / f"supnorm_{tag}_grid.csv"
    grid_to_csv(grid, grid_path)
    table_path = outdir / f"supnorm_{tag}_errors.csv"
    with table_path.open("w", newline="") as fh:
        fh.write("name,truth,mean_abs_error\n")
        for name, truth, err in zip(
            result.names, result.truths, result.per_function_mean
        ):
            fh.write(f"{name},{float(truth)!r},{float(err)!r}\n")
    print(f"family size: {len(result.names)}  replications: {cfg['reps']}")
    print(f"mean worst-case error: {result.max_error_mean!r}")
    worst = int(np.argmax(result.per_function_mean))
    print(f"hardest member: {result.names[worst]} "
          f"(mean abs error {float(result.per_function_mean[worst])!r})")
    print(f"wrote {grid_path} and {table_path}")
    _result_line(
        command="supnorm", max_error_mean=result.max_error_mean,
        grid_size=cfg["grid_size"], seed=cfg["seed"],
    )
    return 0


def _cmd_mp_compare(cfg: dict) -> int:
    gamma, d, n = cfg["gamma"], cfg["d"], cfg["n"]
    ratio = d / n
    if abs(gamma - ratio) > 0.1 * gamma:
        print(
            f"warning: gamma={gamma:g} but d/n={ratio:g}; "
            "the bulk law matches the sampled ratio, not the flag",
            file=sys.stderr,
        )
    samples = sample_gaussian(CovarianceModel.identity(d), n, cfg["seed"])
    lam = sym_eigvalues(sample_covariance(samples))
    ks = esd_mp_ks(lam, gamma)
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    tag = hashlib.sha256(_resolved_text("mp-compare", cfg).encode()).hexdigest()[:12]
    path = outdir / f"mp_compare_{tag}.csv"
    lam_sorted = np.sort(lam)
    cdf = np.asarray(mp_cdf(gamma, lam_sorted))
    with path.open("w", newline="") as fh:
        fh.write("eigenvalue,esd_cdf,mp_cdf\n")
        for i, (x, c) in enumerate(zip(lam_sorted, cdf), start=1):
            fh.write(f"{float(x)!r},{i / d!r},{float(c)!r}\n")
    print(f"ks distance: {ks!r}  (d={d}, n={n}, gamma={gamma:g})")
    print(f"wrote {path}")
    _result_line(command="mp-compare", ks=ks, gamma=gamma, d=d, n=n, seed=cfg["seed"])
    return 0


_DISPATCH = {
    "estimate": _cmd_estimate,
    "coeffs": _cmd_coeffs,
    "rates": _cmd_rates,
    "normality": _cmd_normality,
    "supnorm": _cmd_supnorm,
    "mp-compare": _cmd_mp_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args.command, args)
        _write_resolved(args.command, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](cfg)
    except (
        SchemeError,
        EigenSolverError,
        ComputeBudgetError,
        ReplicateError,
        np.linalg.LinAlgError,
        ValueError,
        ArithmeticError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
