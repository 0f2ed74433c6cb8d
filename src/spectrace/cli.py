"""Command-line interface.

Subcommands: estimate, coeffs, rates, normality, supnorm, mp-compare.
Options resolve in three layers: built-in defaults, then a flat
``key=value`` config file given with --config, then explicit flags. The
effective configuration is echoed to ``<out>/config.resolved`` in exactly
the accepted format, so re-running with ``--config <out>/config.resolved``
reproduces the outputs byte for byte at the same BLAS thread count
(``OPENBLAS_NUM_THREADS``); another can move them at round-off level.

Options are validated by building, before ``config.resolved`` is written,
what each handler runs, which gets it as keyword arguments: the
``ExperimentConfig`` of rates, normality and supnorm, supnorm's function
grid, coeffs' scheme, and estimate's test function, its model or the
samples of its --data file, and its plan (``level_plan``) at their n. An
experiment's model and f, which its run builds from the config, are built
only to check them. Only the rules no library object knows stay here:
estimate's choice of one data source, mp-compare's sizes (its law's ratio
is d/n) and the >= 1 floors of the keys.
Normality's replicate floor (``NORMALITY_MIN_REPS``) is checked when the
run starts, after ``config.resolved`` is written, and exits 3.

Exit codes: 0 on success, 2 for configuration errors (bad flags, missing
keys, conflicting sources, a missing config or data file, a data file that
does not parse, a plan that cannot run at its n, such as a jackknife run
over the compute budget or an n too small for m and q, a supnorm m above
11, whose grid would need derivatives past order 12), 3 for numerical
failures (eigensolver non-convergence, a sample covariance that
overflows, a test function that is not finite at the eigenvalues, a zero
or overflowing limit scale).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .estimators import (
    MODES,
    AggregationScheme,
    ComputeBudgetError,
    combine_levels,
    full_spectrum,
    level_plan,
    level_spectra,
    make_scheme,
)
from .functions import FunctionClassGrid, TestFunction, builtin, default_grid, grid_to_csv, tau_f
from .linalg import (
    CovarianceModel,
    EigenSolverError,
    SampleSet,
    Stream,
    derive_seed,
    format_cell,
    gram_spectra,
    load_samples_csv,
    sample_gaussian,
    write_csv,
)
# unused; bench/bench_tests.py expects this module among its import sites
from .linalg import sym_eigvalues  # noqa: F401
from .montecarlo import (
    STANDARDIZE,
    ExperimentConfig,
    ReplicateError,
    config_hash,
    normality_check,
    parse_model,
    rate_sweep,
    supnorm_experiment,
    write_qq_csv,
    write_result_csvs,
)
from .theory import effective_rank, esd_mp_ks, mp_cdf, rate_budget

__all__ = ["ConfigError", "main", "entrypoint"]


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


# the experiment keys' defaults are ExperimentConfig's; reps fills its replications
_FIELD = {"reps": "replications"}
_DEFAULT = {f.name: f.default for f in fields(ExperimentConfig)}


def _experiment_key(name: str, conv=None, **kw) -> _Key:
    return _Key(name, conv, default=_DEFAULT[_FIELD.get(name, name)], **kw)


_MODEL = _Key("model", required=True,
              help="identity:<d> | poly_decay:<d>:<beta> | custom:<v1>,<v2>,...")
_F = _Key("f", required=True, help="test function, e.g. log1p or scaled_sine:0.5")
_MODE = _experiment_key("mode", help=" | ".join(MODES))
_M = _experiment_key("m", int, help="number of aggregation levels")
_Q = _experiment_key("q", float, help="geometric spacing of subsample sizes")
_SUBSETS = _experiment_key("subsets", int, help="jackknife subsets per level", short="-B")
_N = _Key("n", int, required=True, help="sample size")
_REPS = _experiment_key("reps", int, help="Monte Carlo replications")
_WORKERS = _experiment_key("workers", int,
                           help="replicate worker threads; outputs do not depend on it")
_OUT = _Key("out", default=".", help="output directory")

_COMMON = [_Key("seed", int, required=True, help="master seed"), _OUT]
_EXPERIMENT = [_MODEL, _F, _MODE, _M, _Q, _SUBSETS, _REPS, _WORKERS,
               _experiment_key("standardize", help=" | ".join(STANDARDIZE))]


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, its options and its handler."""

    help: str
    keys: list[_Key]
    run: Callable[..., int]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrace",
        description="Trace-functional and spectral-measure estimation for "
        "Gaussian covariance models, with Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key=value config file")
        for key in command.keys:
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


def _resolve(command: str, args: argparse.Namespace) -> tuple[dict, dict]:
    keys = _COMMANDS[command].keys
    known = {k.name for k in keys}
    file_cfg: dict[str, str] = {}
    if getattr(args, "config", None) is not None:
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
    return resolved, _validate(command, resolved)


def _validate(command: str, cfg: dict) -> dict:
    """Raise ConfigError unless the command can run; return what its handler
    runs, as the keyword arguments it takes beyond cfg."""
    built: dict = {}
    if command == "estimate":
        if (cfg["model"] is None) == (cfg["data"] is None):
            raise ConfigError("exactly one of model or data must be given")
        if cfg["model"] is not None and cfg["n"] is None:
            raise ConfigError("n is required when simulating from a model")
        if cfg["data"] is not None and cfg["n"] is not None:
            raise ConfigError("n conflicts with data; the CSV fixes the sample size")
        if cfg["data"] is not None and not Path(cfg["data"]).is_file():
            raise ConfigError(f"data file not found: {cfg['data']}")
    if command == "mp-compare" and (cfg["d"] < 50 or cfg["n"] < 50):
        raise ConfigError("mp-compare needs d >= 50 and n >= 50")
    for name in ("m", "n", "subsets", "reps", "workers", "grid_size"):
        if name in cfg and cfg[name] is not None and cfg[name] < 1:
            raise ConfigError(f"{name} must be >= 1")
    # build what the command runs, so a bad value fails before any work
    try:
        if command == "supnorm":  # first: past m = 11 its error names the cause
            # the grid's tag keeps it off every subset seed (master, i, SUBSET)
            grid_seed = derive_seed(cfg["seed"], 0, Stream.GRID)
            built["grid"] = default_grid(cfg["m"], cfg["grid_size"], grid_seed)
        if command in ("rates", "normality", "supnorm"):
            built["config"] = _experiment_config(cfg)
        elif command == "coeffs":
            built["scheme"] = make_scheme(cfg["m"], cfg["n"], cfg["q"])
        elif command == "estimate":
            samples = None if cfg["data"] is None else load_samples_csv(cfg["data"])
            n = cfg["n"] if samples is None else samples.n
            built["samples"] = samples
            built["scheme"], built["subsets"] = level_plan(
                cfg["mode"], n, cfg["m"], cfg["q"], cfg["subsets"])
        # an experiment's run builds its own model and f from its config
        model = None if cfg.get("model") is None else parse_model(cfg["model"])
        f = None if cfg.get("f") is None else builtin(cfg["f"])
        if command == "estimate":
            built.update(f=f, model=model)
    except (ValueError, ComputeBudgetError) as exc:
        raise ConfigError(str(exc))
    return built


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return format_cell(value)


def _resolved_text(command: str, cfg: dict) -> str:
    lines = [f"command={command}"]
    for key in sorted(cfg):
        if cfg[key] is not None:
            lines.append(f"{key}={_format_value(cfg[key])}")
    return "\n".join(lines) + "\n"


def _output_tag(command: str, cfg: dict) -> str:
    # names output files; workers and out do not change the outputs
    kept = {k: v for k, v in cfg.items() if k not in ("workers", "out")}
    return hashlib.sha256(_resolved_text(command, kept).encode()).hexdigest()[:12]


def _write_resolved(command: str, cfg: dict) -> None:
    outdir = Path(cfg.get("out") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(_resolved_text(command, cfg))


def _result_line(**kv) -> None:
    parts = " ".join(f"{k}={_format_value(v)}" for k, v in kv.items())
    print(f"RESULT {parts}")


# --- commands ---------------------------------------------------------------


def _scheme_report(scheme) -> dict[str, str]:
    """A scheme's sizes, weights and coeff_l1 as estimate and coeffs report them."""
    return {
        "sizes": ",".join(str(s) for s in scheme.sizes),
        "coeffs": ",".join(repr(c) for c in scheme.coeffs.tolist()),
        "coeff_l1": repr(scheme.coeff_l1()),
    }


def _cmd_estimate(cfg: dict, f: TestFunction, model: CovarianceModel | None,
                  samples: SampleSet | None, scheme: AggregationScheme,
                  subsets: int | None) -> int:
    if samples is None:
        samples = sample_gaussian(model, cfg["n"], cfg["seed"])
    mode = cfg["mode"]
    levels = level_spectra(samples, scheme, subsets, cfg["seed"])
    estimate = combine_levels(f, levels)
    lam = full_spectrum(levels)
    # every line is computed before the first is printed, so a failure prints none
    lines = [f"estimate: {estimate!r}",
             f"f: {f.name}  mode: {mode}  n: {samples.n}  dim: {samples.dim}"]
    if scheme.m > 1:
        lines += [f"{k}: {v}" for k, v in _scheme_report(scheme).items()]
    if lam[0] > 0:
        lines.append(f"sample effective rank: {effective_rank(CovarianceModel(lam)):.6g}")
    if model is not None:
        truth = tau_f(f, model.eigenvalues)
        lines.append(f"model value: {truth!r}  deviation: {estimate - truth!r}")
        if model.eigenvalues[0] > 0:  # effective_rank needs a nonzero spectrum
            budget = rate_budget(f, model, samples.n, scheme.m)
            lines.append(
                f"rate budget: main {budget.main_term:.6g} "
                f"+ linear {budget.linear_residual:.6g} "
                f"+ bias {budget.bias_term:.6g} = {budget.total:.6g}"
            )
    print("\n".join(lines))
    _result_line(
        command="estimate", estimate=float(estimate), f=f.name, mode=mode,
        n=samples.n, dim=samples.dim, seed=cfg["seed"],
    )
    return 0


def _cmd_coeffs(cfg: dict, scheme: AggregationScheme) -> int:
    report = _scheme_report(scheme)
    sizes, coeffs, coeff_l1 = (f"{k}: {v}" for k, v in report.items())
    print(sizes, coeffs, f"sum: {float(scheme.coeffs.sum())!r}", coeff_l1, sep="\n")
    for ell, (resid, top) in enumerate(scheme.cancellation(), start=1):
        print(f"cancellation l={ell}: {resid:.3e} (largest term {top:.3e})")
    _result_line(command="coeffs", **report)
    return 0


def _experiment_config(cfg: dict) -> ExperimentConfig:
    # supnorm runs a family of functions, not f; its config names identity
    kwargs = {"f": "identity"}
    kwargs.update((_FIELD.get(k, k), v) for k, v in cfg.items())
    return ExperimentConfig(**{k: v for k, v in kwargs.items() if k in _DEFAULT})


def _cmd_rates(cfg: dict, config: ExperimentConfig) -> int:
    sweep = rate_sweep(config)
    outdir = Path(cfg["out"])
    for res in sweep.runs:
        write_result_csvs(res, outdir)
    path = write_csv(outdir / f"rates_{config_hash(config)}.csv", ["n", "rmse"],
                     zip(sweep.n_values, sweep.rmse))
    print(f"n values: {','.join(str(n) for n in sweep.n_values)}")
    print(f"rmse: {','.join(repr(float(v)) for v in sweep.rmse)}")
    print(f"slope: {sweep.slope!r} +- {sweep.slope_se!r}")
    print(f"wrote {path}")
    _result_line(
        command="rates", slope=sweep.slope, slope_se=sweep.slope_se,
        n_list=sweep.n_values, seed=cfg["seed"],
    )
    return 0


def _cmd_normality(cfg: dict, config: ExperimentConfig) -> int:
    result = normality_check(config)
    outdir = Path(cfg["out"])
    write_result_csvs(result, outdir)
    qq_path = write_qq_csv(result, outdir)
    ks, w1 = result.summary["ks_normal"], result.summary["w1_normal"]
    var = result.summary["standardized_var"]
    print(f"ks: {ks!r}")
    print(f"w1: {w1!r}")
    print(f"standardized variance: {var!r}")
    print(f"wrote {qq_path}")
    _result_line(
        command="normality", ks=ks, w1=w1,
        standardized_var=var, reps=cfg["reps"], seed=cfg["seed"],
    )
    return 0


def _cmd_supnorm(cfg: dict, config: ExperimentConfig, grid: FunctionClassGrid) -> int:
    result = supnorm_experiment(grid, config)
    outdir = Path(cfg["out"])
    tag = _output_tag("supnorm", cfg)
    grid_path = outdir / f"supnorm_{tag}_grid.csv"
    grid_to_csv(grid, grid_path)
    table_path = write_csv(
        outdir / f"supnorm_{tag}_errors.csv", ["name", "truth", "mean_abs_error"],
        zip(result.names, result.truths, result.per_function_mean),
    )
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
    d, n = cfg["d"], cfg["n"]
    gamma = d / n
    samples = sample_gaussian(CovarianceModel.identity(d), n, cfg["seed"])
    # the law's atom at 0 needs the d - n null eigenvalues gram_spectra leaves out
    nulls = np.zeros(max(d - n, 0))
    lam_sorted = np.concatenate([nulls, np.sort(gram_spectra(samples.data))])
    ks = esd_mp_ks(lam_sorted, gamma)
    tag = _output_tag("mp-compare", cfg)
    path = write_csv(
        Path(cfg["out"]) / f"mp_compare_{tag}.csv", ["eigenvalue", "esd_cdf", "mp_cdf"],
        zip(lam_sorted, np.arange(1, d + 1) / d, mp_cdf(gamma, lam_sorted)),
    )
    print(f"ks distance: {ks!r}  (d={d}, n={n}, gamma={gamma:g})")
    print(f"wrote {path}")
    _result_line(command="mp-compare", ks=ks, gamma=gamma, d=d, n=n, seed=cfg["seed"])
    return 0


_COMMANDS: dict[str, _Command] = {
    "estimate": _Command(
        "estimate a trace functional on one dataset",
        [replace(_MODEL, required=False),
         _Key("data", help="CSV of observations, one row each"),
         _F, _MODE, _M, _Q, _SUBSETS,
         replace(_N, required=False, help="sample size (with --model)"), *_COMMON],
        _cmd_estimate,
    ),
    "coeffs": _Command(
        "print an aggregation scheme's sizes and weights",
        [replace(_M, default=None, required=True), _N, _Q, _OUT],
        _cmd_coeffs,
    ),
    "rates": _Command(
        "RMSE vs n sweep with a fitted log-log slope",
        [*_EXPERIMENT,
         _Key("n_list", _conv_n_list, required=True, help="comma-separated sizes"),
         *_COMMON],
        _cmd_rates,
    ),
    "normality": _Command(
        "KS/W1 distance of standardized replicates to normal",
        [*_EXPERIMENT, _N, *_COMMON],
        _cmd_normality,
    ),
    "supnorm": _Command(
        "worst-case error over a derivative-bounded family",
        [_MODEL, replace(_MODE, default="aggregate"), _M, _Q, _SUBSETS,
         replace(_REPS, default=200), _WORKERS,
         _Key("grid_size", int, default=5, help="number of functions in the test family"),
         _N, *_COMMON],
        _cmd_supnorm,
    ),
    "mp-compare": _Command(
        "empirical spectral law vs the limiting bulk law",
        [_Key("d", int, required=True, help="dimension"), _N, *_COMMON],
        _cmd_mp_compare,
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, built = _resolve(args.command, args)
        _write_resolved(args.command, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # scheme and LAPACK errors are ValueErrors, overflows ArithmeticErrors
    try:
        return _COMMANDS[args.command].run(cfg, **built)
    except (EigenSolverError, ComputeBudgetError, ReplicateError, ValueError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
