"""Command-line interface.

Subcommands: estimate, coeffs, rates, normality, supnorm, mp-compare.
Options resolve in three layers: built-in defaults, then a flat
``key=value`` config file given with --config, then explicit flags. The
resolved configuration holds its command too, and is echoed to
``<out>/config.resolved`` in exactly the accepted format, ``command=``
first, so re-running with ``--config <out>/config.resolved`` reproduces
the outputs byte for byte at the same BLAS thread count
(``OPENBLAS_NUM_THREADS``); another can move them at round-off level.

Each command is one row of ``_COMMANDS``: its options, its build and its
run. Before ``config.resolved`` is written, the build turns the resolved
options into what the run takes as keyword arguments: the
``ExperimentConfig`` of rates, normality and supnorm (which builds and
keeps its model, f and plan), supnorm's function grid, coeffs' scheme,
estimate's scheme (``level_plan``) at its n, model, test function and
sample (read from --data, or drawn from the model last), and mp-compare's
ratio d/n and sample. An integer past the float range fails while
building, as an ``ArithmeticError``, and a sample too large to allocate as
a ``MemoryError``; both are refused the same way. Nothing is built twice,
not even per size of rates, and each key's floor is the built object's;
the builds check only what no library object knows: estimate's choice of
one data source and mp-compare's size floors. The run returns its RESULT
fields, and ``main`` prints the one RESULT line, last on stdout. Before it
a run prints only what that line lacks: the paths it wrote, rates' RMSE
per size, coeffs' weight sum, supnorm's family size, replications and
hardest member, and estimate's plan (when m > 1) and diagnostics.
Normality's replicate floor (``NORMALITY_MIN_REPS``) is checked when the
run starts, after ``config.resolved`` is written, and exits 3.

Exit codes: 0 on success, 2 for a configuration error, 3 for a numerical
failure or a refused run; README.md's "Exit codes" paragraph lists every case.
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
    check_seed,
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
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


# the experiment keys' defaults are ExperimentConfig's; reps fills its replications
_FIELD = {"reps": "replications"}
_DEFAULT = {f.name: f.default for f in fields(ExperimentConfig)}


def _experiment_key(name: str, conv=None, **kw) -> _Key:
    return _Key(name, conv, default=_DEFAULT[_FIELD.get(name, name)], **kw)


_MODEL = _Key("model", required=True,
              help="identity:<d> | poly_decay:<d>:<beta> | custom:<v1>,<v2>,...")
_F = _Key("f", required=True, help="test function: identity, square, cube, log1p, rational, "
         "scaled_sine:<omega>[:<power>] or bump:<center>:<width>[:<scale>]")
_MODE = _experiment_key("mode", help=" | ".join(MODES))
_M = _experiment_key("m", int, help="number of aggregation levels")
_Q = _experiment_key("q", float, help="geometric spacing of subsample sizes")
_SUBSETS = _experiment_key("subsets", int, help="jackknife subsets per level", short="-B")
_N = _Key("n", int, required=True, help="sample size")
_REPS = _experiment_key("reps", int, help="Monte Carlo replications")
_WORKERS = _experiment_key("workers", int,
                           help="replicate worker threads; outputs do not depend on it")
_OUT = _Key("out", default=".", help="output directory")

_COMMON = [_Key("seed", lambda s: check_seed(int(s)), required=True, help="master seed"), _OUT]
_EXPERIMENT = [_MODEL, _F, _MODE, _M, _Q, _SUBSETS, _REPS, _WORKERS,
               _experiment_key("standardize", help=" | ".join(STANDARDIZE))]


@dataclass(frozen=True)
class _Command:
    """One subcommand: its help line, its options, its build (from them, the
    run's other keyword arguments) and its run (its RESULT fields)."""

    help: str
    keys: list[_Key]
    build: Callable[[dict], dict]
    run: Callable[..., dict]


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
    try:
        text = p.read_text(encoding="utf-8-sig")  # drops a leading BOM
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: {key} is set twice (first on line {seen[key]})")
        seen[key], out[key] = lineno, value.strip()
    return out


def _resolve(args: argparse.Namespace) -> tuple[dict, dict]:
    command = args.command
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
    resolved: dict = {"command": command}
    for key in keys:
        value = getattr(args, key.name, None)
        if value is None and key.name in file_cfg:
            value = file_cfg[key.name]
        if value is None:
            value = key.default
        if isinstance(value, str) and key.conv is not None:
            try:
                value = key.conv(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key.name}: {value!r} ({exc})")
        if value is None and key.required:
            raise ConfigError(f"{key.name} is required for {command}")
        resolved[key.name] = value
    # ArithmeticError: an int past the float range; MemoryError: a sample too large
    try:
        return resolved, _COMMANDS[command].build(resolved)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(str(exc) or type(exc).__name__)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return format_cell(value)


def _resolved_text(cfg: dict) -> str:
    """The text of ``config.resolved``: the command the resolved config
    holds first, then every set key by name."""
    rest = sorted(k for k in cfg if k != "command" and cfg[k] is not None)
    return "".join(f"{k}={_format_value(cfg[k])}\n" for k in ["command", *rest])


def _output_tag(cfg: dict) -> str:
    # names output files; workers and out do not change the outputs
    kept = {k: v for k, v in cfg.items() if k not in ("workers", "out")}
    return hashlib.sha256(_resolved_text(kept).encode()).hexdigest()[:12]


def _write_resolved(cfg: dict) -> None:
    outdir = Path(cfg["out"])  # Path("") is the working directory
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(_resolved_text(cfg))


# --- commands ---------------------------------------------------------------


def _scheme_report(scheme) -> dict[str, str]:
    """A scheme's sizes, weights and coeff_l1 as estimate and coeffs report them."""
    return {
        "sizes": ",".join(str(s) for s in scheme.sizes),
        "coeffs": ",".join(repr(c) for c in scheme.coeffs.tolist()),
        "coeff_l1": repr(scheme.coeff_l1()),
    }


def _build_estimate(cfg: dict) -> dict:
    model, data, n = cfg["model"], cfg["data"], cfg["n"]
    if (model is None) == (data is None):
        raise ConfigError("exactly one of model or data must be given")
    if model is not None and n is None:
        raise ConfigError("n is required when simulating from a model")
    if data is not None and n is not None:
        raise ConfigError("n conflicts with data; the CSV fixes the sample size")
    if data is not None and not Path(data).is_file():
        raise ConfigError(f"data file not found: {data}")
    data = None if data is None else load_samples_csv(data)
    n = n if data is None else data.n
    scheme = level_plan(cfg["mode"], n, cfg["m"], cfg["q"], cfg["subsets"])
    model = None if model is None else parse_model(model)
    f = builtin(cfg["f"])
    samples = data if model is None else sample_gaussian(model, n, cfg["seed"])
    return {"scheme": scheme, "model": model, "f": f, "samples": samples}


def _cmd_estimate(cfg: dict, f: TestFunction, model: CovarianceModel | None,
                  samples: SampleSet, scheme: AggregationScheme) -> dict:
    measure = level_spectra(samples, scheme, cfg["seed"])
    estimate = measure.integrate(f)
    lam = measure.full_spectrum
    # every line is computed before the first is printed, so a failure prints none
    lines = [f"{k}: {v}" for k, v in _scheme_report(scheme).items()] if scheme.m > 1 else []
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
    print("".join(f"{line}\n" for line in lines), end="")
    return {"estimate": float(estimate), "f": f.name, "mode": cfg["mode"],
            "n": samples.n, "dim": samples.dim}


def _cmd_coeffs(cfg: dict, scheme: AggregationScheme) -> dict:
    print(f"sum: {float(scheme.coeffs.sum())!r}")
    return _scheme_report(scheme)


def _experiment_config(cfg: dict) -> ExperimentConfig:
    kwargs = {_FIELD.get(k, k): v for k, v in cfg.items()}
    return ExperimentConfig(**{k: v for k, v in kwargs.items() if k in _DEFAULT})


def _build_experiment(cfg: dict) -> dict:
    return {"config": _experiment_config(cfg)}


def _cmd_rates(cfg: dict, config: ExperimentConfig) -> dict:
    sweep = rate_sweep(config)
    outdir = Path(cfg["out"])
    for res in sweep.runs:
        write_result_csvs(res, outdir)
    path = write_csv(outdir / f"rates_{config_hash(config)}.csv", ["n", "rmse"],
                     zip(sweep.n_values, sweep.rmse))
    print(f"rmse: {','.join(repr(float(v)) for v in sweep.rmse)}")
    print(f"wrote {path}")
    return {"slope": sweep.slope, "slope_se": sweep.slope_se, "n_list": sweep.n_values}


def _cmd_normality(cfg: dict, config: ExperimentConfig) -> dict:
    result = normality_check(config)
    outdir = Path(cfg["out"])
    write_result_csvs(result, outdir)
    qq_path = write_qq_csv(result, outdir)
    print(f"wrote {qq_path}")
    return {"ks": result.summary["ks_normal"], "w1": result.summary["w1_normal"],
            "standardized_var": result.summary["standardized_var"], "reps": cfg["reps"]}


def _build_supnorm(cfg: dict) -> dict:
    # the grid first: past m = 11 its error names the cause; its tag keeps
    # its seed off every subset seed (master, i, SUBSET)
    grid = default_grid(cfg["m"], cfg["grid_size"], derive_seed(cfg["seed"], 0, Stream.GRID))
    # supnorm runs a family of functions, not f; its config names identity
    return {"grid": grid, "config": _experiment_config({**cfg, "f": "identity"})}


def _cmd_supnorm(cfg: dict, config: ExperimentConfig, grid: FunctionClassGrid) -> dict:
    result = supnorm_experiment(grid, config)
    outdir = Path(cfg["out"])
    tag = _output_tag(cfg)
    grid_path = outdir / f"supnorm_{tag}_grid.csv"
    grid_to_csv(grid, grid_path)
    table_path = write_csv(
        outdir / f"supnorm_{tag}_errors.csv", ["name", "truth", "mean_abs_error"],
        zip(result.names, result.truths, result.per_function_mean),
    )
    print(f"family size: {len(result.names)}  replications: {cfg['reps']}")
    worst = int(np.argmax(result.per_function_mean))
    print(f"hardest member: {result.names[worst]} "
          f"(mean abs error {float(result.per_function_mean[worst])!r})")
    print(f"wrote {grid_path} and {table_path}")
    return {"max_error_mean": result.max_error_mean, "grid_size": cfg["grid_size"]}


def _build_mp_compare(cfg: dict) -> dict:
    d, n = cfg["d"], cfg["n"]
    if d < 50 or n < 50:
        raise ConfigError("mp-compare needs d >= 50 and n >= 50")
    gamma, identity = d / n, CovarianceModel.identity(d)
    return {"gamma": gamma, "samples": sample_gaussian(identity, n, cfg["seed"])}


def _cmd_mp_compare(cfg: dict, gamma: float, samples: SampleSet) -> dict:
    d, n = cfg["d"], cfg["n"]
    # the law's atom at 0 needs the d - n null eigenvalues gram_spectra leaves out
    nulls = np.zeros(max(d - n, 0))
    lam_sorted = np.concatenate([nulls, np.sort(gram_spectra(samples.data))])
    ks = esd_mp_ks(lam_sorted, gamma)
    tag = _output_tag(cfg)
    path = write_csv(
        Path(cfg["out"]) / f"mp_compare_{tag}.csv", ["eigenvalue", "esd_cdf", "mp_cdf"],
        zip(lam_sorted, np.arange(1, d + 1) / d, mp_cdf(gamma, lam_sorted)),
    )
    print(f"wrote {path}")
    return {"ks": ks, "gamma": gamma, "d": d, "n": n}


_COMMANDS: dict[str, _Command] = {
    "estimate": _Command(
        "estimate a trace functional on one dataset",
        [replace(_MODEL, required=False),
         _Key("data", help="CSV of observations, one row each"),
         _F, _MODE, _M, _Q, _SUBSETS,
         replace(_N, required=False, help="sample size (with --model)"), *_COMMON],
        _build_estimate, _cmd_estimate,
    ),
    "coeffs": _Command(
        "print an aggregation scheme's sizes and weights",
        [replace(_M, default=None, required=True), _N, _Q, _OUT],
        lambda cfg: {"scheme": make_scheme(cfg["m"], cfg["n"], cfg["q"])}, _cmd_coeffs,
    ),
    "rates": _Command(
        "RMSE vs n sweep with a fitted log-log slope",
        [*_EXPERIMENT,
         _Key("n_list", _conv_n_list, required=True, help="comma-separated sizes"),
         *_COMMON],
        _build_experiment, _cmd_rates,
    ),
    "normality": _Command(
        "KS/W1 distance of standardized replicates to normal",
        [*_EXPERIMENT, _N, *_COMMON],
        _build_experiment, _cmd_normality,
    ),
    "supnorm": _Command(
        "worst-case error over a derivative-bounded family",
        [_MODEL, replace(_MODE, default="aggregate"), _M, _Q, _SUBSETS,
         replace(_REPS, default=200), _WORKERS,
         _Key("grid_size", int, default=5, help="number of functions in the test family"),
         _N, *_COMMON],
        _build_supnorm, _cmd_supnorm,
    ),
    "mp-compare": _Command(
        "empirical spectral law vs the limiting bulk law",
        [_Key("d", int, required=True, help="dimension"), _N, *_COMMON],
        _build_mp_compare, _cmd_mp_compare,
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, built = _resolve(args)
        _write_resolved(cfg)
    except (ConfigError, OSError) as exc:  # OSError: an --out that cannot be a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # scheme and LAPACK errors are ValueErrors, overflows ArithmeticErrors
    try:
        result = _COMMANDS[cfg["command"]].run(cfg, **built)
    except (EigenSolverError, ReplicateError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    seed = {"seed": cfg["seed"]} if "seed" in cfg else {}  # coeffs takes no seed
    fields = {"command": cfg["command"], **result, **seed}
    print("RESULT " + " ".join(f"{k}={_format_value(v)}" for k, v in fields.items()))
    return 0


def entrypoint() -> None:
    raise SystemExit(main())
