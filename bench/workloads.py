"""The two benchmark workloads and the checks on their outputs.

Each workload is one ``spectrace`` CLI invocation at a fixed size. The
checks hold for any seed and any seed-stream layout: they test the exit
code, that the ``RESULT`` line parses with finite values, that the
expected CSV set is present with the right shape, identities between the
``RESULT`` line and the CSVs recomputed here independently, and bounds
that a wrong estimator breaks: the KS distance of the standardized
replicates to N(0, 1), and their variance. The battery's own normality
bounds (c07) are set for 1000 replications; at 200-300 the bounds below
sit so far past the seed commit's values over 25 seeds that the DKW
inequality puts a false KS failure below 1e-5 per call and the variance
bands are more than five standard deviations out, while the uncorrected
plug-in estimator fails them on the seeds tried (KS 0.32 on
``mc-jackknife-d20``, 1.0 on ``mc-aggregate-d200``).
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

# Replicate worker threads used by every workload. One worker keeps the
# figures steady on a small shared host and lets the tracer attribute every
# span to a single call stack.
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI argv without --seed and --out
    reps: int  # replications per call
    warmup_argv: tuple[str, ...]  # a tiny call of the same subcommand
    setup: Callable[[int], object]  # pre-replicate set-up calls, given the seed
    check: Callable[["CallOutput"], list[str]]  # failure reasons, empty if fine


@dataclass
class CallOutput:
    workload: Workload
    argv: list[str]
    seed: int
    exit_code: int | None
    stdout: str
    stderr: str
    files: dict[str, bytes]
    error: str | None = None  # exception raised by the call, if any

    def result_line(self) -> str | None:
        lines = [l for l in self.stdout.splitlines() if l.startswith("RESULT ")]
        return lines[0] if len(lines) == 1 else None

    def digest(self) -> str:
        """sha256 of the RESULT line and every output file, for information."""
        h = hashlib.sha256((self.result_line() or "").encode())
        for name in sorted(self.files):
            h.update(b"\0" + name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


# --- set-up calls, timed in a fresh interpreter -----------------------------


def _setup_normality(model: str, f: str, m: int, n: int):
    def setup(seed: int):
        from spectrace.estimators import make_scheme
        from spectrace.functions import builtin
        from spectrace.montecarlo import parse_model
        from spectrace.theory import gaussian_limit_std

        cov = parse_model(model)
        fn = builtin(f)
        return make_scheme(m, n, 2.0), gaussian_limit_std(fn, cov)

    return setup


# --- output checks -------------------------------------------------------------


def _parse_result(out: CallOutput, numeric: tuple[str, ...]) -> tuple[dict, list[str]]:
    line = out.result_line()
    if line is None:
        return {}, ["stdout does not hold exactly one RESULT line"]
    fields = dict(part.partition("=")[::2] for part in line.split()[1:])
    problems = []
    values = {}
    for key in numeric:
        try:
            values[key] = float(fields[key])
        except (KeyError, ValueError):
            problems.append(f"RESULT has no numeric {key}")
            continue
        if not math.isfinite(values[key]):
            problems.append(f"RESULT {key}={fields[key]} is not finite")
    if fields.get("seed") != str(out.seed):
        problems.append(f"RESULT seed={fields.get('seed')} but the call used {out.seed}")
    return values, problems


def _files_by_pattern(out: CallOutput, patterns: dict[str, str]) -> tuple[dict, list[str]]:
    """Match the out dir against {role: regex}; every file has one role."""
    found: dict[str, str] = {}
    problems = []
    for name in out.files:
        roles = [r for r, pat in patterns.items() if re.fullmatch(pat, name)]
        if len(roles) != 1 or roles[0] in found:
            problems.append(f"unexpected output file {name}")
        else:
            found[roles[0]] = name
    missing = sorted(set(patterns) - set(found))
    if missing:
        problems.append(f"missing output files: {', '.join(missing)}")
    return found, problems


def _csv_rows(out: CallOutput, name: str) -> tuple[list[str], list[list[str]]]:
    lines = out.files[name].decode().splitlines()
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _ks_normal(z: np.ndarray) -> float:
    z = np.sort(z)
    r = z.size
    cdf = ndtr(z)
    i = np.arange(1, r + 1)
    return float(max(np.max(i / r - cdf), np.max(cdf - (i - 1) / r), 0.0))


def _check_normality(reps: int, ks_max: float, var_range: tuple[float, float]):
    def check(out: CallOutput) -> list[str]:
        values, problems = _parse_result(out, ("ks", "w1", "standardized_var", "reps"))
        tag = r"experiment_([0-9a-f]{12})_"
        found, file_problems = _files_by_pattern(out, {
            "config": r"config\.resolved",
            "replicates": tag + r"replicates\.csv",
            "summary": tag + r"summary\.csv",
            "qq": tag + r"qq\.csv",
        })
        problems += file_problems
        if problems:
            return problems
        if values["reps"] != reps:
            problems.append(f"RESULT reps={values['reps']:g}, expected {reps}")
        header, rows = _csv_rows(out, found["replicates"])
        if header != ["replicate", "estimate", "standardized"] or len(rows) != reps:
            return problems + [f"replicates CSV has {len(rows)} rows, expected {reps}"]
        table = np.array([[float(v) for v in row] for row in rows])
        if not np.all(np.isfinite(table)) or not np.array_equal(table[:, 0], np.arange(reps)):
            return problems + ["replicates CSV has non-finite values or bad indices"]
        z = table[:, 2]
        w1 = float(np.mean(np.abs(np.sort(z) - ndtri((np.arange(1, reps + 1) - 0.5) / reps))))
        for key, expect in (
            ("ks", _ks_normal(z)),
            ("w1", w1),
            ("standardized_var", float(np.var(z, ddof=1))),
        ):
            if not _close(values[key], expect):
                problems.append(
                    f"RESULT {key}={values[key]!r} but the replicates CSV gives {expect!r}"
                )
        _, qq = _csv_rows(out, found["qq"])
        if len(qq) != reps:
            problems.append(f"qq CSV has {len(qq)} rows, expected {reps}")
        if values["ks"] > ks_max:
            problems.append(f"KS {values['ks']!r} to N(0, 1) above {ks_max}")
        lo, hi = var_range
        if not lo <= values["standardized_var"] <= hi:
            problems.append(
                f"standardized_var {values['standardized_var']!r} outside [{lo}, {hi}]"
            )
        return problems

    return check


def _normality(name: str, model: str, mode: str, reps: int, extra: tuple,
               ks_max: float, var_range: tuple[float, float]) -> Workload:
    return Workload(
        name=name,
        argv=("normality", "--model", model, "--f", "log1p", "--mode", mode,
              "--n", "400", "--m", "3", *extra, "--reps", str(reps),
              "--workers", str(WORKERS)),
        reps=reps,
        warmup_argv=("normality", "--model", "identity:2", "--f", "log1p",
                     "--mode", mode, "--n", "40", "--m", "2", "--subsets", "2",
                     "--reps", "200"),
        setup=_setup_normality(model, "log1p", 3, 400),
        check=_check_normality(reps, ks_max, var_range),
    )


WORKLOADS = {
    w.name: w
    for w in (
        _normality(
            "mc-jackknife-d20", "identity:20", "jackknife", 200, ("--subsets", "50"),
            ks_max=0.25, var_range=(0.5, 2.0),  # seed commit: KS <= 0.13, var 0.83-1.23
        ),
        _normality(
            "mc-aggregate-d200", "identity:200", "aggregate", 300, (),
            ks_max=0.35, var_range=(1.8, 5.0),  # seed commit: KS 0.13-0.24, var 2.6-3.6
        ),
    )
}
