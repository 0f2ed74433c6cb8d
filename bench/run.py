"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload mc-jackknife-d20 --seed 1 --seconds 34 --trace 0

Run it from the root of a checkout. Each workload drives the public CLI
entry ``spectrace.cli.main(argv)`` in this process, with ``--out`` in a
scratch directory under ``.bench_out/``. With ``--trace 0`` it reports the
end-to-end metrics: wall time and replicate throughput of untraced calls
(medians over every call made in ``--seconds``), set-up time (median over
fresh interpreters that import spectrace and make the workload's set-up
calls) and the peak RSS of this process, which runs nothing but the
workload's calls.
With ``--trace 1`` it alternates untraced and traced calls on the same
seeds and reports per-layer metrics from the tracer in ``tracer.py``.

Every call's outputs are checked (``workloads.py``); a failed check, an
exception or a nonzero exit code counts as a failed operation. The last
stdout line is the JSON result; the line before it, ``RECORD {...}``,
holds the full record with the environment, per-call walls, digests and
failures. Exits 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, so config.resolved is byte-stable

# BLAS threads are pinned before numpy loads; one thread per process keeps
# the figures steady on a small shared host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_REPEATS = 5  # fresh interpreters per run for setup_s
MIN_CALLS = 3  # timed calls per run, even past --seconds
MIN_PAIRS = 2  # untraced/traced pairs per traced run
DEADLINE_S = 150.0  # stop starting new work past this, whatever the counts


def metric_units(section: str) -> dict[str, str]:
    """{name: unit} of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    """Versions, BLAS build, thread settings and the code under test."""
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spectrace").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    from workloads import WORKERS

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "workers": WORKERS,
        "nproc": nproc(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def call_seeds(seed: int):
    """Per-call CLI seeds, a pure function of the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


def invoke(workload, seed: int, argv=None):
    """Run one CLI call in this process; returns (CallOutput, wall seconds).

    Looks ``main`` up on the module at call time, so an installed tracer
    sees it. The out dir is emptied before and removed after the call.
    """
    import spectrace.cli
    from workloads import CallOutput

    out_dir = OUT / "call"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*(workload.argv if argv is None else argv), "--seed", str(seed),
            "--out", out_dir.as_posix()]
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        t0 = perf_counter()
        try:
            code = spectrace.cli.main(argv)
        except Exception:  # a crash is a counted failure, not the end of the run
            error = traceback.format_exc(limit=-3)
        wall = perf_counter() - t0
    files = {}
    if out_dir.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
        shutil.rmtree(out_dir)
    out = CallOutput(workload, argv, seed, code, stdout.getvalue(), stderr.getvalue(),
                     files, error)
    return out, wall


def problems_of(out, full_check: bool = True) -> list[str]:
    if out.error is not None:
        return [f"exception: {out.error.strip().splitlines()[-1]}"]
    if out.exit_code != 0:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {out.exit_code}: {tail[0]}"]
    if not full_check:
        return [] if out.result_line() else ["no RESULT line"]
    try:
        return out.workload.check(out)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:  # unparseable output
        return [f"malformed output: {exc!r}"]


class Tally:
    """Attempted and failed operations, with what reproduces each failure."""

    KEEP = 20  # failure records kept in full; the rest are only counted

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def add(self, what: str, seed: int, argv, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        if problems and len(self.failures) < self.KEEP:
            self.failures.append({
                "what": what,
                "seed": seed,
                "argv": list(argv),
                "reproduce": "PYTHONPATH=src python3 -m spectrace " + " ".join(argv),
                "problems": problems,
            })
        return not problems


def fresh_process(workload, seed: int, timeout: float) -> dict:
    """Time import + set-up in a new interpreter."""
    cmd = [sys.executable, str(BENCH / "fresh.py"), "--workload", workload.name,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"fresh process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def measure_untraced(workload, seed: int, seconds: float, tally: Tally, began: float) -> dict:
    seeds = call_seeds(seed)
    warm_seed = next(seeds)
    out, _ = invoke(workload, warm_seed, argv=workload.warmup_argv)
    tally.add("warm-up", warm_seed, out.argv, problems_of(out, full_check=False))

    # Fresh-process set-ups are spread between the timed calls, so that
    # a slow spell of the host does not bias all of them at once.
    calls, setups = [], []
    attempts = fresh = 0
    busy = 0.0  # wall time spent in timed calls
    while ((busy < seconds or attempts < MIN_CALLS or fresh < SETUP_REPEATS)
           and perf_counter() - began < DEADLINE_S):
        if fresh < SETUP_REPEATS:
            fresh += 1
            s = next(seeds)
            try:
                child = fresh_process(workload, s, DEADLINE_S - (perf_counter() - began))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                tally.add("fresh process", s, workload.argv, [str(exc)])
            else:
                setups.append(child["setup_s"])
        if busy < seconds or attempts < MIN_CALLS:
            attempts += 1
            s = next(seeds)
            out, wall = invoke(workload, s)
            busy += wall
            if tally.add("timed call", s, out.argv, problems_of(out)):
                calls.append({"seed": s, "wall_s": wall, "digest": out.digest()})
    walls = [c["wall_s"] for c in calls]
    metrics = {
        "wall_s": _median(walls),
        "reps_per_s": _median([workload.reps / w for w in walls]),
        "setup_s": _median(setups),
        # ru_maxrss is in KiB on Linux; the set-up children are not counted
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "calls": calls, "setup_s": setups}


def measure_traced(workload, seed: int, seconds: float, tally: Tally, began: float) -> dict:
    from tracer import Tracer

    seeds = call_seeds(seed)
    warm_seed = next(seeds)
    out, _ = invoke(workload, warm_seed, argv=workload.warmup_argv)
    tally.add("warm-up", warm_seed, out.argv, problems_of(out, full_check=False))

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    pairs = 0
    t_start = perf_counter()
    while ((perf_counter() - t_start < seconds or pairs < MIN_PAIRS)
           and perf_counter() - began < DEADLINE_S):
        pairs += 1
        s = next(seeds)
        pair = {}
        # alternate the order so neither side always runs on a warmer cache
        for traced_side in ((False, True) if pairs % 2 else (True, False)):
            if traced_side:
                mark = tracer.mark()
                with tracer:
                    pair[True] = invoke(workload, s)
                stats = tracer.layer_stats(mark)
            else:
                pair[False] = invoke(workload, s)
        (out_u, wall_u), (out_t, wall_t) = pair[False], pair[True]
        ok_u = tally.add("untraced call", s, out_u.argv, problems_of(out_u))
        problems = problems_of(out_t)
        if not problems and out_t.digest() != out_u.digest():
            problems = ["traced outputs differ from untraced outputs on the same seed"]
        if tally.add("traced call", s, out_t.argv, problems) and ok_u:
            stats["cli.bytes_written"] = sum(len(b) for b in out_t.files.values())
            untraced.append(wall_u)
            traced.append(wall_t)
            layers.append(stats)

    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.write(spans_path)
    metrics = {
        name: _median([stats[name] for stats in layers])
        for name in metric_units("per_layer")
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = _median(traced) / _median(untraced) - 1.0
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": spans_path.as_posix(),
        "span_sites": tracer.sites,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "spectrace" / "__init__.py").is_file():
        print(f"error: no spectrace source under {SRC}", file=sys.stderr)
        return 2
    began = perf_counter()
    pin_blas_threads()
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tally = Tally()
    measure = measure_traced if args.trace else measure_untraced
    detail = measure(workload, args.seed, args.seconds, tally, began)
    shutil.rmtree(OUT / "call", ignore_errors=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    failed = tally.failed
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_frac": failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "environment": environment(),
        **detail,
    }
    for name, unit in units.items():
        print(f"{name}: {detail['metrics'][name]!r} {unit}")
    print(f"failed_frac: {record['failed_frac']!r} ({failed} of {tally.attempted})")
    for failure in tally.failures:
        print(f"FAILED {failure['what']}: {'; '.join(failure['problems'])}\n"
              f"  reproduce: {failure['reproduce']}")
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": detail["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
