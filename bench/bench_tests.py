"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest -q bench/bench_tests.py

The traced-count tests run each workload at full size once traced and
once untraced, so the module takes about a minute on one core.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spectrace.cli  # noqa: E402
import spectrace.functions  # noqa: E402
import spectrace.linalg  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from scipy.special import ndtri  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def traced_and_untraced(name: str):
    workload = WORKLOADS[name]
    plain, _ = run.invoke(workload, 11)
    tracer = Tracer()
    with tracer:
        traced, _ = run.invoke(workload, 11)
    return workload, plain, traced, tracer


# sym_eigvalues calls per replicate: 1 + B(m - 1) on the jackknife path
# (B = 50, m = 3), one per level (m = 3) on the aggregate path.
EXPECTED_EIGS = {
    "mc-jackknife-d20": 200 * (1 + 50 * 2),
    "mc-aggregate-d200": 300 * 3,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_and_outputs(name):
    workload, plain, traced, tracer = traced_and_untraced(name)
    assert run.problems_of(plain) == []
    assert run.problems_of(traced) == []
    # tracing must not change a single output byte
    assert traced.result_line() == plain.result_line()
    assert traced.digest() == plain.digest()
    stats = tracer.layer_stats()
    assert stats["linalg.sym_eigvalues.calls"] == EXPECTED_EIGS[name]
    assert stats["cli.main.calls"] == 1
    if name == "mc-jackknife-d20":
        # one generator per replicate sample plus one per subset draw
        assert stats["linalg.rng_from.calls"] == 200 * (1 + 50 * 2)
    expected_null = 100 / 600 if name == "mc-aggregate-d200" else 0.0
    assert stats["linalg.sym_eigvalues.null_frac"] == pytest.approx(expected_null)
    # self times partition the root span, which is the single cli.main call
    total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    root = tracer.end[0] - tracer.start[0]
    assert total == pytest.approx(root, rel=1e-9)


def test_wrappers_reach_every_import_site_and_are_removed():
    originals = (spectrace.cli.sym_eigvalues, spectrace.functions.TestFunction.deriv)
    tracer = Tracer()
    with tracer:
        assert spectrace.cli.sym_eigvalues is not originals[0]
        assert spectrace.functions.TestFunction.deriv is not originals[1]
    assert (spectrace.cli.sym_eigvalues, spectrace.functions.TestFunction.deriv) == originals
    expected = {
        "linalg.sym_eigvalues": {"linalg", "estimators", "montecarlo", "cli"},
        "linalg.sample_gaussian": {"linalg", "estimators", "montecarlo", "cli"},
        "linalg.derive_seed": {"linalg", "estimators", "montecarlo", "cli"},
        "functions.tau_f": {"functions", "estimators", "montecarlo", "cli"},
        "linalg.rng_from": {"linalg", "estimators", "functions"},
    }
    for label, modules in expected.items():
        assert {f"spectrace.{m}" for m in modules} <= set(tracer.sites[label]), label


def _with_standardized(out, transform):
    """The output as if the estimator had produced transform(z) instead of z.

    The replicates CSV and the RESULT line are rewritten together, so
    that only the statistical bounds can tell.
    """
    name = next(n for n in out.files if n.endswith("_replicates.csv"))
    header, rows = workloads._csv_rows(out, name)
    z = transform(np.array([float(row[2]) for row in rows]))
    text = ",".join(header) + "\n" + "".join(
        f"{row[0]},{row[1]},{float(v)!r}\n" for row, v in zip(rows, z))
    r = z.size
    stats = {
        "ks": workloads._ks_normal(z),
        "w1": float(np.mean(np.abs(np.sort(z) - ndtri((np.arange(1, r + 1) - 0.5) / r)))),
        "standardized_var": float(np.var(z, ddof=1)),
    }
    line = out.result_line()
    fields = [p if p.partition("=")[0] not in stats else f"{p.partition('=')[0]}="
              f"{stats[p.partition('=')[0]]!r}" for p in line.split()]
    return dataclasses.replace(out, stdout=out.stdout.replace(line, " ".join(fields)),
                               files={**out.files, name: text.encode()})


def test_checks_reject_corrupted_outputs_and_a_wrong_estimator():
    out, _ = run.invoke(WORKLOADS["mc-jackknife-d20"], 5)
    assert run.problems_of(out) == []
    table = next(n for n in out.files if n.endswith("_replicates.csv"))
    short = dataclasses.replace(
        out, files={**out.files, table: out.files[table].rsplit(b"\n", 2)[0] + b"\n"})
    assert any("rows" in p for p in run.problems_of(short))
    ks = out.result_line().split()[2]
    bad = dataclasses.replace(out, stdout=out.stdout.replace(ks, "ks=0.01"))
    assert any("RESULT ks" in p for p in run.problems_of(bad))
    missing = dataclasses.replace(out, files={"config.resolved": out.files["config.resolved"]})
    assert any("missing" in p for p in run.problems_of(missing))
    garbled = dataclasses.replace(out, files={
        **out.files, table: b"replicate,estimate,standardized\n" + b"a,b,c\n" * 200})
    assert any("malformed" in p for p in run.problems_of(garbled))
    # rewriting alone keeps the output valid
    assert run.problems_of(_with_standardized(out, lambda z: z)) == []
    biased = run.problems_of(_with_standardized(out, lambda z: z + 1.0))
    assert biased and all("KS" in p for p in biased), biased
    spread = run.problems_of(_with_standardized(out, lambda z: 2.0 * z))
    assert any("standardized_var" in p and "outside" in p for p in spread), spread


def test_bad_input_is_counted_and_does_not_abort(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)
    good = WORKLOADS["mc-jackknife-d20"]
    # normality refuses fewer than 200 replications (exit code 3)
    bad = dataclasses.replace(good, argv=(*good.argv, "--reps", "10"))
    tally = run.Tally()
    detail = run.measure_untraced(bad, 3, 0.0, tally, perf_counter())
    assert tally.attempted == 1 + run.MIN_CALLS  # warm-up plus the timed calls
    assert tally.failed == len(tally.failures) == run.MIN_CALLS
    assert detail["calls"] == []
    failure = tally.failures[0]
    assert failure["what"] == "timed call"
    assert "exit code 3" in failure["problems"][0]
    # the record alone reproduces the failure
    assert "--seed" in failure["argv"]
    assert spectrace.cli.main(failure["argv"]) == 3
    # a good run afterwards in the same process is unaffected
    tally = run.Tally()
    detail = run.measure_untraced(good, 3, 0.0, tally, perf_counter())
    assert tally.failures == [] and len(detail["calls"]) == run.MIN_CALLS


def _tree_snapshot() -> dict[str, str]:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    return {
        path: hashlib.sha256((ROOT / path).read_bytes()).hexdigest()
        for path in listed if path and (ROOT / path).is_file()
    }


@pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                    reason="needs a git checkout to list the tree")
def test_run_leaves_tree_unchanged_and_prints_the_contract_line():
    before = _tree_snapshot()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-jackknife-d20",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert _tree_snapshot() == before
    assert not (ROOT / ".bench_out" / "call").exists()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baselines"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-jackknife-d20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
