"""Run the benchmark over seeds and workloads and write one result file.

    python3 bench/suite.py --label seed --out bench/baselines/seed.json

Each run is a separate ``bench/run.py`` process, exactly as a single
measurement is made: ``RUNS`` untraced runs per workload on seeds
1..RUNS, then ``TRACED`` traced runs per workload on seeds 1..TRACED.
Seeds go round-robin over the workloads (seed 1 of every workload, then
seed 2, ...), so a slow spell of the host spreads over all workloads
instead of shifting one workload's whole set. The result file keeps
every run's record (environment included) and is the input of
``bench/compare.py``. At the end it prints each metric's run-to-run
spread: the distance between the first and third quartile as a share of
the median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUNS = 10  # untraced runs per workload, as the acceptance rule takes them
TRACED = 2  # traced runs per workload


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("RECORD "):
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    record = json.loads(lines[-2][len("RECORD "):])
    record["result"] = json.loads(lines[-1])
    return record


def spread(values: list[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"label": args.label, "benchmark": spec,
              "workloads": {name: {"runs": [], "traced": []} for name in names}}
    for trace, count, key in ((0, RUNS, "runs"), (1, TRACED, "traced")):
        for seed in range(1, count + 1):
            for name in names:
                record = run_once(spec, name, seed, trace)
                result["workloads"][name][key].append(record)
                print(f"{name} seed {seed} trace {trace}: failed {record['failed']}, " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in record["result"]["metrics"].items()
                    if k in bounds
                ), flush=True)
    for name in names:
        runs = result["workloads"][name]["runs"]
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            print(f"{name} {metric}: median {statistics.median(values):.4g}, "
                  f"spread {spread(values):.3f} (bound {bound})")
        failed = sum(r["failed"] for r in runs + result["workloads"][name]["traced"])
        if failed:
            print(f"{name}: {failed} failed operations")
    result["environment"] = result["workloads"][names[0]]["runs"][0]["environment"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
