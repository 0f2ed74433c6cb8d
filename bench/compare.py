"""Compare two result files written by ``bench/suite.py``.

    python3 bench/compare.py bench/baselines/seed.json new.json [--out report.md]

For each workload and end-to-end metric it prints both sides' median and
quartiles and the ratio of the new median to the base median. A metric
is "unresolved" when either side's run-to-run spread (interquartile
distance over the median) exceeds the bound in BENCHMARK.json, unless
every new run reads better than every base run; otherwise it is "worse"
when the new median is worse than the base by more than the bound,
"better" when it is better by more than the base's own interquartile
distance, and "no change" in between. The per-layer section lists the
medians of the traced runs and their deltas, and the last section says
whether outputs stayed byte-identical on the seeds both sides ran
(information only, never a gate).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    all_better = all(sign * x < sign * y for x in new for y in base)
    spreads = [(q3 - q1) / abs(q2) for q1, q2, q3 in ((b1, b2, b3), (n1, n2, n3)) if q2]
    if any(s > bound for s in spreads) and not all_better:
        return "unresolved"
    worse_by = sign * (n2 - b2) / abs(b2)
    if worse_by > bound:
        return "worse"
    if -sign * (n2 - b2) > (b3 - b1) and n2 != b2:
        return "better"
    return "no change"


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def end_to_end_rows(base: dict, new: dict, spec: dict) -> list[str]:
    rows = ["| workload | metric | base median [q1, q3] | new median [q1, q3] | new/base | verdict |",
            "|---|---|---|---|---|---|"]
    for name in base["workloads"]:
        if name not in new["workloads"]:
            rows.append(f"| {name} | (not in new) | | | | |")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [r["result"]["metrics"][key]["value"] for r in base["workloads"][name]["runs"]]
            n = [r["result"]["metrics"][key]["value"] for r in new["workloads"][name]["runs"]]
            if not b or not n:
                continue
            (b1, b2, b3), (n1, n2, n3) = quartiles(b), quartiles(n)
            rows.append(
                f"| {name} | {key} ({metric['unit']}, {metric['better']} is better) "
                f"| {_fmt(b2)} [{_fmt(b1)}, {_fmt(b3)}] (n={len(b)}) "
                f"| {_fmt(n2)} [{_fmt(n1)}, {_fmt(n3)}] (n={len(n)}) "
                f"| {n2 / b2:.3f} (base {_fmt(b2)}) "
                f"| {verdict(b, n, metric['better'], metric['bound'])} |"
            )
    return rows


def per_layer_rows(base: dict, new: dict, spec: dict) -> list[str]:
    rows = ["| workload | metric | base | new | delta | new/base |", "|---|---|---|---|---|---|"]
    for name in base["workloads"]:
        b_runs = base["workloads"][name].get("traced", [])
        n_runs = new["workloads"].get(name, {}).get("traced", [])
        if not b_runs or not n_runs:
            continue
        for metric in spec["per_layer"]:
            key = metric["name"]
            b = statistics.median(r["result"]["metrics"][key]["value"] for r in b_runs)
            n = statistics.median(r["result"]["metrics"][key]["value"] for r in n_runs)
            if b == 0 and n == 0:
                continue
            ratio = f"{n / b:.3f}" if b else "n/a"
            rows.append(f"| {name} | {key} ({metric['unit']}) | {_fmt(b)} | {_fmt(n)} "
                        f"| {_fmt(n - b)} | {ratio} |")
    return rows


def digest_rows(base: dict, new: dict) -> list[str]:
    rows = []
    for name, side in base["workloads"].items():
        old = {c["seed"]: c["digest"] for r in side["runs"] for c in r.get("calls", [])}
        cur = {c["seed"]: c["digest"]
               for r in new["workloads"].get(name, {}).get("runs", []) for c in r.get("calls", [])}
        common = sorted(set(old) & set(cur))
        same = sum(old[s] == cur[s] for s in common)
        rows.append(f"- {name}: {same} of {len(common)} common call seeds byte-identical")
    return rows


def report(base: dict, new: dict, spec: dict) -> str:
    lines = [f"# {base['label']} -> {new['label']}", ""]
    for side in (base, new):
        env = side.get("environment", {})
        lines.append(
            f"- {side['label']}: commit {env.get('git_commit', '?')}, src {env.get('src_sha256', '?')[:12]}, "
            f"python {env.get('python')}, numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
            f"{env.get('blas_name')} {env.get('blas_version')}, "
            f"BLAS threads {env.get('blas_env', {}).get('OPENBLAS_NUM_THREADS')}, "
            f"workers {env.get('workers')}, nproc {env.get('nproc')}"
        )
    lines += ["", "## End to end", "", *end_to_end_rows(base, new, spec),
              "", "## Per layer (traced runs, medians)", "", *per_layer_rows(base, new, spec),
              "", "## Output digests (information only)", "", *digest_rows(base, new), ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    text = report(json.loads(args.base.read_text()), json.loads(args.new.read_text()), spec)
    if args.out:
        args.out.write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
