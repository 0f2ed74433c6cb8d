"""Set-up time in a fresh interpreter.

    python3 bench/fresh.py --workload mc-jackknife-d20 --seed 7

Times ``import spectrace`` plus the workload's pre-replicate set-up calls
from a cold start and prints them as one JSON line. Only standard-library
modules are loaded before the clock starts, so numpy and scipy load
inside it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(BENCH.parent / "src"))
    t0 = time.perf_counter()
    import spectrace  # noqa: F401

    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    t1 = time.perf_counter()
    workload.setup(args.seed)
    setup_calls_s = time.perf_counter() - t1
    report = {
        "import_s": import_s,
        "setup_calls_s": setup_calls_s,
        "setup_s": import_s + setup_calls_s,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
