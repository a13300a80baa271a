"""Write reference.json: the seed-0 outputs every later seed-0 run must match.

    python3 perfbench/freeze.py

Run it only on the commit whose outputs define "correct"; each workload
is run once and its summary must already pass the workload's own checks.
"""

import json
import sys

from run import REFERENCE, Bench
from workloads import WORKLOADS


def main() -> int:
    frozen = {}
    for name, workload in WORKLOADS.items():
        bench = Bench(workload, 0, False, None)
        try:
            sample = bench.experiment()
        finally:
            bench.close()
        if sample.problems:
            print(f"{name}: not frozen: {sample.problems}", file=sys.stderr)
            return 1
        frozen[name] = sample.result["summary"]
        print(f"{name}: frozen from a {sample.wall_s:.2f} s run")
    REFERENCE.write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
