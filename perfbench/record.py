"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

For every seed slot, runs the workload's op once in a fresh interpreter and
stores what it produced in perfbench/reference/<workload>.json: per grid cell
the rejection rates and the SHA-256 of results.csv, and per highdim call the
standardized statistic, p-value and reject flag. Run it only on a commit whose
outputs are known good; the references then hold later commits to them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from run import run_child  # noqa: E402


def main() -> int:
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in W.WORKLOADS:
        slots = {}
        for slot in range(W.SEED_SLOTS):
            slots[str(slot)] = run_child(["record", workload, str(slot)],
                                         time.monotonic() + 600.0)
            print(f"{workload} slot {slot} recorded", file=sys.stderr)
        path = W.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "slots": slots}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
