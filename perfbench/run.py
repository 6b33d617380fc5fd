"""hdwn benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload size_grid --seed 0 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and METRICS.md):
  size_grid      hdwn simulate --config table1 --reps 50 --threads 2, in rounds
  power_grid     hdwn simulate --config table2 --reps 50 --threads 2, in rounds
  highdim_calls  closed loop of ss/flm/pv/max/fc_test at H=3 on t(3) series
                 with p > n, one caller

The run starts five fresh interpreters. Four only set up; the fifth sets up
the same way and then runs the workload. Set-up time is the median of the
five. With --trace 0 the run prints the end-to-end metrics. With --trace 1
it replays the work layer by layer under spans and prints the per-layer
metrics. Outputs are checked against references recorded at the seed's
slot (record.py). The line before the result holds the environment block.
The full result, spans included, is written to perfbench/out/.

Nothing here sets a BLAS variable: the program runs with the thread settings
it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

#: Fresh interpreters that only set up, in every run; the workload process
#: adds one more sample. One import varies by almost a factor of two from
#: process to process.
SETUP_ONLY_SAMPLES = 4
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(W.SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(W.BENCH_DIR / "child.py"), *args],
        cwd=W.ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (W.SRC_DIR / "hdwn" / "__init__.py").is_file():
        print(f"error: no package source at {W.SRC_DIR / 'hdwn'}", file=sys.stderr)
        return 2
    slot = W.seed_slot(args.seed)
    if str(slot) not in W.load_reference(args.workload)["slots"]:
        print(f"error: no reference outputs for slot {slot}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    setups = [run_child(["setup", args.workload, str(slot)], deadline)
              for _ in range(SETUP_ONLY_SAMPLES)]
    if args.trace:
        result = run_child(["trace", args.workload, str(slot)], deadline)
    else:
        result = run_child(["run", args.workload, str(slot), str(args.seconds)], deadline)
    setups.append(result["setup"])

    values = dict(result["metrics"])
    if args.trace:
        values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        units = per_layer_units()
    else:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    W.OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "slot": slot,
              "seconds": args.seconds, "trace": args.trace, "env": result["env"],
              "setup": setups, "detail": result.get("detail"), **summary,
              "spans": result.get("spans", [])}
    out_file = W.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"env": result["env"], "detail": result.get("detail")}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
