"""Workload definitions shared by the runner, the child process and the recorder.

Nothing here imports hdwn: the runner must be able to start, and to refuse, in
a directory that holds no package source.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

#: The workload seed picks one of this many input sets; each has recorded
#: reference outputs in reference/<workload>.json.
SEED_SLOTS = 32

GRID_PRESETS = {"size_grid": "table1", "power_grid": "table2"}
WORKLOADS = ("size_grid", "power_grid", "highdim_calls")

#: One grid round is `hdwn simulate --config <preset> --reps 50 --threads 2`.
#: 50 reps keep a single flipped reject flag (0.02) inside the rate tolerance
#: and let a run hold at least MIN_ROUNDS rounds.
GRID_REPS = 50
MIN_ROUNDS = 5
GRID_THREADS = 2
RATE_TOL = 0.02

#: highdim_calls: t(3) series at p > n, the five public tests at H = 3. Three
#: series at (100, 400) and two at (60, 1000) put the median call inside one
#: call type instead of on the boundary between two.
CALL_TESTS = ("ss", "flm", "pv", "max", "fc")
CALL_H = 3
CALL_SHAPES = ((100, 400, 3), (60, 1000, 2))
CALL_DF = 3.0
#: At least this many calls per run, so ten lie beyond the 99th percentile;
#: throughput and the median are taken per window of CALL_WINDOW calls
#: (ten whole cycles) and reported as medians over windows.
MIN_CALLS = 1000
CALL_WINDOW = 250
REL_TOL = 1e-10
ABS_FLOOR = 1e-14

#: Monte Carlo cells that stand in for the grid on highdim_calls in the traced
#: run, so its montecarlo and cli layer metrics exist on every workload.
HIGHDIM_PROBE_CFG = """\
[DEFAULT]
tests = ss,flm,pv,max,fc
model = iid
cov = identity
scenario = t
df = 3
lags = 3
alpha = 0.05
reps = 100

[t-100-400]
n = 100
p = 400

[t-60-1000]
n = 60
p = 1000
"""


def seed_slot(seed: int) -> int:
    return seed % SEED_SLOTS


def preset_text(workload: str) -> str:
    """Config text of a workload's Monte Carlo cells, read from the package source."""
    if workload in GRID_PRESETS:
        path = SRC_DIR / "hdwn" / "presets" / f"{GRID_PRESETS[workload]}.cfg"
        return path.read_text(encoding="utf-8")
    return HIGHDIM_PROBE_CFG


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# highdim_calls inputs and checks


def highdim_series(slot: int) -> list:
    """The t(3) series of highdim_calls for one seed slot, in call order."""
    import numpy as np

    rng = np.random.default_rng([slot, 0x68647763])
    series = []
    for n, p, count in CALL_SHAPES:
        for _ in range(count):
            z = rng.standard_normal((n, p))
            w = rng.chisquare(CALL_DF, size=n)
            series.append(z / np.sqrt(w / CALL_DF)[:, None])
    return series


def call_cycle(n_series: int) -> list[tuple[int, str]]:
    return [(i, t) for i in range(n_series) for t in CALL_TESTS]


def outcome_triple(outcome) -> list:
    return [float(outcome.standardized), float(outcome.p_value), bool(outcome.reject)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b) + ABS_FLOOR


def call_matches(got: list, ref: list) -> bool:
    return _close(got[0], ref[0]) and _close(got[1], ref[1]) and got[2] == ref[2]


# ---------------------------------------------------------------------------
# grid outputs and checks


def read_results_csv(path: Path) -> tuple[str, dict[str, list]]:
    """(sha256 of the bytes, {"label|test|H": [rate, errors]}) of a results.csv."""
    raw = path.read_bytes()
    rows = {}
    for row in csv.DictReader(raw.decode("utf-8").splitlines()):
        key = f"{row['label']}|{row['test']}|{row['H']}"
        rows[key] = [float(row["rejection_rate"]), int(row["errors"])]
    return hashlib.sha256(raw).hexdigest(), rows


def grid_failures(rows: dict[str, list], ref_rates: dict[str, float], reps: int) -> int:
    """Replications of one round that fail the output check.

    A cell (one config section) whose rate for any (test, H) misses the
    reference by more than RATE_TOL, or is missing, fails all its reps;
    otherwise its errored reps fail.
    """
    per_label: dict[str, tuple[bool, int]] = {}
    for key, ref in ref_rates.items():
        label = key.split("|", 1)[0]
        missed, errored = per_label.get(label, (False, 0))
        got = rows.get(key)
        if got is None or abs(got[0] - ref) > RATE_TOL + 1e-12:
            missed = True
        else:
            errored = max(errored, got[1])
        per_label[label] = (missed, errored)
    return sum(reps if missed else errored for missed, errored in per_label.values())


# ---------------------------------------------------------------------------
# Computed work per op. Counts follow the shapes only, so they repeat exactly.


def kernel_work(n: int, p: int, H: int, tests) -> dict[str, tuple[float, float]]:
    """(flops, bytes) of each kernel that evaluating `tests` at lags 1..H runs.

    sign transform 5np flops over four n-by-p passes; each n-by-n Gram 2n^2 p;
    each lagged pair kernel about 3Hn^2 over three n-by-n blocks per lag; the
    cross-correlations 2Hnp^2 and an (H, p, p) result. Bytes are 8 per double
    read or written, ignoring cache reuse.
    """
    tests = set(tests)
    sign = bool(tests & {"ss", "pv"})
    raw = bool(tests & {"flm", "fc"})
    xcorr = bool(tests & {"max", "fc"})
    grams = int(sign) + int(raw)
    return {
        "core.sign_transform": (5.0 * n * p, 32.0 * n * p) if sign else (0.0, 0.0),
        "core.gram": (grams * 2.0 * n * n * p, grams * 8.0 * (n * p + n * n)),
        "stats_tests.pair_kernel": (grams * 3.0 * H * n * n, grams * 24.0 * H * n * n),
        "stats_tests.xcorr": (
            (2.0 * H * n * p * p, 8.0 * H * (2 * n * p + p * p)) if xcorr else (0.0, 0.0)
        ),
    }


def work_per_op(ops: list[tuple[int, int, int, tuple]]) -> dict[str, float]:
    """Mean computed flops and bytes per op over (n, p, H, tests) descriptions."""
    totals: dict[str, float] = {}
    for n, p, H, tests in ops:
        for kernel, (flops, nbytes) in kernel_work(n, p, H, tests).items():
            totals[f"{kernel}.flops_per_op"] = totals.get(f"{kernel}.flops_per_op", 0.0) + flops
            totals[f"{kernel}.bytes_per_op"] = totals.get(f"{kernel}.bytes_per_op", 0.0) + nbytes
    out = {k: v / len(ops) for k, v in totals.items()}
    for what in ("flops_per_op", "bytes_per_op"):
        out[f"stats_tests.{what}"] = math.fsum(v for k, v in out.items() if k.endswith(what))
    return out
