"""One benchmark process: runs in a fresh interpreter started by run.py.

    python3 perfbench/child.py setup  <workload> <slot>
    python3 perfbench/child.py run    <workload> <slot> <seconds>
    python3 perfbench/child.py trace  <workload> <slot>
    python3 perfbench/child.py record <workload> <slot>

The last line of standard output is one JSON object. hdwn is imported from
the checkout's src/ directory and driven through its public calls only.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

#: Grid replications replayed stage by stage in the traced run; 56 per cell
#: gives 1008 replications, so at least ten lie beyond the 99th percentile.
TRACE_REPS = {"size_grid": 56, "power_grid": 56, "highdim_calls": 30}
#: Replays every Nth replication also through the five single-test calls.
TRACE_CALLS_EVERY = {"size_grid": 4, "power_grid": 4, "highdim_calls": 0}
#: Reps per cell of the threads=1 against threads=2 comparison.
SPEEDUP_REPS = 20
#: Series per missing model kind in the generator probe, at the table2 shape.
DGP_PROBE = 16
DGP_PROBE_SHAPE = (200, 80)


def _import_hdwn():
    sys.path.insert(0, str(W.SRC_DIR))
    import hdwn
    import hdwn.cli

    if Path(hdwn.__file__).resolve().parent != W.SRC_DIR / "hdwn":
        raise SystemExit(f"hdwn imported from {hdwn.__file__}, not from {W.SRC_DIR}")
    return hdwn


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values) -> float:
    return _percentile(values, 50.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(executor_threads: int) -> dict:
    """Machine and library facts that change what the timings mean."""
    import ctypes

    import numpy
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads": None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "executor_threads": executor_threads,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        get_config = lib.scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        env["blas_threads"] = int(get_threads())
        env["openblas"] = get_config().decode("utf-8", "replace")
    return env


# ---------------------------------------------------------------------------
# set-up


def cmd_setup(workload: str, slot: int) -> dict:
    t0 = time.perf_counter()
    hdwn = _import_hdwn()
    t1 = time.perf_counter()
    if workload in W.GRID_PRESETS:
        hdwn.cli.parse_experiment_configs(
            W.preset_text(workload), seed=slot, reps_override=W.GRID_REPS,
            threads=W.GRID_THREADS,
        )
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0}


# ---------------------------------------------------------------------------
# grids


def grid_round(hdwn, workload: str, slot: int, argv_extra=(), config=None) -> dict:
    """One `hdwn simulate` through cli.main; wall time, per-cell times and results."""
    W.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=W.OUT_DIR) as tmp:
        out = Path(tmp)
        argv = ["simulate", "--config", config or W.GRID_PRESETS[workload],
                "--seed", str(slot), "--threads", str(W.GRID_THREADS),
                "--out", str(out), *argv_extra]
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = hdwn.cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            return {"ok": False, "wall": wall}
        with open(out / "results.json", encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        sha, rows = W.read_results_csv(out / "results.csv")
    return {
        "ok": True,
        "wall": wall,
        "cells": [(r["wall_time_s"], r["config"]["reps"]) for r in reports],
        "sha256": sha,
        "rows": rows,
    }


def _grid_check(rnd: dict, ref: dict, ops: int) -> tuple[int, bool]:
    """(failed reps, results.csv byte-identical) of one round against its reference."""
    if not rnd["ok"]:
        return ops, False
    failed = W.grid_failures(rnd["rows"], ref["rates"], W.GRID_REPS)
    return failed, rnd["sha256"] == ref["sha256"]


def cmd_run_grid(hdwn, workload: str, slot: int, seconds: float) -> dict:
    """Simulate rounds until `seconds` have passed and at least MIN_ROUNDS ran.

    Throughput is the median over rounds. A replication's latency is its
    cell's wall time per rep, amortized; each cell's value is the median over
    rounds, and the percentiles are taken over the replications of one round.
    """
    ref = W.load_reference(workload)["slots"][str(slot)]
    ops_per_round = len(ref["labels"]) * W.GRID_REPS
    rounds = []
    start = time.perf_counter()
    while len(rounds) < W.MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(grid_round(hdwn, workload, slot, ("--reps", str(W.GRID_REPS))))
    failed = identical = 0
    rates, cell_ms = [], {}
    for rnd in rounds:
        f, same = _grid_check(rnd, ref, ops_per_round)
        failed += f
        identical += same
        if rnd["ok"]:
            rates.append(ops_per_round / rnd["wall"])
            for cell, (wall, reps) in enumerate(rnd["cells"]):
                cell_ms.setdefault(cell, []).append(1000.0 * wall / reps)
    metrics = {}
    if rates:
        lat_ms = [_median(v) for v in cell_ms.values() for _ in range(W.GRID_REPS)]
        metrics = {"ops_per_s": _median(rates), "op_ms_p50": _percentile(lat_ms, 50.0),
                   "op_ms_p99": _percentile(lat_ms, 99.0), "peak_rss_mb": _peak_rss_mb()}
    return {
        "attempted": ops_per_round * len(rounds),
        "failed": failed,
        "metrics": metrics,
        "detail": {"rounds": len(rounds), "csv_identical": identical,
                   "round_wall_s": [r["wall"] for r in rounds]},
    }


# ---------------------------------------------------------------------------
# highdim_calls


def call_loop(hdwn, slot: int, seconds: float, min_calls: int, tracer=None) -> dict:
    """Closed loop, one caller: the five public tests over the seed's series.

    Two untimed cycles warm the allocator up first. Calls then come in
    windows of CALL_WINDOW until `seconds` have passed and at least
    `min_calls` were made.
    """
    series = W.highdim_series(slot)
    cycle = W.call_cycle(len(series))
    funcs = {t: getattr(hdwn, f"{t}_test") for t in W.CALL_TESTS}
    span = tracer.span if tracer else lambda name, rep: nullcontext()
    for s, test in cycle * 2:
        funcs[test](series[s], W.CALL_H)
    latencies, results, window_walls = [], [], []
    start = time.perf_counter()
    while len(results) < min_calls or time.perf_counter() - start < seconds:
        window_start = time.perf_counter()
        for _ in range(W.CALL_WINDOW):
            i = len(results)
            s, test = cycle[i % len(cycle)]
            t0 = time.perf_counter()
            try:
                with span(f"stats_tests.call.{test}", i):
                    out = funcs[test](series[s], W.CALL_H)
                got = W.outcome_triple(out)
            except Exception as exc:  # a failed call is counted, not fatal
                got = repr(exc)
            latencies.append(time.perf_counter() - t0)
            results.append(got)
        window_walls.append(time.perf_counter() - window_start)
    return {"latencies": latencies, "results": results, "window_walls": window_walls}


def _calls_check(loop: dict, ref_calls: list) -> tuple[int, int]:
    """(failed calls, bit-identical calls) against the reference outputs."""
    failed = identical = 0
    for i, got in enumerate(loop["results"]):
        ref = ref_calls[i % len(ref_calls)]
        if not isinstance(got, list) or not W.call_matches(got, ref):
            failed += 1
        elif got == ref:
            identical += 1
    return failed, identical


def cmd_run_calls(hdwn, slot: int, seconds: float) -> dict:
    ref = W.load_reference("highdim_calls")["slots"][str(slot)]
    loop = call_loop(hdwn, slot, seconds, W.MIN_CALLS)
    failed, identical = _calls_check(loop, ref["calls"])
    lat_ms = [1000.0 * x for x in loop["latencies"]]
    windows = [
        (W.CALL_WINDOW / wall,
         _percentile(lat_ms[k * W.CALL_WINDOW:(k + 1) * W.CALL_WINDOW], 50.0))
        for k, wall in enumerate(loop["window_walls"])
    ]
    return {
        "attempted": len(lat_ms),
        "failed": failed,
        "metrics": {
            "ops_per_s": _median([w[0] for w in windows]),
            "op_ms_p50": _median([w[1] for w in windows]),
            "op_ms_p99": _percentile(lat_ms, 99.0),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "detail": {"windows": len(windows), "csv_identical": identical},
    }


# ---------------------------------------------------------------------------
# traced run


def _write_config(text: str) -> Path:
    W.OUT_DIR.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(suffix=".cfg", dir=W.OUT_DIR)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Path(name)


def _resolved(hdwn, cfg):
    """The config's model with its coefficient matrix fixed, as run_experiment fixes it."""
    from hdwn.dgp import resolve_coeff

    model = cfg.model
    if model.coeff is not None:
        model = replace(model, coeff=resolve_coeff(model, hdwn.derive_rng(cfg.master_seed, "coeff")))
    return model


def replay(hdwn, tracer, configs, reps: int, calls_every: int) -> dict:
    """Replay replications stage by stage with a span around every layer call.

    Each replication is one `montecarlo.rep` span holding its generation and
    its shared evaluation, as in run_experiment. The stages of that
    evaluation are then replayed as separate spans on the same series. Every
    fourth replication also runs once untraced, for the tracing overhead.
    """
    errored = 0
    traced_s = untraced_s = 0.0
    rep_id = 0
    for cfg in configs:
        model = _resolved(hdwn, cfg)
        innov_cov = hdwn.build_covariance(cfg.cov)
        H_max = max(cfg.H_values)
        gen_name = f"dgp.gen_series.{model.kind.value}"

        def generate(r):
            rng = hdwn.derive_rng(cfg.master_seed, "rep", r)
            return hdwn.gen_series(model, cfg.scenario, cfg.n, cfg.p, rng, innov_cov=innov_cov)

        def untraced(r):
            t0 = time.perf_counter()
            hdwn.evaluate_tests_collect(generate(r), cfg.tests, cfg.H_values, cfg.alpha)
            return time.perf_counter() - t0

        for r in range(reps):
            # alternate which copy runs first, so neither gets the warm caches
            untraced_before, untraced_after = r % 8 == 0, r % 8 == 4
            if untraced_before:
                untraced_s += untraced(r)
            with tracer.span("montecarlo.rep", rep_id):
                with tracer.span(gen_name, rep_id):
                    series = generate(r)
                with tracer.span("stats_tests.evaluate", rep_id):
                    _, errors = hdwn.evaluate_tests_collect(
                        series, cfg.tests, cfg.H_values, cfg.alpha)
            if untraced_before or untraced_after:
                _, _, start, end, _, _ = tracer.spans[-1]
                traced_s += end - start
            if untraced_after:
                untraced_s += untraced(r)
            errored += bool(errors)
            with tracer.span("core.sign_transform", rep_id):
                signs = hdwn.sign_transform(series)
            with tracer.span("core.gram", rep_id):
                hdwn.trace_omega2_hat(signs)
            with tracer.span("stats_tests.ss_statistic", rep_id):
                hdwn.ss_statistic(signs, H_max)
            with tracer.span("stats_tests.flm_statistic", rep_id):
                hdwn.flm_statistic(series, H_max)
            with tracer.span("stats_tests.xcorr", rep_id):
                hdwn.cross_correlations(series, H_max)
            if calls_every and r % calls_every == 0:
                for test in W.CALL_TESTS:
                    with tracer.span(f"stats_tests.call.{test}", rep_id):
                        try:
                            getattr(hdwn, f"{test}_test")(series, H_max, cfg.alpha)
                        except hdwn.HdwnError:
                            pass
            rep_id += 1
    return {"errored": errored, "traced_s": traced_s, "untraced_s": untraced_s}


def dgp_probe(hdwn, tracer, slot: int, kinds) -> None:
    """Time the generator for model kinds that the workload's cells do not use."""
    n, p = DGP_PROBE_SHAPE
    scenario = hdwn.ScenarioSpec.student_t(3)
    for kind in kinds:
        coeff = None
        if kind != "iid":
            coeff = hdwn.gen_coeff(hdwn.CoeffSpec("dense", p), hdwn.derive_rng(slot, "coeff"))
        model = hdwn.ModelSpec(kind, coeff=coeff)
        for i in range(DGP_PROBE):
            rng = hdwn.derive_rng(slot, "probe", i)
            with tracer.span(f"dgp.gen_series.{kind}"):
                hdwn.gen_series(model, scenario, n, p, rng)


def cmd_trace(hdwn, workload: str, slot: int) -> dict:
    import hdwn.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    origin = time.perf_counter()
    ref = W.load_reference(workload)["slots"][str(slot)]
    text = W.preset_text(workload)

    # the workload's own op, traced once, with its output check
    if workload in W.GRID_PRESETS:
        with tracer.span("cli.simulate"):
            rnd = grid_round(hdwn, workload, slot, ("--reps", str(W.GRID_REPS)))
        attempted = len(ref["labels"]) * W.GRID_REPS
        failed, identical = _grid_check(rnd, ref, attempted)
        identical = int(identical)
        sim = rnd
    else:
        loop = call_loop(hdwn, slot, 0.0, W.MIN_CALLS, tracer)
        attempted = len(loop["results"])
        failed, identical = _calls_check(loop, ref["calls"])
        cfg_path = _write_config(text)
        try:
            with tracer.span("cli.simulate"):
                sim = grid_round(hdwn, workload, slot, ("--reps", str(SPEEDUP_REPS)),
                                 config=str(cfg_path))
        finally:
            cfg_path.unlink()
    overhead_s = sim["wall"] - sum(w for w, _ in sim.get("cells", ()))

    # executor threads: same cells, same reps, threads=1 then threads=2
    configs = cli.parse_experiment_configs(text, seed=slot, reps_override=SPEEDUP_REPS)
    walls = {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        for cfg in configs:
            with tracer.span("montecarlo.run_experiment"):
                hdwn.run_experiment(replace(cfg, threads=threads))
        walls[threads] = time.perf_counter() - t0

    configs = cli.parse_experiment_configs(text, seed=slot, reps_override=TRACE_REPS[workload])
    rep_stats = replay(hdwn, tracer, configs, TRACE_REPS[workload],
                       TRACE_CALLS_EVERY[workload])
    present = {cfg.model.kind.value for cfg in configs}
    dgp_probe(hdwn, tracer, slot, [k for k in ("iid", "var1", "vma1", "varma1")
                                   if k not in present])

    def ms(name):
        return [1000.0 * d for d in tracer.durations(name)]

    def mean_ms(name):
        return statistics.fmean(ms(name))

    gen_all = [d for kind in present for d in ms(f"dgp.gen_series.{kind}")]
    rep_ms = ms("montecarlo.rep")
    stages = ("core.sign_transform", "stats_tests.ss_statistic",
              "stats_tests.flm_statistic", "stats_tests.xcorr")
    metrics = {
        "cli.overhead_s": overhead_s,
        "dgp.gen_series_ms": statistics.fmean(gen_all),
        "core.sign_transform_ms": mean_ms("core.sign_transform"),
        "core.gram_ms": mean_ms("core.gram"),
        "stats_tests.pair_kernel_ms": (mean_ms("stats_tests.ss_statistic")
                                       - mean_ms("core.gram")),
        "stats_tests.xcorr_ms": mean_ms("stats_tests.xcorr"),
        "stats_tests.evaluate_ms": mean_ms("stats_tests.evaluate"),
        "stats_tests.glue_ms": (mean_ms("stats_tests.evaluate")
                                - math.fsum(mean_ms(name) for name in stages)),
        # means add up, so this one checks gen_series_ms + evaluate_ms
        "montecarlo.rep_ms_mean": statistics.fmean(rep_ms),
        "montecarlo.rep_ms_p50": _percentile(rep_ms, 50.0),
        "montecarlo.rep_ms_p99": _percentile(rep_ms, 99.0),
        "montecarlo.thread_speedup": walls[1] / walls[2],
        "montecarlo.errored_reps": rep_stats["errored"],
        "trace.overhead_frac": rep_stats["traced_s"] / rep_stats["untraced_s"] - 1.0,
        "check.csv_identical": identical,
    }
    for kind in ("iid", "var1", "vma1", "varma1"):
        metrics[f"dgp.gen_series_ms.{kind}"] = _median(ms(f"dgp.gen_series.{kind}"))
    for test in W.CALL_TESTS:
        metrics[f"stats_tests.call_ms.{test}"] = mean_ms(f"stats_tests.call.{test}")
    self_s = tracer.self_seconds_by_layer()
    for layer in ("cli", "montecarlo", "dgp", "core", "stats_tests"):
        metrics[f"trace.self_s.{layer}"] = self_s.get(layer, 0.0)
    metrics.update(W.work_per_op(op_shapes(workload, hdwn)))

    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": tracer.as_records(origin),
        "detail": {"replayed_reps": len(rep_ms), "threads_wall_s": walls},
    }


def op_shapes(workload: str, hdwn) -> list[tuple]:
    """(n, p, H, tests) of every op in one pass over the workload."""
    if workload in W.GRID_PRESETS:
        configs = hdwn.cli.parse_experiment_configs(W.preset_text(workload), seed=0)
        return [(c.n, c.p, max(c.H_values), c.tests) for c in configs]
    shapes = [(n, p) for n, p, count in W.CALL_SHAPES for _ in range(count)]
    return [(*shapes[s], W.CALL_H, (test,)) for s, test in W.call_cycle(len(shapes))]


# ---------------------------------------------------------------------------
# reference recording


def cmd_record(hdwn, workload: str, slot: int) -> dict:
    if workload in W.GRID_PRESETS:
        rnd = grid_round(hdwn, workload, slot, ("--reps", str(W.GRID_REPS)))
        if not rnd["ok"]:
            raise SystemExit(f"simulate failed for {workload} slot {slot}")
        labels = sorted({key.split("|", 1)[0] for key in rnd["rows"]})
        return {"sha256": rnd["sha256"], "labels": labels,
                "rates": {k: v[0] for k, v in rnd["rows"].items()}}
    loop = call_loop(hdwn, slot, 0.0, 1)
    return {"calls": loop["results"][:len(W.call_cycle(len(W.highdim_series(slot))))]}


def main(argv) -> int:
    mode, workload, slot = argv[0], argv[1], int(argv[2])
    if workload not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    setup = cmd_setup(workload, slot)
    if mode == "setup":
        result = setup
    else:
        hdwn = _import_hdwn()
        if mode == "record":
            result = cmd_record(hdwn, workload, slot)
        else:
            if mode == "trace":
                result = cmd_trace(hdwn, workload, slot)
            elif workload in W.GRID_PRESETS:
                result = cmd_run_grid(hdwn, workload, slot, float(argv[3]))
            else:
                result = cmd_run_calls(hdwn, slot, float(argv[3]))
            threads = W.GRID_THREADS if workload in W.GRID_PRESETS else 1
            result["env"] = environment(threads)
            result["setup"] = setup
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
