"""Command-line surface: run tests on CSV data, run simulations, compute efficiencies.

Exit codes: 0 on success, 2 on usage or input errors, 3 on internal numerical
failures. The HDWN_THREADS environment variable overrides the simulation
thread count unless --threads is given explicitly.

Config files are flat key=value INI files, one section per experiment cell;
keys in [DEFAULT] apply to every section. Recognized keys: tests, lags,
alpha, reps, scenario, df, mixture_gamma, mixture_scale, model, coeff,
burn_in, cov, n, p, threads.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SeriesMatrix, TestOutcome
from .dgp import (
    CoeffSpec,
    CovarianceSpec,
    ModelKind,
    ModelSpec,
    ScenarioKind,
    ScenarioSpec,
    derive_seed,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    ExplosiveModelError,
    InsufficientSampleError,
    InvalidInputError,
    InvalidLagError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    UndefinedMomentError,
)
from .montecarlo import (
    McCell,
    McConfig,
    McReport,
    _model_label,
    run_experiment,
    tabulate_reports,
)
from .power_theory import MixtureNormal, Normal, StudentT, are_ss_flm, radial_moments
from .stats_tests import fc_test, flm_test, max_test, pv_test, ss_test

__all__ = [
    "CsvSeries",
    "entry",
    "main",
    "outcome_from_dict",
    "outcome_to_dict",
    "read_series_csv",
    "report_from_dict",
    "report_to_dict",
]

_TEST_FUNCS = {
    "ss": ss_test,
    "flm": flm_test,
    "pv": pv_test,
    "max": max_test,
    "fc": fc_test,
}

_INPUT_ERRORS = (
    ConfigError,
    DegenerateDataError,
    ExplosiveModelError,
    InsufficientSampleError,
    InvalidInputError,
    InvalidLagError,
    InvalidSpecError,
    NotPositiveDefiniteError,
    UndefinedMomentError,
    OSError,
)

_PRESETS = ("table1", "table2")

_CONFIG_KEYS = {
    "tests", "lags", "alpha", "reps", "scenario", "df", "mixture_gamma",
    "mixture_scale", "model", "coeff", "burn_in", "cov", "n", "p", "threads",
}


def _fmt(x: float) -> str:
    """CSV number format with at least 12 significant digits."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV input


@dataclass(frozen=True)
class CsvSeries:
    """Parsed CSV: optional column names plus the numeric series."""

    header: tuple[str, ...] | None
    series: SeriesMatrix


def read_series_csv(path) -> CsvSeries:
    """Read an n-by-p series from CSV, rows as time points.

    A single leading header line is auto-detected (any non-numeric field).
    Ragged or non-numeric rows are reported with their 1-based line number.
    """
    rows: list[list[float]] = []
    header: tuple[str, ...] | None = None
    width: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not f.strip() for f in record):
                continue
            fields = [f.strip() for f in record]
            if width is None and header is None:
                try:
                    rows.append([float(f) for f in fields])
                    width = len(fields)
                except ValueError:
                    header = tuple(fields)
                continue
            if width is not None and len(fields) != width:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            if width is None:
                width = len(fields)
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if header is not None and len(header) != width:
        raise ConfigError(f"{path}: header has {len(header)} fields, data has {width}")
    arr = np.asarray(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: non-finite values in data")
    return CsvSeries(header, SeriesMatrix(arr))


# ---------------------------------------------------------------------------
# JSON schemas


def outcome_to_dict(outcome: TestOutcome) -> dict:
    return {
        "statistic": outcome.statistic,
        "standardized": outcome.standardized,
        "p_value": outcome.p_value,
        "reject": outcome.reject,
        "alpha": outcome.alpha,
        "nuisance": dict(outcome.nuisance),
    }


def outcome_from_dict(d: dict) -> TestOutcome:
    return TestOutcome(
        statistic=float(d["statistic"]),
        standardized=float(d["standardized"]),
        p_value=float(d["p_value"]),
        reject=bool(d["reject"]),
        alpha=float(d["alpha"]),
        nuisance={k: float(v) for k, v in d["nuisance"].items()},
    )


def _scenario_to_dict(s: ScenarioSpec) -> dict:
    return {"kind": s.kind.value, "df": s.df, "gamma": s.gamma, "scale_factor": s.scale_factor}


def _scenario_from_dict(d: dict) -> ScenarioSpec:
    return ScenarioSpec(ScenarioKind(d["kind"]), df=d["df"], gamma=d["gamma"],
                        scale_factor=d["scale_factor"])


def _model_to_dict(m: ModelSpec) -> dict:
    out: dict = {"kind": m.kind.value, "burn_in": m.burn_in}
    if isinstance(m.coeff, CoeffSpec):
        out["coeff"] = {
            "regime": m.coeff.regime.value, "p": m.coeff.p,
            "m": m.coeff.m, "low": m.coeff.low, "high": m.coeff.high,
        }
    elif m.coeff is not None:
        out["coeff"] = {"matrix": np.asarray(m.coeff).tolist()}
    else:
        out["coeff"] = None
    return out


def _model_from_dict(d: dict) -> ModelSpec:
    coeff = d["coeff"]
    if coeff is not None:
        if "matrix" in coeff:
            coeff = np.asarray(coeff["matrix"], dtype=float)
        else:
            coeff = CoeffSpec(coeff["regime"], coeff["p"], m=coeff["m"],
                              low=coeff["low"], high=coeff["high"])
    return ModelSpec(ModelKind(d["kind"]), coeff=coeff, burn_in=d["burn_in"])


def _config_to_dict(cfg: McConfig) -> dict:
    return {
        "tests": list(cfg.tests),
        "scenario": _scenario_to_dict(cfg.scenario),
        "model": _model_to_dict(cfg.model),
        "cov": {"kind": cfg.cov.kind.value, "p": cfg.cov.p},
        "n": cfg.n,
        "p": cfg.p,
        "H_values": list(cfg.H_values),
        "reps": cfg.reps,
        "master_seed": cfg.master_seed,
        "alpha": cfg.alpha,
        "threads": cfg.threads,
        "label": cfg.label,
    }


def _config_from_dict(d: dict) -> McConfig:
    return McConfig(
        tests=tuple(d["tests"]),
        scenario=_scenario_from_dict(d["scenario"]),
        model=_model_from_dict(d["model"]),
        cov=CovarianceSpec(d["cov"]["kind"], d["cov"]["p"]),
        n=int(d["n"]),
        p=int(d["p"]),
        H_values=tuple(d["H_values"]),
        reps=int(d["reps"]),
        master_seed=int(d["master_seed"]),
        alpha=float(d["alpha"]),
        threads=d["threads"],
        label=d["label"],
    )


def report_to_dict(report: McReport) -> dict:
    return {
        "config": _config_to_dict(report.config),
        "wall_time_s": report.wall_time_s,
        "coeff_fingerprint": report.coeff_fingerprint,
        "cells": [
            {
                "test": c.test, "H": c.H, "rejection_rate": c.rejection_rate,
                "mc_se": c.mc_se, "reps": c.reps, "errors": c.errors,
            }
            for c in report.cells
        ],
    }


def report_from_dict(d: dict) -> McReport:
    cells = tuple(
        McCell(c["test"], int(c["H"]), float(c["rejection_rate"]), float(c["mc_se"]),
               int(c["reps"]), int(c["errors"]))
        for c in d["cells"]
    )
    return McReport(
        cells=cells,
        config=_config_from_dict(d["config"]),
        wall_time_s=float(d["wall_time_s"]),
        coeff_fingerprint=d["coeff_fingerprint"],
    )


# ---------------------------------------------------------------------------
# Config files


def _resolve_config_path(name: str):
    """Path or packaged resource for a config name; presets resolve first."""
    if name in _PRESETS:
        return resources.files("hdwn").joinpath(f"presets/{name}.cfg")
    path = Path(name)
    if not path.exists():
        raise ConfigError(
            f"config {name!r} not found (presets: {', '.join(_PRESETS)})"
        )
    return path


def _get(section, key, cast, label):
    raw = section.get(key)
    if raw is None:
        raise ConfigError(f"[{label}] missing required key {key!r}")
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{label}] bad value for {key!r}: {raw!r}") from exc


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in raw.split(",") if tok.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def parse_experiment_configs(text: str, *, seed: int, reps_override: int | None = None,
                             threads: int | None = None) -> list[McConfig]:
    """Build one McConfig per section; each section derives its own child seed."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    unknown = []
    for label in ("DEFAULT", *parser.sections()):
        section = parser.defaults() if label == "DEFAULT" else parser[label]
        for key in section:
            if key not in _CONFIG_KEYS:
                unknown.append(f"{label}.{key}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if not parser.sections():
        raise ConfigError("config defines no experiment sections")

    configs = []
    for label in parser.sections():
        section = parser[label]
        n = _get(section, "n", int, label)
        p = _get(section, "p", int, label)

        kind = _get(section, "scenario", str, label).lower()
        try:
            scen_kind = ScenarioKind(kind)
        except ValueError:
            raise ConfigError(f"[{label}] unknown scenario {kind!r}") from None
        scenario = ScenarioSpec(
            scen_kind,
            df=float(section.get("df", 3.0)),
            gamma=float(section.get("mixture_gamma", 0.8)),
            scale_factor=float(section.get("mixture_scale", 9.0)),
        )

        model_name = _get(section, "model", str, label).lower()
        try:
            model_kind = ModelKind(model_name)
        except ValueError:
            raise ConfigError(f"[{label}] unknown model {model_name!r}") from None
        if model_kind is ModelKind.H1_SIGN:
            raise ConfigError(f"[{label}] the h1 model is not configurable from files")
        burn_in = int(section["burn_in"]) if section.get("burn_in") else None
        coeff = None
        if model_kind is not ModelKind.IID:
            regime = _get(section, "coeff", str, label).lower()
            if regime not in ("dense", "sparse"):
                raise ConfigError(f"[{label}] coeff must be dense or sparse, got {regime!r}")
            coeff = CoeffSpec(regime, p)
        model = ModelSpec(model_kind, coeff=coeff, burn_in=burn_in)

        cov_name = section.get("cov", "identity").lower()
        if cov_name not in ("identity", "polydecay"):
            raise ConfigError(f"[{label}] cov must be identity or polydecay, got {cov_name!r}")

        reps = reps_override if reps_override is not None else _get(section, "reps", int, label)
        section_threads = threads
        if section_threads is None and section.get("threads"):
            section_threads = int(section["threads"])

        try:
            configs.append(
                McConfig(
                    tests=_get(section, "tests", _str_list, label),
                    scenario=scenario,
                    model=model,
                    cov=CovarianceSpec(cov_name, p),
                    n=n,
                    p=p,
                    H_values=_get(section, "lags", _int_list, label),
                    reps=reps,
                    master_seed=derive_seed(seed, label),
                    alpha=float(section.get("alpha", 0.05)),
                    threads=section_threads,
                    label=label,
                )
            )
        except InvalidSpecError as exc:
            raise ConfigError(f"[{label}] {exc}") from exc
    return configs


# ---------------------------------------------------------------------------
# Output writers


def _write_table_csv(path: Path, table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(
                [
                    _fmt(row[col]) if isinstance(row.get(col), float) else row.get(col, "")
                    for col in table.columns
                ]
            )


def _write_results_csv(path: Path, reports: list[McReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "scenario", "model", "n", "p", "test", "H",
             "rejection_rate", "mc_se", "reps", "errors"]
        )
        for report in reports:
            cfg = report.config
            model = _model_label(cfg)
            for cell in report.cells:
                writer.writerow(
                    [cfg.label, cfg.scenario.kind.value, model, cfg.n, cfg.p,
                     cell.test, cell.H, _fmt(cell.rejection_rate), _fmt(cell.mc_se),
                     cell.reps, cell.errors]
                )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_test(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {args.alpha}")
    if args.lags < 1:
        raise InvalidLagError(f"lags must be >= 1, got {args.lags}")
    parsed = read_series_csv(args.input)
    if np.all(parsed.series.data == parsed.series.data[0]):
        raise DegenerateDataError("series is constant over time; nothing to test")
    outcome = _TEST_FUNCS[args.test](parsed.series, args.lags, args.alpha)
    payload = {
        "test": args.test,
        "n": parsed.series.n,
        "p": parsed.series.p,
        "H": args.lags,
        **outcome_to_dict(outcome),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in ("test", "n", "p", "H", "alpha", "statistic", "standardized", "p_value"):
            print(f"{key}: {payload[key]}")
        print(f"reject: {str(payload['reject']).lower()}")
        for name in sorted(payload["nuisance"]):
            print(f"nuisance.{name}: {payload['nuisance'][name]}")
    return 0


def _cmd_simulate(args) -> int:
    if args.reps is not None and args.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {args.reps}")
    threads = args.threads
    if threads is None:
        env = os.environ.get("HDWN_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(f"HDWN_THREADS must be an integer, got {env!r}") from None
    source = _resolve_config_path(args.config)
    text = source.read_text(encoding="utf-8")
    configs = parse_experiment_configs(
        text, seed=args.seed, reps_override=args.reps, threads=threads
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for cfg in configs:
        report = run_experiment(cfg)
        reports.append(report)
        rates = "  ".join(
            f"{c.test}@H{c.H}={c.rejection_rate:.3f}" for c in report.cells
        )
        print(f"[{cfg.label}] reps={cfg.reps} {rates}")

    _write_results_csv(out_dir / "results.csv", reports)
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"seed": args.seed, "reports": [report_to_dict(r) for r in reports]},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")

    null_reports = [r for r in reports if r.config.model.kind is ModelKind.IID]
    alt_reports = [r for r in reports if r.config.model.kind is not ModelKind.IID]
    if null_reports:
        _write_table_csv(out_dir / "size_table.csv", tabulate_reports(null_reports))
    if alt_reports:
        _write_table_csv(out_dir / "power_table.csv", tabulate_reports(alt_reports))
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def _cmd_are(args) -> int:
    if args.dist == "normal":
        dist = Normal()
    elif args.dist == "t":
        if args.df is None:
            raise InvalidInputError("--dist t needs --df")
        dist = StudentT(args.df)
    else:
        if args.gamma is None or args.sigma is None:
            raise InvalidInputError("--dist mixture needs --gamma and --sigma")
        dist = MixtureNormal(args.gamma, args.sigma)
    value = are_ss_flm(dist)
    payload: dict = {"distribution": args.dist, "are_ss_flm": value}
    if args.df is not None:
        payload["df"] = args.df
    if args.gamma is not None:
        payload["gamma"] = args.gamma
    if args.sigma is not None:
        payload["sigma"] = args.sigma
    if args.p is not None:
        moments = radial_moments(dist, args.p)
        payload["p"] = args.p
        payload["e_r_inv"] = moments.e_r_inv
        payload["e_r2"] = moments.e_r2
        payload["c1"] = moments.c1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"are_ss_flm: {value:.6f}")
        if args.p is not None:
            print(f"e_r_inv: {payload['e_r_inv']:.6g}")
            print(f"e_r2: {payload['e_r2']:.6g}")
            print(f"c1: {payload['c1']:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdwn",
        description="High-dimensional white-noise tests, simulations, and efficiencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one test on a CSV series")
    p_test.add_argument("--input", required=True, help="CSV file, rows are time points")
    p_test.add_argument("--test", required=True, choices=sorted(_TEST_FUNCS))
    p_test.add_argument("--lags", type=int, default=1, help="lag window H")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--format", choices=("text", "json"), default="text")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment grid")
    p_sim.add_argument("--config", required=True,
                       help=f"config file path or preset ({', '.join(_PRESETS)})")
    p_sim.add_argument("--reps", type=int, default=None, help="override reps per cell")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_are = sub.add_parser("are", help="asymptotic relative efficiency of ss vs flm")
    p_are.add_argument("--dist", required=True, choices=("normal", "t", "mixture"))
    p_are.add_argument("--df", type=float, default=None, help="degrees of freedom for t")
    p_are.add_argument("--gamma", type=float, default=None,
                       help="mixture weight of the inflated component")
    p_are.add_argument("--sigma", type=float, default=None,
                       help="mixture standard-deviation multiplier")
    p_are.add_argument("--p", type=int, default=None, help="also report finite-p moments")
    p_are.add_argument("--format", choices=("text", "json"), default="text")
    p_are.set_defaults(func=_cmd_are)
    return parser


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
