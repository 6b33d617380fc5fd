"""Command-line surface: run tests on CSV data, run simulations, compute efficiencies.

Exit codes: 0 on success; 2 on usage errors, OSError and every HdwnError but
McRunError; 3 on McRunError (a cell over its error budget) and on any other
failure. The HDWN_THREADS environment variable overrides the simulation
thread count unless --threads is given explicitly.

`simulate` writes each McReport to results.json as the dict of its dataclass
fields, through one codec (_encode/_decode); README describes the layout.

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
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SeriesMatrix, TestOutcome
from .dgp import (
    CoeffSpec,
    CovarianceSpec,
    H1Spec,
    ModelKind,
    ModelSpec,
    ScenarioKind,
    ScenarioSpec,
    derive_seed,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    HdwnError,
    InvalidInputError,
    InvalidSpecError,
    McRunError,
)
from .montecarlo import (
    McCell,
    McConfig,
    McReport,
    McTable,
    context_row,
    run_experiment,
    tabulate_reports,
)
from .power_theory import MixtureNormal, Normal, StudentT, are_ss_flm, radial_moments
from .stats_tests import TEST_NAMES, evaluate_tests

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


def _encode(obj):
    """JSON form of a result, with each dataclass as the dict of its fields.

    Enums go by value, tuples as lists, an explicit array as {"matrix": rows};
    a field holding a function (a custom radial sampler) raises InvalidSpecError.
    """
    if is_dataclass(obj):
        for f in fields(obj):
            if callable(getattr(obj, f.name)):
                raise InvalidSpecError(
                    f"{type(obj).__name__}.{f.name} holds a function; JSON cannot store it")
        return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"matrix": obj.tolist()}
    return obj


#: Fields that hold dataclasses, by owner. _decode passes every other field, and
#: the rows of an explicit matrix, to the constructor, which restores their types.
_NESTED = {
    McReport: {"cells": McCell, "config": McConfig},
    McConfig: {"scenario": ScenarioSpec, "model": ModelSpec, "cov": CovarianceSpec},
    ModelSpec: {"coeff": CoeffSpec, "h1": H1Spec},
    H1Spec: {"sigma0": CovarianceSpec},
}


def _decode(cls, d: dict):
    """Inverse of _encode for a dict that came from an instance of cls."""
    nested = _NESTED.get(cls, {})
    kwargs = {}
    for name, value in d.items():
        inner = nested.get(name)
        if inner is None or value is None:
            kwargs[name] = value
        elif isinstance(value, list):
            kwargs[name] = tuple(_decode(inner, v) for v in value)
        elif "matrix" in value:
            kwargs[name] = value["matrix"]
        else:
            kwargs[name] = _decode(inner, value)
    return cls(**kwargs)


def outcome_to_dict(outcome: TestOutcome) -> dict:
    return _encode(outcome)


def outcome_from_dict(d: dict) -> TestOutcome:
    return _decode(TestOutcome, d)


def report_to_dict(report: McReport) -> dict:
    return _encode(report)


def report_from_dict(d: dict) -> McReport:
    return _decode(McReport, d)


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
    rows = [{**context_row(report.config), **asdict(cell)}
            for report in reports for cell in report.cells]
    _write_table_csv(path, McTable(tuple(rows[0]), tuple(rows)))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_test(args) -> int:
    parsed = read_series_csv(args.input)
    if np.all(parsed.series.data == parsed.series.data[0]):
        raise DegenerateDataError("series is constant over time; nothing to test")
    key = (args.test, args.lags)
    outcome = evaluate_tests(parsed.series, (args.test,), (args.lags,), args.alpha)[key]
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
    payload = {"distribution": args.dist, "are_ss_flm": value}
    for key in ("df", "gamma", "sigma"):
        if getattr(args, key) is not None:
            payload[key] = getattr(args, key)
    if args.p is not None:
        payload.update(p=args.p, **_encode(radial_moments(dist, args.p)))
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
    p_test.add_argument("--test", required=True, choices=TEST_NAMES)
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
    except Exception as exc:
        # a run over its error budget counts as internal, like a numerical failure
        internal = isinstance(exc, McRunError) or not isinstance(exc, (HdwnError, OSError))
        print(f"{'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return 3 if internal else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
