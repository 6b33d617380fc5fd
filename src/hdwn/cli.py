"""Command-line surface: run tests on CSV data, run simulations, compute efficiencies.

Exit codes: 0 on success; 2 on usage errors, OSError and every HdwnError but
McRunError; 3 on McRunError (a cell over its error budget) and on any other
failure. --threads sets the simulation thread count, which changes no report.

`simulate` writes results.json as each section's label and config keys
beside its report's cells, and reports_from_dict rebuilds each config from
those keys through _build_config, the builder that read the config file;
README describes the layout. The CSV layouts are this module's alone:
_cmd_simulate builds the rows of results.csv, size_table.csv and
power_table.csv, and _write_csv writes them.

Config files are flat key=value INI files, one section per experiment cell;
keys in [DEFAULT] apply to every section. Recognized keys: tests, lags, alpha,
reps, scenario, df, mixture_gamma, mixture_scale, model, coeff, cov, n, p. The
optional ones set alpha and ScenarioSpec's df, gamma and scale_factor; absent
or empty, they pass nothing, so the spec's default holds. cov is identity
unless set, and model = h1 takes it as Sigma0: H1Spec(cov), whose radii come
from the scenario. The rest are required, but --reps stands in for reps and
only var1, vma1 and varma1 take coeff. A model's burn-in is its kind's
(dgp.BURN_IN). A spec refuses a key its kind does not read (coeff on iid, df
on normal), from [DEFAULT] too. Kind values (scenario, model, coeff, cov) are
case-insensitive. A bad value or refused cell exits 2 naming its section.

`are --dist KIND` takes the scenario keys as flags (--df, --mixture-gamma,
--mixture-scale) and builds the ScenarioSpec a cell with those keys builds,
defaults and refusals included; its efficiencies are those of the radii that
scenario draws (dgp._radial_law). --format json echoes the parameters used.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .core import _floats, _integer, _real
from .dgp import (
    CoeffSpec,
    CovarianceSpec,
    H1Spec,
    ModelKind,
    ModelSpec,
    ScenarioKind,
    ScenarioSpec,
    _radial_law,
    derive_seed,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    HdwnError,
    InvalidSpecError,
    McRunError,
)
from .montecarlo import McCell, McConfig, McReport, run_experiment
from .power_theory import are_ss_flm, radial_moments
from .stats_tests import TEST_NAMES, evaluate_tests

__all__ = ["entry", "main", "read_series_csv", "reports_from_dict"]

_PRESETS = ("table1", "table2")

_CONFIG_KEYS = {
    "tests", "lags", "alpha", "reps", "scenario", "df", "mixture_gamma",
    "mixture_scale", "model", "coeff", "cov", "n", "p",
}

#: The config keys that set ScenarioSpec's shape parameters, by field; `are` takes them as flags.
_SCENARIO_KEYS = {"df": "df", "mixture_gamma": "gamma", "mixture_scale": "scale_factor"}


def _fmt(x: float) -> str:
    """CSV number format with at least 12 significant digits."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV input


def read_series_csv(path) -> np.ndarray:
    """Read an n-by-p series from CSV, rows as time points, as a checked float array.

    A single leading header line is detected and skipped: a first line is one
    when a field of it is non-empty and not a number. Ragged or non-numeric
    rows, and an empty field, are reported with their 1-based line number.
    """
    rows: list[list[float]] = []
    header: list[str] | None = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            fields = [f.strip() for f in record]
            if not any(fields):
                continue
            if not rows and header is None and any(f and not _is_number(f) for f in fields):
                header = fields
                continue
            if rows and len(fields) != len(rows[0]):
                raise ConfigError(
                    f"{path}: line {lineno}: expected {len(rows[0])} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least 2 data rows, got {len(rows)}")
    if header is not None and len(header) != len(rows[0]):
        raise ConfigError(f"{path}: header has {len(header)} fields, data has {len(rows[0])}")
    return _floats(rows, f"{path}: data", ConfigError)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


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


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _check_keys(pairs) -> None:
    """Refuse every (label, key) pair whose key is not a config key, in one ConfigError."""
    if unknown := sorted(f"{label}.{key}" for label, key in pairs if key not in _CONFIG_KEYS):
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _build_config(label: str, keys: dict, seed: int, threads: int | None) -> McConfig:
    """The McConfig of one section, whose keys map its config keys to raw strings
    ([DEFAULT] resolved; reps may be an int); master_seed is derive_seed(seed, label).
    A bad value or a refused cell is a ConfigError naming the section."""
    def get(key, cast):
        # an absent or empty key, or a value cast refuses, is a ConfigError
        if (raw := keys.get(key)) is None or raw == "":
            raise ConfigError(f"[{label}] missing required key {key!r}")
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{label}] bad value for {key!r}: {raw!r}") from exc

    def optional(**names) -> dict:
        # {field: float(keys[key])} for each key=field set; others pass nothing
        return {field: get(key, float) for key, field in names.items() if keys.get(key)}

    try:
        n, p = get("n", int), get("p", int)
        model_kind = get("model", lambda raw: ModelKind(raw.lower()))
        regime = (keys.get("coeff") or "").lower()
        cov = CovarianceSpec((keys.get("cov") or "identity").lower(), p)
        h1 = H1Spec(cov) if model_kind is ModelKind.H1_SIGN else None
        return McConfig(
            tests=get("tests", _str_list),
            scenario=ScenarioSpec(get("scenario", str.lower), **optional(**_SCENARIO_KEYS)),
            model=ModelSpec(model_kind, coeff=CoeffSpec(regime, p) if regime else None, h1=h1),
            cov=cov,
            n=n,
            p=p,
            H_values=get("lags", lambda raw: tuple(map(int, _str_list(raw)))),
            reps=get("reps", int),
            master_seed=derive_seed(seed, label),
            threads=threads,
            label=label,
            **optional(alpha="alpha"),
        )
    except InvalidSpecError as exc:
        raise ConfigError(f"[{label}] {exc}") from exc


def _sections(text: str, reps_override: int | None) -> list[tuple[str, dict]]:
    """(label, key map) of each section of a config file, [DEFAULT] resolved and
    reps_override, if given, standing in for reps."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    # a section lists the [DEFAULT] keys too; report them once
    _check_keys((label, key) for label in ("DEFAULT", *parser.sections()) for key in parser[label]
                if label == "DEFAULT" or key not in parser.defaults())
    if not parser.sections():
        raise ConfigError("config defines no experiment sections")
    override = {} if reps_override is None else {"reps": str(reps_override)}
    return [(label, {**parser[label], **override}) for label in parser.sections()]


def parse_experiment_configs(text: str, *, seed: int, reps_override: int | None = None,
                             threads: int | None = None) -> list[McConfig]:
    """Build one McConfig per section; each section derives its own child seed."""
    return [_build_config(label, keys, seed, threads)
            for label, keys in _sections(text, reps_override)]


#: The keys of a report in results.json.
_REPORT_KEYS = ("label", "config", "cells", "wall_time_s", "coeff_fingerprint")


def reports_from_dict(doc) -> list[McReport]:
    """The McReports of a results.json document. Each config is rebuilt from its keys by
    the builder that reads config files, with master_seed derive_seed(doc["seed"], label)
    and threads None; its cells must be the config's (test, H) pairs in run_experiment's
    order, holding values a run of it gives. A fault is a ConfigError naming the report."""
    if not isinstance(doc, dict) or set(doc) != {"seed", "reports"}:
        raise ConfigError(f"results.json must be an object of seed and reports, got {doc!r}")
    seed = _integer(doc["seed"], "results.json seed", 0, ConfigError)
    if not isinstance(doc["reports"], list):
        raise ConfigError(f"results.json reports must be an array, got {doc['reports']!r}")
    reports = []
    for i, d in enumerate(doc["reports"]):
        if not isinstance(d, dict) or set(d) != set(_REPORT_KEYS):
            raise ConfigError(f"reports[{i}] must hold the keys {', '.join(_REPORT_KEYS)}; a "
                              "results.json written before reports stored their config keys "
                              "cannot be read, so rerun hdwn simulate")
        if not isinstance(label := d["label"], str):
            raise ConfigError(f"reports[{i}].label must be a string, got {label!r}")
        if not isinstance(keys := d["config"], dict):
            raise ConfigError(f"[{label}] config must be a JSON object, got {keys!r}")
        _check_keys((label, key) for key in keys)
        for key, raw in keys.items():
            if not (type(raw) is int if key == "reps" else isinstance(raw, str)):
                kind = "an integer" if key == "reps" else "a string"
                raise ConfigError(f"[{label}] config key {key!r} must be {kind}, got {raw!r}")
        cfg = _build_config(label, keys, seed, None)
        wall = _real(d["wall_time_s"], f"[{label}] wall_time_s", ConfigError)
        if wall < 0:
            raise ConfigError(f"[{label}] wall_time_s must be >= 0, got {wall!r}")
        reports.append(McReport(_checked_cells(label, d["cells"], cfg), cfg, wall,
                                d["coeff_fingerprint"]))
    return reports


def _checked_cells(label: str, cells, cfg: McConfig) -> tuple[McCell, ...]:
    """The McCells of a report's JSON cells: one per (test, H) pair of cfg in order, each
    with a rate in [0, 1], reps >= 1 and errors >= 0 summing to cfg.reps, and the mc_se
    run_experiment computes."""
    pairs = [(t, H) for t in cfg.tests for H in cfg.H_values]
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ConfigError(f"[{label}] cells must be an array of objects, got {cells!r}")
    if (got := [(c.get("test"), c.get("H")) for c in cells]) != pairs:
        raise ConfigError(f"[{label}] cells hold the (test, H) pairs {got}, expected {pairs}")
    checked = []
    for (test, H), c in zip(pairs, cells):
        where = f"[{label}] {test}@H{H}"
        if set(c) != set(McCell.__dataclass_fields__):
            raise ConfigError(f"{where} must hold the keys of an McCell, got {sorted(c)}")
        rate = _real(c["rejection_rate"], f"{where} rejection_rate", ConfigError)
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{where} rejection_rate must lie in [0, 1], got {rate!r}")
        reps = _integer(c["reps"], f"{where} reps", 1, ConfigError)
        errors = _integer(c["errors"], f"{where} errors", 0, ConfigError)
        if reps + errors != cfg.reps:
            raise ConfigError(f"{where} reps + errors is {reps + errors}, expected the config's "
                              f"reps {cfg.reps}")
        if c["mc_se"] != (se := math.sqrt(rate * (1.0 - rate) / reps)):
            raise ConfigError(f"{where} mc_se must be sqrt(rate * (1 - rate) / reps) = {se!r}, "
                              f"got {c['mc_se']!r}")
        checked.append(McCell(test, H, rate, se, reps, errors))
    return tuple(checked)


# ---------------------------------------------------------------------------
# Output writers


def _context(cfg: McConfig) -> dict:
    """The leading columns of every CSV: label, scenario, model (its kind and regime), n, p."""
    model = cfg.model.kind.value
    if isinstance(cfg.model.coeff, CoeffSpec):
        model += f"-{cfg.model.coeff.regime.value}"
    return {"label": cfg.label, "scenario": cfg.scenario.kind.value, "model": model,
            "n": cfg.n, "p": cfg.p}


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Rows of dicts as CSV. The columns are the union of the rows' keys in first-seen
    order; a key a row lacks writes "", and floats go through _fmt."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v := row.get(col, ""), float) else v
                             for col in columns])


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_test(args) -> int:
    X = read_series_csv(args.input)
    if np.all(X == X[0]):
        raise DegenerateDataError("series is constant over time; nothing to test")
    key = (args.test, args.lags)
    outcome = evaluate_tests(X, (args.test,), (args.lags,), args.alpha)[key]
    payload = {
        "test": args.test,
        "n": X.shape[0],
        "p": X.shape[1],
        "H": args.lags,
        **asdict(outcome),
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
    text = _resolve_config_path(args.config).read_text(encoding="utf-8")
    sections = _sections(text, args.reps)
    configs = [_build_config(label, keys, args.seed, args.threads) for label, keys in sections]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for cfg in configs:
        report = run_experiment(cfg)
        reports.append(report)
        rates = "  ".join(f"{c.test}@H{c.H}={c.rejection_rate:.3f}" for c in report.cells)
        print(f"[{cfg.label}] reps={cfg.reps} {rates}")

    _write_csv(out_dir / "results.csv",
               [{**_context(r.config), **asdict(cell)} for r in reports for cell in r.cells])
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        payload = {"seed": args.seed, "reports": [
            {"label": label, "config": {**keys, "reps": r.config.reps},
             "cells": [asdict(c) for c in r.cells], "wall_time_s": r.wall_time_s,
             "coeff_fingerprint": r.coeff_fingerprint}
            for (label, keys), r in zip(sections, reports)]}
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # one wide row per report, its rates by lag and then test; iid cells are sizes
    for name, iid in (("size_table.csv", True), ("power_table.csv", False)):
        rows = [{**_context(r.config), **{f"{t.upper()}_H{H}": r.cell(t, H).rejection_rate
                                          for H in r.config.H_values for t in r.config.tests}}
                for r in reports if (r.config.model.kind is ModelKind.IID) is iid]
        if rows:
            _write_csv(out_dir / name, rows)
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def _cmd_are(args) -> int:
    scenario = ScenarioSpec(args.dist, **{field: getattr(args, key)
                                          for key, field in _SCENARIO_KEYS.items()})
    law = _radial_law(scenario)
    value = are_ss_flm(law)
    payload = {"distribution": args.dist, "are_ss_flm": value}
    payload.update((key, getattr(scenario, field)) for key, field in _SCENARIO_KEYS.items()
                   if getattr(scenario, field) is not None)
    if args.p is not None:
        payload.update(p=args.p, **asdict(radial_moments(law, args.p)))
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
    p_are.add_argument("--dist", required=True, choices=[kind.value for kind in ScenarioKind])
    for key in _SCENARIO_KEYS:
        p_are.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key,
                           help=f"the config key {key}; its default if absent")
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
