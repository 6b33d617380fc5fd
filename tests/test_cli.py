"""Command-line surface: parsing, exit codes, file formats, determinism."""

import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdwn

from hdwn.cli import (
    _resolve_config_path,
    main,
    parse_experiment_configs,
    read_series_csv,
    reports_from_dict,
)
from hdwn import errors
from hdwn.dgp import FAMILY_PARAMS
from hdwn.errors import ConfigError, HdwnError, McRunError
from hdwn import (
    TEST_NAMES,
    McConfig,
    MixtureNormal,
    ModelKind,
    ScenarioSpec,
    are_ss_flm,
    run_experiment,
)

HDWN_ERRORS = sorted(
    (cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, HdwnError)),
    key=lambda cls: cls.__name__,
)


@pytest.fixture
def gaussian_csv(tmp_path, rng):
    path = tmp_path / "series.csv"
    X = rng.standard_normal((60, 4))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c0", "c1", "c2", "c3"])
        writer.writerows(X.tolist())
    return path, X


SMALL_CFG = """
[DEFAULT]
tests = ss,flm
lags = 1
alpha = 0.05
reps = 25
cov = identity

[cell-null]
scenario = normal
model = iid
n = 30
p = 4

[cell-var]
scenario = t
df = 3
model = var1
coeff = dense
n = 30
p = 4
"""

#: Two lag-one alternative cells whose radii come from their scenario; cov is Sigma0.
H1_CFG = """
[DEFAULT]
tests = ss,flm
lags = 1,2
reps = 25
cov = polydecay
model = h1
n = 30
p = 4

[h1-normal]
scenario = normal

[h1-t5]
scenario = t
df = 5
"""

#: One cell that sets no optional key.
ONE_CELL = """
[c]
tests = ss
lags = 1
reps = 5
scenario = t
model = var1
coeff = dense
n = 30
p = 4
"""


class TestReadCsv:
    def test_header_autodetected(self, gaussian_csv):
        path, X = gaussian_csv
        parsed = read_series_csv(path)  # the c0..c3 line is skipped, not read as data
        assert parsed.shape == X.shape
        assert np.allclose(parsed, X, atol=1e-12)

    def test_headerless(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        assert read_series_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("a,b\n1,2\n3,4\n5,6\n")
        spaced.write_text("a,b\n1,2\n\n3,4\n , \n5,6\n")
        read = read_series_csv(spaced)
        assert read.shape == read_series_csv(plain).shape == (3, 2)
        assert read.tobytes() == read_series_csv(plain).tobytes()

    def test_byte_order_mark_is_not_data(self, tmp_path):
        bare, named = tmp_path / "bare.csv", tmp_path / "named.csv"
        bare.write_text("\ufeff1.0,2.0\n3.0,4.5\n5.0,6.0\n", encoding="utf-8")
        named.write_text("\ufeffa,b\n1.0,2.0\n3.0,4.5\n", encoding="utf-8")
        assert read_series_csv(bare).tolist() == [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]]
        assert read_series_csv(named).tolist() == [[1.0, 2.0], [3.0, 4.5]]

    @pytest.mark.parametrize("text", [
        pytest.param("1,2\n3,4\n", id="bare"),
        pytest.param("a,b\n1,2\n3,4\n", id="named"),
        pytest.param('"a","b"\n1,2\n3,4\n', id="quoted"),
        pytest.param("x\n1\n2\n", id="one-column"),
        pytest.param("a,b\r\n1,2\r\n3,4\r\n", id="crlf"),
    ])
    def test_byte_order_mark_reads_as_without(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        read = read_series_csv(marked)
        assert read.shape == read_series_csv(plain).shape
        assert read.tobytes() == read_series_csv(plain).tobytes()

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_series_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_series_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1,2\n")
        with pytest.raises(ConfigError):
            read_series_csv(path)


class TestCmdTest:
    def test_json_schema_and_values(self, gaussian_csv, capsys):
        path, X = gaussian_csv
        for name in TEST_NAMES:
            code = main(["test", "--input", str(path), "--test", name, "--lags", "2",
                         "--alpha", "0.05", "--format", "json"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert sorted(payload) == ["H", "alpha", "n", "nuisance", "p", "p_value",
                                       "reject", "standardized", "statistic", "test"]
            direct = getattr(hdwn, f"{name}_test")(X, 2, 0.05)
            assert payload == {"test": name, "n": 60, "p": 4, "H": 2, **dataclasses.asdict(direct)}

    def test_text_output(self, gaussian_csv, capsys):
        path, _ = gaussian_csv
        assert main(["test", "--input", str(path), "--test", "max", "--lags", "1"]) == 0
        out = capsys.readouterr().out
        assert "p_value:" in out and "reject:" in out

    def test_bad_alpha_exits_two(self, gaussian_csv, capsys):
        path, _ = gaussian_csv
        assert main(["test", "--input", str(path), "--test", "ss", "--alpha", "1.5"]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["test", "--input", "/nonexistent.csv", "--test", "ss"]) == 2

    def test_constant_rows_exit_two_with_message(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("\n".join("1.0,1.0" for _ in range(20)) + "\n")
        assert main(["test", "--input", str(path), "--test", "ss"]) == 2
        assert "constant" in capsys.readouterr().err

    def test_lag_too_large_exits_two(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,2\n2,1\n1,0\n")
        for lags in ("9", "0"):
            assert main(["test", "--input", str(path), "--test", "ss", "--lags", lags]) == 2

    def test_unknown_test_usage_error(self, gaussian_csv):
        path, _ = gaussian_csv
        assert main(["test", "--input", str(path), "--test", "bogus"]) == 2

    def test_internal_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        import hdwn.cli as cli
        from hdwn.errors import McRunError

        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)

        def boom(config):
            raise McRunError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "synthetic blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize("error", HDWN_ERRORS, ids=lambda cls: cls.__name__)
    def test_error_class_exit_codes(self, error, tmp_path, monkeypatch, capsys):
        """Every HdwnError is an input error (2) except McRunError, which is internal (3)."""
        import hdwn.cli as cli

        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)

        def boom(config):
            raise error("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == (3 if error is McRunError else 2)
        assert "synthetic failure" in capsys.readouterr().err


class TestCmdSimulate:
    def test_small_config_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--seed", "7",
                     "--out", str(out_dir), "--threads", "2"])
        assert code == 0
        results_csv = (out_dir / "results.csv").read_bytes()
        assert (out_dir / "results.json").exists()
        assert (out_dir / "size_table.csv").exists()
        assert (out_dir / "power_table.csv").exists()

        # deterministic rerun produces identical bytes
        code = main(["simulate", "--config", str(cfg), "--seed", "7",
                     "--out", str(out_dir), "--threads", "1"])
        assert code == 0
        assert (out_dir / "results.csv").read_bytes() == results_csv

        payload = json.loads((out_dir / "results.json").read_text())
        assert payload["seed"] == 7
        assert len(payload["reports"]) == 2

    def test_repeated_tests_and_lags_write_each_row_once(self, tmp_path):
        written = []
        for tests, lags in (("ss,flm", "1,2"), ("ss,ss,flm", "1,1,2")):
            cfg = tmp_path / "lags.cfg"
            cfg.write_text(SMALL_CFG.replace("tests = ss,flm\nlags = 1\n",
                                             f"tests = {tests}\nlags = {lags}\n"))
            out_dir = tmp_path / tests
            assert main(["simulate", "--config", str(cfg), "--out", str(out_dir),
                         "--threads", "1"]) == 0
            written.append((out_dir / "results.csv").read_bytes())
        assert written[0] == written[1]

    def test_wide_tables_take_the_union_of_the_columns_in_first_seen_order(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("[DEFAULT]\nreps = 10\nscenario = normal\nmodel = iid\nn = 30\np = 4\n"
                       "[a]\ntests = ss,flm\nlags = 1,2\n[b]\ntests = flm,pv\nlags = 3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        with open(tmp_path / "size_table.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["label", "scenario", "model", "n", "p",
                          "SS_H1", "FLM_H1", "SS_H2", "FLM_H2", "FLM_H3", "PV_H3"]
        with open(tmp_path / "results.csv", newline="") as fh:
            rates = {(r["label"], f"{r['test'].upper()}_H{r['H']}"): r["rejection_rate"]
                     for r in csv.DictReader(fh)}
        assert [dict(zip(header, row)) for row in rows] == [
            {**dict(zip(header[:5], (label, "normal", "iid", "30", "4"))),
             **{col: rates.get((label, col), "") for col in header[5:]}} for label in "ab"]
        assert rows[0][9:] == [""] * 2 and rows[1][5:9] == [""] * 4
        assert not (tmp_path / "power_table.csv").exists()

    def test_iid_cells_are_sizes_and_a_regime_names_its_model(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--threads", "1"]) == 0
        tables = {}
        for name in ("size_table.csv", "power_table.csv"):
            with open(tmp_path / name, newline="") as fh:
                tables[name] = list(csv.DictReader(fh))
        assert [(r["label"], r["scenario"], r["model"]) for r in tables["size_table.csv"]] == [
            ("cell-null", "normal", "iid")]
        assert [(r["label"], r["scenario"], r["model"]) for r in tables["power_table.csv"]] == [
            ("cell-var", "t", "var1-dense")]
        with open(tmp_path / "results.csv", newline="") as fh:
            assert [r["model"] for r in csv.DictReader(fh)] == ["iid"] * 2 + ["var1-dense"] * 2

    def test_reps_zero_exits_two(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["simulate", "--config", str(cfg), "--reps", "0"]) == 2

    def test_unknown_key_listed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + "\n[oops]\nscenario = normal\nmodel = iid\nn = 30\np = 4\nwat = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "oops.wat" in capsys.readouterr().err

    def test_unknown_default_key_listed_once(self):
        text = SMALL_CFG.replace("cov = identity\n", "cov = identity\nwat = 1\n")
        with pytest.raises(ConfigError) as info:
            parse_experiment_configs(text + "\n[cell-extra]\nwho = 2\n", seed=0)
        assert str(info.value) == "unknown config keys: DEFAULT.wat, cell-extra.who"

    @pytest.mark.parametrize("section", ["DEFAULT", "cell-var"])
    def test_burn_in_key_exits_two_naming_it(self, tmp_path, capsys, section):
        # a model's burn-in is its kind's constant: no section may set it
        cfg = tmp_path / "burn.cfg"
        cfg.write_text(SMALL_CFG.replace(f"[{section}]\n", f"[{section}]\nburn_in = 50\n"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown config keys: {section}.burn_in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["df", "mixture_gamma", "mixture_scale", "alpha"])
    def test_bad_value_exits_two_naming_section_and_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG.replace("[cell-null]\n", f"[cell-null]\n{key} = abc\n"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "[cell-null]" in err and repr(key) in err

    def test_kind_values_are_case_insensitive(self):
        shouted = SMALL_CFG
        for kind in ("normal", "t", "iid", "var1", "dense", "identity"):
            shouted = shouted.replace(f"= {kind}\n", f"= {kind.upper()}\n")
        assert shouted != SMALL_CFG
        assert ([dataclasses.asdict(c) for c in parse_experiment_configs(shouted, seed=3)]
                == [dataclasses.asdict(c) for c in parse_experiment_configs(SMALL_CFG, seed=3)])

    def test_config_keys_agree_with_the_docs(self):
        from hdwn import cli

        def listed(text):
            keys = text.split("Recognized keys:", 1)[1].split(".", 1)[0]
            return {key.strip(" `\n") for key in keys.split(",")}

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert listed(cli.__doc__) == listed(readme) == cli._CONFIG_KEYS

    def test_unknown_config_name(self, capsys):
        assert main(["simulate", "--config", "no-such-file.cfg"]) == 2

    def test_cell_that_cannot_run_exits_two(self, tmp_path, capsys):
        # max needs H * p * p >= 3; a cell McConfig refuses never reaches the engine
        cfg = tmp_path / "p1.cfg"
        cfg.write_text(ONE_CELL.replace("tests = ss", "tests = max").replace("p = 4", "p = 1")
                       .replace("model = var1\ncoeff = dense", "model = iid"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [c] H_values") and "internal" not in err

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "threads.cfg"
        cfg.write_text(ONE_CELL + "threads = 2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys: c.threads" in capsys.readouterr().err

    def test_thread_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDWN_THREADS", "nope")
        cfg = tmp_path / "small.cfg"
        cfg.write_text(ONE_CELL)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("line", [
        "alpha = 0.05", "df = 3", "mixture_gamma = 0.8", "mixture_scale = 9", "cov = identity",
        "alpha =", "df =", "mixture_gamma =", "mixture_scale =", "cov ="])
    def test_omitted_optional_key_equals_its_default_written(self, line):
        # a mixture key is written on a mixture cell, the only family that reads it
        cell = ONE_CELL
        if line.startswith("mixture") and not line.endswith("="):
            cell = ONE_CELL.replace("scenario = t", "scenario = mixture")
        text = cell + line + "\n"
        assert ([dataclasses.asdict(c) for c in parse_experiment_configs(text, seed=1)]
                == [dataclasses.asdict(c) for c in parse_experiment_configs(cell, seed=1)])

    @pytest.mark.parametrize("cls, key, field, value", [
        (ScenarioSpec, "df", "df", 5.0),
        (ScenarioSpec, "mixture_gamma", "gamma", 0.6),
        (ScenarioSpec, "mixture_scale", "scale_factor", 4.0),
        (McConfig, "alpha", "alpha", 0.1),
    ])
    def test_omitted_optional_key_takes_the_dataclass_default(self, monkeypatch, cls, key,
                                                              field, value):
        # an absent key passes no argument, so the spec's own default, here
        # changed for the test, is what the cell gets; a family's defaults are
        # in FAMILY_PARAMS, and the cell is of the family that reads the field
        text = ONE_CELL
        if cls is ScenarioSpec:
            kind = next(kind for kind, reads in FAMILY_PARAMS.items() if field in reads)
            monkeypatch.setitem(FAMILY_PARAMS[kind], field, value)
            text = ONE_CELL.replace("scenario = t", f"scenario = {kind.value}")
        else:
            params = [p for p in inspect.signature(cls).parameters.values()
                      if p.default is not p.empty]
            monkeypatch.setattr(cls.__init__, "__defaults__",
                                tuple(value if p.name == field else p.default for p in params))
        (cfg,) = parse_experiment_configs(text, seed=0)
        owner = cfg.scenario if cls is ScenarioSpec else cfg
        assert getattr(owner, field) == value

    def test_presets_parse(self):
        for preset in ("table1", "table2"):
            text = _resolve_config_path(preset).read_text(encoding="utf-8")
            configs = parse_experiment_configs(text, seed=0)
            assert len(configs) == 18
            for cfg in configs:
                assert cfg.reps == 1000
                assert cfg.H_values == (1, 2, 3)
        table2 = parse_experiment_configs(
            _resolve_config_path("table2").read_text(encoding="utf-8"), seed=0
        )
        assert all(c.n == 200 and c.p == 80 for c in table2)


class TestCmdAre:
    def test_t3(self, capsys):
        assert main(["are", "--dist", "t", "--df", "3"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("are_ss_flm:")[1].split()[0])
        assert abs(value - 8.0 / math.pi) < 1e-5

    def test_normal(self, capsys):
        assert main(["are", "--dist", "normal", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["are_ss_flm"] == 1.0

    def test_t4(self, capsys):
        assert main(["are", "--dist", "t", "--df", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["are_ss_flm"] - 1.7671458676442586) < 1e-9

    def test_low_df_exits_two(self):
        assert main(["are", "--dist", "t", "--df", "2"]) == 2

    def test_mixture_with_moments(self, capsys):
        assert main(["are", "--dist", "mixture", "--mixture-gamma", "0.8", "--mixture-scale",
                     "9", "--p", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e_r2"] == pytest.approx(260.0, rel=1e-12)
        assert payload["are_ss_flm"] == pytest.approx(are_ss_flm(MixtureNormal(0.2, 3.0)),
                                                      rel=1e-15)

    def test_p_gives_the_efficiency_of_the_drawn_alternative(self, capsys):
        # under gen_h1_model's draw flm's shift has moment factor 1, so ss's efficiency is c1^2
        assert main(["are", "--dist", "t", "--df", "5", "--p", "200", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c1_squared"] == payload["c1"] ** 2
        assert round(payload["c1_squared"], 3) == 1.287

    def test_an_efficiency_past_the_largest_float_exits_two(self, capsys):
        # JSON has no infinity, yet E^2(1/w) = inf at sigma = 1e-160 was printed as Infinity
        assert main(["are", "--dist", "mixture", "--mixture-scale", "1e-320", "--format",
                     "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows a float" in captured.err

    def test_mixture_takes_the_scenario_defaults(self, capsys):
        # --dist mixture alone is ScenarioSpec.mixture(), as a config cell without the keys is
        assert main(["are", "--dist", "mixture", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["mixture_gamma"], payload["mixture_scale"]) == (0.8, 9.0)
        assert payload["are_ss_flm"] == pytest.approx((0.8 + 0.2 / 3) ** 2 * 2.6, rel=1e-15)
        assert main(["are", "--dist", "t", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["df"] == 3.0

    def test_flag_the_law_does_not_read_exits_two(self, capsys):
        assert main(["are", "--dist", "normal", "--df", "5", "--format", "json"]) == 2
        assert "normal innovations take no df" in capsys.readouterr().err
        assert main(["are", "--dist", "t", "--df", "4", "--mixture-gamma", "0.2"]) == 2
        assert "t innovations take no gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--gamma", "--sigma"))
    def test_old_mixture_flags_are_unknown(self, flag, capsys):
        assert main(["are", "--dist", "mixture", flag, "0.2"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_json_echoes_the_flags_its_law_reads(self, capsys):
        assert main(["are", "--dist", "mixture", "--mixture-gamma", "0.5", "--mixture-scale",
                     "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"distribution", "are_ss_flm", "mixture_gamma", "mixture_scale"}
        assert (payload["mixture_gamma"], payload["mixture_scale"]) == (0.5, 4.0)
        assert payload["are_ss_flm"] == pytest.approx(are_ss_flm(MixtureNormal(0.5, 2.0)),
                                                      rel=1e-15)


def _key_sets(node, path="", out=None):
    """Key set of every JSON object in a document, by path; list items share a path."""
    out = {} if out is None else out
    if isinstance(node, dict):
        out.setdefault(path, set()).add(frozenset(node))
        for key, value in node.items():
            _key_sets(value, f"{path}.{key}", out)
    elif isinstance(node, list):
        for item in node:
            _key_sets(item, f"{path}[]", out)
    return out


def _simulate_and_read(tmp_path, config, *argv):
    """The results.json document of a simulate run and the reports read back from it."""
    assert main(["simulate", "--config", config, "--out", str(tmp_path), *argv]) == 0
    payload = json.loads((tmp_path / "results.json").read_text())
    return payload, reports_from_dict(payload)


def _assert_rebuilt(reports, configs):
    """Each report's config is the file's, with no thread count, and reruns to its cells."""
    assert len(reports) == len(configs)
    for report, config in zip(reports, configs):
        assert dataclasses.asdict(report.config) == dataclasses.asdict(config)
        assert report.config.threads is None
        rerun = run_experiment(report.config)
        assert rerun.cells == report.cells
        assert rerun.coeff_fingerprint == report.coeff_fingerprint


class TestRoundTrip:
    def test_outcome_round_trip(self, gaussian_csv, capsys):
        # `hdwn test --format json` writes every TestOutcome field, so the fields rebuild it
        path, X = gaussian_csv
        assert main(["test", "--input", str(path), "--test", "ss", "--lags", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        fields = {k: v for k, v in payload.items() if k not in ("test", "n", "p", "H")}
        assert hdwn.TestOutcome(**fields) == hdwn.ss_test(X, 2, 0.05)

    @pytest.mark.parametrize("threads", [None, 1])
    @pytest.mark.parametrize("model", ["iid", "var1", "vma1"])
    def test_report_round_trip(self, tmp_path, capsys, model, threads):
        coeff = "" if model == "iid" else "coeff = dense\n"
        cfg = tmp_path / "rt.cfg"
        cfg.write_text(f"[rt]\ntests = ss,fc\nlags = 1,2\nreps = 10\nscenario = t\ndf = 3\n"
                       f"model = {model}\n{coeff}cov = polydecay\nn = 20\np = 4\n")
        argv = [] if threads is None else ["--threads", str(threads)]
        _, reports = _simulate_and_read(tmp_path, str(cfg), "--seed", "5", *argv)
        _assert_rebuilt(reports, parse_experiment_configs(cfg.read_text(), seed=5))
        (report,) = reports
        assert report.config.scenario == ScenarioSpec.student_t(3)
        assert (report.coeff_fingerprint is None) == (model == "iid")

    @pytest.mark.parametrize("preset", ["table1", "table2"])
    def test_preset_round_trip(self, tmp_path, capsys, preset):
        payload, reports = _simulate_and_read(tmp_path, preset, "--reps", "20", "--seed", "0",
                                              "--threads", "1")
        text = _resolve_config_path(preset).read_text(encoding="utf-8")
        _assert_rebuilt(reports, parse_experiment_configs(text, seed=0, reps_override=20))
        assert [r.wall_time_s for r in reports] == [d["wall_time_s"] for d in payload["reports"]]
        # an iid model draws no coefficients, so it has no fingerprint
        assert all((r.coeff_fingerprint is None) == (r.config.model.kind is ModelKind.IID)
                   for r in reports)

    def test_h1_report_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "h1.cfg"
        cfg.write_text(H1_CFG + "\n[h1-mixture]\nscenario = mixture\ncov = identity\n")
        _, reports = _simulate_and_read(tmp_path, str(cfg), "--seed", "3")
        _assert_rebuilt(reports, parse_experiment_configs(cfg.read_text(), seed=3))
        assert [r.config.scenario.kind.value for r in reports] == ["normal", "t", "mixture"]

    def test_h1_cells_run_from_a_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "h1.cfg"
        cfg.write_text(H1_CFG)
        _, reports = _simulate_and_read(tmp_path, str(cfg), "--reps", "20", "--threads", "1")
        with open(tmp_path / "power_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["label"], row["scenario"], row["model"]) for row in rows] == [
            ("h1-normal", "normal", "h1"), ("h1-t5", "t", "h1")]
        assert not (tmp_path / "size_table.csv").exists()
        # the recovered config is the file's, and reruns to the same cells
        _assert_rebuilt(reports, parse_experiment_configs(H1_CFG, seed=0, reps_override=20))
        for report in reports:
            assert report.config.model.h1.sigma0 == report.config.cov
            assert [(c.test, c.H) for c in report.cells] == [
                ("ss", 1), ("ss", 2), ("flm", 1), ("flm", 2)]
        assert reports[0].cells != reports[1].cells

    def test_results_json_keys_frozen(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG + "\n[cell-h1]\nscenario = t\ndf = 5\nmodel = h1\nn = 30\n"
                       "p = 4\n")
        payload, _ = _simulate_and_read(tmp_path, str(cfg), "--reps", "5")
        keys = {path: {tuple(sorted(k)) for k in sets}
                for path, sets in _key_sets(payload).items()}
        shared = ("alpha", "cov", "lags", "model", "n", "p", "reps", "scenario", "tests")
        assert keys == {
            "": {("reports", "seed")},
            ".reports[]": {("cells", "coeff_fingerprint", "config", "label", "wall_time_s")},
            ".reports[].cells[]": {("H", "errors", "mc_se", "rejection_rate", "reps", "test")},
            ".reports[].config": {shared, tuple(sorted((*shared, "df"))),
                                  tuple(sorted((*shared, "coeff", "df")))},
        }
        # a report's config is its section's keys as written, [DEFAULT] resolved, and the
        # reps it ran as an int
        assert [(r["label"], r["config"]) for r in payload["reports"]] == [
            ("cell-null", {"tests": "ss,flm", "lags": "1", "alpha": "0.05", "reps": 5,
                           "cov": "identity", "scenario": "normal", "model": "iid", "n": "30",
                           "p": "4"}),
            ("cell-var", {"tests": "ss,flm", "lags": "1", "alpha": "0.05", "reps": 5,
                          "cov": "identity", "scenario": "t", "df": "3", "model": "var1",
                          "coeff": "dense", "n": "30", "p": "4"}),
            ("cell-h1", {"tests": "ss,flm", "lags": "1", "alpha": "0.05", "reps": 5,
                         "cov": "identity", "scenario": "t", "df": "5", "model": "h1",
                         "n": "30", "p": "4"})]
        # perfbench/child.py:151 reads each report's wall_time_s and config.reps to time the
        # grid workloads' replications
        for report in payload["reports"]:
            assert type(report["wall_time_s"]) is float
            assert type(report["config"]["reps"]) is int

    def test_csv_precision(self):
        from hdwn.cli import _fmt

        x = 0.12345678901234567
        assert float(_fmt(x)) == x


def test_import_does_not_load_scipy_stats():
    src = str(Path(hdwn.__file__).resolve().parent.parent)
    code = "import sys, hdwn, hdwn.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


_SCIPY_FREE_SCRIPT = """
import contextlib, io, sys
from pathlib import Path
import numpy as np
import hdwn, hdwn.cli

tmp = Path(sys.argv[1])
X = hdwn.gen_series(hdwn.ModelSpec("var1", coeff=hdwn.CoeffSpec("dense", 10)),
                    hdwn.ScenarioSpec.student_t(3), 40, 10, 1)
for test in (hdwn.ss_test, hdwn.flm_test, hdwn.pv_test, hdwn.max_test, hdwn.fc_test):
    test(X, 2)
hdwn.evaluate_tests_collect(X, hdwn.TEST_NAMES, (1, 2))
hdwn.run_experiment(hdwn.McConfig(
    tests=hdwn.TEST_NAMES, scenario=hdwn.ScenarioSpec.mixture(),
    model=hdwn.ModelSpec("varma1", coeff=hdwn.CoeffSpec("dense", 5)),
    cov=hdwn.CovarianceSpec("polydecay", 5), n=20, p=5, H_values=(1, 2), reps=4))
hdwn.normal_upper_quantile(0.05)
hdwn.power_ss(hdwn.PowerInput(n=100, tr_s0s1=1.0, tr_s0sq=10.0))
hdwn.radial_moments(hdwn.StudentT(3.0), 100)
hdwn.gen_h1_model(hdwn.H1Spec(hdwn.CovarianceSpec("identity", 10)), 30, 10, 1)
np.savetxt(tmp / "series.csv", X, delimiter=",")
(tmp / "cell.cfg").write_text(
    "[cell]\\ntests = ss,flm,pv,max,fc\\nlags = 1,2\\nreps = 4\\ncov = identity\\n"
    "scenario = t\\nmodel = vma1\\ncoeff = dense\\nn = 20\\np = 5\\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert hdwn.cli.main(["test", "--input", str(tmp / "series.csv"), "--test", "fc"]) == 0
    assert hdwn.cli.main(["simulate", "--config", str(tmp / "cell.cfg"),
                          "--out", str(tmp)]) == 0
    assert hdwn.cli.main(["are", "--dist", "t", "--df", "3", "--p", "100"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_tests_and_simulate_do_not_load_scipy(tmp_path):
    # nor do the power formulas, the h1 generator's chi law and `hdwn are`
    src = str(Path(hdwn.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "results.csv").exists()
