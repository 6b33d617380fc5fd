"""One check per kind of input: integers, probabilities and other bounded reals.

Every public integer parameter goes through core._integer, every probability
through core._fraction and every other bounded real through core._real. A
refusal is a typed HdwnError whose message names the parameter; a numpy
integer is accepted and stored as a Python int, so reports stay JSON-ready.
REFUSALS covers the other refusals once each, and the _owners guards keep
each check, and the thread and BLAS settings, in one place.
"""

import ast
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdwn
from hdwn import (
    CoeffSpec,
    ConfigError,
    CovarianceSpec,
    DegenerateDataError,
    ExplosiveModelError,
    H1Spec,
    HdwnError,
    InvalidInputError,
    InvalidLagError,
    InvalidSpecError,
    McCell,
    McConfig,
    MixtureNormal,
    ModelSpec,
    Normal,
    PowerInput,
    RadialKind,
    ScenarioKind,
    ScenarioSpec,
    StudentT,
    TestOutcome,
    UndefinedMomentError,
    are_ss_flm,
    chi_radial_c1,
    cross_correlations,
    derive_rng,
    derive_seed,
    evaluate_tests_collect,
    fc_test,
    flm_statistic,
    flm_test,
    gen_coeff,
    gen_h1_model,
    gen_series,
    max_test,
    normal_upper_quantile,
    normal_upper_tail,
    pv_test,
    radial_moments,
    run_experiment,
    sign_transform,
    spatial_sign,
    ss_statistic,
    ss_test,
    trace_sigma2_hat,
)
from hdwn.cli import (
    _build_parser,
    main,
    parse_experiment_configs,
    read_series_csv,
    reports_from_dict,
)
from hdwn.core import _windows

SRC = Path(__file__).resolve().parents[1] / "src" / "hdwn"

SERIES = np.random.default_rng(0).standard_normal((12, 3))

# seed-0 normals whose squared inner products overflow a float
HUGE = 1e77 * np.random.default_rng(0).standard_normal((60, 5))


def _config(**fields):
    base = dict(tests=("ss",), scenario=ScenarioSpec.normal(), model=ModelSpec("iid"),
                cov=CovarianceSpec("identity", 3), n=10, p=3, H_values=(1,), reps=2)
    return McConfig(**{**base, **fields})


def _iid(n, p):
    return gen_series(ModelSpec("iid"), ScenarioSpec.normal(), n, p, 0).tobytes()


def _h1(n, p):
    return gen_h1_model(H1Spec(CovarianceSpec("identity", 3)), n, p, 0)[0].tobytes()


# id "<owner>.<parameter>": (call, a valid value, what to compare, stored as int, optional)
INTEGERS = {
    "McConfig.n": (lambda v: _config(n=v), 10, lambda c: c.n, True, False),
    "McConfig.p": (lambda v: _config(p=v), 3, lambda c: c.p, True, False),
    "McConfig.reps": (lambda v: _config(reps=v), 2, lambda c: c.reps, True, False),
    "McConfig.threads": (lambda v: _config(threads=v), 1, lambda c: c.threads, True, True),
    "McConfig.master_seed": (lambda v: _config(master_seed=v), 7, lambda c: c.master_seed,
                             True, False),
    "McConfig.H_values": (lambda v: _config(H_values=(v,)), 2, lambda c: c.H_values[0],
                          True, False),
    "CovarianceSpec.p": (lambda v: CovarianceSpec("identity", v), 4, lambda c: c.p, True, False),
    "CoeffSpec.p": (lambda v: CoeffSpec("dense", v), 5, lambda c: c.p, True, False),
    "gen_series.n": (lambda v: _iid(v, 3), 6, lambda x: x, False, False),
    "gen_series.p": (lambda v: _iid(6, v), 3, lambda x: x, False, False),
    "gen_h1_model.n": (lambda v: _h1(v, 3), 6, lambda x: x, False, False),
    "gen_h1_model.p": (lambda v: _h1(6, v), 3, lambda x: x, False, False),
    "derive_rng.master_seed": (lambda v: derive_rng(v, "x").random(), 4, lambda x: x,
                               False, False),
    "PowerInput.n": (lambda v: PowerInput(v, 1.0, 1.0), 10, lambda i: i.n, True, False),
    "radial_moments.p": (lambda v: radial_moments(Normal(), v), 10, lambda m: m, False, False),
}

PROBABILITIES = {
    "evaluate_tests_collect.alpha": lambda v: evaluate_tests_collect(SERIES, ("ss",), (1,), v),
    "TestOutcome.alpha": lambda v: TestOutcome(1.0, 1.0, 0.5, False, v),
    "normal_upper_quantile.alpha": normal_upper_quantile,
    "McConfig.alpha": lambda v: _config(alpha=v),
    "PowerInput.alpha": lambda v: PowerInput(10, 1.0, 1.0, alpha=v),
    "ScenarioSpec.gamma": lambda v: ScenarioSpec("mixture", gamma=v),
    "MixtureNormal.v": lambda v: MixtureNormal(v, 2.0),
}

# id: (call, optional)
REALS = {
    "ScenarioSpec.df": (lambda v: ScenarioSpec("t", df=v), True),
    "ScenarioSpec.scale_factor": (lambda v: ScenarioSpec("mixture", scale_factor=v), True),
    "H1Spec.sigma1_scale": (lambda v: H1Spec(CovarianceSpec("identity", 3), sigma1_scale=v),
                            True),
    "StudentT.v": (StudentT, False),
    "MixtureNormal.sigma": (lambda v: MixtureNormal(0.5, v), False),
    "PowerInput.tr_s0s1": (lambda v: PowerInput(10, v, 1.0), False),
    "PowerInput.tr_s0sq": (lambda v: PowerInput(10, 1.0, v), False),
    "PowerInput.c1": (lambda v: PowerInput(10, 1.0, 1.0, c1=v), False),
    "PowerInput.moment_ratio": (lambda v: PowerInput(10, 1.0, 1.0, moment_ratio=v), False),
    "chi_radial_c1.dof": (chi_radial_c1, False),
}


def _refusals(cases, bad_values, optional):
    return [pytest.param(case, bad, id=f"{case}-{bad!r}")
            for case in cases for bad in bad_values if not (bad is None and optional(case))]


def _refused(call, value, case):
    with pytest.raises(HdwnError) as info:
        call(value)
    assert case.split(".")[1] in str(info.value)


@pytest.mark.parametrize("case, bad", _refusals(INTEGERS, (True, 1.5, 1.9, "x", None),
                                                lambda case: INTEGERS[case][4]))
def test_integer_refusal_is_typed_and_named(case, bad):
    _refused(INTEGERS[case][0], bad, case)


@pytest.mark.parametrize("case", INTEGERS)
def test_numpy_integer_is_accepted_as_int(case):
    call, good, read, stored, _ = INTEGERS[case]
    value = read(call(np.int64(good)))
    assert value == read(call(good))
    if stored:
        assert type(value) is int


# None gives a mixture its default gamma, as it gives H1Spec its sigma1_scale
@pytest.mark.parametrize("case, bad", _refusals(PROBABILITIES, (True, 1.5, 0.0, 1.0, "x", None),
                                                lambda case: case == "ScenarioSpec.gamma"))
def test_probability_refusal_is_typed_and_named(case, bad):
    _refused(PROBABILITIES[case], bad, case)


@pytest.mark.parametrize("case", PROBABILITIES)
def test_numpy_probability_is_accepted(case):
    PROBABILITIES[case](np.float32(0.25))
    PROBABILITIES[case](np.float64(0.25))


@pytest.mark.parametrize("case, bad", _refusals(REALS, (True, "x", "5", None, math.inf,
                                                       -math.inf, math.nan),
                                                lambda case: REALS[case][1]))
def test_real_refusal_is_typed_and_named(case, bad):
    _refused(REALS[case][0], bad, case)


def test_coefficient_block_is_checked_when_built():
    # at p = 10 the sparse block floor(0.05 p) is empty: refused before any run
    with pytest.raises(InvalidSpecError, match="sparse regime needs a bigger p, got block size 0"):
        _config(model=ModelSpec("var1", coeff=CoeffSpec("sparse", 10)), p=10,
                cov=CovarianceSpec("identity", 10))


def test_stored_probabilities_are_floats():
    assert type(_config(alpha=np.float32(0.25)).alpha) is float
    assert type(TestOutcome(1.0, 1.0, 0.5, False, np.float32(0.25)).alpha) is float
    assert type(TestOutcome(1.0, 1.0, 0.01, np.True_, 0.05).reject) is bool
    assert type(PowerInput(10, 1.0, 1.0, alpha=np.float32(0.25)).alpha) is float
    assert type(ScenarioSpec("mixture", gamma=np.float32(0.25)).gamma) is float


# id: (what to read from a spec built with value, value)
STORED_REALS = {
    "ScenarioSpec.df": (lambda v: ScenarioSpec("t", df=v).df, 3),
    "ScenarioSpec.scale_factor": (lambda v: ScenarioSpec("mixture", scale_factor=v).scale_factor,
                                  3),
    "H1Spec.sigma1_scale": (lambda v: H1Spec(CovarianceSpec("identity", 3),
                                             sigma1_scale=v).sigma1_scale, 3),
    "StudentT.v": (lambda v: StudentT(v).v, 3),
    "MixtureNormal.sigma": (lambda v: MixtureNormal(0.5, v).sigma, 3),
    "PowerInput.tr_s0s1": (lambda v: PowerInput(10, v, 1.0).tr_s0s1, 3),
    "PowerInput.tr_s0sq": (lambda v: PowerInput(10, 1.0, v).tr_s0sq, 3),
    "PowerInput.c1": (lambda v: PowerInput(10, 1.0, 1.0, c1=v).c1, 3),
    "PowerInput.moment_ratio": (lambda v: PowerInput(10, 1.0, 1.0, moment_ratio=v).moment_ratio,
                                1),
}


@pytest.mark.parametrize("case", STORED_REALS)
@pytest.mark.parametrize("kind", (int, np.float32, np.int64))
def test_stored_reals_are_floats(case, kind):
    read, value = STORED_REALS[case]
    stored = read(kind(value))
    assert type(stored) is float
    assert stored == value


def _simulated(tmp_path, text, seed):
    """The reports that reports_from_dict reads from the results.json of a simulate run."""
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    return reports_from_dict(json.loads((tmp_path / "results.json").read_text()))


def _same_config_and_cells(report, config):
    """report's config is config, JSON-ready, and reruns to report's cells."""
    assert json.dumps(dataclasses.asdict(config), default=lambda e: e.value)
    assert dataclasses.asdict(report.config) == dataclasses.asdict(config)
    assert report.cells == run_experiment(config).cells == run_experiment(report.config).cells


def test_numpy_float_config_is_the_one_its_file_gives(tmp_path, capsys):
    (report,) = _simulated(tmp_path, "[c]\ntests = ss\nlags = 1\nreps = 2\nscenario = t\n"
                                     "df = 3\nmodel = iid\nn = 10\np = 3\n", seed=0)
    config = _config(scenario=ScenarioSpec("t", df=np.float32(3)),
                     master_seed=np.uint64(derive_seed(0, "c")), label="c")
    _same_config_and_cells(report, config)


@pytest.mark.parametrize("field", ("tests", "H_values"))
@pytest.mark.parametrize("bad", ("ss", None, 3, ()), ids=repr)
def test_collection_refusal_is_typed_and_named(field, bad):
    message = f"{field} must be a nonempty collection, not a string"
    with pytest.raises(InvalidSpecError, match=message):
        _config(**{field: bad})
    given = {"tests": ("ss",), "H_values": (1,), field: bad}
    with pytest.raises(InvalidInputError, match=message):
        evaluate_tests_collect(SERIES, given["tests"], given["H_values"])


def test_numpy_integer_config_is_the_one_its_file_gives(tmp_path, capsys):
    def config(i):
        return McConfig(tests=("ss", "max"), scenario=ScenarioSpec.normal(),
                        model=ModelSpec("var1", coeff=CoeffSpec("dense", i(5))),
                        cov=CovarianceSpec("identity", i(5)), n=i(20), p=i(5),
                        H_values=(i(1), i(2)), reps=i(8),
                        master_seed=np.uint64(derive_seed(3, "c")), label="c")

    (report,) = _simulated(tmp_path, "[c]\ntests = ss,max\nlags = 1,2\nreps = 8\n"
                                     "scenario = normal\nmodel = var1\ncoeff = dense\n"
                                     "n = 20\np = 5\n", seed=3)
    _same_config_and_cells(report, config(np.int64))
    assert dataclasses.asdict(config(np.int64)) == dataclasses.asdict(config(int))


def _owners(phrase: str, files: str = "*.py") -> list[str]:
    """The innermost definition (module.Class.function) around each occurrence of
    phrase in the package source files matching files, in file and line order."""
    found = []
    for path in sorted(SRC.glob(files)):
        text = path.read_text(encoding="utf-8")
        scopes = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scopes.append((child.lineno, child.end_lineno, f"{prefix}.{child.name}"))
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(text), path.stem)
        for lineno, line in enumerate(text.splitlines(), 1):
            inside = [scope for scope in scopes if scope[0] <= lineno <= scope[1]]
            owner = max(inside)[2] if inside else path.stem
            found += [owner] * line.count(phrase)
    return found


def test_each_kind_of_input_is_checked_in_one_place():
    assert _owners("strictly between 0 and 1") == ["core._fraction"]
    assert _owners("got {type(") == ["core._typed"]
    assert _owners("_typed(") == ["core._typed", "dgp.ModelSpec.__post_init__",
                                  "dgp.H1Spec.__post_init__", "montecarlo.McConfig.__post_init__"]
    assert _owners("(int, np.integer)") == ["core._integer"]
    assert _owners("not in TEST_NAMES") == ["stats_tests._test_names"]
    assert _owners("non-finite entries") == ["core._floats"]
    assert _owners("np.isfinite") == ["core._floats"]
    assert [_owners(f'"{regime}"') for regime in ("dense", "sparse")] == [["dgp.CoeffRegime"]] * 2


def test_each_input_has_one_form_and_each_job_one_name():
    # H is an int, sigma0 a CovarianceSpec, a series a float array, the iid draw gen_series,
    # the CLI alone lays reports out as tables, and results.json is read as config keys
    removed = re.compile(r"\b(LagWindow|as_lag|gen_innovations|power_table|SeriesMatrix|CsvSeries"
                         r"|McTable|tabulate_reports|size_table|_encode|_decode|_NESTED"
                         r"|(report|outcome)_(to|from)_dict)\b(?!\.csv)")
    assert [path.name for path in sorted(SRC.rglob("*"))
            if path.suffix in (".py", ".cfg") and removed.search(path.read_text())] == []
    # one builder makes each McConfig the CLI reads, from a config file or a results.json
    assert _owners("McConfig(", "cli.py") == ["cli._build_config"]


def test_an_integer_seed_is_read_by_one_rule():
    # dgp._stream alone turns a generator's integer seed into a stream, and gen_coeff alone
    # names the coefficient stream, through which gen_series and run_experiment draw
    assert _owners("np.random.Generator)") == ["dgp._stream"]
    assert _owners("default_rng(") == ["dgp.derive_rng"]
    assert _owners("_stream(") == ["dgp._stream", "dgp.gen_coeff", "dgp.gen_series",
                                   "dgp.gen_h1_model"]
    assert _owners('"coeff")', "dgp.py") == ["dgp.gen_coeff"] * 2
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if re.search(r'derive_rng\([^)]*"coeff"', path.read_text())] == []


@pytest.mark.parametrize("part", (True, -1, 1.0, 2**32), ids=repr)
def test_stream_path_part_refusal_is_typed_and_named(part):
    with pytest.raises(InvalidInputError, match=f"stream path part must be .*, got {part!r}$"):
        derive_rng(0, part)


def test_int_path_parts_keep_their_streams():
    # pinned seeds: an int part is read as it always was, numpy or not, up to 2**32 - 1
    top = 2**32 - 1
    assert derive_seed(0, top) == derive_seed(0, np.uint32(top)) == 1115911174736451823
    assert derive_seed(0, "rep", np.int64(5)) == 13042597625378260499


def test_a_series_is_checked_and_copied_in_one_place():
    # every public call takes a private copy from core._series, which the
    # evaluator overwrites; no caller decides whether an array may be written
    assert _owners("must be two-dimensional") == ["core._series"]
    assert _owners("as_series") == []
    assert _owners("own=") == []
    # an array the package has just made, and no caller holds, is frozen as it is
    assert _owners("_freeze(") == ["core.SignMatrix.__post_init__", "core.SignMatrix._freeze",
                                   "core.sign_transform"]


_WINDOWED = ("ss_statistic", "flm_statistic", "cross_correlations", "ss_test", "flm_test",
             "pv_test", "max_test", "fc_test")


@pytest.mark.parametrize("name", ("SignMatrix", "sign_transform",
                                  "trace_omega2_hat", "trace_sigma2_hat",
                                  "evaluate_tests_collect", *_WINDOWED))
def test_every_public_call_refuses_a_ragged_series(name):
    args = (1,) if name in _WINDOWED else (("ss",), (1,)) if name.startswith("evaluate") else ()
    with pytest.raises(InvalidInputError, match="must be a rectangular array of real numbers"):
        getattr(hdwn, name)([[1.0, 2.0], [3.0, 4.0], [5.0]], *args)


def test_packed_layout_is_read_by_the_pair_kernel_alone():
    assert _owners("_packed_index(") == ["core._packed_index", "core._pair_sums"]
    assert _owners("_straddling(") == ["core._straddling", "core._pair_sums"]


def test_every_model_is_drawn_by_one_loop():
    assert _owners("_innovation_rows") == ["dgp._innovation_rows", "dgp._series_sampler",
                                           "dgp._h1_setup.rows"]
    assert _owners("_draw_block") == [
        "dgp._series_sampler", "dgp._series_sampler", "dgp._draw_block", "dgp.gen_h1_model"]
    assert _owners("_fill") == []


def test_burn_in_is_a_constant_of_the_model_kind():
    # no spec field, config key or JSON key sets it; the draw and the block size read it
    assert [path.name for path in sorted(SRC.rglob("*"))
            if path.suffix in (".py", ".cfg") and "burn_in" in path.read_text()] == []
    assert _owners("BURN_IN[") == ["dgp._series_sampler", "montecarlo.run_experiment"]


def test_h1_settings_are_read_in_one_place():
    # c1 is computed in closed form where it is reported, from the law _radial_law maps
    # the scenario to; no spec field holds a sampler or a c1, and no reader checks for one
    assert _owners("radial_moments(", "dgp.py") == ["dgp.gen_h1_model"]
    assert _owners("chi_radial_c1(", "dgp.py") == []
    assert [path.name for path in sorted(SRC.glob("*.py")) if re.search(
        r"radial_sampler|(?<!chi_)radial_c1|_radii|callable\(", path.read_text())] == []
    assert [kind.value for kind in RadialKind] == ["chi_p", "constant"]
    assert [f.name for f in dataclasses.fields(H1Spec)] == ["sigma0", "sigma1_scale", "radial"]
    assert _owners("degenerate sphere draw", "dgp.py") == []
    assert _owners("ZERO_NORM_THRESHOLD", "dgp.py") == []


def test_family_parameters_are_known_to_their_spec_alone():
    # FAMILY_PARAMS holds each family's defaults and ScenarioSpec refuses the other
    # parameters; no signature repeats a default, and no front end branches on a kind
    assert _owners("FAMILY_PARAMS[") == ["dgp.ScenarioSpec.__post_init__"]
    assert _owners("innovations take no") == ["dgp.ScenarioSpec.__post_init__"]
    assert [_owners(f"= {default}") for default in ("3.0", "0.8", "9.0")] == [[], [], []]
    assert _owners("ModelKind.IID", "cli.py") == ["cli._cmd_simulate"]
    assert _owners("args.dist ==", "cli.py") == []


def test_a_radial_law_is_mapped_and_read_in_one_place():
    # (gamma, scale_factor) becomes (v, sigma) in dgp._radial_law alone, for h1 series and
    # for `are`; the scale moments of each law are one table that both formulas read
    assert _owners("MixtureNormal(") == ["dgp._radial_law"]
    assert _owners("isinstance(dist") == ["power_theory._scale_moments"] * 3
    assert _owners("unsupported distribution") == ["power_theory._scale_moments"]
    assert _owners("_scale_moments(") == ["power_theory._scale_moments",
                                          "power_theory.radial_moments",
                                          "power_theory.are_ss_flm"]
    assert _owners("_ARE_LAWS") == []


def test_pair_sum_overflow_is_refused_by_the_raw_pair_kernel_alone():
    # flm, fc, flm_statistic and trace_sigma2_hat all meet it in core._pair_sums
    assert _owners("inner products overflow") == ["core._pair_sums"]


def test_thread_count_has_one_channel_per_surface():
    # --threads reaches McConfig.threads; no config key or environment variable does
    assert _owners("HDWN_THREADS") == []
    assert _owners('"threads"') == ["montecarlo.McConfig.__post_init__"] * 2


def test_lag_window_rule_has_one_owner():
    # core._lag states H <= n-2 for every single call and for McConfig
    assert _owners("too large for n") == ["core._lag"]
    assert [path.name for path in sorted(SRC.glob("*.py")) if path.stem != "core"
            and ("n - 2" in (text := path.read_text()) or "n-2" in text)] == []


def test_windows_are_distinct_in_first_seen_order():
    assert _windows((2, 2, 1), len(SERIES)) == (2, 1)
    outcomes, errors = evaluate_tests_collect(SERIES, ("ss",), (2, 2, 1))
    assert list(outcomes) == [("ss", 2), ("ss", 1)] and not errors


def test_calibration_predicate_has_one_owner():
    assert _owners("_calibrates(") == [
        "montecarlo.McConfig.__post_init__", "stats_tests._calibrates", "stats_tests._max_results"]
    assert _owners("p * p <") == []


def test_blas_is_pinned_in_the_kernels_alone():
    # the Gram, the draw and the Cholesky factor hold one thread themselves, and
    # run_experiment for its whole run; a decorator line lies before its def, so
    # it counts for the module: dgp._draw_block and montecarlo.run_experiment
    assert _owners("_single_threaded_blas(") == [
        "_blas._single_threaded_blas", "core._pair_sums", "dgp._cholesky", "dgp", "montecarlo"]
    assert _owners("_blas", "stats_tests.py") == []


_EXPORTERS = ("core", "dgp", "errors", "montecarlo", "power_theory", "stats_tests")


def test_the_package_exports_the_union_of_its_modules_lists():
    modules = [importlib.import_module(f"hdwn.{name}") for name in _EXPORTERS]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    names = [name for module in modules for name in module.__all__]
    # a name in two lists would be shadowed silently by the later star-import
    assert len(set(names)) == len(names)
    assert hdwn.__all__ == sorted(set(hdwn.__all__)) == sorted(names)
    # __init__.py names no public name: each is written in its own module alone
    assert [name for name in hdwn.__all__ if _owners(name, "__init__.py")] == []


def test_module_helpers_stay_out_of_the_package_namespace():
    from hdwn.core import ZERO_NORM_THRESHOLD, as_signs  # noqa: F401
    from hdwn.dgp import resolve_coeff  # noqa: F401

    for name in ("ZERO_NORM_THRESHOLD", "as_signs", "resolve_coeff"):
        assert name not in hdwn.__all__ and not hasattr(hdwn, name)
    code = ("import sys, hdwn; print(sorted({'argparse', 'csv', 'json', 'concurrent.futures'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


_CELL = "[c]\ntests = ss\nlags = 1\nreps = 5\nscenario = normal\nn = 30\np = 4\n"


def _csv(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    return read_series_csv(path)


def _cli(*argv):
    args = _build_parser().parse_args(argv)
    return args.func(args)


def _h1_spec(radial, **fields):
    return H1Spec(CovarianceSpec("identity", 3), radial=radial, **fields)


def _json_report(**cell):
    """A results.json report of an iid cell, ss at H = 1 with a rate of 0.5 over 2 reps, with
    these cell fields replaced."""
    keys = {"tests": "ss", "lags": "1", "reps": 2, "scenario": "normal", "model": "iid",
            "n": "10", "p": "3"}
    cells = [{"test": "ss", "H": 1, "rejection_rate": 0.5, "mc_se": math.sqrt(0.125), "reps": 2,
              "errors": 0, **cell}]
    return {"label": "c", "config": keys, "cells": cells,
            "wall_time_s": 0.5, "coeff_fingerprint": None}


def _read(**report):
    """reports_from_dict of a results.json holding _json_report() with these fields replaced."""
    return reports_from_dict({"seed": 0, "reports": [{**_json_report(), **report}]})


def _read_config(**keys):
    return _read(config={**_json_report()["config"], **keys})


def _read_cell(**cell):
    return _read(cells=_json_report(**cell)["cells"])


def test_a_results_json_report_is_read_back():
    (report,) = _read()
    assert report.cells == (McCell("ss", 1, 0.5, math.sqrt(0.125), 2, 0),)
    assert (report.config.label, report.config.reps, report.wall_time_s) == ("c", 2, 0.5)
    assert report.config.master_seed == derive_seed(0, "c") and report.config.threads is None


# id "<owner>.<what>": (call of tmp_path, error type, a phrase of the message naming the cause)
REFUSALS = {
    "sign_transform.one-dimensional": (lambda _: sign_transform(np.ones(5)), InvalidInputError,
                                       "series must be two-dimensional"),
    "sign_transform.no-columns": (lambda _: sign_transform(np.ones((5, 0))), InvalidInputError,
                                  "at least 1 column"),
    "TestOutcome.p_value": (lambda _: TestOutcome(1.0, 1.0, 1.5, False, 0.05), InvalidInputError,
                            "p_value"),
    "TestOutcome.statistic-text": (lambda _: TestOutcome("s", 1.0, 0.5, False, 0.05),
                                   InvalidInputError, "statistic must be a real number, got 's'"),
    "TestOutcome.statistic-bool": (lambda _: TestOutcome(True, 1.0, 0.5, False, 0.05),
                                   InvalidInputError, "statistic must be a real number, got True"),
    "TestOutcome.standardized-none": (lambda _: TestOutcome(1.0, None, 0.5, False, 0.05),
                                      InvalidInputError,
                                      "standardized must be a real number, got None"),
    "TestOutcome.standardized-complex": (lambda _: TestOutcome(1.0, 1j, 0.5, False, 0.05),
                                         InvalidInputError,
                                         "standardized must be a real number, got 1j"),
    "TestOutcome.p_value-text": (lambda _: TestOutcome(1.0, 1.0, "x", False, 0.05),
                                 InvalidInputError, "p_value must be a real number, got 'x'"),
    "TestOutcome.p_value-none": (lambda _: TestOutcome(1.0, 1.0, None, False, 0.05),
                                 InvalidInputError, "p_value must be a real number, got None"),
    "TestOutcome.p_value-bool": (lambda _: TestOutcome(1.0, 1.0, np.True_, False, 0.05),
                                 InvalidInputError,
                                 "p_value must be a real number, got np.True_"),
    # reject is a bool, stored as bool; nuisance a dict of str to real numbers
    "TestOutcome.reject-text": (lambda _: TestOutcome(1.0, 1.0, 0.01, "x", 0.05),
                                InvalidInputError, "reject must be a bool, got 'x'"),
    "TestOutcome.reject-list": (lambda _: TestOutcome(1.0, 1.0, 0.5, [], 0.05),
                                InvalidInputError, "reject must be a bool, got []"),
    "TestOutcome.reject-int": (lambda _: TestOutcome(1.0, 1.0, 0.01, 1, 0.05),
                               InvalidInputError, "reject must be a bool, got 1"),
    "TestOutcome.nuisance-int": (lambda _: TestOutcome(1.0, 1.0, 0.5, False, 0.05, 5),
                                 InvalidInputError,
                                 "nuisance must be a dict of str to real numbers, got 5"),
    "TestOutcome.nuisance-bool-value": (
        lambda _: TestOutcome(1.0, 1.0, 0.5, False, 0.05, {"sigma_hat": True}), InvalidInputError,
        "nuisance must be a dict of str to real numbers, got {'sigma_hat': True}"),
    "TestOutcome.nuisance-text-value": (
        lambda _: TestOutcome(1.0, 1.0, 0.5, False, 0.05, {"sigma_hat": "1"}), InvalidInputError,
        "nuisance must be a dict of str to real numbers, got {'sigma_hat': '1'}"),
    "TestOutcome.nuisance-int-key": (
        lambda _: TestOutcome(1.0, 1.0, 0.5, False, 0.05, {1: 1.0}), InvalidInputError,
        "nuisance must be a dict of str to real numbers, got {1: 1.0}"),
    "normal_upper_tail.none": (lambda _: normal_upper_tail(None), InvalidInputError,
                               "z must be a real number other than NaN, got None"),
    "normal_upper_tail.text": (lambda _: normal_upper_tail("a"), InvalidInputError,
                               "z must be a real number other than NaN, got 'a'"),
    "normal_upper_tail.list": (lambda _: normal_upper_tail([1.0]), InvalidInputError,
                               "z must be a real number other than NaN, got [1.0]"),
    "normal_upper_tail.bool": (lambda _: normal_upper_tail(np.True_), InvalidInputError,
                               "z must be a real number other than NaN, got np.True_"),
    "normal_upper_tail.complex": (lambda _: normal_upper_tail(1 + 1j), InvalidInputError,
                                  "z must be a real number other than NaN, got (1+1j)"),
    "normal_upper_tail.nan": (lambda _: normal_upper_tail(math.nan), InvalidInputError,
                              "z must be a real number other than NaN, got nan"),
    "spatial_sign.matrix": (lambda _: spatial_sign(np.ones((2, 2))), InvalidInputError,
                            "expected a vector"),
    "spatial_sign.empty": (lambda _: spatial_sign([]), InvalidInputError, "expected a vector"),
    "spatial_sign.complex": (lambda _: spatial_sign([1j, 1.0]), InvalidInputError,
                             "real numbers"),
    "ss_test.complex": (lambda _: ss_test(SERIES + 0j, 1), InvalidInputError, "real numbers"),
    "ss_statistic.text": (lambda _: ss_statistic("signs", 1), InvalidInputError, "real numbers"),
    "ScenarioSpec.scale_factor": (lambda _: ScenarioSpec("mixture", scale_factor=0.0),
                                  InvalidSpecError, "scale_factor"),
    "CoeffSpec.explicit": (lambda _: CoeffSpec("explicit", 3), InvalidSpecError,
                           "'explicit' is not a valid CoeffRegime; expected one of 'dense', "
                           "'sparse'"),
    "ModelSpec.h1": (lambda _: ModelSpec("h1"), InvalidSpecError, "H1Spec"),
    "ModelSpec.h1-on-iid": (lambda _: ModelSpec("iid", h1=H1Spec(CovarianceSpec("identity", 3))),
                            InvalidSpecError, "H1Spec"),
    # an h1 model's h1 is an H1Spec, checked by the one check of McConfig's specs and sigma0
    "ModelSpec.h1-str": (lambda _: ModelSpec("h1", h1="x"), InvalidSpecError,
                         "h1 must be an H1Spec, got str"),
    "ModelSpec.h1-covariance-spec": (lambda _: ModelSpec("h1", h1=CovarianceSpec("identity", 3)),
                                     InvalidSpecError, "h1 must be an H1Spec, got CovarianceSpec"),
    "ModelSpec.coeff-missing": (lambda _: ModelSpec("var1"), InvalidSpecError,
                                "coefficient matrix"),
    "ModelSpec.coeff-not-square": (lambda _: ModelSpec("var1", coeff=np.zeros((2, 3))),
                                   InvalidSpecError, "coefficient matrix"),
    "ModelSpec.coeff-not-finite": (lambda _: ModelSpec("var1", coeff=np.full((2, 2), np.nan)),
                                   InvalidSpecError, "coefficient matrix"),
    "ModelSpec.coeff-ragged": (lambda _: ModelSpec("var1", coeff=[[0.1, 0.2], [0.3]]),
                               InvalidSpecError, "coefficient matrix"),
    "ModelSpec.coeff-text": (lambda _: ModelSpec("var1", coeff="dense"), InvalidSpecError,
                             "coefficient matrix"),
    "gen_series.coeff-size": (lambda _: gen_series(ModelSpec("var1", coeff=np.zeros((3, 3))),
                                                   ScenarioSpec.normal(), 10, 4, 0),
                              InvalidSpecError, "coefficient matrix"),
    "gen_series.explosive": (lambda _: gen_series(ModelSpec("varma1", coeff=3.0 * np.eye(2)),
                                                  ScenarioSpec.normal(), 10, 2, 0),
                             ExplosiveModelError, "VARMA(1)"),
    "gen_series.innov_cov": (lambda _: gen_series(ModelSpec("iid"), ScenarioSpec.normal(), 10,
                                                  2, 0, innov_cov=np.full((2, 2), np.inf)),
                             InvalidInputError, "covariance"),
    "gen_series.innov_cov-ragged": (lambda _: gen_series(ModelSpec("iid"), ScenarioSpec.normal(),
                                                         10, 2, 0, innov_cov=[[1.0, 0.0], [0.0]]),
                                    InvalidInputError, "covariance"),
    # an h1 series' scatter is its sigma0
    "gen_series.innov_cov-on-h1": (lambda _: gen_series(
        ModelSpec("h1", h1=_h1_spec("chi_p")), ScenarioSpec.normal(), 10, 3, 0,
        innov_cov=np.full((3, 3), 7.0)), InvalidSpecError, "h1 series takes no innov_cov"),
    "gen_series.innov_cov-ragged-on-h1": (lambda _: gen_series(
        ModelSpec("h1", h1=_h1_spec("chi_p")), ScenarioSpec.normal(), 10, 3, 0,
        innov_cov=[[1.0, 0.0], [0.0]]), InvalidSpecError, "h1 series takes no innov_cov"),
    "H1Spec.radial-custom": (lambda _: _h1_spec("custom"), InvalidSpecError,
                             "'custom' is not a valid RadialKind; expected one of 'chi_p', "
                             "'constant'"),
    "H1Spec.sigma1_scale-negative": (lambda _: H1Spec(CovarianceSpec("identity", 3),
                                                      sigma1_scale=-1.0),
                                     InvalidSpecError, "sigma1_scale"),
    # sigma0 is a CovarianceSpec, the type of every cell's cov
    "H1Spec.sigma0-matrix": (lambda _: H1Spec(np.eye(3)), InvalidSpecError,
                             "sigma0 must be a CovarianceSpec, got ndarray"),
    "gen_h1_model.sigma0-size": (lambda _: gen_h1_model(H1Spec(CovarianceSpec("identity", 5)),
                                                        20, 4, 0),
                                 InvalidSpecError, "sigma0 is (5, 5), expected (4, 4)"),
    "gen_h1_model.constant-on-mixture": (lambda _: gen_h1_model(
        _h1_spec("constant"), 6, 3, 0, ScenarioSpec.mixture()), InvalidSpecError,
        "constant radial law takes normal innovations, got mixture"),
    # a draw numpy cannot index is refused with n and p, at the call and at the cell
    "gen_series.n-unindexable": (lambda _: _iid(2**70, 3), InvalidInputError,
                                 f"an n={2**70} by p=3 draw has more entries than numpy can index"),
    "gen_series.p-unindexable": (lambda _: _iid(6, 2**62), InvalidInputError,
                                 f"an n=6 by p={2**62} draw has more entries than numpy can index"),
    "gen_h1_model.n-unindexable": (lambda _: _h1(2**70, 3), InvalidInputError,
                                   f"an n={2**70} by p=3 draw has more entries than numpy can "
                                   "index"),
    "McConfig.n-unindexable": (lambda _: _config(n=2**70), InvalidSpecError,
                               f"an n={2**70} by p=3 draw has more entries than numpy can index"),
    # an h1 cell's cov is its Sigma0, and its scenario draws the radii
    "McConfig.sigma0-not-cov": (lambda _: _config(model=ModelSpec("h1", h1=H1Spec(
        CovarianceSpec("polydecay", 3)))), InvalidSpecError, "sigma0 must be the cell's cov"),
    "McConfig.constant-on-t": (lambda _: _config(model=ModelSpec("h1", h1=_h1_spec("constant")),
                                                 scenario=ScenarioSpec("t")),
                               InvalidSpecError, "constant radial law takes normal innovations"),
    "MixtureNormal.sigma": (lambda _: MixtureNormal(0.5, 0.0), InvalidInputError, "sigma"),
    "chi_radial_c1.dof": (lambda _: chi_radial_c1(1.0), UndefinedMomentError,
                          "degree of freedom"),
    "PowerInput.tr_s0sq": (lambda _: PowerInput(10, 1.0, 0.0), InvalidInputError, "tr_s0sq"),
    # an int too large for a float is not finite, and raises no bare OverflowError
    "PowerInput.tr_s0s1-huge-int": (lambda _: PowerInput(10, 10**400, 1.0), InvalidInputError,
                                    "tr_s0s1 must be a finite real number"),
    "ScenarioSpec.df-huge-int": (lambda _: ScenarioSpec("t", df=10**400), InvalidSpecError,
                                 "df must be a finite real number"),
    "McConfig.alpha-huge-int": (lambda _: _config(alpha=10**400), InvalidSpecError,
                                "alpha must be a finite real number"),
    "PowerInput.c1": (lambda _: PowerInput(10, 1.0, 1.0, c1=0.5), InvalidInputError, "c1"),
    "PowerInput.moment_ratio": (lambda _: PowerInput(10, 1.0, 1.0, moment_ratio=1.5),
                                InvalidInputError, "moment_ratio"),
    "radial_moments.dist": (lambda _: radial_moments(object(), 10), InvalidInputError,
                            "unsupported distribution"),
    "are_ss_flm.dist": (lambda _: are_ss_flm(object()), InvalidInputError,
                        "unsupported distribution"),
    # E^2(1/w) or E(w^2) past the largest float: no inf for `hdwn are` to print as JSON
    "are_ss_flm.overflow-small-sigma": (lambda _: are_ss_flm(MixtureNormal(0.5, 1e-200)),
                                        InvalidInputError, "E^2(1/w) E(w^2) of MixtureNormal("
                                        "v=0.5, sigma=1e-200) overflows a float"),
    "are_ss_flm.overflow-large-sigma": (lambda _: are_ss_flm(MixtureNormal(0.5, 1e160)),
                                        InvalidInputError, "overflows a float"),
    "flm_statistic.overflow": (lambda _: flm_statistic(HUGE, 2), DegenerateDataError,
                               "pairwise inner products overflow"),
    "trace_sigma2_hat.overflow": (lambda _: trace_sigma2_hat(HUGE), DegenerateDataError,
                                  "pairwise inner products overflow"),
    # gen_coeff takes a Generator or an integer seed, as every generator does
    "gen_coeff.seed-none": (lambda _: gen_coeff(CoeffSpec("dense", 3), None), InvalidInputError,
                            "seed must be an integer >= 0, got None"),
    "gen_coeff.seed-bool": (lambda _: gen_coeff(CoeffSpec("dense", 3), True), InvalidInputError,
                            "seed must be an integer >= 0, got True"),
    "gen_coeff.seed-float": (lambda _: gen_coeff(CoeffSpec("dense", 3), 2.5), InvalidInputError,
                             "seed must be an integer >= 0, got 2.5"),
    "derive_seed.bool-path-part": (lambda _: derive_seed(0, True), InvalidInputError,
                                   "stream path part must be an integer >= 0, got True"),
    "cross_correlations.constant-column": (
        lambda _: cross_correlations(np.column_stack([np.ones(10), np.arange(10.0)]), 1),
        DegenerateDataError, "zero-variance column"),
    "config.missing-key": (lambda _: parse_experiment_configs(_CELL, seed=0), ConfigError,
                           "missing required key 'model'"),
    "config.parse-error": (lambda _: parse_experiment_configs("[c\nn = 3\n", seed=0),
                           ConfigError, "config parse error"),
    "config.no-sections": (lambda _: parse_experiment_configs("[DEFAULT]\nn = 3\n", seed=0),
                           ConfigError, "no experiment sections"),
    "config.coeff-on-h1": (lambda _: parse_experiment_configs(
        _CELL + "model = h1\ncoeff = dense\n", seed=0), ConfigError,
        "[c] h1 model takes no coefficient matrix"),
    "config.coeff-explicit": (lambda _: parse_experiment_configs(
        _CELL + "model = var1\ncoeff = explicit\n", seed=0), ConfigError,
        "not a valid CoeffRegime"),
    "config.coeff-small-p": (lambda _: parse_experiment_configs(
        _CELL + "model = var1\ncoeff = sparse\n", seed=0), ConfigError,
        "[c] sparse regime needs a bigger p"),
    # a family's key on a cell of another family is refused, from [DEFAULT] too
    "config.df-on-normal": (lambda _: parse_experiment_configs(
        _CELL + "model = iid\ndf = 9\n", seed=0), ConfigError, "[c] normal innovations take no df"),
    "config.default-df-on-normal": (lambda _: parse_experiment_configs(
        "[DEFAULT]\ndf = 5\n" + _CELL + "model = iid\n", seed=0), ConfigError,
        "[c] normal innovations take no df"),
    "config.coeff-on-iid": (lambda _: parse_experiment_configs(
        _CELL + "model = iid\ncoeff = dense\n", seed=0), ConfigError,
        "[c] iid model takes no coefficient matrix"),
    # a model's burn-in is its kind's, with no key
    "config.burn_in": (lambda _: parse_experiment_configs(
        _CELL + "model = var1\ncoeff = dense\nburn_in = 50\n", seed=0), ConfigError,
        "unknown config keys: c.burn_in"),
    # are builds its scenario as a config cell does, with ScenarioSpec's refusals
    "are.df": (lambda _: _cli("are", "--dist", "t", "--df", "2"), InvalidSpecError,
               "t innovations need df > 2"),
    "are.df-on-normal": (lambda _: _cli("are", "--dist", "normal", "--df", "5"),
                         InvalidSpecError, "normal innovations take no df"),
    # a spec field holding anything but its spec
    "McConfig.scenario-list": (lambda _: _config(scenario=[[1]]), InvalidSpecError,
                               "scenario must be a ScenarioSpec, got list"),
    "McConfig.model-str": (lambda _: _config(model="iid"), InvalidSpecError,
                           "model must be a ModelSpec, got str"),
    "McConfig.cov-ndarray": (lambda _: _config(cov=np.eye(3)), InvalidSpecError,
                             "cov must be a CovarianceSpec, got ndarray"),
    # every windowed call and McConfig refuse lag n - 1 by the one rule of core._lag
    **{f"{call.__name__}.H-n-1": (lambda _, call=call: call(SERIES, 11), InvalidLagError,
                                  "H=11 too large for n=12 rows (need H <= n-2)")
       for call in (flm_statistic, cross_correlations, ss_test, flm_test, pv_test, max_test,
                    fc_test)},
    "ss_statistic.H-n-1": (lambda _: ss_statistic(sign_transform(SERIES), 11), InvalidLagError,
                           "H=11 too large for n=12 rows (need H <= n-2)"),
    "evaluate_tests_collect.H-n-1": (
        lambda _: evaluate_tests_collect(SERIES, ("ss",), (1, 11)), InvalidLagError,
        "H=11 too large for n=12 rows (need H <= n-2)"),
    "McConfig.H-n-1": (lambda _: _config(H_values=(1, 9)), InvalidSpecError,
                       "H=9 too large for n=10 rows (need H <= n-2)"),
    # a collection is iterable and not a string; a 0-d array is neither
    "evaluate_tests_collect.tests-0d": (lambda _: evaluate_tests_collect(
        SERIES, np.array("ss"), (1,)), InvalidInputError, "tests must be a nonempty collection"),
    "McConfig.H_values-0d": (lambda _: _config(H_values=np.array(2)), InvalidSpecError,
                             "H_values must be a nonempty collection"),
    # results.json holds a report's label, its config keys and its cells, each checked
    "reports_from_dict.older-file": (lambda _: reports_from_dict({"seed": 0, "reports": [
        {k: v for k, v in _json_report().items() if k != "label"}]}), ConfigError,
        "reports[0] must hold the keys label, config, cells, wall_time_s, coeff_fingerprint; a "
        "results.json written before reports stored their config keys cannot be read"),
    "reports_from_dict.config-not-object": (lambda _: _read(config=["n = 10"]), ConfigError,
                                            "[c] config must be a JSON object, got ['n = 10']"),
    "reports_from_dict.config-int": (lambda _: _read_config(n=10), ConfigError,
                                     "[c] config key 'n' must be a string, got 10"),
    "reports_from_dict.config-reps-text": (lambda _: _read_config(reps="2"), ConfigError,
                                           "[c] config key 'reps' must be an integer, got '2'"),
    "reports_from_dict.config-unknown-key": (lambda _: _read_config(burn_in="50"), ConfigError,
                                             "unknown config keys: c.burn_in"),
    "reports_from_dict.config-refused": (lambda _: _read_config(df="5"), ConfigError,
                                         "[c] normal innovations take no df"),
    "reports_from_dict.cells-order": (lambda _: _read(
        config={**_json_report()["config"], "lags": "1,2"},
        cells=[*_json_report(H=2)["cells"], *_json_report()["cells"]]), ConfigError,
        "[c] cells hold the (test, H) pairs [('ss', 2), ('ss', 1)], expected "
        "[('ss', 1), ('ss', 2)]"),
    "reports_from_dict.cells-object": (lambda _: _read(cells=_json_report()["cells"][0]),
                                       ConfigError, "[c] cells must be an array of objects"),
    "reports_from_dict.cell-keys": (lambda _: _read_cell(version=1), ConfigError,
                                    "[c] ss@H1 must hold the keys of an McCell"),
    "reports_from_dict.rate-range": (lambda _: _read_cell(rejection_rate=1.5), ConfigError,
                                     "[c] ss@H1 rejection_rate must lie in [0, 1], got 1.5"),
    "reports_from_dict.rate-text": (lambda _: _read_cell(rejection_rate="abc"), ConfigError,
                                    "[c] ss@H1 rejection_rate must be a finite real number"),
    "reports_from_dict.cell-reps": (lambda _: _read_cell(reps=-5, errors=7), ConfigError,
                                    "[c] ss@H1 reps must be an integer >= 1, got -5"),
    "reports_from_dict.cell-errors": (lambda _: _read_cell(errors=2.5), ConfigError,
                                      "[c] ss@H1 errors must be an integer >= 0, got 2.5"),
    "reports_from_dict.reps-sum": (lambda _: _read_cell(errors=1), ConfigError,
                                   "[c] ss@H1 reps + errors is 3, expected the config's reps 2"),
    "reports_from_dict.mc_se": (lambda _: _read_cell(mc_se=0.25), ConfigError,
                                "[c] ss@H1 mc_se must be sqrt(rate * (1 - rate) / reps) = "
                                "0.3535533905932738, got 0.25"),
    # a report's coeff_fingerprint is the one a run of its config gives
    "reports_from_dict.fingerprint-text": (lambda _: _read(coeff_fingerprint="abc"), ConfigError,
                                           "[c] coeff_fingerprint must be None, as a run of its "
                                           "config gives, got 'abc'"),
    "reports_from_dict.fingerprint-on-iid": (lambda _: _read(coeff_fingerprint=0.5),
                                             ConfigError, "[c] coeff_fingerprint must be None, "
                                             "as a run of its config gives, got 0.5"),
    "reports_from_dict.fingerprint-wrong": (lambda _: _read(
        config={**_json_report()["config"], "model": "var1", "coeff": "dense"},
        coeff_fingerprint=1.0), ConfigError, "[c] coeff_fingerprint must be 0.05679458502948424, "
        "as a run of its config gives, got 1.0"),
    "reports_from_dict.wall-time-negative": (lambda _: _read(wall_time_s=-1.0), ConfigError,
                                             "[c] wall_time_s must be >= 0, got -1.0"),
    "reports_from_dict.wall-time-infinite": (lambda _: _read(wall_time_s=math.inf), ConfigError,
                                             "[c] wall_time_s must be a finite real number"),
    "reports_from_dict.wall-time-text": (lambda _: _read(wall_time_s="x"), ConfigError,
                                         "[c] wall_time_s must be a finite real number, got 'x'"),
    # the document is an object of an integer seed and an array of report objects
    "reports_from_dict.not-object": (lambda _: reports_from_dict([]), ConfigError,
                                     "results.json must be an object of seed and reports, got []"),
    "reports_from_dict.unknown-top-key": (lambda _: reports_from_dict(
        {"seed": 0, "reports": [], "version": 1}), ConfigError,
        "results.json must be an object of seed and reports"),
    "reports_from_dict.seed-text": (lambda _: reports_from_dict({"seed": "0", "reports": []}),
                                    ConfigError, "results.json seed must be an integer >= 0"),
    "reports_from_dict.reports-object": (lambda _: reports_from_dict(
        {"seed": 0, "reports": _json_report()}), ConfigError,
        "results.json reports must be an array"),
    "reports_from_dict.report-not-object": (lambda _: reports_from_dict(
        {"seed": 0, "reports": [1]}), ConfigError, "reports[0] must hold the keys label, "),
    "reports_from_dict.report-unknown-key": (lambda _: _read(version=1), ConfigError,
                                             "reports[0] must hold the keys label, "),
    "reports_from_dict.label-int": (lambda _: _read(label=1), ConfigError,
                                    "reports[0].label must be a string, got 1"),
    "reports_from_dict.config-reps-bool": (lambda _: _read_config(reps=True), ConfigError,
                                           "[c] config key 'reps' must be an integer, got True"),
    "reports_from_dict.config-missing-key": (lambda _: _read(config={
        k: v for k, v in _json_report()["config"].items() if k != "n"}), ConfigError,
        "[c] missing required key 'n'"),
    # a report holds a cell per (test, H) of its config
    "reports_from_dict.cells-missing": (lambda _: _read(
        config={**_json_report()["config"], "lags": "1,2"}), ConfigError,
        "[c] cells hold the (test, H) pairs [('ss', 1)], expected [('ss', 1), ('ss', 2)]"),
    "reports_from_dict.cells-not-objects": (lambda _: _read(cells=[1]), ConfigError,
                                            "[c] cells must be an array of objects, got [1]"),
    "reports_from_dict.rate-negative": (lambda _: _read_cell(rejection_rate=-0.5), ConfigError,
                                        "[c] ss@H1 rejection_rate must lie in [0, 1], got -0.5"),
    "reports_from_dict.rate-nan": (lambda _: _read_cell(rejection_rate=math.nan), ConfigError,
                                   "[c] ss@H1 rejection_rate must be a finite real number"),
    "reports_from_dict.cell-reps-float": (lambda _: _read_cell(reps=2.0), ConfigError,
                                          "[c] ss@H1 reps must be an integer >= 1, got 2.0"),
    "reports_from_dict.cell-errors-negative": (lambda _: _read_cell(reps=3, errors=-1),
                                               ConfigError,
                                               "[c] ss@H1 errors must be an integer >= 0, got -1"),
    "csv.header-width": (lambda tmp: _csv(tmp, "a,b,c\n1,2\n3,4\n"), ConfigError, "header"),
    "csv.non-finite": (lambda tmp: _csv(tmp, "1,2\n3,inf\n"), ConfigError, "non-finite"),
    "csv.first-line-empty-field": (lambda tmp: _csv(tmp, "1,,3\n4,5,6\n7,8,9\n"), ConfigError,
                                   "line 1: could not convert string to float: ''"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_typed_and_names_its_cause(case, tmp_path):
    call, error, phrase = REFUSALS[case]
    with pytest.raises(HdwnError) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert phrase in str(info.value)


# (kind, an optional field, a value that is not the field's default)
OPTIONAL_FIELDS = [(radial.value, "sigma1_scale", 0.5) for radial in RadialKind] + [(family.value, name, value) for family in ScenarioKind
     for name, value in (("df", 5.0), ("gamma", 0.3), ("scale_factor", 4.0))]


def _draws(spec):
    """What a spec decides: a scenario's gen_series bytes, or an H1Spec's rows and
    H1Metadata."""
    if isinstance(spec, ScenarioSpec):
        return gen_series(ModelSpec("iid"), spec, 12, 3, 0).tobytes()
    series, meta = gen_h1_model(spec, 12, 3, 0)
    return series.tobytes(), meta


@pytest.mark.parametrize("kind, name, value", OPTIONAL_FIELDS,
                         ids=[f"{kind}-{name}" for kind, name, _ in OPTIONAL_FIELDS])
def test_every_optional_field_is_read_or_refused(kind, name, value):
    # a spec that takes a field must draw or report something else with it
    build = _h1_spec if name == "sigma1_scale" else ScenarioSpec
    try:
        spec = build(kind, **{name: value})
    except InvalidSpecError as exc:
        assert name in str(exc)
        return
    assert _draws(spec) != _draws(build(kind))


def test_are_prints_finite_p_moments_as_text(capsys):
    assert main(["are", "--dist", "mixture", "--mixture-gamma", "0.5", "--mixture-scale", "4",
                 "--p", "100"]) == 0
    moments = radial_moments(MixtureNormal(0.5, 2.0), 100)
    assert capsys.readouterr().out.splitlines() == [
        f"are_ss_flm: {are_ss_flm(MixtureNormal(0.5, 2.0)):.6f}",
        f"e_r_inv: {moments.e_r_inv:.6g}", f"e_r2: {moments.e_r2:.6g}", f"c1: {moments.c1:.6f}",
        f"c1_squared: {moments.c1**2:.6f}"]
