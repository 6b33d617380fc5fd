"""One check per kind of input: integers, probabilities and other bounded reals.

Every public integer parameter goes through core._integer, every probability
through core._fraction and every other bounded real through core._real. A
refusal is a typed HdwnError whose message names the parameter; a numpy
integer is accepted and stored as a Python int, so reports stay JSON-ready.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from hdwn import (
    CoeffSpec,
    CovarianceSpec,
    H1Spec,
    HdwnError,
    InvalidInputError,
    InvalidSpecError,
    McConfig,
    MixtureNormal,
    ModelSpec,
    Normal,
    PowerInput,
    ScenarioSpec,
    StudentT,
    TestOutcome,
    chi_radial_c1,
    derive_rng,
    evaluate_tests_collect,
    gen_h1_model,
    gen_series,
    normal_upper_quantile,
    radial_moments,
    run_experiment,
)
from hdwn.cli import report_from_dict, report_to_dict

SRC = Path(__file__).resolve().parents[1] / "src" / "hdwn"

SERIES = np.random.default_rng(0).standard_normal((12, 3))


def _config(**fields):
    base = dict(tests=("ss",), scenario=ScenarioSpec.normal(), model=ModelSpec("iid"),
                cov=CovarianceSpec("identity", 3), n=10, p=3, H_values=(1,), reps=2)
    return McConfig(**{**base, **fields})


def _iid(n, p):
    return gen_series(ModelSpec("iid"), ScenarioSpec.normal(), n, p, 0).data.tobytes()


def _h1(n, p):
    return gen_h1_model(H1Spec(CovarianceSpec("identity", 3)), n, p, 0)[0].data.tobytes()


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
    "ModelSpec.burn_in": (lambda v: ModelSpec("iid", burn_in=v), 3, lambda m: m.burn_in,
                          True, True),
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
    "ScenarioSpec.df": (lambda v: ScenarioSpec("t", df=v), False),
    "ScenarioSpec.scale_factor": (lambda v: ScenarioSpec("mixture", scale_factor=v), False),
    "H1Spec.sigma1_scale": (lambda v: H1Spec(CovarianceSpec("identity", 3), sigma1_scale=v),
                            True),
    "H1Spec.radial_c1": (lambda v: H1Spec(CovarianceSpec("identity", 3), radial_c1=v), True),
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


@pytest.mark.parametrize("case, bad", _refusals(PROBABILITIES, (True, 1.5, 0.0, 1.0, "x", None),
                                                lambda case: False))
def test_probability_refusal_is_typed_and_named(case, bad):
    _refused(PROBABILITIES[case], bad, case)


@pytest.mark.parametrize("case", PROBABILITIES)
def test_numpy_probability_is_accepted(case):
    PROBABILITIES[case](np.float32(0.25))
    PROBABILITIES[case](np.float64(0.25))


@pytest.mark.parametrize("case, bad", _refusals(REALS, (True, "x", "5", None),
                                                lambda case: REALS[case][1]))
def test_real_refusal_is_typed_and_named(case, bad):
    _refused(REALS[case][0], bad, case)


def test_vma1_burn_in_is_checked_when_built():
    # one step of burn-in seeds the lagged innovation
    with pytest.raises(InvalidSpecError, match="burn_in must be an integer >= 1, got 0"):
        ModelSpec("vma1", coeff=np.zeros((2, 2)), burn_in=0)


def test_stored_probabilities_are_floats():
    assert type(_config(alpha=np.float32(0.25)).alpha) is float
    assert type(TestOutcome(1.0, 1.0, 0.5, False, np.float32(0.25)).alpha) is float
    assert type(PowerInput(10, 1.0, 1.0, alpha=np.float32(0.25)).alpha) is float
    assert type(ScenarioSpec("mixture", gamma=np.float32(0.25)).gamma) is float


# id: (what to read from a spec built with value, value)
STORED_REALS = {
    "ScenarioSpec.df": (lambda v: ScenarioSpec("t", df=v).df, 3),
    "ScenarioSpec.scale_factor": (lambda v: ScenarioSpec("mixture", scale_factor=v).scale_factor,
                                  3),
    "CoeffSpec.low": (lambda v: CoeffSpec("explicit", 3, m=2, low=v, high=4.0).low, 3),
    "CoeffSpec.high": (lambda v: CoeffSpec("explicit", 3, m=2, low=0.0, high=v).high, 3),
    "H1Spec.sigma1_scale": (lambda v: H1Spec(CovarianceSpec("identity", 3),
                                             sigma1_scale=v).sigma1_scale, 3),
    "H1Spec.radial_c1": (lambda v: H1Spec(CovarianceSpec("identity", 3),
                                          radial_c1=v).radial_c1, 3),
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


def test_numpy_float_report_round_trips_through_json():
    report = run_experiment(_config(scenario=ScenarioSpec("t", df=np.float32(3))))
    back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
    assert report_to_dict(back) == report_to_dict(report)
    assert back.cells == report.cells


@pytest.mark.parametrize("field", ("tests", "H_values"))
@pytest.mark.parametrize("bad", ("ss", None, 3, ()), ids=repr)
def test_collection_refusal_is_typed_and_named(field, bad):
    message = f"{field} must be a nonempty collection, not a string"
    with pytest.raises(InvalidSpecError, match=message):
        _config(**{field: bad})
    given = {"tests": ("ss",), "H_values": (1,), field: bad}
    with pytest.raises(InvalidInputError, match=message):
        evaluate_tests_collect(SERIES, given["tests"], given["H_values"])


def test_numpy_integer_report_round_trips_through_json():
    def config(i):
        return McConfig(tests=("ss", "max"), scenario=ScenarioSpec.normal(),
                        model=ModelSpec("var1", coeff=CoeffSpec("dense", i(5)), burn_in=i(20)),
                        cov=CovarianceSpec("identity", i(5)), n=i(20), p=i(5),
                        H_values=(i(1), i(2)), reps=i(8), master_seed=i(3), threads=i(1))

    report = run_experiment(config(np.int64))
    back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
    assert report_to_dict(back) == report_to_dict(report)
    assert back.cells == report.cells == run_experiment(config(int)).cells


def _owners(phrase: str) -> list[str]:
    """The innermost definition (module.Class.function) around each occurrence of
    phrase in the package source, in file and line order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
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
    assert _owners("(int, np.integer)") == [
        "core.LagWindow.__post_init__", "core._integer", "dgp._seed_sequence"]
    assert _owners("not in TEST_NAMES") == ["stats_tests._test_names"]


def test_packed_layout_is_read_by_the_pair_kernel_alone():
    assert _owners("_packed_index(") == ["core._packed_index", "core._pair_sums"]
    assert _owners("_straddling(") == ["core._straddling", "core._pair_sums"]


def test_every_model_is_drawn_by_one_loop():
    assert _owners("_innovation_rows") == ["dgp._innovation_rows", "dgp._series_sampler"]
    assert _owners("_draw_block") == [
        "dgp._series_sampler", "dgp._series_sampler", "dgp._draw_block"]
    assert _owners("_fill") == []
