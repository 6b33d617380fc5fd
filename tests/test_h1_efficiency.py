"""Under the alternative gen_h1_model draws, the efficiency of ss relative to flm is c1^2.

The draw is H1Spec(CovarianceSpec("identity", 100), sigma1_scale=tau) at
n = p = 100, with t(5) and default mixture radii, REPS series each. The
tests standardize by the drawn series' tr(Sigma^2), where Sigma = (1 + tau^2) I,
so the shift with moment factor 1 is S' = n tau^2 / (sqrt(2) (1 + tau^2)^2).
The mean standardized ss at H = 1 follows c1^2 S', as power_ss says, while
flm's follows S' itself, not the E^2(r)/E(r^2) S' that power_flm assumes:
hence the efficiency c1^2 of H1Metadata, not are_ss_flm.

The rules, the seed and REPS were fixed before the first run. At
tau sqrt(n) = 0.8, ss lies within 3 standard errors of c1^2 S' and more
than 3 above S'; at 1.6, flm lies within 3 of S' and more than 5 above
E^2(r)/E(r^2) S'. At 1.6, ss itself reads 7-11% under c1^2 S', so it is
checked only at 0.8.
"""

import math

import numpy as np
import pytest

from hdwn import (
    CovarianceSpec,
    H1Spec,
    ScenarioSpec,
    derive_rng,
    evaluate_tests_collect,
    gen_h1_model,
    radial_moments,
)
from hdwn.dgp import _radial_law

N = P = 100
REPS = 1000
SCENARIOS = {"t5": ScenarioSpec.student_t(5), "mixture": ScenarioSpec.mixture()}


@pytest.fixture(scope="module")
def draws():
    """(scenario, tau sqrt(n)) -> c1 and the REPS standardized ss and flm values at H = 1."""
    found = {}
    for name, scenario in SCENARIOS.items():
        for root_n_tau in (0.8, 1.6):
            spec = H1Spec(CovarianceSpec("identity", P), sigma1_scale=root_n_tau / math.sqrt(N))
            values = np.empty((REPS, 2))
            for r in range(REPS):
                X, meta = gen_h1_model(spec, N, P, derive_rng(7, "h1probe", r), scenario)
                outcomes, errors = evaluate_tests_collect(X, ("ss", "flm"), (1,))
                assert not errors
                values[r] = outcomes["ss", 1].standardized, outcomes["flm", 1].standardized
            found[name, root_n_tau] = meta.c1, values
    return found


def _shift(root_n_tau: float) -> float:
    """S', the shift with moment factor 1 under the drawn series' tr(Sigma^2)."""
    tau2 = root_n_tau**2 / N
    return N * tau2 / (math.sqrt(2.0) * (1.0 + tau2) ** 2)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    return values.mean(), values.std(ddof=1) / math.sqrt(len(values))


@pytest.mark.parametrize("name", SCENARIOS)
def test_ss_shift_carries_c1_squared(draws, name):
    c1, values = draws[name, 0.8]
    mean, se = _mean_and_se(values[:, 0])
    assert abs(mean - c1**2 * _shift(0.8)) <= 3.0 * se
    assert mean - _shift(0.8) > 3.0 * se


@pytest.mark.parametrize("name, printed", (("t5", 0.8446), ("mixture", 0.7501)))
def test_flm_shift_carries_no_moment_factor(draws, name, printed):
    moments = radial_moments(_radial_law(SCENARIOS[name]), P)
    ratio = (moments.c1 / moments.e_r_inv) ** 2 / moments.e_r2  # E^2(r)/E(r^2): E(r) = c1/E(1/r)
    assert round(ratio, 4) == printed
    _, values = draws[name, 1.6]
    mean, se = _mean_and_se(values[:, 1])
    assert abs(mean - _shift(1.6)) <= 3.0 * se
    assert mean - ratio * _shift(1.6) > 5.0 * se
