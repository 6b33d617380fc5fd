"""The null law of ss, flm and pv at p > n, the paper's regime.

Criterion 2 of tests/test_acceptance.py checks one shape with p < n. Here
its method runs at the two p > n shapes of the highdim_calls benchmark,
(100, 400) and (60, 1000), on normal and t(3) i.i.d. series: for each of
ss, flm and pv at H = 1 and 3, a KS test of the standardized statistic
against N(0, 1) and the size at alpha = 0.05.

The bounds and the seed were fixed before the first run. KS uses criterion
2's formula, Bonferroni-corrected over the 24 cases; the size band is
0.05 plus or minus three binomial standard errors at REPS replications.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import kstest

from hdwn import ModelSpec, ScenarioSpec, derive_rng, evaluate_tests, gen_series

SEED = 0
REPS = 1500
TESTS = ("ss", "flm", "pv")
WINDOWS = (1, 3)
SHAPES = ((100, 400), (60, 1000))
FAMILIES = {"normal": ScenarioSpec.normal(), "t3": ScenarioSpec.student_t(3)}
CASES = list(itertools.product(SHAPES, FAMILIES, TESTS, WINDOWS))

ALPHA = 0.05
KS_BOUND = math.sqrt(-math.log(0.005 / len(CASES)) / (2.0 * REPS))  # 0.053
SIZE_BAND = 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / REPS)  # 0.017


@pytest.fixture(scope="module")
def outcomes():
    """(shape, family, test, H) -> the REPS (standardized, reject) pairs of that case."""
    found = {case: np.empty((REPS, 2)) for case in CASES}
    for (n, p), family in itertools.product(SHAPES, FAMILIES):
        for r in range(REPS):
            X = gen_series(ModelSpec("iid"), FAMILIES[family], n, p,
                           derive_rng(SEED, "null-p>n", family, n, p, r))
            for (test, H), out in evaluate_tests(X, TESTS, WINDOWS, ALPHA).items():
                found[(n, p), family, test, H][r] = out.standardized, out.reject
    return found


@pytest.mark.parametrize("shape, family, test, H", CASES,
                         ids=[f"{t}-H{H}-{f}-{n}x{p}" for (n, p), f, t, H in CASES])
def test_null_law_at_p_above_n(outcomes, shape, family, test, H):
    standardized, reject = outcomes[shape, family, test, H].T
    assert kstest(standardized, "norm").statistic < KS_BOUND
    assert abs(reject.mean() - ALPHA) <= SIZE_BAND
