"""White-noise tests for high-dimensional series.

Five tests share one lag-aligned pair kernel: a sum test on spatial signs
(ss), the same sum on raw vectors (flm), a pre-standardized sign test that
assumes spherical directions (pv), a max-cross-correlation scan with extreme
value calibration (max), and the Fisher combination of the max and flm
p-values (fc).

ss, flm and pv read one packed strict upper triangle per Gram matrix
(core._packed_index): every lag's pair sum and the trace estimate come from
that vector through numpy elementwise products and sums, never a BLAS call,
so their summation order depends on n and the lag alone.

Statistics that aggregate squared singular values of lagged autocovariance
matrices are a known alternative family and are deliberately not implemented.

These calls run at the caller's BLAS thread count; only run_experiment pins
BLAS to one thread. How BLAS splits a matrix product can move the last bits
of a statistic, so outcomes here may follow OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TestOutcome,
    _packed_gram,
    _pair_square_mean,
    _straddling,
    as_lag,
    as_series,
    as_signs,
    normal_upper_tail,
    sign_transform,
)
from .errors import (
    DegenerateDataError,
    HdwnError,
    InvalidInputError,
)

__all__ = [
    "SsNuisance",
    "TEST_NAMES",
    "cross_correlations",
    "evaluate_tests",
    "evaluate_tests_collect",
    "fc_test",
    "flm_statistic",
    "flm_test",
    "max_test",
    "pv_test",
    "ss_statistic",
    "ss_test",
]

TEST_NAMES = ("ss", "flm", "pv", "max", "fc")

#: p-values are clamped here before taking logs in the Fisher combination.
MIN_P_VALUE = 1e-300


@dataclass(frozen=True)
class SsNuisance:
    """Nuisance estimates behind the standardized sign statistic."""

    trace_omega2_hat: float
    sigma_hat: float

    def as_dict(self) -> dict[str, float]:
        return {"trace_omega2_hat": self.trace_omega2_hat, "sigma_hat": self.sigma_hat}


def _outcome(stat: float, std: float, pval: float, alpha: float, **nuisance) -> TestOutcome:
    return TestOutcome(stat, std, pval, pval < alpha, alpha, nuisance)


def _check_alpha(alpha: float) -> float:
    if not 0.0 < float(alpha) < 1.0:
        raise InvalidInputError("alpha must lie strictly between 0 and 1")
    return float(alpha)


def _pair_partials(v: np.ndarray, n: int, H: int) -> np.ndarray:
    """Cumulative lag-aligned pair sums of a packed Gram vector over lags 1..H.

    Lag h adds 1/(n-h) times the sum over pairs s < t (both past lag h) of
    G[s-h, t-h] * G[s, t]. In the packed layout that is v[:-h] * v[h:] with
    the products straddling two superdiagonals set to zero, written into one
    buffer that every lag reuses. Lags that admit no pair contribute zero.
    cumsum is strictly sequential, so a smaller window's statistic is an
    exact prefix of the same accumulation.
    """
    size = v.size
    terms = np.empty(H)
    buf = np.empty(size - 1)
    for h in range(1, H + 1):
        prod = np.multiply(v[: size - h], v[h:], out=buf[: size - h])
        prod[_straddling(n, h)] = 0.0
        terms[h - 1] = float(prod.sum()) / (n - h)
    return np.cumsum(terms)


def ss_statistic(signs, H) -> float:
    """Lag-aligned pair sum of the spatial signs over lags 1..H.

    Sum over h of 1/(n-h) times the pairwise products U_{s-h}'U_{t-h} U_s'U_t
    with h+1 <= s < t <= n, computed from one packed sign Gram triangle.
    """
    U = as_signs(signs)
    lag = as_lag(H)
    lag.check_against(U.n)
    return float(_pair_partials(_packed_gram(U.data), U.n, lag.H)[-1])


def flm_statistic(eps, H) -> float:
    """Same lag-aligned pair sum as ss_statistic, on raw rows instead of signs."""
    X = as_series(eps)
    lag = as_lag(H)
    lag.check_against(X.n)
    return float(_pair_partials(_packed_gram(X.data), X.n, lag.H)[-1])


def _standardized_columns(X: np.ndarray) -> np.ndarray:
    """Columns centered and scaled by their standard deviation (denominator n)."""
    centered = X - X.mean(axis=0)
    sd = np.sqrt((centered * centered).mean(axis=0))
    if not np.all(sd > 0.0):
        raise DegenerateDataError("zero-variance column; correlations undefined")
    return centered / sd


def cross_correlations(eps, H) -> np.ndarray:
    """Lag-h sample cross-correlations, shape (H, p, p).

    Columns are centered and scaled by the standard deviation with
    denominator n; entry [h-1, i, j] is 1/n times the sum over t of
    z[t, i] * z[t-h, j]. The result holds H p^2 floats; max_test and fc_test
    do not build it.
    """
    X = as_series(eps).data
    n, p = X.shape
    lag = as_lag(H)
    lag.check_against(n)
    Z = _standardized_columns(X)
    out = np.empty((lag.H, p, p))
    for h in range(1, lag.H + 1):
        np.matmul(Z[h:].T, Z[: n - h], out=out[h - 1])
    out /= n
    return out


def _max_abs_correlations(X: np.ndarray, H: int) -> np.ndarray:
    """Per-lag maxima of |cross_correlations(X, H)|, one p x p buffer at a time.

    Every lag's product is written into the same buffer and reduced before
    the next one, so working memory is one p x p array rather than H of
    them. Division by n is monotone and correctly rounded, so dividing the
    reduced maximum gives the same bits as dividing every entry first.
    """
    Z = _standardized_columns(X)
    n, p = Z.shape
    buf = np.empty((p, p))
    maxima = np.empty(H)
    for h in range(1, H + 1):
        np.matmul(Z[h:].T, Z[: n - h], out=buf)
        maxima[h - 1] = max(buf.max(), -buf.min()) / n
    return maxima


def _gumbel_upper_tail(g: float) -> float:
    """Upper tail of the extreme-value limit for the calibrated max statistic."""
    with np.errstate(over="ignore"):
        return float(-np.expm1(-np.exp(-g / 2.0) / math.sqrt(math.pi)))


def _chi2_4_upper_tail(x: float) -> float:
    """P(chi-square with 4 degrees of freedom > x), in closed form."""
    return math.exp(-x / 2.0) * (1.0 + x / 2.0)


def _fisher_combine(p_max: float, p_flm: float, alpha: float) -> TestOutcome:
    pm = min(max(p_max, MIN_P_VALUE), 1.0)
    pf = min(max(p_flm, MIN_P_VALUE), 1.0)
    stat = -2.0 * (math.log(pm) + math.log(pf))
    return _outcome(stat, stat, _chi2_4_upper_tail(stat), alpha, p_max=p_max, p_flm=p_flm)


def _sum_outcomes(v: np.ndarray, n: int, H_list, alpha: float, clip: float):
    """Pair partials and the standardized sum outcomes of one packed Gram.

    Shared by ss (sign Gram, trace clipped at 1) and flm (raw Gram, no clip):
    each window's partial sum is divided by sqrt(H/2) times the trace
    estimate and referred to the upper normal tail. Returns the partials and
    either the outcomes by H or the error every window shares.
    """
    partials = _pair_partials(v, n, max(H_list))
    trace = min(_pair_square_mean(v, n), clip)
    what, trace_key = (
        ("sign", "trace_omega2_hat") if clip == 1.0 else ("inner", "trace_sigma2_hat")
    )
    if trace <= 0.0:
        return partials, DegenerateDataError(
            f"pairwise {what} products all vanish; sigma estimate is zero"
        )
    results = {}
    for H in H_list:
        stat = float(partials[H - 1])
        sigma = math.sqrt(H / 2.0) * trace
        std = stat / sigma
        results[H] = _outcome(
            stat, std, normal_upper_tail(std), alpha, **{trace_key: trace, "sigma_hat": sigma}
        )
    return partials, results


def _pv_outcome(kernel: float, p: int, H: int, alpha: float) -> TestOutcome:
    stat = math.sqrt(2.0 * p * p / H) * kernel
    return _outcome(stat, stat, normal_upper_tail(stat), alpha, kernel_sum=kernel)


def _max_outcomes(X: np.ndarray, H_list, alpha: float):
    """max outcomes by H, or the error every window shares."""
    n, p = X.shape
    if min(H_list) * p * p < 3:
        return InvalidInputError("extreme-value calibration needs H * p * p >= 3")
    try:
        running_max = np.maximum.accumulate(_max_abs_correlations(X, max(H_list)))
    except HdwnError as exc:
        return exc
    results = {}
    for H in H_list:
        stat = float(running_max[H - 1])
        n_comp = H * p * p
        gumbel = n * stat * stat - 2.0 * math.log(n_comp) + math.log(math.log(n_comp))
        results[H] = _outcome(
            stat, gumbel, _gumbel_upper_tail(gumbel), alpha, n_comparisons=float(n_comp)
        )
    return results


def evaluate_tests_collect(eps, tests, H_values, alpha=0.05):
    """Evaluate several tests at several lag windows on one series.

    Each Gram matrix is packed into its strict upper triangle once and
    freed; that vector feeds every lag's pair sum and the trace estimate.
    The per-lag maxima of the absolute cross-correlations are also computed
    once, so every outcome is bitwise identical to the corresponding
    single-test call. Returns (outcomes, errors), both keyed by (test, H); a
    test that cannot be standardized lands in errors instead of aborting the
    others.
    """
    X = as_series(eps)
    alpha = _check_alpha(alpha)
    names = tuple(tests)
    for name in names:
        if name not in TEST_NAMES:
            raise InvalidInputError(f"unknown test {name!r}; expected one of {TEST_NAMES}")
    H_list = []
    for H in H_values:
        lag = as_lag(H)
        lag.check_against(X.n)
        H_list.append(lag.H)
    if not H_list:
        raise InvalidInputError("H_values must not be empty")
    n, p = X.n, X.p

    want = set(names)
    found: dict[str, dict[int, TestOutcome] | HdwnError] = {}
    if want & {"ss", "pv"}:
        # the signs and their Gram are freed once packed, and the packed
        # triangle once summed, before the raw Gram is built
        partials, found["ss"] = _sum_outcomes(
            _packed_gram(sign_transform(X).data), n, H_list, alpha, 1.0
        )
        if "pv" in want:
            found["pv"] = {H: _pv_outcome(float(partials[H - 1]), p, H, alpha) for H in H_list}
    if want & {"flm", "fc"}:
        _, found["flm"] = _sum_outcomes(_packed_gram(X.data), n, H_list, alpha, math.inf)
    if want & {"max", "fc"}:
        found["max"] = _max_outcomes(X.data, H_list, alpha)
    if "fc" in want:
        blockers = [r for r in (found["max"], found["flm"]) if isinstance(r, HdwnError)]
        found["fc"] = blockers[0] if blockers else {
            H: _fisher_combine(found["max"][H].p_value, found["flm"][H].p_value, alpha)
            for H in H_list
        }

    outcomes: dict[tuple[str, int], TestOutcome] = {}
    errors: dict[tuple[str, int], HdwnError] = {}
    for name, result in found.items():
        if name in want:
            for H in H_list:
                if isinstance(result, HdwnError):
                    errors[(name, H)] = result
                else:
                    outcomes[(name, H)] = result[H]
    return outcomes, errors


def evaluate_tests(eps, tests, H_values, alpha=0.05):
    """Strict variant of evaluate_tests_collect: raises on the first failure."""
    outcomes, errors = evaluate_tests_collect(eps, tests, H_values, alpha)
    if errors:
        for name in tests:
            for H in H_values:
                key = (name, as_lag(H).H)
                if key in errors:
                    raise errors[key]
    return outcomes


def _single(eps, name: str, H, alpha: float) -> TestOutcome:
    lag = as_lag(H)
    return evaluate_tests(eps, (name,), (lag.H,), alpha)[(name, lag.H)]


def ss_test(eps, H, alpha=0.05) -> TestOutcome:
    """Spatial-sign sum test.

    Standardizes ss_statistic by sqrt(H/2) times the pairwise estimate of
    tr(Omega^2) and rejects in the upper normal tail. The outcome depends on
    the data only through the spatial signs, so it is invariant to positive
    row-wise rescaling.
    """
    return _single(eps, "ss", H, alpha)


def flm_test(eps, H, alpha=0.05) -> TestOutcome:
    """Raw-vector sum test, standardized by sqrt(H/2) tr_sigma2_hat."""
    return _single(eps, "flm", H, alpha)


def pv_test(eps, H, alpha=0.05) -> TestOutcome:
    """Sign sum test scaled by sqrt(2 p^2 / H).

    The scaling standardizes the statistic exactly when the directions are
    spherical (p * tr(Omega^2) = 1); no nuisance estimation is involved, so
    unlike ss_test it cannot degenerate on orthogonal rows.
    """
    return _single(eps, "pv", H, alpha)


def max_test(eps, H, alpha=0.05) -> TestOutcome:
    """Max absolute cross-correlation over lags 1..H and all entry pairs.

    The statistic is calibrated through n * max^2 - 2 log N + log log N with
    N = H p^2 comparisons, whose null limit has upper tail
    1 - exp(-exp(-g/2)/sqrt(pi)). Small samples make this conservative under
    light tails. Works best with n >= 10. The lags are scanned one at a time
    through a single p x p working buffer, not H of them.
    """
    return _single(eps, "max", H, alpha)


def fc_test(eps, H, alpha=0.05) -> TestOutcome:
    """Fisher combination of the max and flm p-values.

    The statistic -2(log p_max + log p_flm) refers to a chi-square with 4
    degrees of freedom, treating the two p-values as asymptotically
    independent. Inputs are clamped to [1e-300, 1] before taking logs. Like
    max_test, it needs one p x p working buffer whatever H is.
    """
    return _single(eps, "fc", H, alpha)
