"""White-noise tests for high-dimensional series.

Five tests share one lag-aligned pair kernel: a sum test on spatial signs
(ss), the same sum on raw vectors (flm), a pre-standardized sign test that
assumes spherical directions (pv), a max-cross-correlation scan with extreme
value calibration (max), and the Fisher combination of the max and flm
p-values (fc).

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
    as_lag,
    as_series,
    as_signs,
    normal_upper_tail,
    sign_transform,
    trace_omega2_from_gram,
    trace_sigma2_from_gram,
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


def _check_alpha(alpha: float) -> float:
    if not 0.0 < float(alpha) < 1.0:
        raise InvalidInputError("alpha must lie strictly between 0 and 1")
    return float(alpha)


def _lagged_pair_terms(G: np.ndarray, H: int) -> np.ndarray:
    """Per-lag pair sums of a Gram matrix.

    Entry h-1 holds 1/(n-h) times the sum over pairs s < t (both past lag h)
    of G[s-h, t-h] * G[s, t]. The elementwise product of the two shifted
    blocks is symmetric, so the strict upper triangle is half of (total sum
    minus trace). Lags that admit no pair contribute zero. Every lag's
    product is written into one buffer, viewed as a contiguous (n-h, n-h)
    array so that its sum adds in the same order as a fresh product's.
    """
    n = G.shape[0]
    terms = np.empty(H)
    buf = np.empty((n - 1) ** 2)
    for h in range(1, H + 1):
        m = n - h
        C = np.multiply(G[h:, h:], G[:m, :m], out=buf[: m * m].reshape(m, m))
        terms[h - 1] = (float(C.sum()) - float(np.trace(C))) / (2.0 * m)
    return terms


def _partial_sums(G: np.ndarray, H: int) -> np.ndarray:
    # cumsum is strictly sequential, so statistics at smaller windows are
    # exact prefixes of the same accumulation
    return np.cumsum(_lagged_pair_terms(G, H))


def ss_statistic(signs, H) -> float:
    """Lag-aligned pair sum of the spatial signs over lags 1..H.

    Sum over h of 1/(n-h) times the pairwise products U_{s-h}'U_{t-h} U_s'U_t
    with h+1 <= s < t <= n, computed from one precomputed Gram matrix.
    """
    U = as_signs(signs)
    lag = as_lag(H)
    lag.check_against(U.n)
    G = U.data @ U.data.T
    return float(_partial_sums(G, lag.H)[-1])


def flm_statistic(eps, H) -> float:
    """Same lag-aligned pair sum as ss_statistic, on raw rows instead of signs."""
    X = as_series(eps)
    lag = as_lag(H)
    lag.check_against(X.n)
    G = X.data @ X.data.T
    return float(_partial_sums(G, lag.H)[-1])


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
    pval = _chi2_4_upper_tail(stat)
    return TestOutcome(
        statistic=stat,
        standardized=stat,
        p_value=pval,
        reject=pval < alpha,
        alpha=alpha,
        nuisance={"p_max": p_max, "p_flm": p_flm},
    )


def _sign_outcomes(X, want, H_list, alpha, outcomes, errors) -> None:
    """Add the ss and pv outcomes, or their errors, from one sign Gram matrix."""
    n, p = X.n, X.p
    U = sign_transform(X)
    Gs = U.data @ U.data.T
    sign_partials = _partial_sums(Gs, max(H_list))
    if "ss" in want:
        tr_omega = trace_omega2_from_gram(Gs, n)
        if tr_omega <= 0.0:
            err = DegenerateDataError(
                "pairwise sign products all vanish; sigma estimate is zero"
            )
            for H in H_list:
                errors[("ss", H)] = err
        else:
            for H in H_list:
                stat = float(sign_partials[H - 1])
                sigma = math.sqrt(H / 2.0) * tr_omega
                std = stat / sigma
                pval = normal_upper_tail(std)
                outcomes[("ss", H)] = TestOutcome(
                    statistic=stat,
                    standardized=std,
                    p_value=pval,
                    reject=pval < alpha,
                    alpha=alpha,
                    nuisance=SsNuisance(tr_omega, sigma).as_dict(),
                )
    if "pv" in want:
        for H in H_list:
            kernel = float(sign_partials[H - 1])
            stat = math.sqrt(2.0 * p * p / H) * kernel
            pval = normal_upper_tail(stat)
            outcomes[("pv", H)] = TestOutcome(
                statistic=stat,
                standardized=stat,
                p_value=pval,
                reject=pval < alpha,
                alpha=alpha,
                nuisance={"kernel_sum": kernel},
            )


def evaluate_tests_collect(eps, tests, H_values, alpha=0.05):
    """Evaluate several tests at several lag windows on one series.

    The sign and raw Gram matrices, per-lag pair sums, and per-lag maxima of
    the absolute cross-correlations are computed once and shared, so every
    outcome is bitwise identical to the corresponding single-test call.
    Returns (outcomes, errors), both keyed by (test, H); a test that cannot
    be standardized lands in errors instead of aborting the others.
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
    H_max = max(H_list)
    n, p = X.n, X.p

    want = set(names)
    outcomes: dict[tuple[str, int], TestOutcome] = {}
    errors: dict[tuple[str, int], HdwnError] = {}

    if want & {"ss", "pv"}:
        # in a helper, so that the signs and their Gram matrix are freed
        # before the raw Gram matrix is built
        _sign_outcomes(X, want, H_list, alpha, outcomes, errors)

    flm_results: dict[int, TestOutcome] = {}
    flm_error: HdwnError | None = None
    if want & {"flm", "fc"}:
        Gr = X.data @ X.data.T
        raw_partials = _partial_sums(Gr, H_max)
        tr_sigma = trace_sigma2_from_gram(Gr, n)
        if tr_sigma <= 0.0:
            flm_error = DegenerateDataError(
                "pairwise inner products all vanish; sigma estimate is zero"
            )
        else:
            for H in H_list:
                stat = float(raw_partials[H - 1])
                sigma = math.sqrt(H / 2.0) * tr_sigma
                std = stat / sigma
                pval = normal_upper_tail(std)
                flm_results[H] = TestOutcome(
                    statistic=stat,
                    standardized=std,
                    p_value=pval,
                    reject=pval < alpha,
                    alpha=alpha,
                    nuisance={"trace_sigma2_hat": tr_sigma, "sigma_hat": sigma},
                )
        if "flm" in want:
            for H in H_list:
                if flm_error is not None:
                    errors[("flm", H)] = flm_error
                else:
                    outcomes[("flm", H)] = flm_results[H]

    max_results: dict[int, TestOutcome] = {}
    max_error: HdwnError | None = None
    if want & {"max", "fc"}:
        try:
            if min(H_list) * p * p < 3:
                raise InvalidInputError(
                    "extreme-value calibration needs H * p * p >= 3"
                )
            lag_maxima = _max_abs_correlations(X.data, H_max)
            for H in H_list:
                stat = float(np.max(lag_maxima[:H]))
                n_comp = H * p * p
                gumbel = (
                    n * stat * stat
                    - 2.0 * math.log(n_comp)
                    + math.log(math.log(n_comp))
                )
                pval = _gumbel_upper_tail(gumbel)
                max_results[H] = TestOutcome(
                    statistic=stat,
                    standardized=gumbel,
                    p_value=pval,
                    reject=pval < alpha,
                    alpha=alpha,
                    nuisance={"n_comparisons": float(n_comp)},
                )
        except HdwnError as exc:
            max_error = exc
        if "max" in want:
            for H in H_list:
                if max_error is not None:
                    errors[("max", H)] = max_error
                else:
                    outcomes[("max", H)] = max_results[H]

    if "fc" in want:
        for H in H_list:
            blocker = max_error or flm_error
            if blocker is not None:
                errors[("fc", H)] = blocker
            else:
                outcomes[("fc", H)] = _fisher_combine(
                    max_results[H].p_value, flm_results[H].p_value, alpha
                )

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
