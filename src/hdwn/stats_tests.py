"""White-noise tests for high-dimensional series.

Five tests share one lag-aligned pair kernel: a sum test on spatial signs
(ss), the same sum on raw vectors (flm), a pre-standardized sign test that
assumes spherical directions (pv), a max-cross-correlation scan with extreme
value calibration (max), and the Fisher combination of the max and flm
p-values (fc).

The evaluator takes a block of R series, (R, n, p), and overwrites it with
their signs; a public call checks its input into one private copy
(core._series) and hands it over as the R=1 case. The signs and the lag
scan (_lag_products), which max, fc and cross_correlations share, run over
the whole block. The pair kernel of ss, flm and pv (core._pair_sums) takes
one series at a time: each lag's pair sum and the trace estimate come from
the packed strict upper triangle of its Gram through numpy elementwise
products and sums, never BLAS, in an order set by n and the lag alone, so
a series gets the same bits in any block.

Statistics that aggregate squared singular values of lagged autocovariance
matrices are a known alternative family and are deliberately not implemented.

BLAS holds one thread in the Gram of _pair_sums, the draw and the Cholesky
factor (dgp) and in all of run_experiment, so their bits do not follow
OPENBLAS_NUM_THREADS. The one exception, outside run_experiment, is the lag
scan of max, fc and cross_correlations: at the caller's count its last bits
can move, and pinned it took 16-37% longer at (60, 1000) on 2 vCPUs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    TestOutcome,
    _fraction,
    _lag,
    _nonempty,
    _normal_upper_tail,
    _pair_sums,
    _series,
    _sign_rows,
    as_signs,
)
from .errors import (
    DegenerateDataError,
    HdwnError,
    InvalidInputError,
)

__all__ = [
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

#: Columns per panel of a lag product; every preset's p (at most 120) fits in one panel.
_PANEL = 256


def ss_statistic(signs, H) -> float:
    """Lag-aligned pair sum of the spatial signs over lags 1..H.

    Sum over h of 1/(n-h) times the pairwise products U_{s-h}'U_{t-h} U_s'U_t
    with h+1 <= s < t <= n, computed from one packed sign Gram triangle: the
    flm_statistic of the checked signs, taken from their frozen data uncopied.
    """
    U = as_signs(signs).data
    return _pair_sums(U, _lag(H, len(U)))[0][-1]


def flm_statistic(eps, H) -> float:
    """ss_statistic's pair sum on raw rows; squares that overflow raise DegenerateDataError."""
    X = _series(eps)
    return _pair_sums(X, _lag(H, len(X)))[0][-1]


def _lag_products(X: np.ndarray, H: int, out: np.ndarray | None = None):
    """The lag scan of a block X (R, n, p): per series, None or the error of a
    column whose standard deviation (denominator n) is zero or overflows, and
    an iterator of (h, panel) over lags h = 1..H and panels j..j+w (w <= _PANEL)
    of the columns of the (R, p, p) products sum_t z[t]' z[t-h] of the centered
    columns z scaled by that deviation, a zero one left centered.

    The squares go into the scaled copy, which is centered again: no third
    array. A panel is made in place in out[h - 1, ..., j:j+w], given an (H, R,
    p, p) out, or else into one reused (R, p, w) buffer: use it first.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is returned, not warned
        mean = X.mean(axis=-2, keepdims=True)
        Z = np.subtract(X, mean)
        sd = np.sqrt(np.multiply(Z, Z, out=Z).mean(axis=-2, keepdims=True))
        np.divide(np.subtract(X, mean, out=Z), sd, out=Z, where=sd > 0.0)
    R, n, p = Z.shape

    def products():
        buf = np.empty((R, p, min(p, _PANEL))) if out is None else None
        for h in range(1, H + 1):
            lagged = Z[:, h:].transpose(0, 2, 1)
            for j in range(0, p, _PANEL):
                dest = buf[..., : p - j] if out is None else out[h - 1, ..., j : j + _PANEL]
                yield h, np.matmul(lagged, Z[:, : n - h, j : j + _PANEL], out=dest)

    overflow = DegenerateDataError("column squares overflow; correlations undefined")
    constant = DegenerateDataError("zero-variance column; correlations undefined")
    low, high = sd.min(axis=(1, 2)).tolist(), sd.max(axis=(1, 2)).tolist()  # nan stays nan
    return [overflow if not b < math.inf else constant if not a > 0.0 else None
            for a, b in zip(low, high)], products()


def cross_correlations(eps, H) -> np.ndarray:
    """Lag-h sample cross-correlations, shape (H, p, p).

    Columns are centered and scaled by the standard deviation with
    denominator n; entry [h-1, i, j] is 1/n times the sum over t of
    z[t, i] * z[t-h, j]. The result holds H p^2 floats, made in place panel
    by panel with the kernel of max_test and fc_test, which do not build it.
    """
    X = _series(eps)
    (n, p), H = X.shape, _lag(H, len(X))
    out = np.empty((H, p, p))
    (fault,), products = _lag_products(X[None], H, out[:, None])
    if fault:
        raise fault
    for _, panel in products:
        panel /= n
    return out


def _gumbel_upper_tail(g):
    """Upper tail of the extreme-value limit for the calibrated max statistic."""
    with np.errstate(over="ignore"):
        return -np.expm1(-np.exp(-g / 2.0) / math.sqrt(math.pi))


def _chi2_4_upper_tail(x: float) -> float:
    """P(chi-square with 4 degrees of freedom > x), in closed form."""
    return math.exp(-x / 2.0) * (1.0 + x / 2.0)


def _fisher_combine(p_max: float, p_flm: float) -> tuple[float, float]:
    """Fisher statistic of two p-values and its chi-square(4) p-value."""
    pm = min(max(p_max, MIN_P_VALUE), 1.0)
    pf = min(max(p_flm, MIN_P_VALUE), 1.0)
    stat = -2.0 * (math.log(pm) + math.log(pf))
    return stat, _chi2_4_upper_tail(stat)


#: One test on one series, by window: its error or (statistic, standardized, p, nuisance).
_Entry = list[HdwnError | tuple[float, float, float, dict[str, float]]]


def _sum_results(rows: np.ndarray, H_list, clip: float):
    """ss (signs, trace at most 1) or flm entries of a block, and its partials, None if refused."""
    what, key = ("sign", "trace_omega2_hat") if clip == 1.0 else ("inner", "trace_sigma2_hat")
    vanish = DegenerateDataError(f"pairwise {what} products all vanish; sigma estimate is zero")
    entries: list[_Entry] = []
    partials = []
    for x in rows:
        try:
            row, trace = _pair_sums(x, max(H_list))
            trace = min(trace, clip)
            fault = None if trace > 0.0 else vanish
        except DegenerateDataError as overflow:
            row, fault = None, overflow
        partials.append(row)
        if fault:
            entries.append([fault] * len(H_list))
            continue
        sigmas = [math.sqrt(H / 2.0) * trace for H in H_list]
        stds = [row[H - 1] / sigma for H, sigma in zip(H_list, sigmas)]
        entries.append([(row[H - 1], z, _normal_upper_tail(z), {key: trace, "sigma_hat": s})
                        for H, s, z in zip(H_list, sigmas, stds)])
    return entries, partials


def _pv_results(partials: list[list[float]], p: int, H_list) -> list[_Entry]:
    entries: list[_Entry] = []
    for row in partials:
        stats = [math.sqrt(2.0 * p * p / H) * row[H - 1] for H in H_list]
        entries.append([(z, z, _normal_upper_tail(z), {"kernel_sum": row[H - 1]})
                        for H, z in zip(H_list, stats)])
    return entries


def _calibrates(H: int, p: int) -> bool:
    """Whether max's extreme-value calibration has its N = H p^2 >= 3 comparisons."""
    return H * p * p >= 3


def _max_results(X: np.ndarray, H_list) -> list[_Entry]:
    """max entries, a window too short to calibrate refused alone; one Gumbel tail per block."""
    R, n, p = X.shape
    # per-lag maxima of |cross_correlations|, each panel reduced while in
    # cache; division by n is monotone and correctly rounded, so dividing
    # the maxima gives the bits of dividing every entry
    faults, products = _lag_products(X, max(H_list))
    maxima = np.full((R, max(H_list)), -math.inf)
    for h, panel in products:
        np.maximum.reduce([maxima[:, h - 1], panel.max(axis=(1, 2)), -panel.min(axis=(1, 2))],
                          out=maxima[:, h - 1])
    stat = np.maximum.accumulate(maxima / n, axis=-1)[:, [H - 1 for H in H_list]]
    n_comp = [H * p * p for H in H_list]
    calibrated = [_calibrates(H, p) for H in H_list]
    logs = [math.log(N) if fit else math.nan for N, fit in zip(n_comp, calibrated)]
    gumbel = n * stat * stat - [2.0 * L for L in logs] + [math.log(L) for L in logs]
    refused = InvalidInputError("extreme-value calibration needs H * p * p >= 3")
    rows = zip(stat.tolist(), gumbel.tolist(), _gumbel_upper_tail(gumbel).tolist())
    return [[(fault or (s, g, pval, {"n_comparisons": float(N)})) if fit else refused
             for s, g, pval, N, fit in zip(*row, n_comp, calibrated)]
            for row, fault in zip(rows, faults)]


def _fc_entry(mx: _Entry, fl: _Entry) -> _Entry:
    """Fisher combination of one series' max and flm p-values by window, or max's or flm's error."""
    windows = []
    for m, f in zip(mx, fl):
        failed = [w for w in (m, f) if isinstance(w, HdwnError)]
        if failed:
            windows.append(failed[0])
            continue
        stat, pval = _fisher_combine(m[2], f[2])
        windows.append((stat, stat, pval, {"p_max": m[2], "p_flm": f[2]}))
    return windows


def _test_names(tests, error) -> tuple[str, ...]:
    """tests as a nonempty tuple of known test names, each once; error names the first unknown."""
    names = _nonempty(tests, "tests", error)
    for name in names:
        if name not in TEST_NAMES:
            raise error(f"unknown test {name!r}; expected one of {TEST_NAMES}")
    return tuple(dict.fromkeys(names))


def _evaluate_block(X: np.ndarray, names, H_list) -> dict[str, list[_Entry]]:
    """One entry per series of a block X (R, n, p), by test name; fc also
    brings flm and max. Trusts its inputs: known names, windows in 1..n-1.

    X is the caller's own, and every kernel runs on it where it lies, each
    over the whole block. Every series gets the bits it gets alone, so no
    result depends on which series share a block. The raw Grams and flm come
    first, then max on a standardized copy, and the signs last: when ss or
    pv asks for them, they are written over X.
    """
    want = set(names)
    found: dict[str, list[_Entry]] = {}
    if want & {"flm", "fc"}:
        found["flm"], _ = _sum_results(X, H_list, math.inf)
    if want & {"max", "fc"}:
        found["max"] = _max_results(X, H_list)
    if "fc" in want:
        found["fc"] = [_fc_entry(mx, fl) for mx, fl in zip(found["max"], found["flm"])]
    if want & {"ss", "pv"}:
        found["ss"], partials = _sum_results(_sign_rows(X), H_list, 1.0)
        if "pv" in want:
            found["pv"] = _pv_results(partials, X.shape[2], H_list)
    return found


def evaluate_tests_collect(eps, tests, H_values, alpha=0.05):
    """Evaluate several tests at several lag windows on one series.

    The one-series case of the block evaluator that run_experiment uses, so
    every outcome is bitwise identical to the corresponding single-test call
    and to the same series in any block. Returns (outcomes, errors), both
    keyed by (test, H) in request order; a pair that cannot be standardized
    or calibrated lands in errors alone. The inputs are checked here, the
    series into the copy the evaluator overwrites; evaluate_tests and the
    five tests pass theirs through unchecked.
    """
    X = _series(eps)
    alpha = _fraction(alpha, "alpha")
    names = _test_names(tests, InvalidInputError)
    H_list = [_lag(H, len(X)) for H in _nonempty(H_values, "H_values")]

    outcomes: dict[tuple[str, int], TestOutcome] = {}
    errors: dict[tuple[str, int], HdwnError] = {}
    found = _evaluate_block(X[None], names, H_list)
    for name in names:
        (entry,) = found[name]
        for H, window in zip(H_list, entry):
            if isinstance(window, HdwnError):
                errors[(name, H)] = window
                continue
            stat, std, pval, nuisance = window
            outcomes[(name, H)] = TestOutcome(stat, std, pval, pval < alpha, alpha, nuisance)
    return outcomes, errors


def evaluate_tests(eps, tests, H_values, alpha=0.05):
    """Strict variant of evaluate_tests_collect: raises the first failure in
    request order."""
    outcomes, errors = evaluate_tests_collect(eps, tests, H_values, alpha)
    if errors:
        raise next(iter(errors.values()))
    return outcomes


def _single(eps, name: str, H, alpha: float) -> TestOutcome:
    (outcome,) = evaluate_tests(eps, (name,), (H,), alpha).values()
    return outcome


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
    unlike ss_test it cannot degenerate on orthogonal rows. Away from
    spherical directions the size drifts: over 2,000 replications of normal
    innovations at H = 1 and 3 and (n, p) = (100, 40), (200, 120) and
    (60, 400), the rejection rate at alpha = 0.05 was 0.048-0.057 with
    identity scatter and 0.126-0.146 with table1's polydecay scatter.
    """
    return _single(eps, "pv", H, alpha)


def max_test(eps, H, alpha=0.05) -> TestOutcome:
    """Max absolute cross-correlation over lags 1..H and all entry pairs.

    The statistic is calibrated through n * max^2 - 2 log N + log log N with
    N = H p^2 comparisons, whose null limit has upper tail
    1 - exp(-exp(-g/2)/sqrt(pi)). Small samples make this conservative under
    light tails. Works best with n >= 10. Each lag's p x p product is made
    and reduced in column panels through one p x min(p, 256) working buffer.
    """
    return _single(eps, "max", H, alpha)


def fc_test(eps, H, alpha=0.05) -> TestOutcome:
    """Fisher combination of the max and flm p-values.

    The statistic -2(log p_max + log p_flm) refers to a chi-square with 4
    degrees of freedom, treating the two p-values as asymptotically
    independent. Inputs are clamped to [1e-300, 1] before taking logs. Like
    max_test, it needs one p x min(p, 256) working buffer whatever H is.
    """
    return _single(eps, "fc", H, alpha)
