"""The five tests: exact kernels, calibration conventions, and invariances."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from hdwn import (
    TEST_NAMES,
    DegenerateDataError,
    HdwnError,
    InvalidInputError,
    InvalidLagError,
    SignMatrix,
    cross_correlations,
    derive_rng,
    evaluate_tests_collect,
    fc_test,
    flm_statistic,
    flm_test,
    max_test,
    pv_test,
    sign_transform,
    spatial_sign,
    ss_statistic,
    ss_test,
    trace_omega2_hat,
    trace_sigma2_hat,
)
from hdwn.core import _pair_sums

from oracles import (
    chi2_4_upper_tail,
    naive_cross_correlation,
    naive_lagged_pair_sum,
    naive_trace_omega2,
    naive_trace_sigma2,
)


def _outcomes_equal(a, b):
    return (
        a.statistic == b.statistic
        and a.standardized == b.standardized
        and a.p_value == b.p_value
        and a.reject == b.reject
        and a.alpha == b.alpha
        and a.nuisance == b.nuisance
    )


class TestPairSumStatistics:
    def test_empty_pair_range_is_zero(self):
        # at lag n - 1, which the public calls refuse, the kernel has no pair to sum
        U = sign_transform(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert _pair_sums(U.data, 1)[0] == [0.0]
        assert _pair_sums(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)[0] == [0.0]

    def test_single_term_expansion(self, rng):
        X = rng.standard_normal((3, 4))
        U = sign_transform(X).data
        expected = 0.5 * float(U[0] @ U[1]) * float(U[1] @ U[2])
        assert abs(ss_statistic(sign_transform(X), 1) - expected) <= 1e-15
        expected_raw = 0.5 * float(X[0] @ X[1]) * float(X[1] @ X[2])
        assert abs(flm_statistic(X, 1) - expected_raw) <= 1e-12

    def test_ss_matches_naive_loop(self, rng):
        X = rng.standard_normal((8, 4))
        U = sign_transform(X)
        slow = naive_lagged_pair_sum([list(r) for r in U.data], 3)
        assert abs(ss_statistic(U, 3) - slow) <= 1e-12

    def test_flm_matches_naive_loop(self, rng):
        X = rng.standard_normal((8, 4))
        slow = naive_lagged_pair_sum([list(r) for r in X], 2)
        fast = flm_statistic(X, 2)
        assert abs(fast - slow) / abs(slow) <= 1e-10

    def test_lag_beyond_sample_rejected(self, rng):
        X = rng.standard_normal((5, 2))
        with pytest.raises(InvalidLagError):
            ss_statistic(sign_transform(X), 4)
        ss_statistic(sign_transform(X), 3)  # H = n - 2 is the last legal window

    def test_time_reversal_at_lag_one(self, rng):
        X = rng.standard_normal((9, 3))
        forward = ss_statistic(sign_transform(X), 1)
        backward = ss_statistic(sign_transform(X[::-1]), 1)
        assert abs(forward - backward) <= 1e-12


class TestSsTest:
    def test_pvalue_matches_standardized(self, rng):
        out = ss_test(rng.standard_normal((30, 5)), 2, 0.05)
        sigma = out.nuisance["sigma_hat"]
        assert abs(sigma - math.sqrt(1.0) * out.nuisance["trace_omega2_hat"]) <= 1e-15
        assert abs(out.standardized - out.statistic / sigma) <= 1e-15
        assert out.reject == (out.p_value < out.alpha)

    def test_bitwise_sign_scale_invariance(self, rng):
        X = rng.standard_normal((25, 6))
        scales = 2.0 ** rng.integers(-12, 12, size=25)
        a = ss_test(X, 2, 0.05)
        b = ss_test(X * scales[:, None], 2, 0.05)
        assert _outcomes_equal(a, b)

    def test_rotation_invariance(self, rng):
        X = rng.standard_normal((20, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = ss_statistic(sign_transform(X), 2)
        b = ss_statistic(sign_transform(X @ Q.T), 2)
        assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-10)

    def test_degenerate_orthogonal_rows(self):
        with pytest.raises(DegenerateDataError):
            ss_test(np.eye(4), 1, 0.05)

    def test_null_standardized_distribution_mini(self):
        stds = np.empty(300)
        for r in range(300):
            g = derive_rng(3, "mini-null", r)
            stds[r] = ss_test(g.standard_normal((100, 40)), 1).standardized
        assert kstest(stds, "norm").pvalue > 0.001

    def test_monotone_pvalues_in_signal_strength(self):
        # doubling the dense VAR(1) coefficients should not raise the median p
        from hdwn import CoeffSpec, ModelKind, ModelSpec, ScenarioSpec, gen_series

        base = None
        p_weak, p_strong = [], []
        for r in range(200):
            g = derive_rng(11, "mono", r)
            if base is None:
                from hdwn import gen_coeff

                base = gen_coeff(CoeffSpec("dense", 15), derive_rng(11, "mono-coeff"))
            for scale, sink in ((1.0, p_weak), (2.0, p_strong)):
                model = ModelSpec(ModelKind.VAR1, coeff=scale * base)
                X = gen_series(model, ScenarioSpec.normal(), 60, 15, g.spawn(1)[0])
                sink.append(ss_test(X, 1).p_value)
        assert np.median(p_strong) <= np.median(p_weak) + 1e-12


class TestFlmTest:
    def test_standardization_is_definitional(self, rng):
        from oracles import erfc_upper_tail

        X = rng.standard_normal((8, 3))
        out = flm_test(X, 2, 0.05)
        sigma = out.nuisance["sigma_hat"]
        assert sigma == math.sqrt(1.0) * out.nuisance["trace_sigma2_hat"]
        assert out.standardized == out.statistic / sigma
        assert abs(out.p_value - erfc_upper_tail(out.standardized)) <= 1e-14

    def test_null_size_mini(self):
        rej = 0
        for r in range(300):
            g = derive_rng(17, "flm-null", r)
            rej += flm_test(g.standard_normal((100, 40)), 1, 0.05).reject
        assert 0.02 <= rej / 300 <= 0.09


class TestPvTest:
    def test_definitional_relation_to_ss(self, rng):
        X = rng.standard_normal((20, 7))
        kernel = ss_statistic(sign_transform(X), 3)
        out = pv_test(X, 3, 0.05)
        assert out.statistic == math.sqrt(2.0 * 49 / 3.0) * kernel
        assert out.standardized == out.statistic

    def test_empty_sum_gives_half_pvalue(self):
        # orthogonal neighbours: the one lag-one pair product is zero
        out = pv_test(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), 1, 0.05)
        assert out.statistic == 0.0
        assert out.p_value == 0.5
        assert not out.reject

    def test_agrees_with_ss_for_spherical_data(self):
        # p * trace_omega2_hat -> 1 under sphericity, so the two standardized
        # statistics approach each other
        g = derive_rng(5, "pv-sph")
        X = g.standard_normal((200, 100))
        out_pv = pv_test(X, 1)
        out_ss = ss_test(X, 1)
        ratio = out_pv.standardized / out_ss.standardized
        assert abs(ratio - 1.0) < 0.05


class TestMaxTest:
    def test_dominant_entry_matches_direct_correlation(self):
        g = derive_rng(9, "max-dom")
        n, p = 400, 4
        X = np.empty((n, p))
        noise = g.standard_normal((n, p))
        X[:, 1:] = noise[:, 1:]
        X[0, 0] = noise[0, 0]
        for t in range(1, n):
            X[t, 0] = 0.8 * X[t - 1, 0] + noise[t, 0]
        out = max_test(X, 1, 0.05)
        direct = naive_cross_correlation([list(r) for r in X], 1, 0, 0)
        assert abs(out.statistic - abs(direct)) <= 1e-12
        assert out.reject

    def test_zero_variance_column_degenerates(self, rng):
        X = rng.standard_normal((30, 3))
        X[:, 1] = 2.5
        with pytest.raises(DegenerateDataError):
            max_test(X, 1, 0.05)

    def test_cross_correlations_match_naive(self, rng):
        X = rng.standard_normal((25, 3))
        rho = cross_correlations(X, 2)
        for h in (1, 2):
            for i in range(3):
                for j in range(3):
                    slow = naive_cross_correlation([list(r) for r in X], h, i, j)
                    assert abs(rho[h - 1, i, j] - slow) <= 1e-12

    def test_calibration_threshold_consistency(self, rng):
        # reject exactly when the calibrated statistic clears the level-alpha
        # quantile of its limit law
        out = max_test(rng.standard_normal((60, 5)), 2, 0.05)
        q = -2.0 * math.log(-math.sqrt(math.pi) * math.log(1 - 0.05))
        assert out.reject == (out.standardized > q)


def _standardized(X):
    centered = X - X.mean(axis=0)
    return centered / np.sqrt((centered * centered).mean(axis=0))


class TestStreamedMaxKernel:
    """max/fc reduce one lag panel at a time; their bits must match the full array."""

    # 57 x 777 and 60 x 1000 span several lag panels, 777 not a multiple of their width
    SHAPES = ((6, 1), (6, 4), (10, 3), (25, 7), (40, 8), (100, 40), (57, 777), (60, 1000))

    @staticmethod
    def _lag_windows(n, p):
        # every legal window on small shapes; the (H, p, p) reference array
        # limits the wide shapes to short windows
        return tuple(range(1, n - 1)) if p * p * n <= 200_000 else (1, 2, 3)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_outcomes_equal_full_array_reduction(self, shape):
        from hdwn.stats_tests import _fisher_combine, _gumbel_upper_tail

        n, p = shape
        X = derive_rng(23, "streamed-max", n, p).standard_t(3, size=shape)
        # the extreme-value calibration needs H p^2 >= 3
        H_values = tuple(h for h in self._lag_windows(n, p) if h * p * p >= 3)
        outcomes, errors = evaluate_tests_collect(X, ("max", "fc", "flm"), H_values, 0.05)
        assert not errors
        lag_maxima = np.max(np.abs(cross_correlations(X, max(H_values))), axis=(1, 2))
        for H in H_values:
            stat = float(np.max(lag_maxima[:H]))
            n_comp = H * p * p
            gumbel = n * stat * stat - 2.0 * math.log(n_comp) + math.log(math.log(n_comp))
            pval = _gumbel_upper_tail(gumbel)
            got = outcomes[("max", H)]
            assert (got.statistic, got.standardized, got.p_value) == (stat, gumbel, pval)
            p_flm = outcomes[("flm", H)].p_value
            stat_fc, p_fc = _fisher_combine(pval, p_flm)
            fc = outcomes[("fc", H)]
            assert (fc.statistic, fc.standardized, fc.p_value) == (stat_fc, stat_fc, p_fc)
            assert fc.nuisance == {"p_max": pval, "p_flm": p_flm}

    @pytest.mark.parametrize("shape", ((25, 3), (200, 80), (100, 400), (57, 777), (60, 1000)),
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_cross_correlations_bytes_match_stacked_formula(self, shape):
        from hdwn.stats_tests import _PANEL

        n, p = shape
        X = derive_rng(29, "xcorr-bytes", n, p).standard_normal(shape)
        H = 3
        Z = _standardized(X)
        # each lag's product is made in column panels of at most _PANEL, whose
        # bits can differ from one product's; at every preset p (at most 120)
        # it is the single stacked product
        if p <= 120:
            panels = [slice(None)]
        else:
            panels = [slice(j, j + _PANEL) for j in range(0, p, _PANEL)]
        expected = np.stack([np.hstack([Z[h:].T @ Z[: n - h, cols] for cols in panels]) / n
                             for h in range(1, H + 1)])
        assert cross_correlations(X, H).tobytes() == expected.tobytes()

    def test_zero_variance_column_errors_only_max_and_fc(self, rng):
        X = rng.standard_normal((20, 50))
        X[:, 7] = -1.25
        outcomes, errors = evaluate_tests_collect(X, ("ss", "flm", "max", "fc"), (1, 2), 0.05)
        for H in (1, 2):
            assert isinstance(errors[("max", H)], DegenerateDataError)
            assert isinstance(errors[("fc", H)], DegenerateDataError)
            assert _outcomes_equal(outcomes[("ss", H)], ss_test(X, H, 0.05))
            assert _outcomes_equal(outcomes[("flm", H)], flm_test(X, H, 0.05))

    @staticmethod
    def _traced_peak(call):
        import tracemalloc

        call()  # first call outside the trace
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("test", (max_test, fc_test))
    def test_peak_memory_is_one_lag_buffer(self, test):
        from hdwn.stats_tests import _PANEL

        n, p, H = 60, 1000, 3
        X = derive_rng(31, "xcorr-memory").standard_t(3, size=(n, p))
        # the max stage's own count: X's copy, its standardized copy and one
        # p x min(p, _PANEL) lag panel, 2.87 MiB; the traced peak sat 3.6-3.8 kB
        # above it. A panel folded through a copy would add up to 2 MB more.
        stage = (2 * n * p + p * min(p, _PANEL)) * 8
        assert self._traced_peak(lambda: test(X, H, 0.05)) < stage + (16 << 10)

    def test_peak_memory_at_4000_columns_is_one_lag_panel(self):
        # one 4000 x 4000 product would be 128 MB
        X = derive_rng(31, "xcorr-memory-wide").standard_t(3, size=(60, 4000))
        assert self._traced_peak(lambda: max_test(X, 3, 0.05)) <= 16 * 2**20

    def test_cross_correlations_memory_is_its_output_and_one_panel(self):
        from hdwn.stats_tests import _PANEL

        n, p, H = 60, 1000, 3
        X = derive_rng(31, "xcorr-memory").standard_t(3, size=(n, p))
        # the panels are made in place in the output; a p x p buffer beside it
        # peaked at 31.4 MiB
        peak = self._traced_peak(lambda: cross_correlations(X, H))
        assert peak <= (H * p * p + p * _PANEL) * 8


class TestPackedPairKernel:
    """One packed Gram triangle feeds every lag's pair sum and both traces."""

    @staticmethod
    def _series(n, p, zero_rows=()):
        X = derive_rng(37, "packed", n, p).standard_normal((n, p))
        X[list(zero_rows)] = 0.0
        return X

    @pytest.mark.parametrize(
        "n,p,zero_rows",
        ((2, 1, ()), (2, 3, ()), (3, 1, ()), (3, 2, (1,)), (4, 1, ()), (5, 3, (0, 3)),
         (7, 2, (2, 3)), (9, 4, ())),
    )
    def test_pair_sums_and_traces_match_naive_loops(self, n, p, zero_rows):
        # the kernel at every lag in 1..n-1, so lags longer than the short
        # superdiagonals (and straddling products) occur on every shape with
        # n >= 3; each public window, 1..n-2, is the kernel's partial sum
        X = self._series(n, p, zero_rows)
        U = sign_transform(X)
        for statistic, data, rows in ((ss_statistic, U, U.data), (flm_statistic, X, X)):
            partials = _pair_sums(rows, n - 1)[0]
            for H in range(1, n):
                slow = naive_lagged_pair_sum([list(r) for r in rows], H)
                fast = partials[H - 1]
                assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow)), (H, fast, slow)
            assert [statistic(data, H) for H in range(1, n - 1)] == partials[:-1]
        tr_omega = naive_trace_omega2([list(r) for r in U.data])
        tr_sigma = naive_trace_sigma2([list(r) for r in X])
        assert abs(trace_omega2_hat(U) - tr_omega) <= 1e-12 * max(1.0, tr_omega)
        assert abs(trace_sigma2_hat(X) - tr_sigma) <= 1e-12 * max(1.0, tr_sigma)

    def test_every_lag_of_the_packed_kernel_matches_the_naive_loop(self):
        n = 11
        X = self._series(n, 3, zero_rows=(4,))
        rows = [list(r) for r in X]
        partials = _pair_sums(X, n - 1)[0]
        for H in range(1, n):
            slow = naive_lagged_pair_sum(rows, H)
            assert abs(partials[H - 1] - slow) <= 1e-12 * max(1.0, abs(slow)), H

    @pytest.mark.parametrize("windows", ((1, 4, 18), (2, 7), (18, 3, 1)))
    def test_evaluator_equals_single_calls_at_any_window(self, windows):
        X = derive_rng(41, "packed-windows").standard_t(3, size=(20, 6))
        tests = ("ss", "flm", "pv", "fc")
        outcomes, errors = evaluate_tests_collect(X, tests, windows, 0.05)
        assert not errors
        singles = {"ss": ss_test, "flm": flm_test, "pv": pv_test, "fc": fc_test}
        for name in tests:
            for H in windows:
                assert _outcomes_equal(outcomes[(name, H)], singles[name](X, H, 0.05)), (name, H)
        U = sign_transform(X)
        for H in windows:
            assert outcomes[("ss", H)].statistic == ss_statistic(U, H)
            assert outcomes[("flm", H)].statistic == flm_statistic(X, H)
            assert outcomes[("ss", H)].nuisance["trace_omega2_hat"] == trace_omega2_hat(U)
            assert outcomes[("flm", H)].nuisance["trace_sigma2_hat"] == trace_sigma2_hat(X)

    def test_cached_layout_is_read_only(self):
        from hdwn.core import _packed_index, _straddling

        index = _packed_index(6)
        assert index.tolist() == [1, 8, 15, 22, 29, 2, 9, 16, 23, 3, 10, 17, 4, 11, 5]
        # lag 2: the last two slots of every superdiagonal, up to slot 12,
        # the last one whose partner slot exists
        assert _straddling(6, 2).tolist() == [3, 4, 7, 8, 10, 11, 12]
        for cached in (index, _straddling(6, 2)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_peak_memory_is_one_packed_triangle(self):
        import tracemalloc

        X = derive_rng(43, "packed-memory").standard_t(3, size=(200, 120))
        tests = ("ss", "flm", "max", "fc")
        evaluate_tests_collect(X, tests, (1, 2, 3), 0.05)  # first call outside the trace
        tracemalloc.start()
        try:
            evaluate_tests_collect(X, tests, (1, 2, 3), 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an n x n Gram alive next to a second n x n array (a lag buffer or
        # its square) and the signs peaks near 1.1 MiB at this shape; one
        # packed triangle and its lag buffer at a time, near 0.67 MiB
        assert peak < 0.85 * 2**20


class TestFcTest:
    def test_unit_pvalues_give_zero_statistic(self):
        from hdwn.stats_tests import _fisher_combine

        stat, pval = _fisher_combine(1.0, 1.0)
        assert stat == 0.0
        assert pval == 1.0

    def test_exponential_pvalues_match_chi_square_oracle(self):
        from hdwn.stats_tests import _fisher_combine

        stat, pval = _fisher_combine(math.exp(-1.0), math.exp(-1.0))
        assert abs(stat - 4.0) <= 1e-12
        assert abs(pval - chi2_4_upper_tail(4.0)) <= 1e-12
        assert abs(pval - 0.4060058497098381) <= 1e-12

    def test_closed_form_tail_matches_scipy(self):
        from scipy.stats import chi2

        from hdwn.stats_tests import _chi2_4_upper_tail

        assert _chi2_4_upper_tail(0.0) == 1.0
        xs = np.linspace(0.0, 1400.0, 20001)
        for x, ref in zip(xs, chi2.sf(xs, 4)):
            got = _chi2_4_upper_tail(float(x))
            # absolute floor where both sides reach the subnormal range
            assert abs(got - ref) <= 1e-12 * ref + 1e-306

    def test_combines_components(self, rng):
        X = rng.standard_normal((40, 6))
        out = fc_test(X, 2, 0.05)
        pm = max_test(X, 2, 0.05).p_value
        pf = flm_test(X, 2, 0.05).p_value
        assert out.nuisance == {"p_max": pm, "p_flm": pf}
        assert out.statistic == -2.0 * (math.log(pm) + math.log(pf))

    def test_tiny_pvalues_are_clamped(self):
        from hdwn.stats_tests import _fisher_combine

        stat, pval = _fisher_combine(0.0, 1e-320)
        assert math.isfinite(stat)
        assert pval < 0.05

    def test_null_size_mini(self):
        rej = 0
        for r in range(300):
            g = derive_rng(19, "fc-null", r)
            rej += fc_test(g.standard_normal((100, 40)), 1, 0.05).reject
        assert rej / 300 <= 0.1


class TestEvaluator:
    def test_bitwise_equal_to_single_calls(self, rng):
        X = rng.standard_normal((40, 8))
        combined, errors = evaluate_tests_collect(X, TEST_NAMES, (1, 2, 3), 0.05)
        assert not errors
        singles = {
            ("ss", H): ss_test(X, H, 0.05) for H in (1, 2, 3)
        }
        singles.update({("flm", H): flm_test(X, H, 0.05) for H in (1, 2, 3)})
        singles.update({("pv", H): pv_test(X, H, 0.05) for H in (1, 2, 3)})
        singles.update({("max", H): max_test(X, H, 0.05) for H in (1, 2, 3)})
        singles.update({("fc", H): fc_test(X, H, 0.05) for H in (1, 2, 3)})
        for key, single in singles.items():
            assert _outcomes_equal(combined[key], single), key

    def test_collect_isolates_failures(self):
        # orthogonal rows: ss degenerates, but pv and max still evaluate
        X = np.eye(6)
        outcomes, errors = evaluate_tests_collect(X, ("ss", "pv", "max"), (1,), 0.05)
        assert ("ss", 1) in errors
        assert isinstance(errors[("ss", 1)], DegenerateDataError)
        assert ("pv", 1) in outcomes
        assert ("max", 1) in outcomes

    @pytest.mark.parametrize("tests, H_values, alpha", [
        ((), (1,), 0.05), (("ss",), (), 0.05), (("ss",), (1,), "high"), (("ss",), (1,), None),
    ], ids=["no tests", "no windows", "text alpha", "no alpha"])
    def test_bad_requests_raise_invalid_input(self, tests, H_values, alpha):
        X = derive_rng(71, "bad-requests").standard_normal((20, 3))
        with pytest.raises(InvalidInputError):
            evaluate_tests_collect(X, tests, H_values, alpha)

    def test_single_calls_raise_the_error_collect_files(self):
        # orthogonal rows degenerate ss; the zero column degenerates max, and fc through it
        X = np.hstack([np.eye(6), np.zeros((6, 1))])
        _, errors = evaluate_tests_collect(X, ("max", "ss", "fc"), (2, 1), 0.05)
        assert list(errors) == [(name, H) for name in ("max", "ss", "fc") for H in (2, 1)]
        for name, test, phrase in (("max", max_test, "zero-variance column"),
                                   ("ss", ss_test, "sign products all vanish"),
                                   ("fc", fc_test, "zero-variance column")):
            with pytest.raises(DegenerateDataError, match=phrase) as info:
                test(X, 1, 0.05)
            assert str(info.value) == str(errors[(name, 1)])


class TestRawScaleOverflow:
    """flm, fc and max square the raw data: squares past the largest float are
    refused, where they gave p-values outside [0, 1] or a max p-value of 1."""

    X = np.random.default_rng(0).standard_normal((60, 5))

    @pytest.mark.parametrize("test", (flm_test, fc_test))
    def test_sum_tests_refuse_a_trace_that_overflows(self, test):
        assert test(1e75 * self.X, 2).p_value == pytest.approx(test(self.X, 2).p_value, rel=1e-12)
        with pytest.raises(DegenerateDataError, match="pairwise inner products overflow"):
            test(1e77 * self.X, 2)

    def test_max_refuses_a_column_scale_that_overflows(self):
        assert max_test(1e150 * self.X, 2).p_value == pytest.approx(max_test(self.X, 2).p_value)
        with pytest.raises(DegenerateDataError, match="column squares overflow"):
            max_test(1e155 * self.X, 2)
        with pytest.raises(DegenerateDataError, match="column squares overflow"):
            fc_test(1e155 * self.X, 2)

    def test_cross_correlations_refuse_a_column_scale_that_overflows(self):
        with pytest.raises(DegenerateDataError, match="column squares overflow"):
            cross_correlations(1e155 * self.X, 2)
        # a column whose sum overflows has no finite mean either
        X = np.column_stack([np.tile([1e308, 1e308, -1e308, -1e308], 5), np.arange(20.0)])
        with pytest.raises(DegenerateDataError, match="column squares overflow"):
            cross_correlations(X, 1)

    @pytest.mark.parametrize("scale, failed", [(1e77, {"flm", "fc"}),
                                               (1e155, {"flm", "fc", "max"})])
    def test_the_evaluator_files_each_overflow_under_errors(self, scale, failed):
        outcomes, errors = evaluate_tests_collect(scale * self.X, TEST_NAMES, (1, 2))
        assert set(errors) == {(name, H) for name in failed for H in (1, 2)}
        assert set(outcomes) == {(name, H) for name in TEST_NAMES for H in (1, 2)} - set(errors)
        assert all(type(e) is DegenerateDataError and "overflow" in str(e)
                   for e in errors.values())

    def test_raw_estimators_refuse_squares_that_overflow(self):
        assert trace_sigma2_hat(1e75 * self.X) == pytest.approx(
            1e300 * trace_sigma2_hat(self.X), rel=1e-12)
        assert flm_statistic(1e75 * self.X, 2) == pytest.approx(
            1e300 * flm_statistic(self.X, 2), rel=1e-12)
        for scale in (1e77, 1e155, 1e160):
            with pytest.raises(DegenerateDataError, match="pairwise inner products overflow"):
                trace_sigma2_hat(scale * self.X)
            with pytest.raises(DegenerateDataError, match="pairwise inner products overflow"):
                flm_statistic(scale * self.X, 2)

    # every public call that takes a series or signs, at H = 2 where it takes a window
    PUBLIC_CALLS = {
        **{test.__name__: lambda x, test=test: test(x, 2)
           for test in (ss_test, flm_test, pv_test, max_test, fc_test, cross_correlations,
                        flm_statistic, ss_statistic)},
        **{call.__name__: call for call in (trace_sigma2_hat, trace_omega2_hat, sign_transform,
                                            SignMatrix)},
        "spatial_sign": lambda x: spatial_sign(x[0]),
        "evaluate_tests_collect": lambda x: evaluate_tests_collect(x, TEST_NAMES, (1, 2)),
    }

    @pytest.mark.parametrize("scale", (1e77, 1e155, 1e160))
    @pytest.mark.parametrize("name", PUBLIC_CALLS)
    def test_overflow_is_signalled_by_a_typed_error_alone(self, name, scale):
        # a call returns or raises an HdwnError; any RuntimeWarning fails it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                self.PUBLIC_CALLS[name](scale * self.X)
            except HdwnError:
                pass

    def test_sign_tests_keep_their_bits_at_a_power_of_two_scale(self):
        base, _ = evaluate_tests_collect(self.X, TEST_NAMES, (1, 2))
        scaled, errors = evaluate_tests_collect(2.0**500 * self.X, TEST_NAMES, (1, 2))
        assert set(errors) == {(name, H) for name in ("flm", "fc") for H in (1, 2)}
        for key in scaled:
            assert _outcomes_equal(scaled[key], base[key]), key
        assert {name for name, _ in scaled} == {"ss", "pv", "max"}


def _hex(values):
    return [float(v).hex() for v in values]


class TestBlockEvaluation:
    """A block of series evaluates each series to the bits of its single call."""

    # every R on the small shapes; at (60, 1000) each series adds a 2 MB
    # p x 256 lag panel and two 0.5 MB copies, so that shape stops at R = 3
    CASES = [(shape, R) for shape in ((100, 40), (100, 120), (200, 80), (200, 120), (12, 3),
                                      (5, 2), (6, 1))
             for R in (1, 2, 3, 5, 13, 32)] + [((60, 1000), R) for R in (1, 2, 3)]

    @staticmethod
    def _windows(n):
        # the longest window, n - 2, only on short series: it runs n - 2 lags
        return [w for w in ((1, 2, 3), (3, 1), (2,), (n - 2, 1)) if max(w) <= min(n - 2, 11)]

    @staticmethod
    def _assert_rows_match_single_calls(X, windows, found):
        for r in range(len(X)):
            outcomes, errors = evaluate_tests_collect(X[r], TEST_NAMES, windows, 0.05)
            for name in TEST_NAMES:
                for H, window in zip(windows, found[name][r]):
                    if (name, H) in errors:
                        want = errors[(name, H)]
                        assert type(window) is type(want) and str(window) == str(want), (r, name)
                        continue
                    stat, std, pval, nuisance = window
                    want = outcomes[(name, H)]
                    assert _hex((stat, std, pval)) == _hex(
                        (want.statistic, want.standardized, want.p_value)), (r, name, H)
                    assert list(nuisance) == list(want.nuisance), (r, name, H)
                    assert _hex(nuisance.values()) == _hex(want.nuisance.values()), (r, name, H)

    @pytest.mark.parametrize("shape,R", CASES, ids=lambda c: str(c))
    def test_block_equals_single_calls(self, shape, R):
        from hdwn.stats_tests import _evaluate_block

        n, p = shape
        X = derive_rng(47, "block", n, p, R).standard_t(3, size=(R, n, p))
        if R >= 3:
            X[1, [0, n // 2]] = 0.0  # zero rows
        if R >= 5:
            X[3, :, p // 2] = -1.25  # a zero-variance column: max and fc fail there
        for windows in self._windows(n):
            found = _evaluate_block(X.copy(), TEST_NAMES, windows)
            self._assert_rows_match_single_calls(X, windows, found)

    def test_degenerate_series_errors_alone(self):
        from hdwn.errors import HdwnError
        from hdwn.stats_tests import _evaluate_block

        X = derive_rng(53, "block-degenerate").standard_t(3, size=(5, 30, 6))
        X[2] = 0.0  # no direction and no variance: all but pv fail
        found = _evaluate_block(X.copy(), TEST_NAMES, (1, 2))
        for name in TEST_NAMES:
            failed = [[isinstance(w, HdwnError) for w in entry] for entry in found[name]]
            assert failed == [[False] * 2] * 2 + [[name != "pv"] * 2] + [[False] * 2] * 2, name
        assert isinstance(found["ss"][2][0], DegenerateDataError)
        self._assert_rows_match_single_calls(X, (1, 2), found)
        # the neighbours have the bits they get in a block without the failure
        alone = _evaluate_block(X[[0, 1, 3, 4]], TEST_NAMES, (1, 2))
        for name in TEST_NAMES:
            kept = [found[name][r] for r in (0, 1, 3, 4)]
            values = [_hex(w[:3]) for entry in kept for w in entry]
            assert values == [_hex(w[:3]) for entry in alone[name] for w in entry], name

    @pytest.mark.parametrize("shape", ((200, 120), (100, 40), (200, 40)),
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_peak_memory_of_one_block_within_its_budget(self, shape):
        import tracemalloc

        from hdwn.montecarlo import _EVAL_BLOCK_BYTES, _eval_reps
        from hdwn.stats_tests import _evaluate_block

        n, p = shape
        R = _eval_reps(n, p, 0)
        X = derive_rng(59, "block-memory").standard_t(3, size=(R, n, p))
        tests = ("max", "ss", "flm", "fc")
        _evaluate_block(X.copy(), tests, (1, 2, 3))  # first call outside the trace
        tracemalloc.start()
        try:
            _evaluate_block(X, tests, (1, 2, 3))  # as run_experiment does
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the count behind R: the block's widest stage, the block included,
        # fits the budget: 737,280 bytes per replication at (200, 120), R = 2,
        # 81,920 at (100, 40), R = 18, and 147,456 at (200, 40), R = 10
        assert peak + X.nbytes <= _EVAL_BLOCK_BYTES

    def test_block_size_does_not_change_cells(self, monkeypatch):
        import hdwn.montecarlo as mc
        from hdwn import CovarianceSpec, McConfig, ModelKind, ModelSpec, ScenarioSpec

        cfg = McConfig(("ss", "flm", "pv", "max", "fc"), ScenarioSpec.student_t(3),
                       ModelSpec(ModelKind.IID), CovarianceSpec("polydecay", 12), n=40, p=12,
                       H_values=(1, 3), reps=30, master_seed=4, threads=2)
        assert mc._eval_reps(40, 12, 0) >= 15  # both tasks are one block each
        blocked = mc.run_experiment(cfg)
        monkeypatch.setattr(mc, "_EVAL_BLOCK_BYTES", 1)
        assert mc._eval_reps(40, 12, 0) == 1
        assert mc.run_experiment(cfg).cells == blocked.cells


class TestInPlaceBlock:
    """A public call checks its input into a private copy; the evaluator writes
    the signs over the block it is given."""

    def test_public_inputs_are_never_written(self):
        X = derive_rng(61, "unwritten").standard_t(3, size=(40, 12))
        for given in (X, sign_transform(X)):
            data = given if given is X else given.data
            before = data.tobytes()
            evaluate_tests_collect(given, TEST_NAMES, (1, 2, 3))
            for test in (ss_test, flm_test, pv_test, max_test, fc_test):
                test(given, 2)
            cross_correlations(given, 3)
            sign_transform(given)
            flm_statistic(given, 2)
            trace_sigma2_hat(given)
            assert data.flags.writeable == (given is X) and data.tobytes() == before
        v = X[0].copy()
        spatial_sign(v)
        assert v.tobytes() == X[0].tobytes()

    def test_block_ends_as_its_signs_with_the_entries_of_its_single_calls(self):
        from hdwn.core import _sign_rows
        from hdwn.stats_tests import _evaluate_block

        X = derive_rng(67, "own-block").standard_t(3, size=(5, 40, 12))
        X[2, :, 4] = 1.5  # a zero-variance column
        kept = X.copy()
        found = _evaluate_block(X, TEST_NAMES, (1, 3))
        assert X.tobytes() == _sign_rows(kept.copy()).tobytes()
        TestBlockEvaluation._assert_rows_match_single_calls(kept, (1, 3), found)


def test_a_window_too_short_to_calibrate_errs_alone():
    # p = 1: H = 1 makes N = H p^2 = 1 comparison, H = 3 makes the 3 that max needs
    x = derive_rng(71, "one-column").standard_t(3, size=(20, 1))
    outcomes, errors = evaluate_tests_collect(x, ("max", "fc"), (1, 3))
    assert list(errors) == [("max", 1), ("fc", 1)] and list(outcomes) == [("max", 3), ("fc", 3)]
    for error in errors.values():
        assert type(error) is InvalidInputError and "H * p * p >= 3" in str(error)
    for name, single in (("max", max_test), ("fc", fc_test)):
        got, want = outcomes[(name, 3)], single(x, 3)
        assert _hex((got.statistic, got.standardized, got.p_value)) == _hex(
            (want.statistic, want.standardized, want.p_value)), name
        assert got.nuisance == want.nuisance and _hex(got.nuisance.values()) == _hex(
            want.nuisance.values()), name
    with pytest.raises(InvalidInputError, match="H \\* p \\* p >= 3"):
        max_test(x, 1)


#: SHA-256 of the ss, flm and pv outcomes and the pair statistics and traces of
#: five t(3) series at each shape; the Grams' inner dimension is p, which two
#: BLAS threads split. Run under different OPENBLAS_NUM_THREADS settings.
_SUM_DIGEST_SCRIPT = """
import hashlib
import numpy as np
import hdwn
digest = hashlib.sha256()
for n, p in ((100, 400), (400, 300)):
    for r in range(5):
        X = hdwn.gen_series(hdwn.ModelSpec("iid"), hdwn.ScenarioSpec.student_t(3), n, p,
                            hdwn.derive_rng(11, "blas", r))
        outcomes, _ = hdwn.evaluate_tests_collect(X, ("ss", "flm", "pv"), (1, 2, 3))
        values = [v for key in sorted(outcomes) for v in
                  (outcomes[key].statistic, outcomes[key].standardized, outcomes[key].p_value)]
        values += [hdwn.ss_statistic(hdwn.sign_transform(X), 3), hdwn.flm_statistic(X, 3),
                   hdwn.trace_omega2_hat(hdwn.sign_transform(X)), hdwn.trace_sigma2_hat(X)]
        digest.update(np.array(values).tobytes())
print(digest.hexdigest())
"""


def test_sum_test_bits_do_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hdwn

    src = str(Path(hdwn.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _SUM_DIGEST_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
