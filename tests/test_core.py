"""Core types, the sign transform, and the shared nuisance estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hdwn
from hdwn import (
    InsufficientSampleError,
    InvalidInputError,
    InvalidLagError,
    LagWindow,
    SeriesMatrix,
    SignMatrix,
    TestOutcome,
    normal_upper_quantile,
    normal_upper_tail,
    sign_transform,
    spatial_sign,
    ss_statistic,
    trace_omega2_hat,
    trace_sigma2_hat,
)
from hdwn.core import as_series, as_signs

from oracles import (
    erfc_upper_quantile,
    naive_trace_omega2,
    naive_trace_sigma2,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestSpatialSign:
    def test_zero_vector_maps_to_zero(self):
        out = spatial_sign(np.zeros(5))
        assert np.array_equal(out, np.zeros(5))

    def test_three_four_five(self):
        out = spatial_sign([3.0, 4.0])
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_positive_scale_invariance(self, rng):
        x = rng.standard_normal(6)
        for c in (0.5, 2.0, 1024.0):  # powers of two scale exactly
            assert np.array_equal(spatial_sign(c * x), spatial_sign(x))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            spatial_sign([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            spatial_sign([np.inf, 0.0])

    @given(finite_vectors)
    def test_norm_is_zero_or_one(self, xs):
        out = spatial_sign(np.array(xs))
        norm = float(np.linalg.norm(out))
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-12

    @given(finite_vectors)
    def test_idempotent(self, xs):
        first = spatial_sign(np.array(xs))
        second = spatial_sign(first)
        assert np.max(np.abs(second - first)) <= 1e-15

    def test_rotation_equivariance_householder(self, rng):
        # random Householder reflections are exactly orthogonal up to rounding
        for _ in range(10):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            Q = np.eye(7) - 2.0 * np.outer(v, v)
            x = rng.standard_normal(7)
            assert np.allclose(spatial_sign(Q @ x), Q @ spatial_sign(x), atol=1e-10)


class TestSignTransform:
    def test_identity_rows_unchanged(self):
        eye = np.eye(3)
        out = sign_transform(SeriesMatrix(eye))
        assert np.array_equal(out.data, eye)

    def test_rowwise_scaling_invariance(self, rng):
        X = rng.standard_normal((6, 4))
        scales = 2.0 ** rng.integers(-10, 10, size=6)
        assert np.array_equal(sign_transform(X).data, sign_transform(X * scales[:, None]).data)

    def test_rows_match_spatial_sign(self, rng):
        X = rng.standard_normal((5, 3))
        out = sign_transform(X)
        for t in range(5):
            assert np.array_equal(out.data[t], spatial_sign(X[t]))

    def test_row_norms_unit(self, rng):
        out = sign_transform(rng.standard_normal((5, 3)))
        norms = np.linalg.norm(out.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_zero_rows_stay_zero(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        out = sign_transform(X)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert np.array_equal(out.data[2], [0.0, 0.0])

    def test_output_is_frozen_and_passes_validation(self, rng):
        X = rng.standard_normal((7, 4))
        X[3] = 0.0
        out = sign_transform(X)
        assert isinstance(out, SignMatrix)
        assert not out.data.flags.writeable
        for given in (out.data, out, SeriesMatrix(out.data)):
            assert np.array_equal(SignMatrix(given).data, out.data)
        assert np.array_equal(SeriesMatrix(SeriesMatrix(X)).data, X)

    def test_public_constructor_still_validates(self):
        with pytest.raises(InvalidInputError):
            SignMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestTraceOmega2:
    def test_identical_unit_rows(self):
        U = SignMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert trace_omega2_hat(U) == 1.0

    def test_orthonormal_rows(self):
        U = SignMatrix(np.eye(2))
        assert trace_omega2_hat(U) == 0.0

    def test_matches_naive_loop(self, rng):
        X = rng.standard_normal((4, 3))
        U = sign_transform(X)
        fast = trace_omega2_hat(U)
        slow = naive_trace_omega2([list(r) for r in U.data])
        assert abs(fast - slow) <= 1e-12

    def test_always_in_unit_interval(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 6))
            est = trace_omega2_hat(sign_transform(rng.standard_normal((n, p))))
            assert 0.0 <= est <= 1.0

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            trace_omega2_hat(np.array([[1.0, 0.0]]))

    def test_consistency_for_spherical_gaussian(self):
        # population value is tr(Omega^2) = 1/p for spherical directions
        n, p, reps = 200, 20, 200
        rng = np.random.default_rng(7)
        estimates = np.empty(reps)
        for r in range(reps):
            estimates[r] = trace_omega2_hat(sign_transform(rng.standard_normal((n, p))))
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - 1.0 / p) < 3.0 * se + 1e-4


class TestTraceSigma2:
    def test_orthogonal_rows(self):
        assert trace_sigma2_hat(np.eye(2)) == 0.0

    def test_repeated_unit_row(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert trace_sigma2_hat(X) == 1.0

    def test_matches_naive_loop(self, rng):
        X = rng.standard_normal((5, 3))
        fast = trace_sigma2_hat(X)
        slow = naive_trace_sigma2([list(r) for r in X])
        assert abs(fast - slow) / abs(slow) <= 1e-10


class TestNormalQuantile:
    def test_median(self):
        assert normal_upper_quantile(0.5) == 0.0

    def test_five_percent(self):
        assert abs(normal_upper_quantile(0.05) - erfc_upper_quantile(0.05)) <= 1e-9
        assert abs(normal_upper_quantile(0.05) - 1.6448536269514729) <= 1e-9

    def test_upper_and_lower_symmetry(self):
        hi = normal_upper_quantile(0.975)
        assert abs(hi - (-1.959963984540055)) <= 1e-9
        assert abs(hi + normal_upper_quantile(0.025)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(InvalidInputError):
            normal_upper_quantile(alpha)

    def test_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        alphas = np.concatenate([np.logspace(-300, -2, 2_000), np.linspace(0.01, 0.99, 2_001),
                                 1.0 - np.logspace(-16, -2, 500)])
        want = -ndtri(alphas)
        got = np.array([normal_upper_quantile(float(a)) for a in alphas])
        nonzero = want != 0.0
        assert np.all(got[~nonzero] == 0.0)
        assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 1e-10


class TestNormalTail:
    @staticmethod
    def _worst_relative_gap(z_values):
        from scipy.special import ndtr

        want = ndtr(-z_values)
        got = np.array([normal_upper_tail(float(z)) for z in z_values])
        return float(np.max(np.abs(got - want) / want))

    def test_matches_scipy_ndtr_in_the_body(self):
        z = np.linspace(-10.0, 10.0, 200_001)
        assert self._worst_relative_gap(z) <= 1e-14

    def test_matches_scipy_ndtr_in_the_far_tails(self):
        # scipy's ndtr returns 0 past z = 37.68 while erfc is still subnormal
        z = np.linspace(-37.0, 37.0, 200_001)
        assert self._worst_relative_gap(z) <= 1e-12

    def test_half_at_zero(self):
        assert normal_upper_tail(0.0) == 0.5
        assert normal_upper_tail(-0.0) == 0.5

    def test_monotone(self):
        tails = [normal_upper_tail(float(z)) for z in np.linspace(-40.0, 40.0, 400_001)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert tails[0] == 1.0 and tails[-1] < 1e-300


class TestDomainTypes:
    def test_series_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            SeriesMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_series_rejects_single_row(self):
        with pytest.raises(InsufficientSampleError):
            SeriesMatrix(np.array([[1.0, 2.0]]))

    def test_series_is_read_only(self, rng):
        s = SeriesMatrix(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            s.data[0, 0] = 5.0

    def test_series_shape_properties(self, rng):
        s = SeriesMatrix(rng.standard_normal((7, 3)))
        assert (s.n, s.p) == (7, 3)

    def test_sign_matrix_rejects_non_unit_rows(self):
        bad = np.array([[0.5, 0.0], [1.0, 0.0]])
        for given in (bad, SeriesMatrix(bad)):
            with pytest.raises(InvalidInputError):
                SignMatrix(given)

    def test_sign_matrix_accepts_zero_rows(self):
        sm = SignMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert sm.n == 2

    def test_sign_matrix_is_a_series_matrix(self, rng):
        U = sign_transform(rng.standard_normal((5, 3)))
        assert isinstance(U, SeriesMatrix)
        assert as_series(U) is U
        with pytest.raises(InsufficientSampleError, match="signs"):
            SignMatrix(np.array([[1.0, 0.0]]))

    def test_series_of_unit_or_zero_rows_serves_as_signs(self, rng):
        X = rng.standard_normal((9, 4))
        X[2] = 0.0
        U = sign_transform(X)
        S = SeriesMatrix(U.data)
        assert as_signs(S).data.tobytes() == U.data.tobytes()
        assert ss_statistic(S, 3) == ss_statistic(U, 3)
        assert trace_omega2_hat(S) == trace_omega2_hat(U)
        bad = SeriesMatrix(2.0 * U.data)
        for call in (as_signs, trace_omega2_hat, lambda s: ss_statistic(s, 3)):
            with pytest.raises(InvalidInputError):
                call(bad)

    def test_lag_window_validation(self):
        assert LagWindow(3).H == 3
        with pytest.raises(InvalidLagError):
            LagWindow(0)
        with pytest.raises(InvalidInputError):
            LagWindow(2.5)
        with pytest.raises(InvalidLagError):
            LagWindow(5).check_against(5)
        LagWindow(4).check_against(5)

    def test_outcome_consistency_enforced(self):
        with pytest.raises(InvalidInputError):
            TestOutcome(1.0, 1.0, 0.2, True, 0.05, {})
        ok = TestOutcome(1.0, 1.0, 0.01, True, 0.05, {})
        assert ok.reject


def test_public_api_frozen():
    assert hdwn.__all__ == [
        "CoeffRegime", "CoeffSpec", "ConfigError", "CovarianceKind", "CovarianceSpec",
        "DegenerateDataError", "ExplosiveModelError", "H1Metadata", "H1Spec", "HdwnError",
        "InsufficientSampleError", "InvalidInputError", "InvalidLagError", "InvalidSpecError",
        "LagWindow", "McCell", "McConfig", "McReport", "McRunError", "McTable",
        "MixtureNormal", "ModelKind", "ModelSpec", "Normal", "NotPositiveDefiniteError",
        "PowerInput", "RadialKind", "RadialMoments", "ScenarioKind", "ScenarioSpec",
        "SeriesMatrix", "SignMatrix", "StudentT", "TEST_NAMES", "TestOutcome",
        "UndefinedMomentError", "are_ss_flm", "build_covariance", "chi_radial_c1",
        "cross_correlations", "derive_rng", "derive_seed", "evaluate_tests",
        "evaluate_tests_collect", "fc_test", "flm_statistic", "flm_test", "gen_coeff",
        "gen_h1_model", "gen_innovations", "gen_series", "max_test", "normal_upper_quantile",
        "normal_upper_tail", "power_flm", "power_ss", "power_table", "pv_test",
        "radial_moments", "run_experiment", "sign_transform", "size_table", "spatial_sign",
        "ss_statistic", "ss_test", "tabulate_reports", "trace_omega2_hat", "trace_sigma2_hat",
    ]
    assert all(hasattr(hdwn, name) for name in hdwn.__all__)
    assert issubclass(SignMatrix, SeriesMatrix)
