"""Generators: covariance shapes, innovation laws, temporal recursions, streams."""

import math

import numpy as np
import pytest
from scipy.stats import kurtosis

from hdwn import (
    CoeffSpec,
    CovarianceSpec,
    ExplosiveModelError,
    H1Spec,
    InvalidSpecError,
    ModelKind,
    ModelSpec,
    ScenarioSpec,
    build_covariance,
    derive_rng,
    derive_seed,
    gen_coeff,
    gen_h1_model,
    gen_innovations,
    gen_series,
    ss_test,
)


class TestCovariance:
    def test_polydecay_p2(self):
        S = build_covariance(CovarianceSpec("polydecay", 2))
        assert np.array_equal(S, np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_polydecay_p3_corner(self):
        S = build_covariance(CovarianceSpec("polydecay", 3))
        assert S[0, 2] == 0.125
        assert np.array_equal(S, S.T)

    def test_identity(self):
        assert np.array_equal(build_covariance(CovarianceSpec("identity", 4)), np.eye(4))

    def test_polydecay_is_positive_definite(self):
        S = build_covariance(CovarianceSpec("polydecay", 120))
        np.linalg.cholesky(S)


class TestInnovations:
    def test_normal_sample_covariance(self):
        X = gen_innovations(ScenarioSpec.normal(), np.eye(2), 5000, 1).data
        emp = X.T @ X / 5000
        assert np.max(np.abs(emp - np.eye(2))) < 0.1

    def test_normal_sample_covariance_follows_the_scatter(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        X = gen_innovations(ScenarioSpec.normal(), S, 5000, 1).data
        assert np.max(np.abs(X.T @ X / 5000 - S)) < 0.1

    def test_student_t_heavy_tails(self):
        heavier = 0
        for r in range(100):
            X = gen_innovations(ScenarioSpec.student_t(3), np.eye(2), 500,
                                derive_rng(2, "kurt", r)).data
            heavier += bool(np.all(kurtosis(X, axis=0) > 0.0))
        assert heavier >= 95

    def test_mixture_marginal_variance(self):
        X = gen_innovations(ScenarioSpec.mixture(0.8, 9.0), np.eye(1), 20000, 3).data
        assert abs(X.var() - 2.6) < 0.15

    def test_not_positive_definite(self):
        from hdwn import NotPositiveDefiniteError

        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            gen_innovations(ScenarioSpec.normal(), bad, 10, 0)

    def test_df_must_exceed_two(self):
        with pytest.raises(InvalidSpecError):
            ScenarioSpec.student_t(2.0)


class TestCoeff:
    def test_dense_block_p80(self):
        A = gen_coeff(CoeffSpec("dense", 80), 0)
        assert np.all(A[64:, :] == 0.0) and np.all(A[:, 64:] == 0.0)
        block = A[:64, :64]
        assert np.all(np.abs(block) < 1.0 / 32.0)
        assert np.all(block != 0.0)

    def test_sparse_block_p80(self):
        A = gen_coeff(CoeffSpec("sparse", 80), 0)
        assert np.all(A[4:, :] == 0.0) and np.all(A[:, 4:] == 0.0)
        assert np.all(np.abs(A[:4, :4]) < 3.0 / 8.0)

    def test_sparse_p20_single_entry(self):
        A = gen_coeff(CoeffSpec("sparse", 20), 0)
        assert np.count_nonzero(A) == 1
        assert abs(A[0, 0]) < 3.0 / 4.0

    def test_sparse_too_small_p(self):
        with pytest.raises(InvalidSpecError):
            gen_coeff(CoeffSpec("sparse", 10), 0)

    def test_explicit_block(self):
        spec = CoeffSpec("explicit", 5, m=2, low=0.1, high=0.2)
        A = gen_coeff(spec, 1)
        assert np.all((A[:2, :2] >= 0.1) & (A[:2, :2] <= 0.2))
        assert np.count_nonzero(A) == 4

    def test_explicit_m_exceeding_p(self):
        with pytest.raises(InvalidSpecError):
            CoeffSpec("explicit", 3, m=4, low=0.0, high=0.1)


class TestGenSeries:
    def test_zero_coefficients_reduce_to_innovations(self):
        zero = np.zeros((4, 4))
        outs = []
        for kind in (ModelKind.VAR1, ModelKind.VMA1, ModelKind.VARMA1):
            model = ModelSpec(kind, coeff=zero, burn_in=1)
            outs.append(gen_series(model, ScenarioSpec.normal(), 50, 4, 123).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        # and exactly the innovation stream beyond the burn-in
        Z = gen_innovations(ScenarioSpec.normal(), np.eye(4), 51, derive_rng(123, "innov")).data
        assert np.array_equal(outs[0], Z[1:])

    def test_vma1_scalar_autocorrelation(self):
        model = ModelSpec(ModelKind.VMA1, coeff=np.array([[0.5]]))
        X = gen_series(model, ScenarioSpec.normal(), 20000, 1, 7).data.ravel()
        r1 = np.corrcoef(X[1:], X[:-1])[0, 1]
        assert abs(r1 - 0.4) < 0.025

    def test_vma1_lag_one_autocovariance_matches_coefficients(self):
        A = gen_coeff(CoeffSpec("explicit", 3, m=3, low=-0.4, high=0.4), 5)
        model = ModelSpec(ModelKind.VMA1, coeff=A)
        batches = []
        for r in range(20):
            X = gen_series(model, ScenarioSpec.normal(), 2000, 3, derive_rng(6, "vma", r)).data
            batches.append(X[1:].T @ X[:-1] / (len(X) - 1))
        batches = np.array(batches)
        mean = batches.mean(axis=0)
        se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
        assert np.all(np.abs(mean - A) <= 3.0 * se + 0.01)

    def test_var1_dense_stays_finite(self):
        model = ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 80))
        X = gen_series(model, ScenarioSpec.student_t(3), 200, 80, 11).data
        assert np.isfinite(X).all()

    def test_sampler_draws_equal_gen_series(self):
        from hdwn.dgp import _series_sampler

        cov = build_covariance(CovarianceSpec("polydecay", 6))
        A = gen_coeff(CoeffSpec("dense", 6), derive_rng(3, "coeff"))
        models = [ModelSpec(ModelKind.IID), ModelSpec(ModelKind.IID, coeff=CoeffSpec("dense", 6))]
        models += [ModelSpec(kind, coeff=A) for kind in (ModelKind.VAR1, ModelKind.VMA1,
                                                          ModelKind.VARMA1)]
        models.append(ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(CovarianceSpec("identity", 6))))
        scenario = ScenarioSpec.student_t(3)
        for model in models:
            draw, _ = _series_sampler(model, scenario, 30, 6, cov)
            for r in range(3):
                want = gen_series(model, scenario, 30, 6, derive_rng(4, "rep", r), innov_cov=cov)
                (got,) = draw([derive_rng(4, "rep", r)])
                assert type(got) is np.ndarray and got.dtype == np.float64
                assert got.shape == (30, 6)
                assert np.array_equal(got, want.data)

    @pytest.mark.parametrize("p", (3, 40, 80))
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_block_draws_equal_gen_series(self, kind, p):
        from hdwn.dgp import _series_sampler

        A = gen_coeff(CoeffSpec("explicit", p, m=p, low=-0.1, high=0.1), derive_rng(5, "A", p))
        h1 = H1Spec(CovarianceSpec("identity", p)) if kind is ModelKind.H1_SIGN else None
        coeff = None if kind in (ModelKind.IID, ModelKind.H1_SIGN) else A
        reps = 13
        for cov_kind in ("identity", "polydecay"):
            cov = build_covariance(CovarianceSpec(cov_kind, p))
            for burn in (None, 0, 1, 7):
                if kind is ModelKind.VMA1 and burn == 0:
                    continue
                model = ModelSpec(kind, coeff=coeff, burn_in=burn, h1=h1)
                for scenario in (ScenarioSpec.normal(), ScenarioSpec.student_t(3),
                                 ScenarioSpec.mixture()):
                    want = [gen_series(model, scenario, 12, p, derive_rng(8, "rep", r),
                                       innov_cov=cov).data for r in range(reps)]
                    draw, _ = _series_sampler(model, scenario, 12, p, cov)
                    for size in (1, 2, 4, reps):
                        got = []
                        for first in range(0, reps, size):
                            rngs = [derive_rng(8, "rep", r)
                                    for r in range(first, min(first + size, reps))]
                            got += list(draw(rngs))
                        assert len(got) == reps
                        for a, b in zip(got, want):
                            assert type(a) is np.ndarray and a.dtype == np.float64
                            assert a.shape == (12, p)
                            assert np.array_equal(a, b), (cov_kind, burn, scenario.kind, size)

    def test_block_draw_memory(self):
        """One default block at (200, 80), drawn and evaluated, stays small.

        A series is 128 kB; the block's four series with their burn-in are
        1 MB of innovations, and evaluating one series needs about 0.9 MB.
        """
        import tracemalloc

        from hdwn import evaluate_tests_collect
        from hdwn.dgp import _series_sampler

        A = gen_coeff(CoeffSpec("dense", 80), derive_rng(3, "coeff"))
        model = ModelSpec(ModelKind.VAR1, coeff=A)
        draw, block = _series_sampler(model, ScenarioSpec.student_t(3), 200, 80)
        tests, lags = ("ss", "flm", "max", "fc"), (1, 2, 3)
        for series in draw([derive_rng(0, "warm")]):  # first calls outside the trace
            evaluate_tests_collect(series, tests, lags)
        rngs = [derive_rng(0, "rep", r) for r in range(block)]
        tracemalloc.start()
        try:
            for series in draw(rngs):
                evaluate_tests_collect(series, tests, lags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block > 1
        assert peak < 2.0e6

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_identity_innovations_equal_the_explicit_product(self, kind, monkeypatch):
        """Skipping z @ I for identity innovations leaves every byte of every series."""
        import hdwn.dgp as dgp
        from hdwn.dgp import _series_sampler

        p, n = 12, 25
        A = gen_coeff(CoeffSpec("explicit", p, m=p, low=-0.1, high=0.1), derive_rng(5, "A"))
        h1 = H1Spec(CovarianceSpec("identity", p)) if kind is ModelKind.H1_SIGN else None
        coeff = None if kind in (ModelKind.IID, ModelKind.H1_SIGN) else A
        model = ModelSpec(kind, coeff=coeff, h1=h1)
        scenarios = (ScenarioSpec.normal(), ScenarioSpec.student_t(3), ScenarioSpec.mixture())
        assert dgp._innovation_factor(np.eye(p)) is None

        def draws():
            out = []
            for scenario in scenarios:
                out.append(gen_innovations(scenario, np.eye(p), n, 2).data)
                for cov in (None, np.eye(p)):
                    out.append(gen_series(model, scenario, n, p, 2, innov_cov=cov).data)
                    draw, _ = _series_sampler(model, scenario, n, p, cov)
                    out += list(draw([derive_rng(2, "rep", r) for r in range(3)]))
            return [x.tobytes() for x in out]

        skipped = draws()
        real = dgp._innovation_rows
        monkeypatch.setattr(dgp, "_innovation_rows", lambda scenario, L, n, p, rng: real(
            scenario, np.eye(p) if L is None else L, n, p, rng))
        assert skipped == draws()

    def test_innovation_covariance_shape_checked(self):
        with pytest.raises(InvalidSpecError):
            gen_series(ModelSpec(ModelKind.IID), ScenarioSpec.normal(), 20, 3, 0,
                       innov_cov=np.eye(4))

    def test_sampler_checks_the_model_once_up_front(self):
        from hdwn.dgp import _series_sampler

        model = ModelSpec(ModelKind.VAR1, coeff=1.1 * np.eye(3))
        with pytest.raises(ExplosiveModelError):
            _series_sampler(model, ScenarioSpec.normal(), 20, 3)

    def test_explosive_matrix_rejected(self):
        model = ModelSpec(ModelKind.VAR1, coeff=1.1 * np.eye(3))
        with pytest.raises(ExplosiveModelError):
            gen_series(model, ScenarioSpec.normal(), 20, 3, 0)

    def test_reproducible_streams(self):
        model = ModelSpec(ModelKind.VARMA1, coeff=CoeffSpec("dense", 10))
        a = gen_series(model, ScenarioSpec.mixture(), 40, 10, 99).data
        b = gen_series(model, ScenarioSpec.mixture(), 40, 10, 99).data
        assert np.array_equal(a, b)

    def test_burn_in_insensitivity_of_size(self):
        coeff = gen_coeff(CoeffSpec("dense", 20), derive_rng(13, "A"))
        rates = []
        for burn in (200, 400):
            model = ModelSpec(ModelKind.VAR1, coeff=coeff, burn_in=burn)
            rej = 0
            for r in range(200):
                X = gen_series(model, ScenarioSpec.normal(), 60, 20, derive_rng(13, "burn", r))
                rej += ss_test(X, 1).reject
            rates.append(rej / 200)
        pooled = 0.5 * (rates[0] + rates[1])
        se_diff = math.sqrt(2.0 * pooled * (1.0 - pooled) / 200)
        assert abs(rates[0] - rates[1]) <= 2.0 * se_diff + 1e-9


class TestH1Model:
    def test_null_reduction_is_uniform_spheres(self):
        spec = H1Spec(sigma0=CovarianceSpec("identity", 30), sigma1_scale=0.0,
                      radial="constant")
        series, meta = gen_h1_model(spec, 100, 30, 4)
        norms = np.linalg.norm(series.data, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert meta.c1 == 1.0
        assert meta.tr_s0s1 == 0.0

    def test_null_reduction_size_close_to_alpha(self):
        spec = H1Spec(sigma0=CovarianceSpec("identity", 50), sigma1_scale=0.0,
                      radial="constant")
        rej = 0
        for r in range(200):
            series, _ = gen_h1_model(spec, 100, 50, derive_rng(21, "h1null", r))
            rej += ss_test(series, 1, 0.05).reject
        assert 0.01 <= rej / 200 <= 0.09

    def test_constant_radial_metadata(self):
        spec = H1Spec(sigma0=CovarianceSpec("identity", 20), radial="constant")
        _, meta = gen_h1_model(spec, 50, 20, 0)
        assert meta.c1 == 1.0
        assert meta.omega == 1.0
        assert abs(meta.tr_s0s1 - 20.0 / 50.0) <= 1e-12
        assert meta.tr_s0sq == 20.0

    def test_chi_radial_series_is_gaussian_vma(self):
        # with the chi radial law, r_t u_t is exactly standard normal
        spec = H1Spec(sigma0=CovarianceSpec("identity", 10), radial="chi_p")
        series, meta = gen_h1_model(spec, 4000, 10, 8)
        X = series.data
        assert abs(X.var() - (1.0 + meta.sigma1_scale**2)) < 0.05
        assert meta.c1 == pytest.approx(1.0, abs=0.1)

    def test_custom_radial_with_declared_c1(self):
        spec = H1Spec(
            sigma0=CovarianceSpec("identity", 12),
            radial="custom",
            radial_sampler=lambda rng, size: rng.uniform(0.5, 1.5, size=size),
            radial_c1=1.0397,
        )
        series, meta = gen_h1_model(spec, 60, 12, 2)
        assert meta.c1 == 1.0397
        assert series.n == 60

    def test_custom_radial_estimates_c1(self):
        # uniform(0.5, 1.5): E(r) = 1 and E(1/r) = log 3, so c1 = log 3
        spec = H1Spec(
            sigma0=CovarianceSpec("identity", 12),
            radial="custom",
            radial_sampler=lambda rng, size: rng.uniform(0.5, 1.5, size=size),
        )
        _, meta = gen_h1_model(spec, 60, 12, 2)
        assert abs(meta.c1 - math.log(3.0)) < 0.01

    def test_c1_estimate_leaves_the_stream_alone(self):
        # the estimate draws from rng.spawn, so the rows match a declared c1
        def spec(c1):
            return H1Spec(sigma0=CovarianceSpec("polydecay", 12), radial="custom",
                          radial_sampler=lambda rng, size: rng.uniform(0.5, 1.5, size=size),
                          radial_c1=c1)

        est, m_est = gen_h1_model(spec(None), 60, 12, 2)
        given, m_given = gen_h1_model(spec(1.1), 60, 12, 2)
        assert est.data.tobytes() == given.data.tobytes()
        assert m_given.c1 == 1.1 and m_est.c1 != 1.1
        g_est, g_given = np.random.default_rng(2), np.random.default_rng(2)
        est, _ = gen_h1_model(spec(None), 60, 12, g_est)
        given, _ = gen_h1_model(spec(1.1), 60, 12, g_given)
        assert est.data.tobytes() == given.data.tobytes()
        assert g_est.random() == g_given.random()

    def test_sphere_uniformity(self):
        spec = H1Spec(sigma0=CovarianceSpec("identity", 10), sigma1_scale=0.0,
                      radial="constant")
        series, _ = gen_h1_model(spec, 100000, 10, 17)
        assert np.max(np.abs(series.data.mean(axis=0))) < 0.02


class TestStreams:
    def test_identical_paths_identical_streams(self):
        a = derive_rng(5, "rep", 3).standard_normal(8)
        b = derive_rng(5, "rep", 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_paths_distinct_streams(self):
        a = derive_rng(5, "rep", 3).standard_normal(8)
        b = derive_rng(5, "rep", 4).standard_normal(8)
        c = derive_rng(6, "rep", 3).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_is_stable(self):
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")

    def test_bad_path_parts_rejected(self):
        from hdwn import InvalidInputError

        with pytest.raises(InvalidInputError):
            derive_rng(0, 3.5)
        with pytest.raises(InvalidInputError):
            derive_rng(-1, "rep")
