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
    MixtureNormal,
    ModelKind,
    ModelSpec,
    Normal,
    ScenarioSpec,
    StudentT,
    build_covariance,
    chi_radial_c1,
    derive_rng,
    derive_seed,
    gen_coeff,
    gen_h1_model,
    gen_series,
    radial_moments,
    ss_test,
)
from hdwn.dgp import BURN_IN


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


@pytest.mark.parametrize("make, allowed", [
    (lambda: ScenarioSpec("bogus"), "'normal', 't', 'mixture'"),
    (lambda: CovarianceSpec("bogus", 3), "'identity', 'polydecay'"),
    (lambda: CoeffSpec("bogus", 3), "'dense', 'sparse'"),
    (lambda: ModelSpec("bogus"), "'iid', 'var1', 'vma1', 'varma1', 'h1'"),
    (lambda: H1Spec(CovarianceSpec("identity", 3), radial="bogus"),
     "'chi_p', 'constant'"),
], ids=["ScenarioSpec", "CovarianceSpec", "CoeffSpec", "ModelSpec", "H1Spec"])
def test_unknown_kind_is_a_spec_error_listing_the_kinds(make, allowed):
    with pytest.raises(InvalidSpecError) as info:
        make()
    assert "'bogus'" in str(info.value)
    assert str(info.value).endswith(f"expected one of {allowed}")


class TestInnovations:
    def test_normal_sample_covariance(self):
        X = gen_series(ModelSpec("iid"), ScenarioSpec.normal(), 5000, 2,
                       np.random.default_rng(1), innov_cov=np.eye(2))
        emp = X.T @ X / 5000
        assert np.max(np.abs(emp - np.eye(2))) < 0.1

    def test_normal_sample_covariance_follows_the_scatter(self):
        S = np.array([[1.0, 0.5], [0.5, 1.0]])
        X = gen_series(ModelSpec("iid"), ScenarioSpec.normal(), 5000, 2,
                       np.random.default_rng(1), innov_cov=S)
        assert np.max(np.abs(X.T @ X / 5000 - S)) < 0.1

    def test_student_t_heavy_tails(self):
        heavier = 0
        for r in range(100):
            X = gen_series(ModelSpec("iid"), ScenarioSpec.student_t(3), 500, 2,
                           derive_rng(2, "kurt", r), innov_cov=np.eye(2))
            heavier += bool(np.all(kurtosis(X, axis=0) > 0.0))
        assert heavier >= 95

    def test_mixture_marginal_variance(self):
        X = gen_series(ModelSpec("iid"), ScenarioSpec.mixture(0.8, 9.0), 20000, 1,
                       np.random.default_rng(3), innov_cov=np.eye(1))
        assert abs(X.var() - 2.6) < 0.15

    def test_not_positive_definite(self):
        from hdwn import NotPositiveDefiniteError

        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            gen_series(ModelSpec("iid"), ScenarioSpec.normal(), 10, 2, np.random.default_rng(0),
                       innov_cov=bad)

    @pytest.mark.parametrize("cov", [np.float64(2.0), np.ones(3), np.ones((2, 3))],
                             ids=["0-d", "1-D", "2x3"])
    def test_malformed_scatter_matrix_is_refused(self, cov):
        with pytest.raises(InvalidSpecError, match=r"innovation covariance must be \(3, 3\)"):
            gen_series(ModelSpec(ModelKind.IID), ScenarioSpec.normal(), 10, 3, 0, innov_cov=cov)

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

    def test_spec_is_a_regime_and_a_dimension(self):
        from dataclasses import fields

        from hdwn.dgp import CoeffRegime

        assert [f.name for f in fields(CoeffSpec)] == ["regime", "p"]
        assert [r.value for r in CoeffRegime] == ["dense", "sparse"]

    # (regime, p, block size m): dense m = floor(0.8 p), sparse m = floor(0.05 p)
    @pytest.mark.parametrize("regime, p, m", [
        ("dense", 20, 16), ("dense", 50, 40), ("dense", 120, 96),
        ("sparse", 20, 1), ("sparse", 50, 2), ("sparse", 120, 6),
    ])
    def test_block_is_uniform_on_the_regime_width(self, regime, p, m):
        half = {"dense": 1.0, "sparse": 3.0}[regime] / (4.0 * math.sqrt(m))
        spec = CoeffSpec(regime, p)
        assert spec.block() == (m, -half, half)
        A = gen_coeff(spec, 3)
        assert np.all(A[m:, :] == 0.0) and np.all(A[:, m:] == 0.0)
        assert np.count_nonzero(A) == m * m
        assert np.all(np.abs(A) < half)

    @pytest.mark.parametrize("regime", ("dense", "sparse"))
    def test_an_integer_seed_draws_one_matrix_for_every_caller(self, regime):
        # gen_coeff, gen_series and run_experiment read an integer seed by one rule
        from hdwn import McConfig
        from hdwn.montecarlo import _resolve_model

        spec, scenario = CoeffSpec(regime, 40), ScenarioSpec.student_t(5)
        for seed in (0, 5, 2**40):
            A = gen_coeff(spec, seed)
            assert A.tobytes() == gen_coeff(spec, derive_rng(seed, "coeff")).tobytes()
            for kind in ("var1", "vma1", "varma1"):
                drawn = gen_series(ModelSpec(kind, coeff=spec), scenario, 30, 40, seed)
                given = gen_series(ModelSpec(kind, coeff=A), scenario, 30, 40, seed)
                assert drawn.tobytes() == given.tobytes()
                cfg = McConfig(("ss",), scenario, ModelSpec(kind, coeff=spec),
                               CovarianceSpec("identity", 40), n=30, p=40, H_values=(1,),
                               reps=1, master_seed=seed)
                assert _resolve_model(cfg)[0].coeff.tobytes() == A.tobytes()


# SHA-256 of gen_series output over VAR(1)/VMA(1)/VARMA(1) models, and apart
# of gen_h1_model output, up to p = 200. On OpenBLAS's SkylakeX kernels, two
# unpinned threads change the bits of the p = 200 Cholesky factor, which
# both digests see; the draws' products kept theirs there even unpinned.
_GEN_DIGEST_SCRIPT = """
import hashlib
from hdwn import (CoeffSpec, CovarianceSpec, H1Spec, ModelKind, ModelSpec, ScenarioSpec,
                  build_covariance, derive_rng, gen_h1_model, gen_series)
digest, h1 = hashlib.sha256(), hashlib.sha256()
for p in (3, 40, 120, 200):
    cov = build_covariance(CovarianceSpec("polydecay", p))
    if p >= 40:
        for seed in range(2):
            X, _ = gen_h1_model(H1Spec(CovarianceSpec("polydecay", p)), 60, p, seed)
            h1.update(X.tobytes())
    # a full uniform matrix from the stream gen_series draws a CoeffSpec's from
    specs = [lambda seed: derive_rng(seed, "coeff").uniform(-0.1, 0.1, (p, p))]
    if p >= 20:  # below, the sparse block is empty and CoeffSpec refuses it
        specs.append(lambda seed: CoeffSpec("sparse", p))
    for kind in (ModelKind.VAR1, ModelKind.VMA1, ModelKind.VARMA1):
        for spec in specs:
            for seed in range(2):
                X = gen_series(ModelSpec(kind, coeff=spec(seed)), ScenarioSpec.student_t(3), 60,
                               p, seed, innov_cov=cov)
                digest.update(X.tobytes())
print(digest.hexdigest(), h1.hexdigest())
"""


class TestGenSeries:
    def test_zero_coefficients_reduce_to_innovations(self):
        zero = np.zeros((4, 4))
        for kind in (ModelKind.VAR1, ModelKind.VMA1, ModelKind.VARMA1):
            X = gen_series(ModelSpec(kind, coeff=zero), ScenarioSpec.normal(), 50, 4, 123)
            # exactly the innovation stream beyond the kind's burn-in
            burn = BURN_IN[kind]
            Z = gen_series(ModelSpec("iid"), ScenarioSpec.normal(), 50 + burn, 4,
                           derive_rng(123, "innov"), innov_cov=np.eye(4))
            assert np.array_equal(X, Z[burn:]), kind

    @pytest.mark.parametrize("kind", ["iid", "var1", "vma1", "varma1"])
    def test_burn_in_discards_the_head_of_the_path(self, kind, monkeypatch):
        # the kind's burn-in drops that many steps of the path a shorter burn-in would keep
        coeff = None if kind == "iid" else derive_rng(5, "A").uniform(-0.3, 0.3, (4, 4))
        model = ModelSpec(kind, coeff=coeff)
        X = gen_series(model, ScenarioSpec.normal(), 30, 4, 11)
        burn, least = BURN_IN[model.kind] + 3, int(kind == "vma1")  # vma1 seeds one lag
        monkeypatch.setitem(BURN_IN, model.kind, burn)
        Y = gen_series(model, ScenarioSpec.normal(), 30, 4, 11)
        monkeypatch.setitem(BURN_IN, model.kind, least)
        Z = gen_series(model, ScenarioSpec.normal(), 30 + burn - least, 4, 11)
        assert np.array_equal(Y, Z[burn - least:])
        assert np.array_equal(X, Z[burn - 3 - least:-3])

    def test_vma1_scalar_autocorrelation(self):
        model = ModelSpec(ModelKind.VMA1, coeff=np.array([[0.5]]))
        X = gen_series(model, ScenarioSpec.normal(), 20000, 1, 7).ravel()
        r1 = np.corrcoef(X[1:], X[:-1])[0, 1]
        assert abs(r1 - 0.4) < 0.025

    def test_vma1_lag_one_autocovariance_matches_coefficients(self):
        A = np.random.default_rng(5).uniform(-0.4, 0.4, (3, 3))
        model = ModelSpec(ModelKind.VMA1, coeff=A)
        batches = []
        for r in range(20):
            X = gen_series(model, ScenarioSpec.normal(), 2000, 3, derive_rng(6, "vma", r))
            batches.append(X[1:].T @ X[:-1] / (len(X) - 1))
        batches = np.array(batches)
        mean = batches.mean(axis=0)
        se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
        assert np.all(np.abs(mean - A) <= 3.0 * se + 0.01)

    def test_explicit_coefficients_derive_no_coefficient_stream(self, monkeypatch):
        import hdwn.dgp as dgp

        paths = []
        real = dgp.derive_rng
        monkeypatch.setattr(dgp, "derive_rng",
                            lambda seed, *path: paths.append(path) or real(seed, *path))
        model = ModelSpec(ModelKind.VAR1, coeff=0.5 * np.eye(3))
        X = gen_series(model, ScenarioSpec.normal(), 20, 3, 9)
        assert paths == [("innov",)]
        want = dgp._series_sampler(model, ScenarioSpec.normal(), 20, 3)([real(9, "innov")])[0]
        assert np.array_equal(X, want)

    def test_var1_dense_stays_finite(self):
        model = ModelSpec(ModelKind.VAR1, coeff=CoeffSpec("dense", 80))
        X = gen_series(model, ScenarioSpec.student_t(3), 200, 80, 11)
        assert np.isfinite(X).all()

    def test_sampler_draws_equal_gen_series(self):
        from hdwn.dgp import _series_sampler

        cov = build_covariance(CovarianceSpec("polydecay", 6))
        spec = CoeffSpec("dense", 6)
        A = gen_coeff(spec, derive_rng(3, "coeff"))
        models = [ModelSpec(ModelKind.IID)]
        models += [ModelSpec(kind, coeff=A) for kind in (ModelKind.VAR1, ModelKind.VMA1,
                                                          ModelKind.VARMA1)]
        models.append(ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(CovarianceSpec("identity", 6))))
        scenario = ScenarioSpec.student_t(3)
        for model in models:
            c = None if model.h1 else cov  # an h1 series' scatter is its sigma0
            draw = _series_sampler(model, scenario, 30, 6, c)
            for r in range(3):
                want = gen_series(model, scenario, 30, 6, derive_rng(4, "rep", r), innov_cov=c)
                (got,) = draw([derive_rng(4, "rep", r)])
                assert type(got) is np.ndarray and got.dtype == np.float64
                assert got.shape == (30, 6)
                assert np.array_equal(got, want)
        # a Generator gives a CoeffSpec model its coefficients, then its innovations
        for kind in (ModelKind.VAR1, ModelKind.VMA1, ModelKind.VARMA1):
            for r in range(3):
                got = gen_series(ModelSpec(kind, coeff=spec), scenario, 30, 6,
                                 derive_rng(4, "rep", r), innov_cov=cov)
                rng = derive_rng(4, "rep", r)
                fixed = ModelSpec(kind, coeff=gen_coeff(spec, rng))
                (want,) = _series_sampler(fixed, scenario, 30, 6, cov)([rng])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", (3, 40, 80))
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_block_draws_equal_gen_series(self, kind, p, monkeypatch):
        from hdwn.dgp import _series_sampler

        A = derive_rng(5, "A", p).uniform(-0.1, 0.1, (p, p))
        h1 = H1Spec(CovarianceSpec("identity", p)) if kind is ModelKind.H1_SIGN else None
        coeff = None if kind in (ModelKind.IID, ModelKind.H1_SIGN) else A
        reps = 13
        # an h1 series' scatter is its sigma0, so it takes no innovation covariance
        for cov_kind in (None,) if h1 else ("identity", "polydecay"):
            cov = cov_kind and build_covariance(CovarianceSpec(cov_kind, p))
            for burn in dict.fromkeys((BURN_IN[kind], 0, 1, 7)):
                # vma1 needs a step of burn-in, and h1 has none
                if (kind is ModelKind.VMA1 and burn == 0) or (h1 and burn):
                    continue
                monkeypatch.setitem(BURN_IN, kind, burn)
                model = ModelSpec(kind, coeff=coeff, h1=h1)
                for scenario in (ScenarioSpec.normal(), ScenarioSpec.student_t(3),
                                 ScenarioSpec.mixture()):
                    want = [gen_series(model, scenario, 12, p, derive_rng(8, "rep", r),
                                       innov_cov=cov) for r in range(reps)]
                    draw = _series_sampler(model, scenario, 12, p, cov)
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
        """One default block at (200, 80), drawn and evaluated as run_experiment
        does, stays small.

        Drawing four series needs their 512 kB, as much again for the
        burn-in and 256 kB for one series' innovations: 1.28 MB, the widest
        stage. The Gram stage holds the series and one series' 320 kB Gram
        and 159 kB packed triangle: 0.99 MB.
        """
        import tracemalloc

        from hdwn.dgp import _series_sampler
        from hdwn.montecarlo import _eval_reps
        from hdwn.stats_tests import _evaluate_block

        A = gen_coeff(CoeffSpec("dense", 80), derive_rng(3, "coeff"))
        model = ModelSpec(ModelKind.VAR1, coeff=A)
        draw = _series_sampler(model, ScenarioSpec.student_t(3), 200, 80)
        block = _eval_reps(200, 80, BURN_IN[model.kind])
        tests, lags = ("ss", "flm", "max", "fc"), (1, 2, 3)
        # first calls outside the trace
        _evaluate_block(draw([derive_rng(0, "warm")]), tests, lags)
        rngs = [derive_rng(0, "rep", r) for r in range(block)]
        tracemalloc.start()
        try:
            _evaluate_block(draw(rngs), tests, lags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block == 4
        assert peak < 1.4e6

    def test_factored_block_draw_memory(self):
        """A polydecay scatter holds each series' innovations twice, before
        and after the product with its Cholesky factor; a block drawn at the
        width _eval_reps gives it stays within the block budget."""
        import tracemalloc

        from hdwn.dgp import _series_sampler
        from hdwn.montecarlo import _EVAL_BLOCK_BYTES, _eval_reps

        A = gen_coeff(CoeffSpec("dense", 80), derive_rng(3, "coeff"))
        draw = _series_sampler(ModelSpec(ModelKind.VAR1, coeff=A),
                               ScenarioSpec.student_t(3), 200, 80,
                               build_covariance(CovarianceSpec("polydecay", 80)))
        block = _eval_reps(200, 80, 200, factored=True)
        draw([derive_rng(0, "warm")])  # first calls outside the trace
        rngs = [derive_rng(0, "rep", r) for r in range(block)]
        tracemalloc.start()
        try:
            draw(rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block == 3
        assert peak <= _EVAL_BLOCK_BYTES

    def test_gen_series_bits_do_not_depend_on_blas_threads(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import hdwn

        src = str(Path(hdwn.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", _GEN_DIGEST_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_identity_innovations_equal_the_explicit_product(self, kind, monkeypatch):
        """Skipping z @ I for identity innovations leaves every byte of every series."""
        import hdwn.dgp as dgp
        from hdwn.dgp import _series_sampler

        p, n = 12, 25
        A = derive_rng(5, "A").uniform(-0.1, 0.1, (p, p))
        h1 = H1Spec(CovarianceSpec("identity", p)) if kind is ModelKind.H1_SIGN else None
        coeff = None if kind in (ModelKind.IID, ModelKind.H1_SIGN) else A
        model = ModelSpec(kind, coeff=coeff, h1=h1)
        scenarios = (ScenarioSpec.normal(), ScenarioSpec.student_t(3), ScenarioSpec.mixture())
        assert dgp._innovation_factor(np.eye(p)) is None

        def draws():
            out = []
            for scenario in scenarios:
                out.append(gen_series(ModelSpec("iid"), scenario, n, p, np.random.default_rng(2),
                                      innov_cov=np.eye(p)))
                for cov in (None,) if h1 else (None, np.eye(p)):
                    out.append(gen_series(model, scenario, n, p, 2, innov_cov=cov))
                    draw = _series_sampler(model, scenario, n, p, cov)
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

        with pytest.raises(ExplosiveModelError):
            model = ModelSpec(ModelKind.VAR1, coeff=1.1 * np.eye(3))
            _series_sampler(model, ScenarioSpec.normal(), 20, 3)

    def test_iid_and_h1_models_refuse_coefficients(self):
        h1 = H1Spec(CovarianceSpec("identity", 3))
        for coeff in (CoeffSpec("dense", 3), 0.1 * np.eye(3)):
            with pytest.raises(InvalidSpecError):
                ModelSpec(ModelKind.IID, coeff=coeff)
            with pytest.raises(InvalidSpecError):
                ModelSpec(ModelKind.H1_SIGN, h1=h1, coeff=coeff)

    def test_explosive_matrix_rejected(self):
        with pytest.raises(ExplosiveModelError):
            model = ModelSpec(ModelKind.VAR1, coeff=1.1 * np.eye(3))
            gen_series(model, ScenarioSpec.normal(), 20, 3, 0)

    @pytest.mark.parametrize("kind, scale", (("var1", 2.0), ("varma1", 2.5)))
    def test_explosive_matrix_refused_when_the_spec_is_built(self, kind, scale):
        with pytest.raises(ExplosiveModelError, match="spectral radius >= 1"):
            ModelSpec(kind, coeff=scale * np.eye(3))
        ModelSpec(kind, coeff=0.5 * np.eye(3))  # a stationary one builds

    def test_drawn_explosive_matrix_refused_when_fixed(self):
        from hdwn import McConfig, run_experiment

        # at this seed the sparse p = 40 block (m = 2) has spectral radius 1.0131
        model = ModelSpec("var1", coeff=CoeffSpec("sparse", 40))
        with pytest.raises(ExplosiveModelError):
            gen_series(model, ScenarioSpec.normal(), 20, 40, 25770)
        cfg = McConfig(("ss",), ScenarioSpec.normal(), model, CovarianceSpec("identity", 40),
                       n=20, p=40, H_values=(1,), reps=2, master_seed=25770)
        with pytest.raises(ExplosiveModelError):
            run_experiment(cfg)

    def test_reproducible_streams(self):
        model = ModelSpec(ModelKind.VARMA1, coeff=CoeffSpec("dense", 10))
        a = gen_series(model, ScenarioSpec.mixture(), 40, 10, 99)
        b = gen_series(model, ScenarioSpec.mixture(), 40, 10, 99)
        assert np.array_equal(a, b)

    def test_burn_in_insensitivity_of_size(self, monkeypatch):
        coeff = gen_coeff(CoeffSpec("dense", 20), derive_rng(13, "A"))
        model = ModelSpec(ModelKind.VAR1, coeff=coeff)
        rates = []
        for burn in (200, 400):
            monkeypatch.setitem(BURN_IN, ModelKind.VAR1, burn)
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
        norms = np.linalg.norm(series, axis=1)
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
        X, meta = gen_h1_model(spec, 4000, 10, 8)
        assert abs(X.var() - (1.0 + meta.sigma1_scale**2)) < 0.05
        assert meta.c1 == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("scenario", [ScenarioSpec.normal(), ScenarioSpec.student_t(5),
                                          ScenarioSpec.mixture()], ids=lambda s: s.kind.value)
    def test_closed_form_c1_matches_the_drawn_radii(self, scenario):
        # with sigma1_scale = 0 and identity sigma0 each row is r_t u_t, so the
        # mean radius times the mean inverse radius of 200,000 rows estimates c1;
        # its standard error is at most 0.3% here
        spec = H1Spec(CovarianceSpec("identity", 50), sigma1_scale=0.0)
        radii = []
        for seed in range(20):
            series, meta = gen_h1_model(spec, 10_000, 50, derive_rng(31, "c1", seed), scenario)
            radii.append(np.linalg.norm(series, axis=1))
        r = np.concatenate(radii)
        assert meta.c1 == pytest.approx(r.mean() * (1.0 / r).mean(), rel=1e-2)

    @pytest.mark.parametrize("scenario, law", [
        (ScenarioSpec.normal(), Normal()),
        (ScenarioSpec.student_t(5), StudentT(5.0)),
        (ScenarioSpec.mixture(), MixtureNormal(1.0 - 0.8, math.sqrt(9.0))),
    ], ids=["normal", "t", "mixture"])
    def test_c1_is_the_closed_form_of_the_scenario_law(self, scenario, law):
        _, meta = gen_h1_model(H1Spec(CovarianceSpec("identity", 30)), 10, 30, 0, scenario)
        assert meta.c1 == radial_moments(law, 30).c1
        if scenario.kind.value == "normal":
            assert meta.c1 == chi_radial_c1(30)

    @pytest.mark.parametrize("scenario", [
        ScenarioSpec.mixture(gamma=1e-20), ScenarioSpec.mixture(gamma=1.0 - 2.0**-53),
        ScenarioSpec.mixture(scale_factor=5e-324), ScenarioSpec.mixture(scale_factor=1e300),
        ScenarioSpec.student_t(2.0 + 1e-12), ScenarioSpec.student_t(1e300),
    ], ids=["gamma-1e-20", "gamma-1-2^-53", "scale-5e-324", "scale-1e300", "df-2+1e-12",
            "df-1e300"])
    def test_every_scenario_has_a_finite_c1(self, scenario):
        _, meta = gen_h1_model(H1Spec(CovarianceSpec("identity", 8)), 10, 8, 0, scenario)
        assert math.isfinite(meta.c1) and meta.c1 >= 1.0

    def test_mixture_weight_that_rounds_to_one_is_the_scaled_normal(self):
        # 1 - 1e-20 rounds to 1.0, which MixtureNormal refuses; the law keeps its
        # weight one ulp below 1, whose c1 is the normal's to double precision
        spec = H1Spec(CovarianceSpec("identity", 20))
        _, mixed = gen_h1_model(spec, 10, 20, 0, ScenarioSpec.mixture(gamma=1e-20))
        _, normal = gen_h1_model(spec, 10, 20, 0)
        assert mixed.c1 == pytest.approx(normal.c1, rel=1e-15)

    @pytest.mark.parametrize("scenario", [ScenarioSpec.normal(), ScenarioSpec.student_t(5),
                                          ScenarioSpec.mixture()], ids=lambda s: s.kind.value)
    def test_h1_rows_are_the_scenario_rows_of_gen_series(self, scenario):
        # an h1 series draws its scenario's innovations, whichever call draws it
        model = ModelSpec(ModelKind.H1_SIGN, h1=H1Spec(CovarianceSpec("polydecay", 6)))
        X, _ = gen_h1_model(model.h1, 20, 6, 4, scenario)
        assert X.tobytes() == gen_series(model, scenario, 20, 6, 4).tobytes()
        if scenario.kind.value != "normal":
            assert X.tobytes() != gen_h1_model(model.h1, 20, 6, 4)[0].tobytes()

    def test_constant_radial_law_takes_normal_innovations_alone(self):
        spec = H1Spec(CovarianceSpec("identity", 5), radial="constant")
        assert gen_h1_model(spec, 10, 5, 0, ScenarioSpec.normal())[1].c1 == 1.0
        for scenario in (ScenarioSpec.student_t(5), ScenarioSpec.mixture()):
            with pytest.raises(InvalidSpecError, match="constant radial law takes normal"):
                gen_h1_model(spec, 10, 5, 0, scenario)

    def test_sphere_uniformity(self):
        spec = H1Spec(sigma0=CovarianceSpec("identity", 10), sigma1_scale=0.0,
                      radial="constant")
        series, _ = gen_h1_model(spec, 100000, 10, 17)
        assert np.max(np.abs(series.mean(axis=0))) < 0.02



@pytest.mark.parametrize("draw", (
    lambda seed: gen_series(ModelSpec("var1", coeff=CoeffSpec("dense", 4)), ScenarioSpec.student_t(3),
                            30, 4, seed),
    lambda seed: gen_h1_model(H1Spec(CovarianceSpec("identity", 4)), 30, 4, seed)[0],
), ids=("gen_series", "gen_h1_model"))
def test_a_drawn_series_is_a_fresh_array_its_caller_owns(draw):
    X = draw(8)
    assert type(X) is np.ndarray and X.dtype == np.float64 and X.shape == (30, 4)
    assert X.flags.writeable
    before = X.copy()
    X[:] = 0.0
    again = draw(8)
    assert np.array_equal(again, before) and not np.shares_memory(again, X)


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
