"""Closed-form power and efficiency formulas against oracles and limits."""

import math

import numpy as np
import pytest

from hdwn import (
    CovarianceSpec,
    H1Spec,
    MixtureNormal,
    ModelSpec,
    Normal,
    PowerInput,
    ScenarioSpec,
    StudentT,
    UndefinedMomentError,
    are_ss_flm,
    chi_radial_c1,
    derive_rng,
    gen_h1_model,
    gen_series,
    power_flm,
    power_ss,
    radial_moments,
    ss_test,
)

from oracles import erfc_upper_quantile, erfc_upper_tail


class TestPowerFunctions:
    def test_no_signal_gives_alpha(self):
        pin = PowerInput(n=100, tr_s0s1=0.0, tr_s0sq=10.0, alpha=0.05)
        assert abs(power_ss(pin) - 0.05) <= 1e-12
        assert abs(power_flm(pin) - 0.05) <= 1e-12

    def test_quantile_identity_case(self):
        # shift equal to 2 z_alpha pushes the power to 1 - alpha exactly
        z = erfc_upper_quantile(0.05)
        pin = PowerInput(n=1, tr_s0s1=math.sqrt(2.0) * 2.0 * z, tr_s0sq=1.0, alpha=0.05)
        assert abs(power_ss(pin) - 0.95) <= 1e-9

    def test_shift_two_case(self):
        # c1^2 n tr_s0s1 / tr_s0sq = 2, so beta = Phi(-z + 2/sqrt(2))
        pin = PowerInput(n=1, tr_s0s1=2.0, tr_s0sq=1.0, alpha=0.05)
        expected = 1.0 - erfc_upper_tail(-erfc_upper_quantile(0.05) + math.sqrt(2.0))
        assert abs(power_ss(pin) - expected) <= 1e-9
        assert abs(power_ss(pin) - 0.4087972197938703) <= 1e-9

    def test_flm_equals_ss_in_gaussian_case(self):
        pin = PowerInput(n=50, tr_s0s1=3.0, tr_s0sq=40.0, c1=1.0, moment_ratio=1.0)
        assert power_flm(pin) == power_ss(pin)

    def test_monotone_in_signal(self):
        values = [
            power_ss(PowerInput(n=100, tr_s0s1=s, tr_s0sq=50.0))
            for s in np.linspace(0.0, 2.0, 15)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)


class TestAre:
    def test_normal_is_one(self):
        assert are_ss_flm(Normal()) == 1.0

    def test_t3_closed_form(self):
        value = are_ss_flm(StudentT(3.0))
        assert abs(value - 8.0 / math.pi) <= 1e-12
        assert abs(value - 2.54) <= 0.01

    def test_t4_closed_form(self):
        value = are_ss_flm(StudentT(4.0))
        assert abs(value - 0.5625 * math.pi) <= 1e-12
        assert abs(value - 1.76) <= 0.01

    def test_t_limit_to_one(self):
        assert abs(are_ss_flm(StudentT(1000.0)) - 1.0) < 0.01

    def test_undefined_below_two_dof(self):
        with pytest.raises(UndefinedMomentError):
            StudentT(2.0)
        with pytest.raises(UndefinedMomentError):
            StudentT(1.5)

    def test_at_least_one_on_grid(self):
        for v in np.linspace(2.1, 50.0, 40):
            assert are_ss_flm(StudentT(float(v))) >= 1.0
        for w in np.linspace(0.05, 0.95, 10):
            for s in (0.2, 0.5, 2.0, 3.0, 9.0):
                assert are_ss_flm(MixtureNormal(float(w), s)) >= 1.0

    def test_mixture_closed_form(self):
        # E^2(1/w) E(w^2) of the scale w, sigma with probability v and 1 otherwise;
        # the scenario default gamma = 0.8, scale_factor = 9 is MixtureNormal(0.2, 3)
        assert are_ss_flm(MixtureNormal(0.2, 3.0)) == pytest.approx(
            (0.8 + 0.2 / 3) ** 2 * 2.6, rel=1e-15)
        for v, s in ((0.5, 2.0), (0.1, 9.0), (0.8, 0.5)):
            expected = (1 - v + v / s) ** 2 * (1 - v + v * s * s)
            assert are_ss_flm(MixtureNormal(v, s)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("dist", [Normal(), StudentT(3.0), StudentT(4.0), StudentT(7.5),
                                      MixtureNormal(0.2, 3.0), MixtureNormal(0.5, 2.0),
                                      MixtureNormal(0.1, 9.0), MixtureNormal(0.8, 0.5)], ids=repr)
    def test_consistency_with_radial_moments(self, dist):
        # the closed form is the p -> infinity limit of E^2(1/r) E(r^2)
        m = radial_moments(dist, 10_000)
        finite_p = m.e_r_inv**2 * m.e_r2
        assert abs(finite_p - are_ss_flm(dist)) / are_ss_flm(dist) < 1e-3


class TestRadialMoments:
    def test_normal_c1_tends_to_one(self):
        assert abs(radial_moments(Normal(), 1_000_000).c1 - 1.0) < 1e-5

    def test_normal_second_moment(self):
        assert radial_moments(Normal(), 64).e_r2 == 64.0

    def test_student_t_second_moment(self):
        assert radial_moments(StudentT(3.0), 100).e_r2 == pytest.approx(300.0, rel=1e-12)

    def test_mixture_second_moment(self):
        m = radial_moments(MixtureNormal(0.2, 3.0), 100)
        assert m.e_r2 == pytest.approx(260.0, rel=1e-12)

    def test_mixture_c1_from_scale_moments(self):
        v, s, p = 0.25, 2.0, 50
        m = radial_moments(MixtureNormal(v, s), p)
        exact = ((1 - v) + v * s) * ((1 - v) + v / s) * chi_radial_c1(p)
        assert m.c1 == pytest.approx(exact, rel=1e-14)

    def test_gamma_ratios_match_scipy_gammaln(self):
        # past 1e4 degrees of freedom both lose digits to the log-gamma cancellation
        from scipy.special import gammaln

        def c1(dof):
            return math.exp(gammaln((dof + 1) / 2) + gammaln((dof - 1) / 2) - 2 * gammaln(dof / 2))

        for dof in np.concatenate([np.linspace(1.01, 100.0, 2_000), np.logspace(2, 4, 2_000)]):
            assert chi_radial_c1(dof) == pytest.approx(c1(dof), rel=1e-10, abs=0.0)
        for p in (2, 3, 40, 120, 1_000, 10_000):
            half = math.exp(gammaln((p - 1) / 2) - gammaln(p / 2))
            t3 = math.exp(gammaln(2.0) - gammaln(1.5) + gammaln((p - 1) / 2) - gammaln(p / 2))
            assert radial_moments(Normal(), p).e_r_inv == pytest.approx(
                half / math.sqrt(2.0), rel=1e-10, abs=0.0)
            assert radial_moments(StudentT(3.0), p).e_r_inv == pytest.approx(
                t3 / math.sqrt(3.0), rel=1e-10, abs=0.0)
        t = 2.0 * (gammaln(4.0) - gammaln(3.5))
        assert are_ss_flm(StudentT(7.0)) == pytest.approx(0.4 * math.exp(t), rel=1e-10, abs=0.0)

    def test_chi_radial_c1_matches_mpmath(self):
        # three log-gammas of size (dof/2) log(dof/2) cancel; past 1e3
        # degrees of freedom the series keeps the digits they lose
        mpmath = pytest.importorskip("mpmath")

        def three_lgammas(dof):
            return math.exp(math.lgamma((dof + 1) / 2) + math.lgamma((dof - 1) / 2)
                            - 2 * math.lgamma(dof / 2))

        grid = np.concatenate([np.linspace(1.01, 100.0, 300), np.logspace(2, 7, 600),
                               [999.0, 1000.0, 999999.5]])
        with mpmath.workdps(40):
            for dof in grid.tolist():
                d = mpmath.mpf(dof)
                exact = mpmath.exp(mpmath.loggamma((d + 1) / 2) + mpmath.loggamma((d - 1) / 2)
                                   - 2 * mpmath.loggamma(d / 2))
                err = float(abs(chi_radial_c1(dof) - exact) / exact)
                assert err <= max(float(abs(three_lgammas(dof) - exact) / exact), 2**-52), dof
                if dof >= 1e3:
                    assert err <= 1e-12, dof

    @pytest.mark.parametrize("p", (10, 50))
    @pytest.mark.parametrize("scenario, dist", [
        (ScenarioSpec.normal(), Normal()), (ScenarioSpec.student_t(5), StudentT(5.0)),
        (ScenarioSpec.mixture(), MixtureNormal(0.2, 3.0))], ids=("normal", "t5", "mixture"))
    def test_moments_of_the_drawn_radii(self, scenario, dist, p):
        # r is the norm of an innovation row with identity scatter; each field
        # must lie within 4 standard errors of its estimate from 200,000 rows,
        # that of E(r) E(1/r) taken from its linearisation
        r = np.concatenate([np.linalg.norm(gen_series(
            ModelSpec("iid"), scenario, 50_000, p, np.random.default_rng(seed),
            innov_cov=np.eye(p)), axis=1) for seed in range(4)])
        inv, sq = 1.0 / r, r * r
        m = radial_moments(dist, p)
        for name, estimate, influence in (("e_r_inv", inv.mean(), inv), ("e_r2", sq.mean(), sq),
                                          ("c1", r.mean() * inv.mean(),
                                           r * inv.mean() + inv * r.mean())):
            se = influence.std() / math.sqrt(r.size)
            assert abs(estimate - getattr(m, name)) <= 4.0 * se, name

    def test_chi_radial_c1_monte_carlo(self):
        rng = np.random.default_rng(3)
        r = np.linalg.norm(rng.standard_normal((200_000, 8)), axis=1)
        mc = r.mean() * (1.0 / r).mean()
        assert abs(chi_radial_c1(8) - mc) < 0.002


class TestMonteCarloCrossCheck:
    def test_simulated_power_matches_formula(self):
        # constant radial, identity mixing: closed form at the n = p regime
        n = p = 200
        spec = H1Spec(sigma0=CovarianceSpec("identity", p), radial="constant")
        reps = 300
        rej = 0
        meta = None
        for r in range(reps):
            series, meta = gen_h1_model(spec, n, p, derive_rng(0, "pow", r))
            rej += ss_test(series, 1, 0.05).reject
        rate = rej / reps
        predicted = power_ss(
            PowerInput(n=n, tr_s0s1=meta.tr_s0s1, tr_s0sq=meta.tr_s0sq, c1=meta.c1)
        )
        se = math.sqrt(predicted * (1.0 - predicted) / reps)
        assert abs(rate - predicted) <= 3.0 * se
