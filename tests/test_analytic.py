import math

import numpy as np
import pytest

from squeezesim.analytic import (
    CollectiveVariable,
    EstimationParams,
    SqueezeCurveParams,
    collective_decomposition,
    dp_min,
    effective_direction,
    gain,
    rotated_covariance,
    rotation_coupling,
    symmetric_direction,
    t_min_approx,
    t_min_exact,
    var_p_noiseless,
    var_p_noisy,
    var_symmetric,
    var_theta_curve,
    var_theta_inhom,
    var_theta_inhom_symmetric,
    var_theta_limit,
    var_theta_simple,
)
from squeezesim.errors import InvalidInputError, NoMinimumError

from oracles import (
    gaussian_condition_2d,
    grid_min,
    integrate_scalar_ode,
    iterate_noiseless_variance,
    var_p_noisy_direct,
)

FIG_PARAMS = SqueezeCurveParams(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)


class TestVarPNoiseless:
    def test_initial_value(self):
        assert var_p_noiseless(0.0, 1.83e6) == 0.5

    def test_operating_point(self):
        v = var_p_noiseless(1e-3, 1.83e6)
        assert v == pytest.approx(1.0 / 3662.0, rel=1e-12)
        assert v == pytest.approx(2.731e-4, rel=1e-3)

    def test_matches_discrete_iteration(self):
        v = iterate_noiseless_variance(1.83e6, 1e-7, 10000)
        assert var_p_noiseless(1e-3, 1.83e6) == pytest.approx(v, rel=1e-12)

    def test_zero_coupling(self):
        t = np.array([0.0, 1.0, 7.0])
        assert np.allclose(var_p_noiseless(t, 0.0), 0.5)


class TestVarPNoisy:
    def test_reduces_to_noiseless(self):
        p = SqueezeCurveParams(kappa_sq=1.83e6, eta=0.0, epsilon=0.0)
        t = np.linspace(0.0, 3e-3, 50)
        assert np.allclose(var_p_noisy(t, p), var_p_noiseless(t, 1.83e6), rtol=1e-14)

    def test_initial_value(self):
        assert var_p_noisy(0.0, FIG_PARAMS) == pytest.approx(0.5, rel=1e-12)

    def test_minimum_value_near_weak_decay_estimate(self):
        v = var_p_noisy(t_min_exact(FIG_PARAMS), FIG_PARAMS)
        assert v == pytest.approx(dp_min(FIG_PARAMS) ** 2, rel=0.05)
        assert v == pytest.approx(7.03e-4, rel=0.05)

    def test_tanh_form_equals_direct_evaluation(self):
        t = np.linspace(1e-5, 5e-3, 80)
        a = var_p_noisy(t, FIG_PARAMS)
        b = var_p_noisy_direct(t, FIG_PARAMS)
        assert np.allclose(a, b, rtol=1e-10)

    def test_noisy_at_least_noiseless(self):
        t = np.linspace(0.0, 5e-3, 200)
        assert np.all(var_p_noisy(t, FIG_PARAMS) >= var_p_noiseless(t, 1.83e6) - 1e-15)

    def test_rk4_oracle_agreement(self):
        """The decaying-probe rate equation integrates to the closed form."""
        k2 = FIG_PARAMS.kappa_sq
        eta = FIG_PARAMS.eta
        eps = FIG_PARAMS.epsilon

        def rate(t, v):
            return (-2.0 * k2 * (1.0 - eps) * math.exp(-eta * t) * v * v
                    - eta * v + eta * math.exp(eta * t))

        ts, ys = integrate_scalar_ode(rate, 0.5, 3e-3, 1e-7)
        ref = var_p_noisy(ts, FIG_PARAMS)
        assert np.max(np.abs(ys - ref) / ref) < 1e-4

    def test_single_interior_minimum(self):
        t = np.linspace(0.0, 0.1, 40001)
        v = var_p_noisy(t, FIG_PARAMS)
        dv = np.diff(v)
        sign_changes = np.sum(np.diff(np.sign(dv[dv != 0])) != 0)
        assert sign_changes == 1


class TestTMin:
    def test_operating_point(self):
        assert t_min_approx(FIG_PARAMS) == pytest.approx(1.73e-3, rel=5e-3)
        assert t_min_exact(FIG_PARAMS) == pytest.approx(t_min_approx(FIG_PARAMS), rel=5e-3)

    def test_grid_search_oracle(self):
        t_star, _ = grid_min(lambda t: var_p_noisy(t, FIG_PARAMS), 1e-4, 5e-3, 200001)
        assert t_min_exact(FIG_PARAMS) == pytest.approx(t_star, rel=5e-3)

    def test_independent_of_var0(self):
        p2 = SqueezeCurveParams(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028, var0=0.37)
        assert t_min_approx(p2) == t_min_approx(FIG_PARAMS)

    def test_stronger_coupling_earlier_minimum(self):
        p2 = SqueezeCurveParams(kappa_sq=4 * 1.83e6, eta=1.7577, epsilon=0.028)
        assert t_min_approx(p2) < t_min_approx(FIG_PARAMS)

    def test_no_minimum_without_decay(self):
        p = SqueezeCurveParams(kappa_sq=1.0, eta=0.0, epsilon=0.0)
        with pytest.raises(NoMinimumError):
            t_min_exact(p)
        with pytest.raises(NoMinimumError):
            t_min_approx(p)


class TestDpMin:
    def test_operating_point(self):
        assert dp_min(FIG_PARAMS) == pytest.approx(0.0265, rel=5e-3)

    def test_vanishing_decay(self):
        assert dp_min(SqueezeCurveParams(kappa_sq=1.0, eta=0.0, epsilon=0.0)) == 0.0

    def test_against_curve_minimum(self):
        _, v_star = grid_min(lambda t: var_p_noisy(t, FIG_PARAMS), 1e-4, 5e-3, 200001)
        assert dp_min(FIG_PARAMS) ** 2 == pytest.approx(v_star, rel=0.10)


class TestCollectiveDecomposition:
    def test_equal_couplings(self):
        a, peff, xeff = collective_decomposition(np.full(10, 3.0))
        assert a == pytest.approx(1.0, abs=1e-14)
        sym = symmetric_direction(10)
        assert np.allclose(peff.coefficients, sym.coefficients)

    def test_two_slice_example(self):
        a, _, _ = collective_decomposition(np.array([1.0, 0.0]))
        assert a == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_normalization_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = rng.uniform(0.1, 2.0, size=rng.integers(2, 12))
            a, _, _ = collective_decomposition(k)
            s1 = np.sum(k)
            s2 = np.sum(k * k)
            b_sq = np.sum((1.0 - k * s1 / s2) ** 2) / len(k)
            assert a * a + b_sq == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < a <= 1.0 + 1e-15

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            collective_decomposition(np.zeros(4))

    def test_directions_unit_norm(self):
        _, peff, xeff = collective_decomposition(np.array([1.0, 2.0, 0.5]))
        assert np.linalg.norm(peff.coefficients) == pytest.approx(1.0)
        assert np.all(peff.coefficients[0::2] == 0.0)
        assert np.all(xeff.coefficients[1::2] == 0.0)


class TestVarSymmetric:
    def test_aligned(self):
        assert var_symmetric(0.1, 1.0) == pytest.approx(0.1)

    def test_coherent_fixed_point(self):
        for a in (0.2, 0.7, 1.0):
            assert var_symmetric(0.5, a) == pytest.approx(0.5)


class TestThetaEstimation:
    def test_curve_at_start(self):
        cov = rotated_covariance(0.5, 1.0, 0.01, 3.0)
        assert var_theta_curve(0.0, cov, 1.83e6) == pytest.approx(0.5)

    def test_curve_long_time_limit(self):
        cov = rotated_covariance(0.5, 1.0, 0.01, 3.0)
        v_inf = var_theta_curve(1e9, cov, 1.83e6)
        assert v_inf == pytest.approx(var_theta_limit(0.01, 3.0, 0.5), rel=1e-6)

    def test_curve_uncorrelated(self):
        cov = np.diag([0.5, 1.0, 0.01])
        t = np.linspace(0.0, 1.0, 7)
        assert np.allclose(var_theta_curve(t, cov, 1.83e6), 0.5)

    def test_curve_monotone(self):
        cov = rotated_covariance(0.5, 1.0, 0.01, 3.0)
        v = var_theta_curve(np.linspace(0.0, 1e-3, 500), cov, 1.83e6)
        assert np.all(np.diff(v) <= 1e-16)

    def test_limit_example(self):
        assert var_theta_limit(0.5, 1.0, 0.5) == pytest.approx(0.25)

    def test_limit_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            vt, vp = rng.uniform(1e-4, 2.0, 2)
            alpha = rng.uniform(0.0, 30.0)
            assert var_theta_limit(vp, alpha, vt) == pytest.approx(
                gaussian_condition_2d(vt, vp, alpha), rel=1e-12
            )

    def test_large_lever_limits(self):
        assert var_theta_limit(0.3, 1e9, 0.5) == pytest.approx(0.0, abs=1e-18)
        assert var_theta_simple(0.3, 2.0) == pytest.approx(0.075)

    def test_gain(self):
        assert gain(0.5) == pytest.approx(1.0)
        assert gain(0.01) == pytest.approx(0.02)

    def test_inhomogeneous_reduces_to_homogeneous(self):
        k = np.full(10, 2.0)
        al = np.full(10, 0.3)
        v = var_theta_inhom(0.01, k, al)
        assert v == pytest.approx(var_theta_inhom_symmetric(0.01, al), rel=1e-14)
        assert v == pytest.approx(var_theta_simple(0.01, 0.3 * math.sqrt(10.0)), rel=1e-14)

    def test_inhomogeneous_lever_with_matched_alphas(self):
        """Lever arms proportional to couplings erase the spread dependence."""
        rng = np.random.default_rng(9)
        k0 = rng.uniform(0.5, 1.5, 10)
        for scale in (1.0, 0.3):
            k = k0 * scale
            alphas = 0.2236 * k / math.sqrt(float(np.mean(k * k)))
            v = var_theta_inhom(0.01, k, alphas)
            assert v == pytest.approx(0.01 / (0.2236**2 * 10), rel=1e-12)

    def test_zero_lever_rejected(self):
        with pytest.raises(InvalidInputError):
            var_theta_inhom(0.01, np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_rotation_coupling(self):
        assert rotation_coupling(2e12, 0.0, 0.0) == pytest.approx(math.sqrt(1e12))
        assert rotation_coupling(8.0, 2.0, 0.5) == pytest.approx(2.0 * math.exp(-0.5))


class TestTypes:
    def test_collective_variable_norm_enforced(self):
        with pytest.raises(InvalidInputError):
            CollectiveVariable(np.array([1.0, 1.0]))

    def test_effective_direction_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            effective_direction(np.zeros(3))

    def test_estimation_params_ordering(self):
        with pytest.raises(InvalidInputError):
            EstimationParams(t1=2.0, t2=1.0)

    def test_squeeze_params_zero_coupling_with_decay_refused(self):
        """beta, the curve and its minimum would divide by kappa_sq_eff = 0."""
        with pytest.raises(InvalidInputError, match="kappa_sq must be positive"):
            SqueezeCurveParams(kappa_sq=0.0, eta=1.0, epsilon=0.0)

    @pytest.mark.parametrize("kappa_sq, eta", [(0.0, 0.0), (-1.0, 0.0)])
    def test_squeeze_params_no_coupling_refused(self, kappa_sq, eta):
        """Without decay beta would be 0 / 0; the curve has no coupling."""
        with pytest.raises(InvalidInputError, match="kappa_sq must be positive"):
            SqueezeCurveParams(kappa_sq=kappa_sq, eta=eta, epsilon=0.0)

    @pytest.mark.parametrize("field", ["kappa_sq", "eta", "epsilon", "var0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_squeeze_params_non_finite_refused(self, field, value):
        """A NaN passes every sign test and would make the curve NaN."""
        good = dict(kappa_sq=1.0, eta=1.0, epsilon=0.0, var0=0.5)
        with pytest.raises(InvalidInputError, match=field):
            SqueezeCurveParams(**{**good, field: value})

    def test_squeeze_params_beta(self):
        p = FIG_PARAMS
        r = p.eta / p.kappa_sq_eff
        assert p.beta == pytest.approx(math.sqrt(r * (r + 2.0)), rel=1e-14)
