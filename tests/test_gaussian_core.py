import math

import numpy as np
import pytest

from squeezesim.analytic import CollectiveVariable, var_p_noiseless
from squeezesim.errors import DegenerateCovarianceError, InvalidInputError
from squeezesim.gaussian_core import (
    GaussianState,
    StepOperators,
    _impulse_inplace,
    apply_step,
    measure_light_x,
    run_sequence,
    squeezing_minimum,
    standard_labels,
    vacuum_state,
    variance_of,
)


def coupling_step(kappa_tau, dim=4, loss=None, m=None, n=None,
                  atom_prefactor=2.0, light_prefactor=1.0, tau=1e-8):
    """Single-pair probe step: x_at += k p_ph, x_ph += k p_at."""
    s = np.eye(dim)
    s[0, dim - 1] = kappa_tau
    s[dim - 2, 1] = kappa_tau
    return StepOperators(
        s=s,
        l=np.ones(dim) if loss is None else np.asarray(loss, dtype=float),
        m=np.zeros(dim) if m is None else np.asarray(m, dtype=float),
        n=np.zeros(dim) if n is None else np.asarray(n, dtype=float),
        atom_prefactor=atom_prefactor,
        light_prefactor=light_prefactor,
        tau=tau,
    )


COUPLED_COV = np.array(
    [
        [2.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


class TestVacuumState:
    def test_single_pair_plus_light(self):
        st = vacuum_state(standard_labels(1))
        assert st.dim == 4
        assert np.array_equal(st.cov, np.eye(4))
        assert np.array_equal(st.mean, np.zeros(4))
        assert st.variance(1) == 0.5

    def test_ten_slices(self):
        st = vacuum_state(standard_labels(10))
        assert st.dim == 22
        assert np.array_equal(st.cov, np.eye(22))

    def test_theta_prior(self):
        st = vacuum_state(standard_labels(2, theta=True), theta_var=0.3)
        assert st.dim == 7
        assert st.cov[0, 0] == pytest.approx(0.6)
        assert st.has_theta

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            vacuum_state(("atom:1", "atom:1", "light"))


class TestApplyStep:
    def test_unit_coupling_on_vacuum(self):
        st = vacuum_state(standard_labels(1))
        out = apply_step(st, coupling_step(1.0))
        assert np.allclose(out.cov, COUPLED_COV, atol=1e-15)
        assert np.array_equal(out.mean, np.zeros(4))

    def test_zero_coupling_identity(self):
        st = vacuum_state(standard_labels(1))
        out = apply_step(st, coupling_step(0.0))
        assert np.array_equal(out.cov, st.cov)

    def test_pure_loss_noise_balance(self):
        eta_tau = 0.1
        st = vacuum_state(standard_labels(1))
        loss = [math.sqrt(1 - eta_tau)] * 2 + [1.0, 1.0]
        m = [eta_tau, eta_tau, 0.0, 0.0]
        out = apply_step(st, coupling_step(0.0, loss=loss, m=m, atom_prefactor=2.0))
        assert out.cov[0, 0] == pytest.approx(0.9 + 2 * 0.1)
        assert out.cov[1, 1] == pytest.approx(1.1)
        assert out.cov[2, 2] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        st = vacuum_state(standard_labels(2))
        with pytest.raises(InvalidInputError):
            apply_step(st, coupling_step(1.0, dim=4))

    def test_symplectic_preserves_determinant(self):
        rng = np.random.default_rng(12)
        st = vacuum_state(standard_labels(1))
        st = apply_step(st, coupling_step(0.7))  # non-trivial covariance
        det0 = np.linalg.det(st.cov)
        s = np.eye(4)
        for _ in range(6):
            kind = rng.integers(3)
            g = np.eye(4)
            if kind == 0:  # probe-type shear
                k = rng.uniform(-1, 1)
                g[0, 3] = k
                g[2, 1] = k
            elif kind == 1:  # single-mode rotation on the atomic pair
                th = rng.uniform(0, 2 * np.pi)
                g[0, 0] = g[1, 1] = np.cos(th)
                g[0, 1] = np.sin(th)
                g[1, 0] = -np.sin(th)
            else:  # single-mode squeeze on the light pair
                d = rng.uniform(0.5, 2.0)
                g[2, 2] = d
                g[3, 3] = 1.0 / d
            s = g @ s
        step = StepOperators(s=s, l=np.ones(4), m=np.zeros(4), n=np.zeros(4))
        out = apply_step(st, step)
        assert np.linalg.det(out.cov) == pytest.approx(det0, rel=1e-9)


class TestMeasureLightX:
    def test_uncorrelated_light_changes_nothing(self):
        st = vacuum_state(standard_labels(1))
        out, rec = measure_light_x(st, chi=0.7)
        assert np.array_equal(out.cov, np.eye(4))
        assert np.array_equal(out.mean, np.zeros(4))
        assert rec.outcome == 0.7

    def test_post_step_conditioning(self):
        st = apply_step(vacuum_state(standard_labels(1)), coupling_step(1.0))
        out, _ = measure_light_x(st, chi=0.123)
        assert np.allclose(out.cov[:2, :2], np.diag([2.0, 0.5]), atol=1e-14)
        # conditional variance of p equals 1 / (2 (1 + kappa_tau^2))
        assert out.variance(1) == pytest.approx(1.0 / (2.0 * (1.0 + 1.0)))
        # light reset to fresh vacuum
        assert np.allclose(out.cov[2:, 2:], np.eye(2))
        assert np.allclose(out.cov[:2, 2:], 0.0)

    def test_mean_shift(self):
        st = apply_step(vacuum_state(standard_labels(1)), coupling_step(1.0))
        out, rec = measure_light_x(st, chi=1.0)
        assert out.mean[1] == pytest.approx(0.5)
        assert out.mean[0] == pytest.approx(0.0)
        assert rec.outcome - rec.chi == 0.0  # pre-measurement mean of x_ph

    def test_covariance_outcome_independent(self):
        st = apply_step(vacuum_state(standard_labels(1)), coupling_step(0.4))
        out1, _ = measure_light_x(st, chi=-2.0)
        out2, _ = measure_light_x(st, chi=0.9)
        assert np.array_equal(out1.cov, out2.cov)

    def test_degenerate_rejected(self):
        st = vacuum_state(standard_labels(1))
        cov = st.cov.copy()
        cov[2, 2] = 0.0
        bad = GaussianState(st.labels, st.mean, cov)
        with pytest.raises(DegenerateCovarianceError):
            measure_light_x(bad, chi=0.0)


class TestRunSequence:
    def test_zero_steps(self):
        st = vacuum_state(standard_labels(1))
        out, traj, ts = run_sequence(st, [], rng_seed=5)
        assert np.array_equal(out.cov, st.cov)
        assert traj.samples == []
        assert len(traj.records) == 0

    def test_long_noiseless_run_matches_closed_form(self):
        kappa_sq = 1.83e6
        tau = 1e-8
        step = coupling_step(math.sqrt(kappa_sq * tau), tau=tau)
        st = vacuum_state(standard_labels(1))
        out, _, _ = run_sequence(st, [step] * 100000, rng_seed=0)
        expected = var_p_noiseless(1e-3, kappa_sq)
        assert out.variance(1) == pytest.approx(expected, rel=1e-3)

    def test_seed_changes_means_not_covariances(self):
        step = coupling_step(0.2)
        st = vacuum_state(standard_labels(1))
        out1, traj1, _ = run_sequence(st, [step] * 200, rng_seed=1)
        out2, traj2, _ = run_sequence(st, [step] * 200, rng_seed=2)
        assert np.array_equal(out1.cov, out2.cov)
        assert not np.array_equal(out1.mean, out2.mean)

    def test_minimum_uncertainty_preserved(self):
        step = coupling_step(0.2)
        st = vacuum_state(standard_labels(1))
        cur = st
        for _ in range(300):
            cur = apply_step(cur, step)
            cur, _ = measure_light_x(cur, chi=0.0)
            prod = 4.0 * cur.variance(0) * cur.variance(1)
            assert abs(prod - 1.0) < 1e-9

    def test_var_p_monotone_noiseless(self):
        step = coupling_step(0.3)
        st = vacuum_state(standard_labels(1))
        peff = CollectiveVariable(np.array([0.0, 1.0]))
        _, _, ts = run_sequence(st, [step] * 100, rng_seed=0, observables=(peff,))
        assert np.all(np.diff(ts.columns["var_cv0"]) < 0.0)

    def test_unmeasured_segments_traced_out(self):
        """Without detection the probed quadrature keeps its variance."""
        step = coupling_step(0.3)
        st = vacuum_state(standard_labels(1))
        out, traj, _ = run_sequence(st, [step] * 50, measure_after_each=False, rng_seed=0)
        assert out.variance(1) == pytest.approx(0.5, abs=1e-12)
        # back action still inflates the conjugate quadrature
        assert out.variance(0) > 0.5
        # light always left in fresh vacuum
        assert np.allclose(out.cov[2:, 2:], np.eye(2))
        assert len(traj.records) == 0

    def test_measurement_records_consistent(self):
        step = coupling_step(0.3)
        st = vacuum_state(standard_labels(1))
        _, traj, _ = run_sequence(st, [step] * 40, rng_seed=9)
        assert len(traj.records) == 40
        assert np.all(np.diff(traj.measurement_times) > 0)
        # outcome = pre-measurement mean + deviation, as recorded; the
        # deviation is the standard draw scaled by sqrt(bxx)
        chis = np.array([r.chi for r in traj.records])
        bxx = []
        cur = st
        for _ in range(40):
            cur = apply_step(cur, step)
            bxx.append(cur.cov[2, 2])
            cur, _ = measure_light_x(cur, 0.0)
        rng = np.random.default_rng(9)
        z = rng.normal(0.0, math.sqrt(0.5), 40)
        np.testing.assert_allclose(chis, np.sqrt(bxx) * z, rtol=1e-14, atol=0.0)
        assert min(bxx) > 1.0


class TestObservables:
    def test_squeezing_minimum_vacuum(self):
        val, direction = squeezing_minimum(vacuum_state(standard_labels(3)))
        assert val == pytest.approx(0.5, abs=1e-12)
        assert direction.kind == "eigen"

    def test_squeezing_minimum_single_pair(self):
        st = apply_step(vacuum_state(standard_labels(1)), coupling_step(1.0))
        st, _ = measure_light_x(st, 0.0)
        val, direction = squeezing_minimum(st)
        assert val == pytest.approx(0.25)
        assert abs(direction.coefficients[1]) == pytest.approx(1.0)

    def test_variance_of_vacuum_isotropic(self):
        st = vacuum_state(standard_labels(4))
        rng = np.random.default_rng(1)
        c = rng.standard_normal(8)
        v = CollectiveVariable(c / np.linalg.norm(c))
        assert variance_of(st, v) == pytest.approx(0.5)

    def test_variance_of_reads_single_entry(self):
        st = apply_step(vacuum_state(standard_labels(1)), coupling_step(1.0))
        st, _ = measure_light_x(st, 0.0)
        v = CollectiveVariable(np.array([0.0, 1.0]))
        assert variance_of(st, v) == pytest.approx(0.25)

    def test_variance_of_dimension_mismatch(self):
        st = vacuum_state(standard_labels(2))
        with pytest.raises(InvalidInputError):
            variance_of(st, CollectiveVariable(np.array([0.0, 1.0])))


class TestStepOperatorsValidation:
    def test_loss_bounds(self):
        with pytest.raises(InvalidInputError):
            coupling_step(0.1, loss=[1.1, 1.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError):
            coupling_step(0.1, loss=[0.0, 1.0, 1.0, 1.0])

    def test_noise_bounds(self):
        with pytest.raises(InvalidInputError):
            coupling_step(0.1, m=[1.0, 0.0, 0.0, 0.0])

    def test_prefactor_bounds(self):
        with pytest.raises(InvalidInputError):
            coupling_step(0.1, atom_prefactor=1.5)
        with pytest.raises(InvalidInputError):
            coupling_step(0.1, light_prefactor=0.5)

    def test_theta_must_lead(self):
        with pytest.raises(InvalidInputError):
            GaussianState(("atom:1", "theta", "light"), np.zeros(5), np.eye(5))

    def test_light_must_trail(self):
        with pytest.raises(InvalidInputError):
            GaussianState(("light", "atom:1"), np.zeros(4), np.eye(4))


class TestImpulse:
    def test_symmetric_with_theta_p_correlations(self):
        """The rotation impulse S cov S^T stays exactly symmetric."""
        rng = np.random.default_rng(0)
        targets = np.array([2, 4, 6])
        for _ in range(200):
            a = rng.normal(size=(7, 7))
            cov = a @ a.T
            assert np.array_equal(cov, cov.T) and cov[0, 2] != 0.0
            coeffs = rng.normal(size=3)
            mean = rng.normal(size=7)
            s = np.eye(7)
            s[targets, 0] = coeffs
            want_cov, want_mean = s @ cov @ s.T, s @ mean
            _impulse_inplace(cov, mean, targets, coeffs, 0)
            assert np.array_equal(cov, cov.T)
            scale = np.max(np.abs(want_cov))
            assert np.max(np.abs(cov - want_cov)) <= 1e-14 * scale
            assert np.max(np.abs(mean - want_mean)) <= 1e-14 * np.max(np.abs(want_mean))
