import dataclasses
import math

import numpy as np
import pytest

from squeezesim.analytic import CollectiveVariable
from squeezesim.errors import DegenerateCovarianceError, InvalidInputError
from squeezesim.gaussian_core import GaussianState, vacuum_state
from squeezesim.scenarios import ProbeGroup, ProbePhase, Scenario, _theta_shear, run

from oracles import StepOperators, apply_step, measure_light_x, with_light


def light_vacuum(n):
    """Vacuum over n slices with the probe pair the dense path carries."""
    return with_light(vacuum_state(n))


def probe_once(n, kappa_tau_sq, observables):
    """Sampled columns of one measured step coupling slice 1 of n vacuum
    slices at kappa^2 tau = ``kappa_tau_sq`` (0 leaves the state as it is);
    the other slices couple with zero strength."""
    tau = 1e-8
    kappas_sq = np.zeros(n)
    kappas_sq[0] = kappa_tau_sq / tau
    group = ProbeGroup(kappas_sq, np.zeros(n))
    phase = ProbePhase(duration=tau, tau=tau, groups=(group,))
    sc = Scenario(vacuum_state(n), (phase,), observables,
                  sample_every=1)
    ts, _ = run(sc, seed=0)
    return ts.columns


def coupling_step(kappa_tau, dim=4, loss=None, m=None, n=None,
                  atom_prefactor=2.0, light_prefactor=1.0):
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
        assert vacuum_state(1).dim == 2
        st = light_vacuum(1)
        assert st.dim == 4
        assert np.array_equal(st.cov, np.eye(4))
        assert np.array_equal(st.mean, np.zeros(4))
        assert st.cov[1, 1] / 2.0 == 0.5

    def test_ten_slices(self):
        st = vacuum_state(10)
        assert st.dim == 20
        assert np.array_equal(st.cov, np.eye(20))

    def test_theta_prior(self):
        st = vacuum_state(2, theta=True, theta_var=0.3)
        assert st.dim == 5
        assert st.cov[0, 0] == pytest.approx(0.6)
        assert st.has_theta

    @pytest.mark.parametrize("dim, has_theta", [(3, False), (1, False), (4, True)])
    def test_variables_that_are_not_pairs_refused(self, dim, has_theta):
        """dim - has_theta must be even: theta, then one (x, p) pair per slice."""
        with pytest.raises(InvalidInputError, match=r"are not .*\(x, p\) pairs"):
            GaussianState(np.zeros(dim), np.eye(dim), has_theta)


class TestApplyStep:
    def test_unit_coupling_on_vacuum(self):
        st = light_vacuum(1)
        out = apply_step(st, coupling_step(1.0))
        assert np.allclose(out.cov, COUPLED_COV, atol=1e-15)
        assert np.array_equal(out.mean, np.zeros(4))

    def test_zero_coupling_identity(self):
        st = light_vacuum(1)
        out = apply_step(st, coupling_step(0.0))
        assert np.array_equal(out.cov, st.cov)

    def test_pure_loss_noise_balance(self):
        eta_tau = 0.1
        st = light_vacuum(1)
        loss = [math.sqrt(1 - eta_tau)] * 2 + [1.0, 1.0]
        m = [eta_tau, eta_tau, 0.0, 0.0]
        out = apply_step(st, coupling_step(0.0, loss=loss, m=m, atom_prefactor=2.0))
        assert out.cov[0, 0] == pytest.approx(0.9 + 2 * 0.1)
        assert out.cov[1, 1] == pytest.approx(1.1)
        assert out.cov[2, 2] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        st = light_vacuum(2)
        with pytest.raises(InvalidInputError):
            apply_step(st, coupling_step(1.0, dim=4))

    def test_symplectic_preserves_determinant(self):
        rng = np.random.default_rng(12)
        st = light_vacuum(1)
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
        st = light_vacuum(1)
        out, outcome = measure_light_x(st, chi=0.7)
        assert np.array_equal(out.cov, np.eye(4))
        assert np.array_equal(out.mean, np.zeros(4))
        assert outcome == 0.7

    def test_post_step_conditioning(self):
        st = apply_step(light_vacuum(1), coupling_step(1.0))
        out, _ = measure_light_x(st, chi=0.123)
        assert np.allclose(out.cov[:2, :2], np.diag([2.0, 0.5]), atol=1e-14)
        # conditional variance of p equals 1 / (2 (1 + kappa_tau^2))
        assert out.cov[1, 1] / 2.0 == pytest.approx(1.0 / (2.0 * (1.0 + 1.0)))
        # light reset to fresh vacuum
        assert np.allclose(out.cov[2:, 2:], np.eye(2))
        assert np.allclose(out.cov[:2, 2:], 0.0)

    def test_mean_shift(self):
        st = apply_step(light_vacuum(1), coupling_step(1.0))
        out, outcome = measure_light_x(st, chi=1.0)
        assert out.mean[1] == pytest.approx(0.5)
        assert out.mean[0] == pytest.approx(0.0)
        assert outcome - 1.0 == 0.0  # pre-measurement mean of x_ph

    def test_covariance_outcome_independent(self):
        st = apply_step(light_vacuum(1), coupling_step(0.4))
        out1, _ = measure_light_x(st, chi=-2.0)
        out2, _ = measure_light_x(st, chi=0.9)
        assert np.array_equal(out1.cov, out2.cov)

    def test_minimum_uncertainty_preserved(self):
        step = coupling_step(0.2)
        st = light_vacuum(1)
        cur = st
        for _ in range(300):
            cur = apply_step(cur, step)
            cur, _ = measure_light_x(cur, chi=0.0)
            prod = 4.0 * (cur.cov[0, 0] / 2.0) * (cur.cov[1, 1] / 2.0)
            assert abs(prod - 1.0) < 1e-9

    def test_degenerate_rejected(self):
        st = light_vacuum(1)
        cov = st.cov.copy()
        cov[2, 2] = 0.0
        bad = dataclasses.replace(st, cov=cov)
        with pytest.raises(DegenerateCovarianceError):
            measure_light_x(bad, chi=0.0)


class TestObservables:
    """Observables as scenarios.run samples them from the atomic block."""

    def test_squeezing_minimum_vacuum(self):
        cols = probe_once(3, 0.0, ("min_eig_var",))
        assert cols["min_eig_var"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_squeezing_minimum_single_pair(self):
        cols = probe_once(1, 1.0, ("min_eig_var", "min_eig_overlap"))
        assert cols["min_eig_var"][-1] == pytest.approx(0.25)
        # the minimum lies along p, the coupling-weighted direction
        assert cols["min_eig_overlap"][-1] == pytest.approx(1.0)

    def test_variance_of_vacuum_isotropic(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(8)
        v = CollectiveVariable(c / np.linalg.norm(c))
        cols = probe_once(4, 0.0, (v,))
        assert cols["var_cv0"] == pytest.approx([0.5, 0.5])

    def test_variance_of_reads_single_entry(self):
        v = CollectiveVariable(np.array([0.0, 1.0]))
        cols = probe_once(1, 1.0, (v, "var_p"))
        assert cols["var_cv0"][-1] == pytest.approx(0.25)
        assert np.array_equal(cols["var_cv0"], cols["var_p"])

    def test_variance_of_dimension_mismatch(self):
        """A collective variable of the wrong length is refused up front."""
        v = CollectiveVariable(np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError, match="2 coefficients"):
            Scenario(vacuum_state(2), (), (v,))

    def test_collective_columns_numbered_in_order(self):
        x = CollectiveVariable(np.array([1.0, 0.0, 0.0, 0.0]))
        p_sym = CollectiveVariable(np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0))
        cols = probe_once(2, 0.1, (x, "var_p", p_sym))
        assert list(cols) == ["var_cv0", "var_p", "var_cv1"]
        # slice 1 alone is probed: x grows by kappa^2 tau, p = (p1 + p2)/sqrt2
        # keeps half of the vacuum p2 and half of the squeezed p1
        assert cols["var_cv0"][-1] == pytest.approx(0.5 * 1.1, rel=1e-12)
        assert cols["var_cv1"][-1] == pytest.approx(
            (cols["var_p"][-1] + 0.5) / 2.0, rel=1e-12)


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


class TestImpulse:
    def test_symmetric_with_theta_p_correlations(self):
        """The rotation impulse S cov S^T on the read block stays exactly symmetric."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=(4, 4))
            cov = a @ a.T
            assert np.array_equal(cov, cov.T) and cov[0, 1] != 0.0
            coeffs = rng.normal(size=3)
            mean = rng.normal(size=4)
            s = np.eye(4)
            s[1:, 0] = coeffs
            want_cov, want_mean = s @ cov @ s.T, s @ mean
            _theta_shear(cov, mean, coeffs)
            assert np.array_equal(cov, cov.T)
            scale = np.max(np.abs(want_cov))
            assert np.max(np.abs(cov - want_cov)) <= 1e-14 * scale
            assert np.max(np.abs(mean - want_mean)) <= 1e-14 * np.max(np.abs(want_mean))
