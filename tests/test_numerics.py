import math

import numpy as np
import pytest

from squeezesim.errors import InvalidInputError
from squeezesim.numerics import sym_eig_all

from oracles import DivergenceError, char_poly_min_eig, integrate_scalar_ode


def sym_eig_min(m):
    """Smallest eigenvalue and its unit eigenvector, read from sym_eig_all
    as the runner's min_eig_var and min_eig_overlap read them."""
    w, v = sym_eig_all(m)
    return float(w[0]), v[:, 0]

# covariance produced by one noiseless coupled step at unit coupling,
# ordered (x_at, p_at, x_ph, p_ph)
COUPLED_STEP_COV = np.array(
    [
        [2.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


class TestSymEigMin:
    def test_identity(self):
        val, vec = sym_eig_min(np.eye(2))
        assert val == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_diagonal(self):
        val, vec = sym_eig_min(np.diag([2.0, 0.5]))
        assert val == pytest.approx(0.5, abs=1e-14)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-12)

    def test_coupled_step_cov_vs_char_poly(self):
        val, vec = sym_eig_min(COUPLED_STEP_COV)
        ref = char_poly_min_eig(COUPLED_STEP_COV)
        assert val == pytest.approx(ref, rel=1e-10)
        # block structure makes the exact value (3 - sqrt(5)) / 2
        assert val == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 17, 40):
            g = rng.standard_normal((n, n))
            m = g @ g.T + 0.1 * np.eye(n)
            val, vec = sym_eig_min(m)
            res = np.linalg.norm(m @ vec - val * vec)
            assert res <= 1e-10 * np.linalg.norm(m)

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(11)
        for n in (3, 8, 33):
            g = rng.standard_normal((n, n))
            m = g + g.T
            val, _ = sym_eig_min(m)
            assert val == pytest.approx(float(np.linalg.eigvalsh(m)[0]), rel=1e-12, abs=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_eig_min(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            sym_eig_min(np.ones((2, 3)))

    def test_one_by_one(self):
        val, vec = sym_eig_min(np.array([[4.0]]))
        assert val == 4.0
        assert vec[0] == pytest.approx(1.0)


class TestIntegrateScalarOde:
    def test_zero_rate(self):
        ts, ys = integrate_scalar_ode(lambda t, y: 0.0, 0.5, 1.0, 0.25)
        assert np.allclose(ys, 0.5)
        assert ts[-1] == pytest.approx(1.0)

    def test_exponential_decay(self):
        _, ys = integrate_scalar_ode(lambda t, y: -y, 1.0, 1.0, 1e-3)
        assert ys[-1] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_squeezing_rate_matches_closed_form(self):
        kappa_sq = 1.83e6
        f = lambda t, y: -2.0 * kappa_sq * y * y
        ts, ys = integrate_scalar_ode(f, 0.5, 1e-3, 1e-7)
        expected = 1.0 / (2.0 * kappa_sq * 1e-3 + 2.0)
        assert abs(ys[-1] - expected) / expected < 1e-6

    def test_fourth_order_convergence(self):
        # dt must resolve the initial contraction scale 1/(2 kappa^2 var0)
        kappa_sq = 1.83e6
        f = lambda t, y: -2.0 * kappa_sq * y * y
        exact = 1.0 / (2.0 * kappa_sq * 1e-4 + 2.0)
        _, coarse = integrate_scalar_ode(f, 0.5, 1e-4, 2e-7)
        _, fine = integrate_scalar_ode(f, 0.5, 1e-4, 1e-7)
        err_coarse = abs(coarse[-1] - exact)
        err_fine = abs(fine[-1] - exact)
        assert err_coarse / err_fine >= 8.0

    def test_partial_final_step(self):
        ts, _ = integrate_scalar_ode(lambda t, y: -y, 1.0, 0.55, 0.1)
        assert ts[-1] == pytest.approx(0.55, abs=1e-12)
        assert len(ts) == 7  # 0, 0.1 ... 0.5, 0.55

    def test_divergence_reports_time(self):
        with pytest.raises(DivergenceError) as exc:
            integrate_scalar_ode(lambda t, y: y * y, 1.0, 10.0, 0.05)
        assert exc.value.time > 0.0

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidInputError):
            integrate_scalar_ode(lambda t, y: 0.0, 1.0, 1.0, 0.0)


def test_eig_all_orthogonal_vectors():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((9, 9))
    w, v = sym_eig_all(g + g.T)
    assert np.max(np.abs(v.T @ v - np.eye(9))) < 1e-12
