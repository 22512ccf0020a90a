import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squeezesim.analytic import (
    EstimationParams,
    SqueezeCurveParams,
    var_p_noiseless,
    var_p_noisy,
)
from squeezesim.errors import ConfigError, InvalidInputError
from squeezesim.gaussian_core import (
    CHI_STD,
    GaussianState,
    _traceout_inplace,
    apply_step,
    measure_light_x,
    standard_labels,
    vacuum_state,
)
from squeezesim.physics import CouplingRates
from squeezesim.scenarios import (
    BeamSegment,
    ProbeGroup,
    ProbePhase,
    RotationPhase,
    Scenario,
    SliceConfig,
    SpreadSpec,
    build_estimation,
    build_homogeneous,
    build_thick,
    build_thin_inhomogeneous,
    run,
    tau_convergence,
)

from oracles import probe_step_operators, rotation_step_operators

RATES = CouplingRates(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)
NOISELESS = CouplingRates(kappa_sq=1.83e6, eta=0.0, epsilon=0.0)


class TestSpreadSpec:
    def test_grid_fixes_summed_coupling(self):
        for delta in (0.0, 0.1, 0.5, 0.9):
            spread = SpreadSpec(kappa0_sq=1.83e6, delta=delta)
            k = spread.slice_kappas_sq(10)
            assert np.sum(k) == pytest.approx(1.83e6, rel=1e-14)
            if delta:
                assert k.max() / k.min() == pytest.approx(
                    (1 + delta) / (1 - delta), rel=1e-12
                )

    def test_delta_zero_uniform(self):
        k = SpreadSpec(kappa0_sq=10.0, delta=0.0).slice_kappas_sq(4)
        assert np.allclose(k, 2.5)

    def test_random_mode_seeded(self):
        spread = SpreadSpec(kappa0_sq=1.0, delta=0.3, mode="random")
        a = spread.slice_kappas_sq(8, rng=np.random.default_rng(5))
        b = spread.slice_kappas_sq(8, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)
        assert np.sum(a) == pytest.approx(1.0, rel=1e-14)

    def test_bounds(self):
        with pytest.raises(InvalidInputError):
            SpreadSpec(kappa0_sq=1.0, delta=1.0)


class TestSliceConfig:
    def test_split_preserves_total_coupling(self):
        slices = SliceConfig.split(8, RATES)
        assert np.sum(slices.kappas_sq) == pytest.approx(RATES.kappa_sq, rel=1e-14)
        assert np.allclose(slices.etas, RATES.eta)
        assert np.allclose(slices.epsilons, RATES.epsilon)

    def test_total_absorption(self):
        slices = SliceConfig.split(25, RATES, per_slice_epsilon=0.028)
        expected = 1.0 - math.exp(-25 * 0.028)
        assert slices.total_absorption() == pytest.approx(expected, abs=1e-12)
        assert slices.total_absorption() == pytest.approx(0.503, abs=5e-4)

    def test_epsilon_bound_enforced(self):
        with pytest.raises(InvalidInputError):
            SliceConfig(2, [1.0, 1.0], [0.0, 0.0], [0.06, 0.01])


class TestValidityGuards:
    def test_kappa_tau_bound(self):
        with pytest.raises(ConfigError):
            build_homogeneous(RATES, tau=1e-7, t_end=1e-4)

    def test_thick_needed_for_large_absorption(self):
        thick_rates = CouplingRates(kappa_sq=1.83e6, eta=1.7577, epsilon=0.3)
        with pytest.raises(ConfigError):
            build_homogeneous(thick_rates, tau=1e-8, t_end=1e-4)


class TestHomogeneous:
    def test_noiseless_matches_closed_form(self):
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=2e-4, sample_every=1000)
        ts, _ = run(sc, seed=0)
        ref = var_p_noiseless(ts.times, 1.83e6)
        assert np.max(np.abs(ts.columns["var_p"] - ref) / ref) < 1e-9

    def test_noisy_matches_closed_form(self):
        sc = build_homogeneous(RATES, tau=2e-8, t_end=4e-4, sample_every=1000)
        ts, _ = run(sc, seed=0)
        p = SqueezeCurveParams(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)
        ref = var_p_noisy(ts.times[1:], p)
        assert np.max(np.abs(ts.columns["var_p"][1:] - ref) / ref) < 1e-3

    def test_row_count(self):
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=1.07e-5, sample_every=300)
        ts, _ = run(sc, seed=0)
        assert len(ts.times) == 1070 // 300 + 1

    def test_tau_convergence(self):
        factory = lambda tau, se: build_homogeneous(RATES, tau, 2e-4, sample_every=se)
        assert tau_convergence(factory, 2e-8, "var_p") < 1e-3

    def test_seed_independence_of_variances(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=3e-5, sample_every=500)
        ts1, tr1 = run(sc, seed=11, record_cov=True)
        ts2, tr2 = run(sc, seed=22, record_cov=True)
        assert np.array_equal(ts1.columns["var_p"], ts2.columns["var_p"])
        assert all(np.array_equal(a, b) for a, b in zip(tr1.cov_samples, tr2.cov_samples))
        m1 = np.array([s[1] for s in tr1.samples])
        m2 = np.array([s[1] for s in tr2.samples])
        assert not np.array_equal(m1, m2)

    def test_unmeasured_run_keeps_prior_variance(self):
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=3e-5,
                               sample_every=500, measure=False)
        ts, traj = run(sc, seed=0)
        assert np.allclose(ts.columns["var_p"], 0.5, atol=1e-12)
        assert len(traj.chis) == 0

    def test_unmeasured_segments_traced_out(self):
        """Back-action still inflates x; the light is left in fresh vacuum."""
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-7,
                               sample_every=50, measure=False)
        _, traj = run(sc, seed=0, record_cov=True)
        cov = traj.cov_samples[-1]
        assert cov[0, 0] == pytest.approx(1.0 + 50 * 1.83e6 * 1e-8, rel=1e-12)
        assert cov[1, 1] == 1.0
        assert np.array_equal(cov[2:, 2:], np.eye(2))

    def test_var_p_monotone_noiseless(self):
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=1e-6, sample_every=1)
        ts, _ = run(sc, seed=0)
        assert len(ts.times) == 101
        assert np.all(np.diff(ts.columns["var_p"]) < 0.0)


class TestThinInhomogeneous:
    def test_delta_zero_reduces_to_homogeneous(self):
        spread = SpreadSpec(kappa0_sq=1.83e6, delta=0.0)
        sc_thin = build_thin_inhomogeneous(spread, 10, RATES, tau=2e-8,
                                           t_end=1e-4, sample_every=1000)
        sc_hom = build_homogeneous(RATES, tau=2e-8, t_end=1e-4, sample_every=1000)
        ts_thin, _ = run(sc_thin, seed=0)
        ts_hom, _ = run(sc_hom, seed=0)
        a = ts_thin.columns["var_P_eff"]
        b = ts_hom.columns["var_p"]
        assert np.max(np.abs(a - b)) < 1e-10
        # with equal couplings the probed and symmetric variables coincide
        assert np.allclose(a, ts_thin.columns["var_P"], rtol=1e-12)

    def test_collective_variance_decomposition_noiseless(self):
        """Var(P) = a^2 Var(P_eff) + (1 - a^2)/2 holds exactly without decay."""
        spread = SpreadSpec(kappa0_sq=1.83e6, delta=0.5)
        sc = build_thin_inhomogeneous(spread, 10, NOISELESS, tau=2e-8,
                                      t_end=2e-4, sample_every=2000)
        ts, _ = run(sc, seed=0)
        k = np.sqrt(np.array(sc.meta["slice_kappas_sq"]))
        a = np.sum(k) / math.sqrt(10) / math.sqrt(np.sum(k * k))
        pred = a * a * ts.columns["var_P_eff"] + (1 - a * a) / 2.0
        assert np.max(np.abs(ts.columns["var_P"] - pred) / pred) < 1e-9
        # physical covariances stay positive semidefinite
        assert np.min(ts.columns["min_eig_var"]) >= -1e-10

    def test_intensity_eta_mode_lifts_floor(self):
        """Intensity-scaled decay pushes the squeezing floor up with delta."""
        spread = SpreadSpec(kappa0_sq=1.83e6, delta=0.5)
        lo, _ = run(build_thin_inhomogeneous(spread, 6, RATES, 5e-8, 2e-3,
                                             sample_every=4000, eta_mode="uniform"), seed=0)
        hi, _ = run(build_thin_inhomogeneous(spread, 6, RATES, 5e-8, 2e-3,
                                             sample_every=4000, eta_mode="intensity"), seed=0)
        assert hi.columns["min_eig_var"].min() > 1.03 * lo.columns["min_eig_var"].min()


class TestThick:
    def test_single_slice_bitwise_matches_homogeneous(self):
        slices = SliceConfig.split(1, RATES)
        sc_thick = build_thick(slices, tau=5e-8, t_end=1e-4, sample_every=500)
        sc_hom = build_homogeneous(RATES, tau=5e-8, t_end=1e-4, sample_every=500)
        ts_t, tr_t = run(sc_thick, seed=3, record_cov=True)
        ts_h, tr_h = run(sc_hom, seed=3, record_cov=True)
        assert all(
            np.array_equal(a, b) for a, b in zip(tr_t.cov_samples, tr_h.cov_samples)
        )
        assert np.array_equal(tr_t.outcomes, tr_h.outcomes)
        assert np.allclose(
            ts_t.columns["min_eig_var"], ts_h.columns["var_p"], rtol=1e-12
        )

    def test_light_noise_floor_amplified_along_stack(self):
        slices = SliceConfig.split(4, RATES, per_slice_epsilon=0.028)
        sc = build_thick(slices, tau=5e-8, t_end=1e-4)
        prefs = [1 / g.transmission for g in sc.phases[0].groups]
        expected = [math.exp(0.028 * i) for i in range(4)]
        assert np.allclose(prefs, expected, rtol=1e-12)

    def test_probed_variable_splits_from_minimum_for_deep_stacks(self):
        gaps = {}
        for n in (4, 50):
            slices = SliceConfig.split(n, RATES)
            sc = build_thick(slices, tau=5e-8, t_end=8e-4, sample_every=1600)
            ts, _ = run(sc, seed=0)
            me = ts.columns["min_eig_var"][1:]
            pe = ts.columns["var_P_eff"][1:]
            gaps[n] = np.max((pe - me) / me)
        assert gaps[4] < 0.5
        assert gaps[50] > 5 * gaps[4]


class TestEstimation:
    def test_zero_lever_keeps_prior(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=0.0, var_theta0=0.5)
        sc = build_estimation(NOISELESS, est, tau=1e-8, t_end=5e-5, sample_every=500)
        ts, _ = run(sc, seed=0)
        assert np.allclose(ts.columns["var_theta"], 0.5, atol=1e-12)

    def test_alphas_from_atom_number(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, var_theta0=0.5)
        sc = build_estimation(NOISELESS, est, tau=1e-8, t_end=5e-5,
                              atoms_per_slice=2e12)
        assert sc.meta["alphas"] == [pytest.approx(math.sqrt(1e12))]

    def test_lever_required(self):
        est = EstimationParams(t1=1e-5, t2=2e-5)
        with pytest.raises(InvalidInputError):
            build_estimation(NOISELESS, est, tau=1e-8, t_end=5e-5)

    def test_theta_mean_tracks_truth(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=40.0, var_theta0=0.5,
                               theta_true=0.05)
        sc = build_estimation(NOISELESS, est, tau=1e-8, t_end=1.2e-4, sample_every=2000)
        means = []
        for seed in range(12):
            ts, _ = run(sc, seed=seed)
            means.append(ts.columns["mean_theta"][-1])
        err = np.mean(means) - 0.05
        spread = np.std(means) / math.sqrt(len(means))
        assert abs(err) < 5 * spread + 1e-4

    def test_thick_base_accepted(self):
        slices = SliceConfig.split(3, RATES)
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=1.0)
        sc = build_estimation(slices, est, tau=5e-8, t_end=5e-5)
        assert sc.initial_state.dim == 2 * 3 + 3
        ts, _ = run(sc, seed=0)
        assert np.all(np.isfinite(ts.columns["var_theta"]))


class TestRunnerDensePathEquivalence:
    """The in-place kernels must agree with the dense operator algebra."""

    def _dense_states(self, sc: Scenario, seed: int, n_steps_cap: int):
        """(steps done, state) at the start, after every step and rotation."""
        state = sc.initial_state
        rng = np.random.default_rng(seed)
        done = 0
        yield done, state
        for phase in sc.phases:
            if isinstance(phase, RotationPhase):
                state = apply_step(state, rotation_step_operators(phase, state.dim))
                yield done, state
                continue
            steps = min(phase.n_steps, n_steps_cap)
            if phase.measure:
                chis = rng.normal(0.0, CHI_STD, phase.n_steps)
            for k in range(steps):
                for op in probe_step_operators(phase, state.dim, k):
                    state = apply_step(state, op)
                if phase.measure:
                    bxx = state.cov[-2, -2]
                    state, _ = measure_light_x(state, math.sqrt(bxx) * chis[k])
                else:
                    cov, mean = state.cov.copy(), state.mean.copy()
                    _traceout_inplace(cov, mean)
                    state = GaussianState(state.labels, mean, cov)
                done += 1
                yield done, state

    def _dense_run(self, sc: Scenario, seed: int, n_steps_cap: int = 12):
        for _, state in self._dense_states(sc, seed, n_steps_cap):
            pass
        return state

    def _compare_samples(self, sc: Scenario, seed: int):
        """Every sample of the runner against the dense path at 1e-12."""
        _, traj = run(sc, seed=seed, record_cov=True)
        dense = {}
        for done, state in self._dense_states(sc, seed, sc.total_steps):
            if done % sc.sample_every == 0:
                dense.setdefault(done, state)
        assert len(dense) == len(traj.cov_samples) >= 2
        for state, cov, (_, mean, _) in zip(
                dense.values(), traj.cov_samples, traj.samples):
            scale = np.max(np.abs(state.cov))
            assert np.max(np.abs(cov - state.cov)) <= 1e-12 * scale
            mean_scale = max(1.0, np.max(np.abs(state.mean)))
            assert np.max(np.abs(mean - state.mean)) <= 1e-12 * mean_scale
        return traj

    def _compare(self, sc_full, sc_short, seed=7):
        ts, traj = run(sc_short, seed=seed, record_cov=True)
        dense = self._dense_run(sc_full, seed, n_steps_cap=sc_short.total_steps)
        fast_cov = traj.cov_samples[-1]
        scale = np.max(np.abs(dense.cov))
        assert np.max(np.abs(fast_cov - dense.cov)) < 1e-12 * scale
        m = np.array([s[1] for s in traj.samples])[-1]
        assert np.allclose(m, dense.mean, atol=1e-12)

    def test_homogeneous_noisy(self):
        full = build_homogeneous(RATES, tau=1e-8, t_end=3e-3)
        short = build_homogeneous(RATES, tau=1e-8, t_end=1.2e-7, sample_every=12)
        self._compare(full, short)

    def test_thin(self):
        spread = SpreadSpec(kappa0_sq=1.83e6, delta=0.4)
        full = build_thin_inhomogeneous(spread, 6, RATES, tau=1e-8, t_end=3e-3)
        short = build_thin_inhomogeneous(spread, 6, RATES, tau=1e-8,
                                         t_end=1.2e-7, sample_every=12)
        self._compare(full, short)

    def test_thick(self):
        slices = SliceConfig.split(5, RATES)
        full = build_thick(slices, tau=1e-8, t_end=3e-3)
        short = build_thick(slices, tau=1e-8, t_end=1.2e-7, sample_every=12)
        self._compare(full, short)

    def test_estimation_all_phases(self):
        est = EstimationParams(t1=6e-8, t2=1e-7, alpha=2.0, var_theta0=0.5,
                               theta_true=0.1)
        sc = build_estimation(RATES, est, tau=1e-8, t_end=2e-7, sample_every=16)
        ts, traj = run(sc, seed=5, record_cov=True)
        dense = self._dense_run(sc, 5, n_steps_cap=100)
        scale = np.max(np.abs(dense.cov))
        assert np.max(np.abs(traj.cov_samples[-1] - dense.cov)) < 1e-12 * scale


    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_scenarios(self, data):
        """Thin, thick and estimation runs, measured or not, over a few steps."""
        sc = data.draw(_random_scenarios())
        seed = data.draw(st.integers(0, 2**32 - 1))
        ts, traj = run(sc, seed=seed, record_cov=True)
        dense = self._dense_run(sc, seed, n_steps_cap=10**6)
        fast_cov = traj.cov_samples[-1]
        scale = np.max(np.abs(dense.cov))
        assert np.max(np.abs(fast_cov - dense.cov)) <= 1e-12 * scale
        fast_mean = traj.samples[-1][1]
        mean_scale = max(1.0, np.max(np.abs(dense.mean)))
        assert np.max(np.abs(fast_mean - dense.mean)) <= 1e-12 * mean_scale
        state = sc.initial_state
        has_theta = state.has_theta
        for cov in traj.cov_samples:
            block = cov[: state.dim - 2, : state.dim - 2]
            assert np.array_equal(block, block.T)
            assert _uncertainty_margin(block, has_theta) >= -1e-12 * np.max(np.abs(block))

    @pytest.mark.parametrize("etas, n_steps", [
        ([2e4, 5e4, 1e4], 2500),
        # decay far beyond the coarse-graining range: the chunks shorten so
        # that the loss-scaled read block stays finite
        ([4e7, 3e7, 2e7], 1200),
    ])
    def test_chunk_boundaries_thick(self, etas, n_steps):
        """Several chunks of steps fall between two samples."""
        slices = SliceConfig(3, np.array([4e5, 8e5, 6e5]), np.array(etas),
                             np.array([0.028, 0.01, 0.04]))
        sc = build_thick(slices, tau=1e-8, t_end=n_steps * 1e-8,
                         sample_every=n_steps)
        assert sc.segments[0].chunk_steps < sc.sample_every // 2
        self._compare_samples(sc, seed=9)

    def test_chunk_boundaries_estimation(self):
        """Phase ends and the rotation fall between samples."""
        slices = SliceConfig(2, np.array([9e5, 9e5]), np.array([3e4, 3e4]),
                             np.array([0.02, 0.03]))
        est = EstimationParams(t1=1300e-8, t2=1305e-8, alphas=(1.5, 0.7),
                               var_theta0=0.5, theta_true=0.2)
        sc = build_estimation(slices, est, tau=1e-8, t_end=3005e-8,
                              sample_every=1500)
        assert sc.total_steps == 3000
        self._compare_samples(sc, seed=2)

    def test_theta_p_correlated_prior(self):
        """A prior correlating theta with the p rows stays exactly symmetric."""
        est = EstimationParams(t1=5e-8, t2=6e-8, alphas=(2.0, -1.0),
                               var_theta0=0.5, theta_true=0.1)
        sc = build_estimation((SpreadSpec(1.83e6, 0.3), 2, RATES), est,
                              tau=1e-8, t_end=1e-7, sample_every=3)
        cov = sc.initial_state.cov.copy()
        cov[0, 2] = cov[2, 0] = 0.3
        cov[0, 4] = cov[4, 0] = -0.2
        cov[2, 4] = cov[4, 2] = 0.1
        state = GaussianState(sc.initial_state.labels, sc.initial_state.mean, cov)
        sc = dataclasses.replace(sc, initial_state=state, sample_every=9)
        traj = self._compare_samples(sc, seed=1)
        assert all(np.array_equal(c, c.T) for c in traj.cov_samples)


class TestBlockSplitRefusals:
    """What the read/unread split cannot represent is refused by run."""

    def test_x_p_correlated_initial_state(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        cov = sc.initial_state.cov.copy()
        cov[0, 1] = cov[1, 0] = 0.2
        state = GaussianState(sc.initial_state.labels, sc.initial_state.mean, cov)
        with pytest.raises(InvalidInputError, match="correlates x rows"):
            run(dataclasses.replace(sc, initial_state=state))

    def test_rotation_target_outside_read_block(self):
        est = EstimationParams(t1=5e-8, t2=6e-8, alpha=1.0)
        sc = build_estimation(RATES, est, tau=1e-8, t_end=1e-7)
        squeeze, rotation, probe = sc.phases
        x_row = dataclasses.replace(rotation, targets=np.array([1]))
        with pytest.raises(InvalidInputError, match="rotation"):
            run(dataclasses.replace(sc, phases=(squeeze, x_row, probe)))

    def test_rotation_source_outside_read_block(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        rotation = RotationPhase(duration=0.0, targets=[1], alphas=[1.0])
        with pytest.raises(InvalidInputError, match="rotation"):
            run(dataclasses.replace(sc, phases=sc.phases + (rotation,)))


def _symplectic(n_vars: int, has_theta: bool) -> np.ndarray:
    """Commutator form of the atomic block: one (x, p) pair per slice."""
    omega = np.zeros((n_vars, n_vars))
    for x in range(1 if has_theta else 0, n_vars, 2):
        omega[x, x + 1] = 1.0
        omega[x + 1, x] = -1.0
    return omega


def _uncertainty_margin(block: np.ndarray, has_theta: bool) -> float:
    """Smallest eigenvalue of gamma + i Omega; negative means unphysical."""
    omega = _symplectic(block.shape[0], has_theta)
    return float(np.linalg.eigvalsh(block + 1j * omega)[0])


TAU_PROP = 1e-8


@st.composite
def _random_scenarios(draw):
    """A short thin, thick or estimation scenario with drawn rates."""
    kind = draw(st.sampled_from(["thin", "thick", "estimation"]))
    n = draw(st.integers(1, 6))
    n_steps = draw(st.integers(1, 5))
    kappas_sq = np.array(draw(st.lists(st.floats(1e3, 1e7), min_size=n, max_size=n)))
    etas = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1.0, 5e6)), min_size=n, max_size=n)))
    epsilons = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-4, 0.05)), min_size=n, max_size=n)))
    measure = draw(st.booleans())
    if kind == "thin":
        rates = CouplingRates(float(np.sum(kappas_sq)) / n, float(etas[0]),
                              float(epsilons[0]))
        spread = SpreadSpec(kappa0_sq=min(float(np.sum(kappas_sq)), 1e7),
                            delta=draw(st.floats(0.0, 0.9)), mode="random")
        sc = build_thin_inhomogeneous(
            spread, n, rates, TAU_PROP, n_steps * TAU_PROP, sample_every=n_steps,
            eta_mode=draw(st.sampled_from(["uniform", "intensity"])),
            rng=np.random.default_rng(draw(st.integers(0, 1000))),
        )
    elif kind == "thick":
        slices = SliceConfig(n, kappas_sq, etas, epsilons)
        sc = build_thick(slices, TAU_PROP, n_steps * TAU_PROP, sample_every=n_steps)
    else:
        slices = SliceConfig(n, kappas_sq, etas, epsilons)
        base = slices if draw(st.booleans()) else CouplingRates(
            float(kappas_sq[0]), float(etas[0]), float(epsilons[0]))
        n_base = n if isinstance(base, SliceConfig) else 1
        t1 = draw(st.integers(0, 3)) * TAU_PROP
        t2 = t1 + draw(st.integers(0, 3)) * TAU_PROP
        est = EstimationParams(
            t1=t1, t2=t2, var_theta0=draw(st.floats(0.01, 10.0)),
            alphas=tuple(draw(st.lists(st.floats(0.0, 5.0), min_size=n_base,
                                       max_size=n_base))),
            theta_true=draw(st.floats(-1.0, 1.0)),
        )
        sc = build_estimation(base, est, TAU_PROP, t2 + n_steps * TAU_PROP,
                              sample_every=10**6)
        sc = dataclasses.replace(sc, sample_every=max(sc.total_steps, 1))
    if not measure:
        phases = tuple(
            dataclasses.replace(p, measure=False) if isinstance(p, ProbePhase) else p
            for p in sc.phases
        )
        sc = dataclasses.replace(sc, phases=phases)
    return sc


class TestDetectionStatistics:
    def test_law_of_total_variance_at_validity_bound(self):
        """Conditional spread plus conditional variance rebuild the prior.

        At kappa^2 tau = 0.1, the coarse-graining bound, each detected
        quadrature has bxx = 1 + kappa^2 tau gamma_p well above 1; drawing
        the detection deviation with variance 1/2 instead of bxx/2 shrinks
        the spread of the trajectory means by several standard errors.
        """
        n_steps = 5
        sc = build_homogeneous(CouplingRates(1e7, 0.0, 0.0), tau=1e-8,
                               t_end=n_steps * 1e-8, sample_every=n_steps)
        n_traj = 20_000
        means = np.empty(n_traj)
        ts = None
        for seed in range(n_traj):
            ts, traj = run(sc, seed=seed)
            means[seed] = traj.samples[-1][1][1]
        var_cond = float(ts.columns["var_p"][-1])
        prior = 0.5
        se = (prior - var_cond) * math.sqrt(2.0 / (n_traj - 1))
        total = float(np.var(means, ddof=1)) + var_cond
        assert abs(total - prior) < 4.0 * se, (total, 4.0 * se)

    def test_recorded_deviation_is_scaled_draw(self):
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-8, sample_every=5)
        _, traj = run(sc, seed=4)
        z = np.random.default_rng(4).normal(0.0, CHI_STD, 5)
        var_p = 0.5
        bxx = []
        for _ in range(5):
            bxx.append(1.0 + 2.0 * 1.83e6 * 1e-8 * var_p)
            var_p = var_p / (1.0 + 2.0 * 1.83e6 * 1e-8 * var_p)
        np.testing.assert_allclose(traj.chis, np.sqrt(bxx) * z, rtol=1e-14, atol=0)

    def test_outcomes_are_predicted_readout_plus_deviation(self):
        """Each outcome is the read-out predicted before its step plus chi."""
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=4e-7, sample_every=1)
        _, traj = run(sc, seed=9)
        np.testing.assert_allclose(traj.measurement_times, 1e-8 * np.arange(1, 41),
                                   rtol=1e-15, atol=0)
        kappa = math.sqrt(1.83e6 * 1e-8)
        pre = kappa * np.array([mean[1] for _, mean, _ in traj.samples[:-1]])
        np.testing.assert_allclose(traj.outcomes - traj.chis, pre, rtol=1e-12,
                                   atol=1e-14)


class TestProbeGroupRefusals:
    """ProbeGroup and BeamSegment.compose refuse what no slice can be."""

    @pytest.mark.parametrize("over, match", [
        ({"kappas_sq": [float("nan")]}, "kappas_sq must be finite"),
        ({"etas": [float("inf")]}, "etas must be finite"),
        ({"epsilon": float("nan")}, "epsilon must be finite"),
        ({"transmission": float("inf")}, "transmission must be finite"),
        ({"kappas_sq": [1e6, 1e6]}, "kappas_sq must have one entry per row"),
        ({"etas": []}, "etas must have one entry per row"),
        ({"kappas_sq": [-1e6]}, "kappas_sq entries must be nonnegative"),
        ({"etas": [-1.0]}, "etas entries must be nonnegative"),
        ({"epsilon": -0.01}, r"epsilon must lie in \[0, 1\)"),
        ({"epsilon": 1.0}, r"epsilon must lie in \[0, 1\)"),
        ({"transmission": 0.0}, r"transmission must lie in \(0, 1\]"),
        ({"transmission": 1.5}, r"transmission must lie in \(0, 1\]"),
    ])
    def test_group_refusals(self, over, match):
        fields = dict(ax_rows=[0], kappas_sq=[1e6], etas=[1.0], epsilon=0.01,
                      transmission=0.9)
        with pytest.raises(InvalidInputError, match=match):
            ProbeGroup(**{**fields, **over})

    def test_compose_refuses_rows_that_are_not_x_rows(self):
        with pytest.raises(InvalidInputError, match="not x rows"):
            BeamSegment.compose((ProbeGroup([1], [1e6], [0.0]),), 4, 1e-8)

    def test_compose_refuses_a_slice_coupled_twice(self):
        groups = (ProbeGroup([0, 2], [1e6, 1e6], [0.0, 0.0]),
                  ProbeGroup([2], [1e6], [0.0]))
        with pytest.raises(InvalidInputError, match="already coupled"):
            BeamSegment.compose(groups, 4, 1e-8)

    def test_compose_refuses_eta_tau_of_one(self):
        groups = (ProbeGroup([0], [1e6], [1e8]),)
        BeamSegment.compose(groups, 2, 0.99e-8)
        with pytest.raises(InvalidInputError, match=r"eta \* tau must be below 1"):
            BeamSegment.compose(groups, 2, 1e-8)


class TestInputHardening:
    @pytest.mark.parametrize("make", [
        lambda: CouplingRates(kappa_sq=float("nan"), eta=0.0, epsilon=0.0),
        lambda: CouplingRates(kappa_sq=1.0, eta=float("inf"), epsilon=0.0),
        lambda: SpreadSpec(kappa0_sq=float("inf"), delta=0.1),
        lambda: SliceConfig(2, [1.0, float("nan")], [0.0, 0.0], [0.0, 0.0]),
        lambda: SliceConfig(1, [1.0], [float("inf")], [0.0]),
        lambda: ProbePhase(duration=1e-6, tau=float("nan"), groups=()),
        lambda: ProbePhase(duration=float("inf"), tau=1e-8, groups=()),
        lambda: RotationPhase(duration=0.0, targets=[1], alphas=[float("nan")]),
        lambda: EstimationParams(t1=0.0, t2=1e-6, var_theta0=float("nan")),
        lambda: EstimationParams(t1=0.0, t2=1e-6, alpha=float("inf")),
        lambda: EstimationParams(t1=0.0, t2=1e-6, alphas=(1.0, float("nan"))),
    ])
    def test_non_finite_numbers_rejected(self, make):
        with pytest.raises(InvalidInputError, match="finite"):
            make()

    def test_duration_must_be_whole_steps(self):
        with pytest.raises(InvalidInputError, match="whole number"):
            build_homogeneous(RATES, tau=1e-8, t_end=1.5e-8)
        with pytest.raises(InvalidInputError, match="whole number"):
            ProbePhase(duration=0.5e-8, tau=1e-8, groups=())
        # round-off in t_end / tau is not a fractional step
        assert ProbePhase(duration=150 * 1e-8, tau=1e-8, groups=()).n_steps == 150
        assert ProbePhase(duration=2e-3 - 4e-5, tau=1e-8, groups=()).n_steps == 196_000


class TestScenarioShape:
    def test_empty_observables(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-6, sample_every=10)
        sc = Scenario(
            initial_state=sc.initial_state, phases=sc.phases, observables=(),
            sample_every=sc.sample_every,
        )
        ts, _ = run(sc, seed=0)
        assert ts.columns == {}
        assert len(ts.times) == 11

    def test_unknown_observable_rejected(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-6)
        with pytest.raises(InvalidInputError):
            Scenario(
                initial_state=sc.initial_state, phases=sc.phases,
                observables=("var_q",),
            )

    def test_probe_phase_step_count(self):
        phase = ProbePhase(duration=1e-5, tau=1e-8, groups=())
        assert phase.n_steps == 1000
