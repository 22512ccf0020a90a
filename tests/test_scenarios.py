import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squeezesim import scenarios
from squeezesim.analytic import (
    CollectiveVariable,
    EstimationParams,
    SqueezeCurveParams,
    var_p_noiseless,
    var_p_noisy,
)
from squeezesim.errors import (
    ConfigError,
    DegenerateCovarianceError,
    InvalidInputError,
)
from squeezesim.gaussian_core import CHI_STD, GaussianState, vacuum_state
from squeezesim.physics import CouplingRates
from squeezesim.scenarios import (
    KALMAN_BLOCK,
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
)
from squeezesim.scenarios import _cholesky_block

from oracles import (
    apply_step,
    measure_light_x,
    probe_step_operators,
    rotation_step_operators,
    trace_out_light,
    uniform_thin_modes,
    with_light,
)

RATES = CouplingRates(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)
NOISELESS = CouplingRates(kappa_sq=1.83e6, eta=0.0, epsilon=0.0)
#: Decay strong enough that a block's accumulated noise shows at 1e-12.
DECAYING = CouplingRates(kappa_sq=1.83e6, eta=3e4, epsilon=0.028)


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

    @pytest.mark.parametrize("build", [
        lambda r: build_homogeneous(r, tau=1e-8, t_end=1e-5),
        lambda r: build_thick(SliceConfig.split(4, r), tau=1e-8, t_end=1e-5),
    ], ids=["homogeneous", "thick"])
    def test_zero_coupling_refused(self, build):
        """No slice couples: the closed form divides by zero, var_P_eff is NaN."""
        with pytest.raises(InvalidInputError, match="kappa_sq must be positive"):
            build(CouplingRates(kappa_sq=0.0, eta=1.0, epsilon=0.0))


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
        """Halving tau, and sampling the same times, moves var_p by < 1e-3."""
        ts_a, _ = run(build_homogeneous(RATES, 2e-8, 2e-4, sample_every=1000))
        ts_b, _ = run(build_homogeneous(RATES, 1e-8, 2e-4, sample_every=2000))
        a, b = ts_a.columns["var_p"], ts_b.columns["var_p"]
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-3

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
        """Back-action still inflates x; the records hold the atoms alone."""
        sc = build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-7,
                               sample_every=50, measure=False)
        _, traj = run(sc, seed=0, record_cov=True)
        cov = traj.cov_samples[-1]
        assert cov[0, 0] == pytest.approx(1.0 + 50 * 1.83e6 * 1e-8, rel=1e-12)
        assert cov[1, 1] == 1.0
        assert cov.shape == (2, 2)

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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    def test_long_run_matches_long_double_modes(self):
        """300k steps of a uniform-eta sample against its scalar modes.

        Both blocks stay sigma I + (mode - sigma) u u^T, u the unit
        read-out on p and back-action on x (oracles.uniform_thin_modes), so
        the smallest eigenvalue is the smallest of sigma and the two modes.
        """
        sc = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 10, RATES,
                                      tau=1e-8, t_end=3e-3)
        seg = sc.segments[0]
        ts, traj = run(sc, seed=0, record_cov=True)
        ref = uniform_thin_modes(seg, 300, sc.sample_every)
        eye = np.eye(10, dtype=np.longdouble)
        units = []
        for u in (seg.read.coupling0, seg.unread.coupling0):
            u = np.asarray(u, dtype=np.longdouble)
            units.append(np.outer(u, u) / np.sum(u * u))
        assert len(ref) == len(traj.cov_samples) == 301
        for cov, (sigma, v, vx) in zip(traj.cov_samples, ref, strict=True):
            for got, unit, mode in ((cov[1::2, 1::2], units[0], v),
                                    (cov[0::2, 0::2], units[1], vx)):
                want = sigma * eye + (mode - sigma) * unit
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        least = np.array([min(modes) / 2 for modes in ref], dtype=np.longdouble)
        got = ts.columns["min_eig_var"].astype(np.longdouble)
        assert np.max(np.abs(got - least) / least) <= 1e-11

    def test_collective_mode_is_the_homogeneous_run(self):
        """With uniform decay the probed variable is one sample of sum kappa_i^2."""
        want = run(build_homogeneous(RATES, tau=1e-8, t_end=3e-3))[0].columns["var_p"]
        for delta in (0.0, 0.1, 0.5):
            sc = build_thin_inhomogeneous(SpreadSpec(RATES.kappa_sq, delta), 10, RATES,
                                          tau=1e-8, t_end=3e-3)
            got = run(sc)[0].columns["var_P_eff"]
            assert len(got) == len(want) == 301
            assert np.max(np.abs(got - want) / want) <= 1e-12

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

    @pytest.mark.parametrize("rates, tau, n_steps", [
        (RATES, 5e-8, 2500),
        # eta tau = 0.4: the loss-scale cap shortens the chunks
        (CouplingRates(kappa_sq=1.83e6, eta=4e7, epsilon=0.028), 1e-8, 1200),
    ])
    def test_single_slice_bitwise_across_chunks(self, rates, tau, n_steps):
        """Both runs take the one-row scan over several chunks per sample."""
        t_end = n_steps * tau
        sc_thick = build_thick(SliceConfig.split(1, rates), tau, t_end,
                               sample_every=n_steps)
        sc_hom = build_homogeneous(rates, tau, t_end, sample_every=n_steps)
        assert sc_hom.segments[0].chunk_steps < n_steps // 2
        _, tr_t = run(sc_thick, seed=5, record_cov=True)
        _, tr_h = run(sc_hom, seed=5, record_cov=True)
        for a, b in zip(tr_t.cov_samples, tr_h.cov_samples, strict=True):
            assert np.array_equal(a, b)
        for (_, a), (_, b) in zip(tr_t.samples, tr_h.samples, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(tr_t.chis, tr_h.chis)
        assert np.array_equal(tr_t.outcomes, tr_h.outcomes)

    @pytest.mark.parametrize("n, n_steps", [(8, 100_000), (50, 20_000)])
    def test_noiseless_stack_matches_information_form(self, n, n_steps):
        """Exact for the discrete model: without decay, every step is the same.

        The p block's information grows as 1/G = I + N h h^T / shot, so by
        Sherman-Morrison G = I - N h h^T / (shot + N |h|^2); the x block
        gains the back-action of every step, I + N (w w^T) o S.
        """
        rates = CouplingRates(kappa_sq=1.83e6, eta=0.0, epsilon=0.028)
        sc = build_thick(SliceConfig.split(n, rates), tau=5e-8,
                         t_end=n_steps * 5e-8, sample_every=n_steps)
        seg = sc.segments[0]
        h, w, shot = seg.read.coupling0, seg.unread.coupling0, seg.shot
        spread = np.ones((n, n)) if seg.spread is None else seg.spread
        _, traj = run(sc, seed=0, record_cov=True)
        cov = traj.cov_samples[-1]
        p_ref = np.eye(n) - n_steps * np.outer(h, h) / (shot + n_steps * (h @ h))
        x_ref = np.eye(n) + n_steps * np.outer(w, w) * spread
        for got, ref in ((cov[1::2, 1::2], p_ref), (cov[0::2, 0::2], x_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

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
        sc = build_estimation(
            build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-5, sample_every=500), est)
        ts, _ = run(sc, seed=0)
        assert np.allclose(ts.columns["var_theta"], 0.5, atol=1e-12)

    def test_alphas_from_atom_number(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, var_theta0=0.5)
        base = build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-5, sample_every=500)
        sc = build_estimation(base, est, atoms_per_slice=2e12)
        assert sc.meta["alphas"] == [pytest.approx(math.sqrt(1e12))]

    def test_lever_required(self):
        est = EstimationParams(t1=1e-5, t2=2e-5)
        with pytest.raises(InvalidInputError):
            build_estimation(build_homogeneous(NOISELESS, tau=1e-8, t_end=5e-5), est)

    def test_theta_mean_tracks_truth(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=40.0, var_theta0=0.5,
                               theta_true=0.05)
        sc = build_estimation(
            build_homogeneous(NOISELESS, tau=1e-8, t_end=1.2e-4, sample_every=2000), est)
        means = []
        for seed in range(12):
            ts, _ = run(sc, seed=seed)
            means.append(ts.columns["mean_theta"][-1])
        err = np.mean(means) - 0.05
        spread = np.std(means) / math.sqrt(len(means))
        assert abs(err) < 5 * spread + 1e-4

    def test_unknown_eta_mode_refused(self):
        with pytest.raises(InvalidInputError, match="eta_mode"):
            build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.1), 3, RATES, 1e-8, 5e-5,
                                     eta_mode="bogus")

    def test_records_hold_the_atomic_block(self):
        """Recorded covariances are m x m and means m wide, theta included."""
        est = EstimationParams(t1=1e-7, t2=2e-7, alpha=1.0, theta_true=0.3)
        sc = build_estimation(
            build_homogeneous(RATES, tau=1e-8, t_end=5e-7, sample_every=10), est)
        m = sc.initial_state.dim
        assert m == 3
        ts, traj = run(sc, seed=1, record_cov=True)
        assert len(traj.cov_samples) == len(traj.samples) == len(ts.times) == 5
        assert all(cov.shape == (m, m) for cov in traj.cov_samples)
        assert all(mean.shape == (m,) for _, mean in traj.samples)
        assert [mean[0] for _, mean in traj.samples] == list(
            ts.columns["mean_theta"])
        assert [cov[0, 0] / 2.0 for cov in traj.cov_samples] == list(
            ts.columns["var_theta"])

    def test_deviations_are_one_draw_over_both_probe_phases(self):
        base = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 3, RATES, tau=1e-8,
                                        t_end=2e-6, eta_mode="intensity")
        sc = build_estimation(base, EstimationParams(t1=5e-7, t2=8e-7, alpha=1.0))
        squeeze, rotation, probe = sc.phases
        n = squeeze.n_steps + probe.n_steps
        scales = []
        for seed in (11, 12):
            _, traj = run(sc, seed=seed)
            z = np.random.default_rng(seed).normal(0.0, CHI_STD, n)
            scales.append(traj.chis / z)
        # chi = sqrt(bxx) z with bxx >= shot = 1 and seed independent, so the
        # z are the seed's one draw of n
        np.testing.assert_allclose(scales[0], scales[1], rtol=1e-14)
        assert np.all(scales[0] > 1.0)
        times = traj.measurement_times
        assert len(times) == len(traj.outcomes) == n
        assert np.all(np.diff(times) > 0.0)
        gap = times[squeeze.n_steps] - times[squeeze.n_steps - 1]
        assert gap == pytest.approx(rotation.duration + probe.tau, rel=1e-9)

    def test_thick_base_accepted(self):
        slices = SliceConfig.split(3, RATES)
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=1.0)
        sc = build_estimation(
            build_thick(slices, tau=5e-8, t_end=5e-5, sample_every=500), est)
        assert sc.initial_state.dim == 2 * 3 + 1
        ts, _ = run(sc, seed=0)
        assert np.all(np.isfinite(ts.columns["var_theta"]))

    @pytest.mark.parametrize("base", [
        build_homogeneous(RATES, tau=2e-8, t_end=6e-5, sample_every=70,
                          measure=False),
        build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.2), 3, RATES, tau=2e-8,
                                 t_end=6e-5, sample_every=70),
        build_thick(SliceConfig.split(3, RATES), tau=2e-8, t_end=6e-5,
                    sample_every=70),
    ], ids=["homogeneous", "thin", "thick"])
    def test_keeps_the_base_plan(self, base):
        """tau, measure flag, duration, sampling and meta come from the base."""
        est = EstimationParams(t1=2e-5, t2=3e-5, alpha=1.0, theta_true=0.1)
        sc = build_estimation(base, est)
        phase = base.phases[0]
        squeeze, rotation, probe = sc.phases
        assert (squeeze.duration, rotation.duration, probe.duration) == (
            est.t1, est.t2 - est.t1, phase.duration - est.t2)
        assert squeeze.tau == probe.tau == phase.tau
        assert squeeze.measure == probe.measure == phase.measure
        assert (squeeze.t_start, probe.t_start) == (0.0, est.t1)
        assert sc.sample_every == base.sample_every
        assert sc.meta["scenario"] == "estimation"
        assert sc.meta["base_scenario"] == base.meta["scenario"]
        assert all(sc.meta[k] == v for k, v in base.meta.items() if k != "scenario")
        state = sc.initial_state
        assert state.has_theta and state.n_pairs == base.initial_state.n_pairs
        assert state.mean[0] == est.theta_true
        assert state.cov[0, 0] == 2.0 * est.var_theta0
        assert np.array_equal(state.cov[1:, 1:], base.initial_state.cov)

    def test_intensity_etas_reach_both_probe_phases(self):
        base = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 4, RATES,
                                        tau=1e-8, t_end=5e-5, eta_mode="intensity")
        etas = base.phases[0].groups[0].etas
        assert len(set(etas.tolist())) == 4
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=1.0)
        squeeze, _, probe = build_estimation(base, est).phases
        for phase in (squeeze, probe):
            (group,) = phase.groups
            assert np.array_equal(group.etas, etas)
            assert phase.groups is base.phases[0].groups  # theta shifts no slice

    def test_theta_led_or_multi_phase_base_refused(self):
        est = EstimationParams(t1=1e-5, t2=2e-5, alpha=1.0)
        base = build_homogeneous(RATES, tau=1e-8, t_end=5e-5)
        wrapped = build_estimation(base, est)
        for bad in (wrapped, dataclasses.replace(wrapped, phases=wrapped.phases[:1]),
                    dataclasses.replace(base, phases=base.phases * 2)):
            with pytest.raises(InvalidInputError, match="one probe phase, no theta"):
                build_estimation(bad, est)


class TestRunnerDensePathEquivalence:
    """The in-place kernels must agree with the dense operator algebra."""

    def _dense_states(self, sc: Scenario, seed: int, n_steps_cap: int):
        """(steps done, state) at the start, after every step and rotation.

        The dense states carry the light pair after the atomic block.
        """
        state = with_light(sc.initial_state)
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
                    state = trace_out_light(state)
                done += 1
                yield done, state

    def _dense_run(self, sc: Scenario, seed: int, n_steps_cap: int = 12):
        for _, state in self._dense_states(sc, seed, n_steps_cap):
            pass
        return state

    @staticmethod
    def _assert_matches(cov, mean, state: GaussianState):
        """A runner sample against the dense state's atomic block at 1e-12.

        The dense light pair after that block must be fresh vacuum: that is
        what lets the runner drop it.
        """
        m = len(mean)
        assert np.array_equal(state.cov[m:], np.eye(state.dim)[m:])
        assert not np.any(state.mean[m:])
        dense_cov, dense_mean = state.cov[:m, :m], state.mean[:m]
        assert np.max(np.abs(cov - dense_cov)) < 1e-12 * np.max(np.abs(dense_cov))
        mean_scale = max(1.0, np.max(np.abs(dense_mean)))
        assert np.max(np.abs(mean - dense_mean)) < 1e-12 * mean_scale

    def _compare_samples(self, sc: Scenario, seed: int):
        """Every sample of the runner against the dense path at 1e-12."""
        _, traj = run(sc, seed=seed, record_cov=True)
        dense = {}
        for done, state in self._dense_states(sc, seed, sc.total_steps):
            if done % sc.sample_every == 0:
                dense.setdefault(done, state)
        assert len(dense) == len(traj.cov_samples) >= 2
        for state, cov, (_, mean) in zip(
                dense.values(), traj.cov_samples, traj.samples):
            self._assert_matches(cov, mean, state)
        return traj

    def _compare(self, sc_full, sc_short, seed=7):
        _, traj = run(sc_short, seed=seed, record_cov=True)
        dense = self._dense_run(sc_full, seed, n_steps_cap=sc_short.total_steps)
        self._assert_matches(traj.cov_samples[-1], traj.samples[-1][1], dense)

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
        sc = build_estimation(
            build_homogeneous(RATES, tau=1e-8, t_end=2e-7, sample_every=16), est)
        _, traj = run(sc, seed=5, record_cov=True)
        dense = self._dense_run(sc, 5, n_steps_cap=100)
        self._assert_matches(traj.cov_samples[-1], traj.samples[-1][1], dense)

    @pytest.mark.parametrize("kind, start, collective", [
        ("thin", "vacuum", True), ("thin", "warm", True),
        ("thin_observed", "x_squeezed", True), ("thick_noiseless", None, True),
        ("thin_intensity", "vacuum", False), ("thick", None, False),
        ("estimation", "vacuum", False), ("thin", "squeezed", False),
        ("thin", "displaced", False)])
    def test_collective_dispatch(self, kind, start, collective, monkeypatch):
        """Which blocks the chunks and the eigen-solves take, and the dense path.

        The collective path hands the chunks the one-row h^ mode; the
        r-wide path hands them the whole read block.  At every sample the
        sampler eigen-solves only the blocks (x, p) that do not run as
        modes, and p also when min_eig_overlap needs its eigenvectors.
        """
        # the blocks eigen-solved at each sample: those not run as modes (a
        # thick stack's x block has a spread), and p for its eigenvectors
        solved = ({"thin": "", "thin_observed": "p", "thick_noiseless": "x"}[kind]
                  if collective else "xp")
        tau = 1e-8
        if kind.startswith("thick"):
            etas = np.zeros(4) if kind == "thick_noiseless" else np.full(4, 3e4)
            sc = build_thick(SliceConfig(4, np.linspace(2e5, 6e5, 4), etas,
                                         np.full(4, 0.03)), tau, 100 * tau,
                             sample_every=50)
        else:
            sc = _thin_case(5, DECAYING, "intensity" if kind == "thin_intensity"
                            else "uniform", start, tau,
                            n_steps=103 if kind == "estimation" else 100)
        if kind == "estimation":  # min_eig_var too, so that it eigen-solves
            sc = build_estimation(sc, EstimationParams(
                t1=40 * tau, t2=43 * tau, alpha=1.5, var_theta0=0.5, theta_true=0.2))
            sc = dataclasses.replace(sc, observables=sc.observables + ("min_eig_var",))
        if kind == "thin_observed":
            # x squeezed: the x block holds the least eigenvalue until the
            # last sample, the squeezed p mode there
            state = dataclasses.replace(sc.initial_state,
                                        cov=np.diag(np.tile([0.5, 2.0], 5)))
            coeff = np.linspace(1.0, 2.0, 10)  # reads both blocks
            sc = dataclasses.replace(sc, initial_state=state, observables=(
                "min_eig_var", "min_eig_overlap",
                CollectiveVariable(coeff / np.linalg.norm(coeff))))
        widths, rows, solves, x_block = [], [], [], []
        chunk, eig, row = scenarios._kalman_chunk, scenarios.sym_eig_all, sc.sampler.row

        def spy_chunk(cov, *args):
            widths.append(len(cov))
            return chunk(cov, *args)

        def spy_row(cov_r, mean_r, cov_u, *args):
            x_block[:] = [cov_u]
            solves.append("")
            rows.append(row(cov_r, mean_r, cov_u, *args))
            return rows[-1]

        def spy_eig(block, **kw):
            solves[-1] += "x" if block is x_block[0] else "p"
            return eig(block, **kw)

        monkeypatch.setattr(scenarios, "_kalman_chunk", spy_chunk)
        monkeypatch.setattr(scenarios, "sym_eig_all", spy_eig)
        monkeypatch.setattr(sc.sampler, "row", spy_row)
        traj = self._compare_samples(sc, seed=4)
        assert set(widths) == ({1} if collective else {len(sc.blocks[0])})
        assert solves == [solved] * len(traj.cov_samples)
        if kind == "thin_observed":
            weights = sc.segments[0].kappas0 / np.linalg.norm(sc.segments[0].kappas0)
            for (least, overlap, var_cv), cov in zip(rows, traj.cov_samples, strict=True):
                w, v = np.linalg.eigh(cov)
                assert least == pytest.approx(w[0] / 2.0, rel=1e-12)
                assert overlap == pytest.approx(abs(v[1::2, 0] @ weights), abs=1e-12)
                c = sc.observables[2].coefficients
                assert var_cv == pytest.approx(c @ cov @ c / 2.0, rel=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_scenarios(self, data):
        """Thin, thick and estimation runs, measured or not, over a few steps."""
        sc = data.draw(_random_scenarios())
        seed = data.draw(st.integers(0, 2**32 - 1))
        _, traj = run(sc, seed=seed, record_cov=True)
        dense = self._dense_run(sc, seed, n_steps_cap=10**6)
        self._assert_matches(traj.cov_samples[-1], traj.samples[-1][1], dense)
        has_theta = sc.initial_state.has_theta
        for block in traj.cov_samples:
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

    @pytest.mark.parametrize("eta, n_steps", [
        (2e4, 2500),
        # eta tau = 0.4: the loss-scale cap shortens the chunks
        (4e7, 1200),
    ])
    def test_chunk_boundaries_one_row(self, eta, n_steps):
        """The one-row scan across chunk ends, with loss and absorption."""
        slices = SliceConfig(1, np.array([8e5]), np.array([eta]), np.array([0.028]))
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
        sc = build_estimation(
            build_thick(slices, tau=1e-8, t_end=3005e-8, sample_every=1500), est)
        assert sc.total_steps == 3000
        self._compare_samples(sc, seed=2)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("kind, width", [
        ("estimation", 2), ("thin", 5), ("thick", 5)])
    def test_block_boundaries(self, kind, width, extra):
        """Phases of KALMAN_BLOCK - 1, KALMAN_BLOCK and KALMAN_BLOCK + 1 steps."""
        n_steps = KALMAN_BLOCK + extra
        tau = 1e-8
        if kind == "estimation":
            est = EstimationParams(t1=n_steps * tau, t2=(n_steps + 3) * tau,
                                   alpha=1.5, var_theta0=0.5, theta_true=0.2)
            sc = build_estimation(build_homogeneous(
                DECAYING, tau, (2 * n_steps + 3) * tau, sample_every=n_steps), est)
        elif kind == "thin":
            sc = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.4), width, DECAYING,
                                          tau, n_steps * tau, sample_every=n_steps,
                                          eta_mode="intensity")
        else:
            slices = SliceConfig(width, np.linspace(2e5, 6e5, width),
                                 np.linspace(1e4, 5e4, width), np.full(width, 0.03))
            sc = build_thick(slices, tau, n_steps * tau, sample_every=n_steps)
        assert len(sc.blocks[0]) == width
        self._compare_samples(sc, seed=3)

    def test_wide_block_covariances_do_not_depend_on_the_seed(self):
        """The Cholesky blocks never read the draws: covariances match bit for bit."""
        sc = build_thick(SliceConfig(3, np.array([4e5, 8e5, 6e5]), np.full(3, 3e4),
                                     np.full(3, 0.02)), tau=1e-8, t_end=300e-8,
                         sample_every=100)
        _, tr1 = run(sc, seed=11, record_cov=True)
        _, tr2 = run(sc, seed=22, record_cov=True)
        for a, b in zip(tr1.cov_samples, tr2.cov_samples, strict=True):
            assert np.array_equal(a, b)
        assert not np.array_equal(tr1.samples[-1][1], tr2.samples[-1][1])

    @pytest.mark.parametrize("kind", ["sampling", "loss_cap"])
    def test_chunk_not_a_multiple_of_the_block(self, kind):
        """Chunks end part way into a block of steps, several times."""
        if kind == "sampling":
            # intensity-set decay: a uniform one would take the collective path
            sc = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.4), 5, DECAYING,
                                          tau=1e-8, t_end=450e-8, sample_every=150,
                                          eta_mode="intensity")
            chunk = sc.sample_every
        else:
            # eta tau = 0.3: the loss-scale cap cuts the chunks short
            slices = SliceConfig(4, np.full(4, 2e5), np.full(4, 3e7),
                                 np.full(4, 0.02))
            sc = build_thick(slices, tau=1e-8, t_end=1000e-8, sample_every=1000)
            chunk = sc.segments[0].chunk_steps
            assert chunk < sc.sample_every // 2
        assert chunk % KALMAN_BLOCK
        self._compare_samples(sc, seed=6)

    def test_theta_p_correlated_prior(self):
        """A prior correlating theta with the p rows stays exactly symmetric."""
        est = EstimationParams(t1=5e-8, t2=6e-8, alphas=(2.0, -1.0),
                               var_theta0=0.5, theta_true=0.1)
        base = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 2, RATES,
                                        tau=1e-8, t_end=1e-7, sample_every=3)
        sc = build_estimation(base, est)
        cov = sc.initial_state.cov.copy()
        cov[0, 2] = cov[2, 0] = 0.3
        cov[0, 4] = cov[4, 0] = -0.2
        cov[2, 4] = cov[4, 2] = 0.1
        # extra p noise keeps the conditioned p block above the bound
        cov[2, 2] = cov[4, 4] = 1.5
        state = dataclasses.replace(sc.initial_state, cov=cov)
        sc = dataclasses.replace(sc, initial_state=state, sample_every=9)
        traj = self._compare_samples(sc, seed=1)
        assert all(np.array_equal(c, c.T) for c in traj.cov_samples)


class TestBlockSplitRefusals:
    """What the read/unread split cannot represent is refused by run."""

    def test_x_p_correlated_initial_state(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        cov = sc.initial_state.cov.copy()
        cov[0, 1] = cov[1, 0] = 0.2
        state = dataclasses.replace(sc.initial_state, cov=cov)
        with pytest.raises(InvalidInputError, match="correlates x rows"):
            run(dataclasses.replace(sc, initial_state=state))

    def test_rotation_source_outside_read_block(self):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        rotation = RotationPhase(duration=0.0, alphas=[1.0])
        with pytest.raises(InvalidInputError, match="rotation needs a theta"):
            run(dataclasses.replace(sc, phases=sc.phases + (rotation,)))

    @pytest.mark.parametrize("alphas", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_rotation_needs_one_alpha_per_slice(self, alphas):
        est = EstimationParams(t1=5e-8, t2=6e-8, alphas=(1.0, 2.0))
        sc = build_estimation(build_thick(SliceConfig.split(2, RATES), tau=1e-8,
                                          t_end=1e-7, sample_every=500), est)
        squeeze, rotation, probe = sc.phases
        wrong = dataclasses.replace(rotation, alphas=np.array(alphas))
        with pytest.raises(InvalidInputError, match=r"one alpha per slice \(2\)"):
            run(dataclasses.replace(sc, phases=(squeeze, wrong, probe)))


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


def _thin_case(n, rates, eta_mode, start, tau, n_steps=100, sample_every=50,
               delta=0.4, rng=None, scale=1.5):
    """A thin sample of n_steps; ``start`` sets its initial state.

    "vacuum" keeps the builder's; "warm" starts every slice at ``scale``
    times the vacuum, which keeps the read block c I; "squeezed" squeezes
    the first slice's p by ``scale`` and "displaced" displaces it by
    ``scale``, and either breaks it.
    """
    sc = build_thin_inhomogeneous(
        SpreadSpec(rates.kappa_sq, delta, mode="grid" if rng is None else "random"),
        n, rates, tau, n_steps * tau, sample_every=sample_every,
        eta_mode=eta_mode, rng=rng)
    state = sc.initial_state
    cov, mean = state.cov.copy(), state.mean.copy()
    if start == "warm":
        cov *= scale
    elif start == "squeezed":
        cov[0, 0], cov[1, 1] = 1.0 / scale, scale
    elif start == "displaced":
        mean[1] = scale
    return dataclasses.replace(
        sc, initial_state=dataclasses.replace(state, cov=cov, mean=mean))


@st.composite
def _random_scenarios(draw):
    """A short thin, thick or estimation scenario with drawn rates.

    A thin sample is drawn as one of four variants: isotropic ("warm":
    uniform decay from c I, the collective path, always measured) or a
    near miss that takes the r-wide path: decay set by intensity, or a
    first slice squeezed or displaced.
    """
    kind = draw(st.sampled_from(["thin", "thick", "estimation"]))
    variant = draw(st.sampled_from(["warm", "intensity", "squeezed", "displaced"]))
    # one slice half the time: a one-row read block when theta is absent;
    # a thin sample has two or more, which the collective path needs
    n = draw(st.integers(2, 6) if kind == "thin"
             else st.one_of(st.just(1), st.integers(2, 6)))
    # both sides of a block end, and runs of more than one block
    n_steps = draw(st.one_of(st.integers(1, 5),
                             st.integers(KALMAN_BLOCK - 2, 2 * KALMAN_BLOCK + 2)))
    kappas_sq = np.array(draw(st.lists(st.floats(1e3, 1e7), min_size=n, max_size=n)))
    etas = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1.0, 5e6)), min_size=n, max_size=n)))
    epsilons = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-4, 0.05)), min_size=n, max_size=n)))
    # unmeasured, an isotropic thin sample runs like any other
    measure = (kind, variant) == ("thin", "warm") or draw(st.booleans())
    if kind == "thin":
        # eta tau e^(eta t) stays below one, as the dense operators need;
        # an intensity-set decay differs slice by slice only if eta > 0
        eta = draw(st.floats(1.0, 1e5) if variant == "intensity"
                   else st.one_of(st.just(0.0), st.floats(1.0, 1e5)))
        rates = CouplingRates(min(float(np.sum(kappas_sq)), 1e7), eta,
                              float(epsilons[0]))
        sc = _thin_case(
            n, rates, "intensity" if variant == "intensity" else "uniform", variant,
            TAU_PROP, n_steps, n_steps, delta=draw(st.floats(0.05, 0.9)),
            rng=np.random.default_rng(draw(st.integers(0, 1000))),
            scale=draw(st.floats(1.0, 2.0) if variant == "warm"
                       else st.floats(0.5, 2.0).filter(lambda v: v != 1.0)))
    elif kind == "thick":
        slices = SliceConfig(n, kappas_sq, etas, epsilons)
        sc = build_thick(slices, TAU_PROP, n_steps * TAU_PROP, sample_every=n_steps)
    else:
        thick = draw(st.booleans())
        n_base = n if thick else 1
        t1 = draw(st.integers(0, 3)) * TAU_PROP
        t2 = t1 + draw(st.integers(0, 3)) * TAU_PROP
        est = EstimationParams(
            t1=t1, t2=t2, var_theta0=draw(st.floats(0.01, 10.0)),
            alphas=tuple(draw(st.lists(st.floats(0.0, 5.0), min_size=n_base,
                                       max_size=n_base))),
            theta_true=draw(st.floats(-1.0, 1.0)),
        )
        t_end = t2 + n_steps * TAU_PROP
        if thick:
            base = build_thick(SliceConfig(n, kappas_sq, etas, epsilons), TAU_PROP,
                               t_end, sample_every=10**6)
        else:
            base = build_homogeneous(
                CouplingRates(float(kappas_sq[0]), float(etas[0]), float(epsilons[0])),
                TAU_PROP, t_end, sample_every=10**6)
        sc = build_estimation(base, est)
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
        pre = kappa * np.array([mean[1] for _, mean in traj.samples[:-1]])
        np.testing.assert_allclose(traj.outcomes - traj.chis, pre, rtol=1e-12,
                                   atol=1e-14)


class TestProbeGroupRefusals:
    """ProbeGroup and BeamSegment.compose refuse what no slice can be."""

    @pytest.mark.parametrize("over, match", [
        ({"kappas_sq": [float("nan")]}, "kappas_sq must be finite"),
        ({"etas": [float("inf")]}, "etas must be finite"),
        ({"epsilon": float("nan")}, "epsilon must be finite"),
        ({"transmission": float("inf")}, "transmission must be finite"),
        ({"kappas_sq": [1e6, 1e6]}, "kappas_sq must have one entry per slice"),
        ({"etas": []}, "etas must have one entry per slice"),
        ({"kappas_sq": [-1e6]}, "kappas_sq entries must be nonnegative"),
        ({"etas": [-1.0]}, "etas entries must be nonnegative"),
        ({"epsilon": -0.01}, r"epsilon must lie in \[0, 1\)"),
        ({"epsilon": 1.0}, r"epsilon must lie in \[0, 1\)"),
        ({"transmission": 0.0}, r"transmission must lie in \(0, 1\]"),
        ({"transmission": 1.5}, r"transmission must lie in \(0, 1\]"),
    ])
    def test_group_refusals(self, over, match):
        fields = dict(kappas_sq=[1e6], etas=[1.0], epsilon=0.01, transmission=0.9)
        with pytest.raises(InvalidInputError, match=match):
            ProbeGroup(**{**fields, **over})

    def test_compose_refuses_a_slice_coupled_twice(self):
        groups = (ProbeGroup([1e6, 1e6], [0.0, 0.0]), ProbeGroup([1e6], [0.0]))
        with pytest.raises(InvalidInputError, match="couple 3 slices, the state has 2"):
            BeamSegment.compose(groups, 4, 1e-8)

    @pytest.mark.parametrize("m, sizes", [(4, [1]), (5, [1]), (6, [1, 1]), (2, [])])
    def test_compose_refuses_groups_that_miss_a_slice(self, m, sizes):
        groups = tuple(ProbeGroup(np.full(k, 1e6), np.zeros(k)) for k in sizes)
        with pytest.raises(InvalidInputError,
                           match=f"couple {sum(sizes)} slices, the state has {m // 2}"):
            BeamSegment.compose(groups, m, 1e-8)

    def test_compose_refuses_eta_tau_of_one(self):
        groups = (ProbeGroup([1e6], [1e8]),)
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
        lambda: RotationPhase(duration=0.0, alphas=[float("nan")]),
        lambda: EstimationParams(t1=0.0, t2=1e-6, var_theta0=float("nan")),
        lambda: EstimationParams(t1=0.0, t2=1e-6, alpha=float("inf")),
        lambda: EstimationParams(t1=0.0, t2=1e-6, alphas=(1.0, float("nan"))),
    ])
    def test_non_finite_numbers_rejected(self, make):
        with pytest.raises(InvalidInputError, match="finite"):
            make()

    @pytest.mark.parametrize("mean, cov", [
        ([float("nan"), 0.0], np.eye(2)),
        ([0.0, 0.0], np.diag([float("inf"), 1.0])),
    ], ids=["nan_mean", "inf_x_variance"])
    def test_non_finite_state_rejected(self, mean, cov):
        with pytest.raises(InvalidInputError, match="must be finite"):
            GaussianState(np.array(mean), cov)

    def test_non_finite_theta_prior_rejected(self):
        with pytest.raises(InvalidInputError, match="cov must be finite"):
            vacuum_state(1, theta=True, theta_var=float("nan"))

    @pytest.mark.parametrize("cov", [
        0.1 * np.eye(2),
        np.diag([1.0, -100.0]),
        np.diag([-1.0, -1.0]),
    ], ids=["below_uncertainty_bound", "negative_p_variance", "negative_x_variance"])
    def test_non_physical_pair_refused(self, cov):
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        state = dataclasses.replace(sc.initial_state, cov=cov)
        with pytest.raises(InvalidInputError, match="slice 1 is not physical"):
            run(dataclasses.replace(sc, initial_state=state))

    @pytest.mark.parametrize("var_theta", [0.0, -0.5])
    def test_non_positive_theta_variance_refused(self, var_theta):
        est = EstimationParams(t1=5e-8, t2=6e-8, alpha=1.0)
        sc = build_estimation(
            build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5), est)
        cov = sc.initial_state.cov.copy()
        cov[0, 0] = 2.0 * var_theta
        state = dataclasses.replace(sc.initial_state, cov=cov)
        with pytest.raises(InvalidInputError, match="theta variance must be positive"):
            run(dataclasses.replace(sc, initial_state=state))

    @pytest.mark.parametrize("corr", [
        {(1, 3): 5.0},
        {(0, 2): 2.0, (1, 1): 5.0, (3, 3): 5.0},
    ], ids=["p_correlation", "x_block_indefinite"])
    def test_multi_slice_state_below_the_bound_refused(self, corr):
        """Every pair passes gamma_xx gamma_pp >= 1; the state as a whole not."""
        sc = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 2, RATES, tau=1e-8,
                                      t_end=1e-7, sample_every=5)
        cov = np.eye(4)
        for (i, j), v in corr.items():
            cov[i, j] = cov[j, i] = v
        state = dataclasses.replace(sc.initial_state, cov=cov)
        with pytest.raises(InvalidInputError, match=r"not physical: .*gamma \+ i Omega"):
            run(dataclasses.replace(sc, initial_state=state))

    def test_theta_p_correlation_below_the_bound_refused(self):
        est = EstimationParams(t1=5e-8, t2=6e-8, alphas=(2.0, -1.0), var_theta0=0.5)
        sc = build_estimation(build_thin_inhomogeneous(
            SpreadSpec(1.83e6, 0.3), 2, RATES, tau=1e-8, t_end=1e-7, sample_every=3),
            est)
        cov = sc.initial_state.cov.copy()
        cov[0, 2] = cov[2, 0] = 0.3
        cov[0, 4] = cov[4, 0] = -0.2
        cov[2, 4] = cov[4, 2] = 0.1
        state = dataclasses.replace(sc.initial_state, cov=cov)
        with pytest.raises(InvalidInputError, match=r"gamma \+ i Omega"):
            run(dataclasses.replace(sc, initial_state=state))

    def test_correlated_minimum_uncertainty_state_accepted(self):
        """Gamma_p = Gamma_x^-1 up to round-off lies on the bound, not below."""
        n = 6
        sc = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), n, RATES, tau=1e-8,
                                      t_end=1e-7, sample_every=5)
        rng = np.random.default_rng(8)
        rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s = np.exp(rng.uniform(-3.0, 3.0, n))
        cov = np.zeros((2 * n, 2 * n))
        cov[::2, ::2] = (rot * s) @ rot.T
        cov[1::2, 1::2] = (rot / s) @ rot.T
        state = dataclasses.replace(sc.initial_state, cov=cov)
        run(dataclasses.replace(sc, initial_state=state))

    def test_squeezed_minimum_uncertainty_state_accepted(self):
        """gamma_xx gamma_pp = 1 up to round-off is on the bound, not below."""
        sc = build_homogeneous(RATES, tau=1e-8, t_end=1e-7, sample_every=5)
        for r in np.linspace(0.1, 3.0, 30):
            cov = np.diag([math.exp(2 * r), math.exp(-2 * r)])
            state = dataclasses.replace(sc.initial_state, cov=cov)
            ts, _ = run(dataclasses.replace(sc, initial_state=state))
            assert ts.columns["var_p"][0] == math.exp(-2 * r) / 2.0

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

    @pytest.mark.parametrize("name", ["var_theta", "mean_theta"])
    def test_theta_observables_need_theta_refused_at_construction(self, name):
        with pytest.raises(InvalidInputError, match="need a theta variable"):
            Scenario(vacuum_state(2), (), (name,))

    def test_state_without_slices_refused_at_construction(self):
        """A theta-only state is refused before run gets to sample it."""
        with pytest.raises(InvalidInputError, match="at least one slice"):
            run(Scenario(initial_state=vacuum_state(0, theta=True),
                         phases=(), observables=()))

    def test_probe_phase_step_count(self):
        phase = ProbePhase(duration=1e-5, tau=1e-8, groups=())
        assert phase.n_steps == 1000

    def test_theta_row_of_the_read_map_is_neutral(self):
        """theta heads the read block: read-out 0, loss 1, noise 0, growth 1."""
        seg = BeamSegment.compose((ProbeGroup([1e6, 2e6], [1e5, 2e5]),), 5, 1e-8)
        read, unread = seg.read, seg.unread
        assert len(read.coupling0) == 3 and len(unread.coupling0) == 2
        assert read.coupling0[0] == 0.0 and np.all(read.coupling0[1:] > 0.0)
        for name, neutral in (("loss", 1.0), ("noise0", 0.0), ("growth", 1.0),
                              ("decay", 1.0)):
            row, rest = getattr(read, name)[0], getattr(read, name)[1:]
            assert row == neutral
            assert np.array_equal(rest, getattr(unread, name))

    @pytest.mark.parametrize("kappas_sq", [[0.0, 1e6], [0.0, 0.0]])
    def test_zero_couplings_stay_an_array(self, kappas_sq):
        seg = BeamSegment.compose((ProbeGroup(kappas_sq, [0.0, 0.0]),), 4, 1e-8)
        for blk in (seg.read, seg.unread):
            assert isinstance(blk.coupling0, np.ndarray) and blk.coupling0[0] == 0.0
            assert blk.loss is blk.noise0 is blk.growth is blk.decay is None


class TestCholeskyBlock:
    def test_indefinite_read_block_names_its_first_step(self):
        """LAPACK's failure comes out as DegenerateCovarianceError, never LinAlgError."""
        cov = np.diag([1.0, -100.0])
        h_rows = np.full((3, 2), 0.5)
        with pytest.raises(DegenerateCovarianceError,
                           match=r"steps 11\.\.13 .*t = 1\.100000e-07 s"):
            _cholesky_block(cov, np.zeros(2), h_rows, None, np.zeros(3),
                            np.empty(3), 1.0, 10, 1e-7, 1e-8)

    def test_lapack_reads_only_the_lower_triangle(self):
        """_cholesky_block leaves the strict upper triangle of its A unset."""
        rng = np.random.default_rng(0)
        b = rng.standard_normal((114, 114))
        a = b @ b.T + 114.0 * np.eye(114)
        lower = a.copy()
        lower[np.triu_indices(114, 1)] = np.nan
        assert np.array_equal(np.linalg.cholesky(lower), np.linalg.cholesky(a))


def _cadence_scenario(kind: str) -> Scenario:
    """97 x 12 steps, decaying fast enough for the closed form to show."""
    tau, steps = 1e-8, 97 * 12
    t_end = steps * tau
    if kind == "thick":
        return build_thick(SliceConfig.split(5, DECAYING), tau, t_end)
    if kind == "thin":
        return build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 6, DECAYING, tau,
                                        t_end, eta_mode="intensity")
    if kind == "unmeasured":
        return build_homogeneous(DECAYING, tau, t_end, measure=False)
    if kind == "loss_cap":
        # eta tau = 0.4
        slices = SliceConfig(3, np.array([4e5, 8e5, 6e5]), np.full(3, 4e7),
                             np.array([0.028, 0.01, 0.04]))
        return build_thick(slices, tau, t_end)
    est = EstimationParams(t1=150 * tau, t2=155 * tau, alphas=(1.5, 0.7, 1.0),
                           var_theta0=0.5, theta_true=0.2)
    base = build_thin_inhomogeneous(SpreadSpec(1.83e6, 0.3), 3, DECAYING, tau,
                                    t_end + 5 * tau)
    return build_estimation(base, est)


class TestSamplingCadence:
    """Blocks advanced in closed form between samples end where the steps do."""

    @pytest.mark.parametrize("kind", ["thick", "thin", "unmeasured", "estimation",
                                      "loss_cap"])
    def test_final_state_does_not_depend_on_the_cadence(self, kind):
        sc = _cadence_scenario(kind)
        finals = []
        for every in (sc.total_steps, 97):
            _, traj = run(dataclasses.replace(sc, sample_every=every), seed=4,
                          record_cov=True)
            assert all(np.array_equal(c, c.T) for c in traj.cov_samples)
            finals.append((traj.cov_samples[-1], traj.samples[-1][1]))
        for a, b in zip(*finals):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
