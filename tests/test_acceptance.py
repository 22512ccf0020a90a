"""Acceptance gate: every release-blocking behavior at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -rP or -s
to see them).  Oracles are independent of the engine: closed forms from
``analytic`` (themselves cross-checked against quadrature and conditioning
references in the unit tests), plus direct reference implementations in
``oracles``.
"""

import math
import time

import numpy as np
import pytest

import squeezesim as sq
from squeezesim.analytic import (
    EstimationParams,
    SqueezeCurveParams,
    collective_decomposition,
    dp_min,
    rotated_covariance,
    t_min_exact,
    var_p_noiseless,
    var_p_noisy,
    var_symmetric,
    var_theta_curve,
    var_theta_inhom,
    var_theta_inhom_symmetric,
    var_theta_limit,
)
from squeezesim.physics import CouplingRates, cesium_d1_params, derive_rates

from oracles import gaussian_condition_2d

KAPPA_SQ = 1.83e6
ETA = 1.7577
EPSILON = 0.028
NOISY = CouplingRates(kappa_sq=KAPPA_SQ, eta=ETA, epsilon=EPSILON)
NOISELESS = CouplingRates(kappa_sq=KAPPA_SQ, eta=0.0, epsilon=0.0)
TAU = 1e-8


@pytest.fixture(scope="module")
def noiseless_run():
    """Noiseless 3 ms reference run shared by criteria 1 and 3."""
    sc = sq.build_homogeneous(NOISELESS, tau=TAU, t_end=3e-3, sample_every=1000)
    t0 = time.perf_counter()
    ts, traj = sq.run(sc, seed=0, record_cov=True)
    wall = time.perf_counter() - t0
    return ts, traj, wall


def test_criterion_1_noiseless_homogeneous_oracle(noiseless_run):
    """Discrete engine vs closed-form squeezing curve, tau = 1e-8 s."""
    ts, _, wall = noiseless_run
    ref = var_p_noiseless(ts.times, KAPPA_SQ)
    err = np.max(np.abs(ts.columns["var_p"] - ref) / ref)
    assert err < 1e-3, f"max relative error {err:.2e}"
    assert wall < 10.0, f"runtime {wall:.1f} s exceeds 10 s"
    print(f"[criterion 1] PASS: noiseless engine vs closed form, "
          f"max rel err {err:.2e} (<1e-3), runtime {wall:.1f} s (<10 s)")


def test_criterion_2_noisy_homogeneous_oracle():
    """Engine with decay and absorption vs the full conditional-variance curve."""
    sc = sq.build_homogeneous(NOISY, tau=TAU, t_end=3e-3, sample_every=1000)
    ts, _ = sq.run(sc, seed=0)
    params = SqueezeCurveParams(kappa_sq=KAPPA_SQ, eta=ETA, epsilon=EPSILON)
    ref = var_p_noisy(ts.times[1:], params)
    err = np.max(np.abs(ts.columns["var_p"][1:] - ref) / ref)
    assert err < 0.01, f"max relative error {err:.2e}"
    i_min = int(np.argmin(ts.columns["var_p"]))
    t_min_num = ts.times[i_min]
    t_min_ref = t_min_exact(params)
    t_err = abs(t_min_num - t_min_ref) / t_min_ref
    assert t_err < 0.02, f"minimum time off by {t_err:.2%}"
    v_min = ts.columns["var_p"][i_min]
    v_ref = dp_min(params) ** 2
    v_err = abs(v_min - v_ref) / v_ref
    assert v_err < 0.10, f"minimum variance off by {v_err:.2%}"
    print(f"[criterion 2] PASS: noisy engine vs closed form, max rel err "
          f"{err:.2e} (<1%); t_min {t_min_num:.3e} vs {t_min_ref:.3e} "
          f"({t_err:.2%} < 2%); min var {v_min:.3e} vs {v_ref:.3e} "
          f"({v_err:.2%} < 10%)")


def test_criterion_3_minimum_uncertainty_invariant(noiseless_run):
    """Noiseless conditioning keeps 4 Var(x) Var(p) = 1 at every sample."""
    _, traj, _ = noiseless_run
    worst = 0.0
    for cov in traj.cov_samples:
        prod = 4.0 * (cov[0, 0] / 2.0) * (cov[1, 1] / 2.0)
        worst = max(worst, abs(prod - 1.0))
    assert worst < 1e-9, f"uncertainty product off by {worst:.2e}"
    print(f"[criterion 3] PASS: |4 Var(x) Var(p) - 1| <= {worst:.2e} (<1e-9) "
          f"at {len(traj.cov_samples)} samples")


def test_criterion_4_measurement_statistics():
    """Outcome-independent covariances; law of total variance over 1e4 runs."""
    t0 = time.perf_counter()
    # covariance history must be bit-identical across seeds
    sc = sq.build_homogeneous(NOISY, tau=TAU, t_end=1e-4, sample_every=1000)
    _, tr_a = sq.run(sc, seed=101, record_cov=True)
    _, tr_b = sq.run(sc, seed=202, record_cov=True)
    assert all(
        np.array_equal(a, b) for a, b in zip(tr_a.cov_samples, tr_b.cov_samples)
    )
    # conditional + between-trajectory variance reconstructs the prior
    # (exactly: detection deviations carry the variance bxx / 2 of the
    # measured quadrature)
    n_steps = 150
    tau = TAU
    sc = sq.build_homogeneous(NOISELESS, tau=tau, t_end=n_steps * tau,
                              sample_every=n_steps)
    n_traj = 10_000
    means = np.empty(n_traj)
    ts = None
    for seed in range(n_traj):
        ts, traj = sq.run(sc, seed=seed)
        means[seed] = traj.samples[-1][1][1]
    var_cond = ts.columns["var_p"][-1]
    sc_free = sq.build_homogeneous(NOISELESS, tau=tau, t_end=n_steps * tau,
                                   sample_every=n_steps, measure=False)
    ts_free, _ = sq.run(sc_free, seed=0)
    var_uncond = ts_free.columns["var_p"][-1]
    sample_var = float(np.var(means, ddof=1))
    se = (var_uncond - var_cond) * math.sqrt(2.0 / (n_traj - 1))
    gap = abs(sample_var + var_cond - var_uncond)
    wall = time.perf_counter() - t0
    assert gap < 4.0 * se, f"law of total variance off by {gap:.3e} (4 SE = {4*se:.3e})"
    assert wall < 120.0, f"runtime {wall:.1f} s exceeds 2 min"
    print(f"[criterion 4] PASS: covariances seed-independent (bitwise); "
          f"Var(means) {sample_var:.4f} + Var_cond {var_cond:.4f} = "
          f"{sample_var + var_cond:.4f} vs unconditional {var_uncond:.4f} "
          f"(gap {gap:.1e} < 4 SE {4*se:.1e}); runtime {wall:.0f} s (<120 s)")


def test_criterion_5_thin_inhomogeneous():
    """Spread-independent squeezing of the probed collective direction."""
    params = SqueezeCurveParams(kappa_sq=KAPPA_SQ, eta=ETA, epsilon=EPSILON)
    curves = {}
    for delta in (0.1, 0.5):
        spread = sq.SpreadSpec(kappa0_sq=KAPPA_SQ, delta=delta)
        sc = sq.build_thin_inhomogeneous(
            spread, 10, NOISY, tau=TAU, t_end=3e-3, sample_every=2000
        )
        ts, _ = sq.run(sc, seed=0)
        curves[delta] = (ts, np.sqrt(np.array(sc.meta["slice_kappas_sq"])))
    ts1, kap1 = curves[0.1]
    ts5, kap5 = curves[0.5]
    a1 = ts1.columns["min_eig_var"][1:]
    a5 = ts5.columns["min_eig_var"][1:]
    spread_gap = np.max(np.abs(a1 - a5) / np.minimum(a1, a5))
    assert spread_gap < 0.005, f"delta curves {spread_gap:.2%} apart"
    ref = var_p_noisy(ts1.times[1:], params)
    err1 = np.max(np.abs(a1 - ref) / ref)
    err5 = np.max(np.abs(a5 - ref) / ref)
    assert max(err1, err5) < 0.01, f"vs collective closed form {max(err1, err5):.2%}"
    # symmetric collective variable vs the decomposition formula
    worst_p = 0.0
    for delta in (0.1, 0.5):
        ts, kap = curves[delta]
        a, _, _ = collective_decomposition(kap)
        pred = var_symmetric(var_p_noisy(ts.times[1:], params), a)
        err = np.max(np.abs(ts.columns["var_P"][1:] - pred) / pred)
        worst_p = max(worst_p, err)
    assert worst_p < 0.01, f"symmetric variance off by {worst_p:.2%}"
    # squeezed eigendirection aligns with the probed direction once the
    # state is anisotropic (skip the first 0.2 ms of near-vacuum isotropy)
    late = ts1.times[1:] >= 2e-4
    ov = min(ts1.columns["min_eig_overlap"][1:][late].min(),
             ts5.columns["min_eig_overlap"][1:][late].min())
    assert ov > 0.999, f"eigendirection overlap {ov:.5f}"
    print(f"[criterion 5] PASS: delta curves within {spread_gap:.2%} (<0.5%); "
          f"vs closed form within {max(err1, err5):.2%} (<1%); symmetric "
          f"variance within {worst_p:.2%} (<1%); overlap {ov:.5f} (>0.999)")


def test_criterion_6_thick_gas():
    """Slice-stack bookkeeping and absorption-driven squeezing loss."""
    # one slice reproduces the homogeneous scenario bit for bit
    slices1 = sq.SliceConfig.split(1, NOISY)
    sc_t = sq.build_thick(slices1, tau=5e-8, t_end=2e-4, sample_every=500)
    sc_h = sq.build_homogeneous(NOISY, tau=5e-8, t_end=2e-4, sample_every=500)
    _, tr_t = sq.run(sc_t, seed=7, record_cov=True)
    _, tr_h = sq.run(sc_h, seed=7, record_cov=True)
    assert len(tr_t.cov_samples) == len(tr_h.cov_samples)
    assert all(
        np.array_equal(a, b) for a, b in zip(tr_t.cov_samples, tr_h.cov_samples)
    )
    assert np.array_equal(tr_t.outcomes, tr_h.outcomes)
    # absorption bookkeeping composes exactly
    slices25 = sq.SliceConfig.split(25, NOISY, per_slice_epsilon=0.028)
    sc25 = sq.build_thick(slices25, tau=5e-8, t_end=1e-6)
    chained = 1.0 - 1.0 / (
        1 / sc25.phases[0].groups[-1].transmission * math.exp(0.028)
    )
    target = 1.0 - math.exp(-25 * 0.028)
    assert abs(chained - target) < 1e-12
    assert abs(slices25.total_absorption() - target) < 1e-12
    # deeper stacks squeeze less at fixed collective coupling
    minima = []
    for n in (1, 4, 8, 13, 25, 50):
        slices = sq.SliceConfig.split(n, NOISY, per_slice_epsilon=0.028)
        sc = sq.build_thick(slices, tau=5e-8, t_end=2.5e-3, sample_every=2000)
        ts, _ = sq.run(sc, seed=0)
        minima.append(float(np.min(ts.columns["min_eig_var"])))
    assert all(b > a for a, b in zip(minima, minima[1:])), minima
    print(f"[criterion 6] PASS: single slice bit-matches homogeneous; total "
          f"absorption matches 1-exp(-sum eps) to 1e-12; squeezing minima "
          f"increase monotonically over stack depth: "
          + ", ".join(f"{m:.3e}" for m in minima))


def test_criterion_7_estimation():
    """Squeeze / rotate / probe protocol against its conditioning limits."""
    # (a) single sample, noiseless: full posterior curve
    est = EstimationParams(t1=2e-4, t2=2.5e-4, alpha=30.0, var_theta0=0.5)
    sc = sq.build_estimation(NOISELESS, est, tau=TAU, t_end=4.5e-4,
                             sample_every=200)
    ts, _ = sq.run(sc, seed=0)
    vp1 = var_p_noiseless(est.t1, KAPPA_SQ)
    cov_t2 = rotated_covariance(est.var_theta0, 0.25 / vp1, vp1, est.alpha)
    probing = ts.times > est.t2
    ref = var_theta_curve(ts.times[probing], cov_t2, KAPPA_SQ, t2=est.t2)
    curve_err = np.max(np.abs(ts.columns["var_theta"][probing] - ref) / ref)
    assert curve_err < 0.01, f"posterior curve off by {curve_err:.2%}"

    # (b) long-time limit
    est_b = EstimationParams(t1=2e-5, t2=3e-5, alpha=3.0, var_theta0=0.5)
    sc_b = sq.build_estimation(NOISELESS, est_b, tau=5e-8, t_end=5e-3,
                               sample_every=5000)
    ts_b, _ = sq.run(sc_b, seed=0)
    vp1_b = var_p_noiseless(est_b.t1, KAPPA_SQ)
    limit = var_theta_limit(vp1_b, est_b.alpha, est_b.var_theta0)
    limit_err = abs(ts_b.columns["var_theta"][-1] - limit) / limit
    assert limit_err < 0.01, f"long-time value off by {limit_err:.2%}"

    # (c) coupling-spread sweep: indistinguishable posteriors converging to
    # the probed-variable limit, below the symmetric-variable prediction.
    # Lever arms track the slice couplings (atom-number-driven spread) with
    # root-mean-square 0.2236; a large prior puts the protocol in the
    # strong-lever regime where the simplified limit applies.
    t1, t2 = 2e-6, 3e-6
    t_end = t2 + 2e-3
    var_theta0 = 50.0
    vp1_c = var_p_noiseless(t1, KAPPA_SQ)
    finals = {}
    curves = []
    deltas = (0.0, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5)
    for delta in deltas:
        spread = sq.SpreadSpec(kappa0_sq=KAPPA_SQ, delta=delta)
        ksq = spread.slice_kappas_sq(10)
        kap = np.sqrt(ksq)
        alphas = 0.2236 * kap / math.sqrt(float(np.mean(ksq)))
        est_c = EstimationParams(t1=t1, t2=t2, alphas=tuple(alphas),
                                 var_theta0=var_theta0)
        sc_c = sq.build_estimation((spread, 10, NOISELESS), est_c, tau=TAU,
                                   t_end=t_end, sample_every=2000)
        ts_c, _ = sq.run(sc_c, seed=0)
        curves.append(ts_c.columns["var_theta"])
        eq_eff = var_theta_inhom(vp1_c, kap, alphas)
        a, _, _ = collective_decomposition(kap)
        eq_sym = var_theta_inhom_symmetric(var_symmetric(vp1_c, a), alphas)
        finals[delta] = (float(ts_c.columns["var_theta"][-1]), eq_eff, eq_sym)
    stack = np.vstack(curves)
    coincide = np.max(
        (stack.max(axis=0) - stack.min(axis=0)) / stack.min(axis=0)
    )
    assert coincide < 0.01, f"spread curves differ by {coincide:.2%}"
    eff_errs = [abs(v - eq) / eq for v, eq, _ in finals.values()]
    assert max(eff_errs) < 0.01, f"probed-variable limit off by {max(eff_errs):.2%}"
    for delta in deltas[1:]:
        v, _, eq_sym = finals[delta]
        assert v < eq_sym, f"delta={delta}: {v} not below symmetric prediction {eq_sym}"

    # (d) precision gain from pre-squeezing
    est_s = EstimationParams(t1=2e-5, t2=3e-5, alpha=30.0, var_theta0=0.5)
    est_ns = EstimationParams(t1=0.0, t2=1e-5, alpha=30.0, var_theta0=0.5)
    ts_s, _ = sq.run(sq.build_estimation(NOISELESS, est_s, tau=5e-8,
                                         t_end=4e-3, sample_every=5000), seed=0)
    ts_ns, _ = sq.run(sq.build_estimation(NOISELESS, est_ns, tau=5e-8,
                                          t_end=4e-3, sample_every=5000), seed=0)
    ns_limit = var_theta_limit(0.5, est_ns.alpha, est_ns.var_theta0)
    ns_err = abs(ts_ns.columns["var_theta"][-1] - ns_limit) / ns_limit
    assert ns_err < 0.01, f"unsqueezed limit off by {ns_err:.2%}"
    ratio = ts_s.columns["var_theta"][-1] / ts_ns.columns["var_theta"][-1]
    predicted = 2.0 * var_p_noiseless(est_s.t1, KAPPA_SQ)
    gain_err = abs(ratio - predicted) / predicted
    assert gain_err < 0.02, f"gain ratio off by {gain_err:.2%}"
    print(f"[criterion 7] PASS: posterior curve within {curve_err:.2e}; "
          f"long-time limit within {limit_err:.2%} (<1%); {len(deltas)} spread "
          f"curves within {coincide:.2%} (<1%), probed-variable limit within "
          f"{max(eff_errs):.2%} (<1%), all below the symmetric prediction; "
          f"gain ratio within {gain_err:.2%} (<2%)")


def test_criterion_8_classical_conditioning_oracle():
    """Long-time limit equals direct 2-D Gaussian conditioning."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        var_theta0 = rng.uniform(1e-3, 3.0)
        var_p = rng.uniform(1e-5, 0.5)
        alpha = rng.uniform(0.0, 100.0)
        a = var_theta_limit(var_p, alpha, var_theta0)
        b = gaussian_condition_2d(var_theta0, var_p, alpha)
        worst = max(worst, abs(a - b) / b)
    assert worst < 1e-12
    print(f"[criterion 8] PASS: conditioning oracle agrees to {worst:.2e} "
          f"(<1e-12) over 100 random parameter points")


def test_criterion_9_rate_derivation():
    """Laboratory parameters reproduce the preset operating point.

    Convention report: the detuning is read as an angular frequency
    (2 pi x 10 GHz).  The default quarter-maximum Lorentzian reproduces the
    coupling and decay rates; the published absorbed fraction additionally
    uses the far-detuned form for epsilon (four times larger), so both
    documented forms are exercised under the single detuning convention.
    """
    p = cesium_d1_params()
    base = derive_rates(p)
    far = derive_rates(p, form="far_detuned")
    k_err = abs(base.kappa_sq - KAPPA_SQ) / KAPPA_SQ
    e_err_base = abs(base.eta - ETA) / ETA
    eps_err_far = abs(far.epsilon - EPSILON) / EPSILON
    assert k_err < 0.20, f"kappa_sq off by {k_err:.2%}"
    assert e_err_base < 0.20, f"eta off by {e_err_base:.2%}"
    assert eps_err_far < 0.20, f"epsilon off by {eps_err_far:.2%}"
    print(f"[criterion 9] PASS: angular detuning 2*pi*10 GHz gives kappa_sq "
          f"{base.kappa_sq:.4g} ({k_err:.2%} off), eta {base.eta:.5g} "
          f"({e_err_base:.2%} off, quarter-Lorentzian), epsilon "
          f"{far.epsilon:.4g} ({eps_err_far:.2%} off, far-detuned form); "
          f"all within 20%")
