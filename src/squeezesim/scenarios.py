"""Scenario builders and the production run loop.

A Scenario is an immutable plan: an initial state, an ordered list of
phases, and the observables to sample.  Probe phases advance the state one
beam segment at a time (couple, damp, inject noise, detect); a rotation
phase applies the unknown-angle displacement as a single impulse, since the
dark interval has no other dynamics.

A probe phase holds ProbeGroups, each no more than the slices it couples
and their rates: the coupling kappa^2 and decay rate eta each slice sees,
the group's absorption epsilon and the transmission of the beam reaching
it.  The probe pair is fresh vacuum at the start of every step and spent
at its end, so the runner never stores it: each probe phase folds its
groups' rates into one BeamSegment (cached per scenario in
Scenario.segments), a map of the atomic block followed by a rank-1 Kalman
update for the detection.  The probe reads only theta and the p rows, and
the map never couples them to the x rows, so the runner keeps two blocks:
the read block takes the Kalman update every step, and the unread x block
advances once per chunk of steps in closed form.  Every scenario runs
through that one path, so the single-slice homogeneous run and the
one-slice limit of the sliced (thick) run execute identical arithmetic.
The tests check it against dense operators built from the same rates with
the light pair carried explicitly.

Per-step time dependence uses exponential factors frozen at the step start:
couplings shrink as exp(-eta t / 2) while the mean spin decays, the atomic
noise floor grows as exp(+eta t), and inside an absorbing stack each slice
sees the beam attenuated by the slices in front of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analytic import CollectiveVariable, EstimationParams, rotation_coupling
from .errors import (
    ConfigError,
    DegenerateCovarianceError,
    InvalidInputError,
    require_finite,
)
from .gaussian_core import (
    CHI_STD,
    GaussianState,
    TimeSeries,
    TrajectoryRecord,
    _impulse_inplace,
    standard_labels,
    vacuum_state,
)
from .numerics import sym_eig_all
from .physics import CouplingRates

#: Per-segment coupling validity bound: kappa^2 * tau must not exceed this.
KAPPA_TAU_SQ_MAX = 0.1
#: Per-slice absorption bound for the segment-local coupling to hold.
SLICE_EPSILON_MAX = 0.05

NAMED_OBSERVABLES = (
    "var_p",
    "min_eig_var",
    "min_eig_overlap",
    "var_P_eff",
    "var_P",
    "var_theta",
    "mean_theta",
)


@dataclass(frozen=True)
class SpreadSpec:
    """Deterministic spread of slice couplings at fixed collective strength.

    ``n`` values are laid out over [kappa0_sq (1 - delta), kappa0_sq
    (1 + delta)] -- an evenly spaced inclusive grid by default, uniform
    random draws with ``mode="random"`` -- then rescaled so the summed
    squared coupling equals kappa0_sq exactly.  The collective coupling
    therefore stays fixed while its spread grows with delta.
    """

    kappa0_sq: float
    delta: float
    mode: str = "grid"

    def __post_init__(self):
        require_finite(kappa0_sq=self.kappa0_sq, delta=self.delta)
        if self.kappa0_sq <= 0:
            raise InvalidInputError("kappa0_sq must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidInputError("delta must lie in [0, 1)")
        if self.mode not in ("grid", "random"):
            raise InvalidInputError("mode must be 'grid' or 'random'")

    def slice_kappas_sq(self, n: int, rng=None) -> np.ndarray:
        """Per-slice squared couplings, summing to kappa0_sq exactly."""
        if n < 1:
            raise InvalidInputError("need at least one slice")
        if n == 1 or self.delta == 0.0:
            raw = np.full(n, self.kappa0_sq)
        elif self.mode == "grid":
            raw = self.kappa0_sq * (1.0 + self.delta * np.linspace(-1.0, 1.0, n))
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            raw = self.kappa0_sq * (1.0 + self.delta * rng.uniform(-1.0, 1.0, n))
        return raw * (self.kappa0_sq / float(np.sum(raw)))


@dataclass(frozen=True)
class SliceConfig:
    """Per-slice parameters of a sliced (optically thick) sample.

    kappas_sq and etas are the rates each slice would have under an
    unattenuated beam; epsilons are per-slice absorption probabilities,
    each small enough for the segment-local coupling to be valid.
    """

    n_slices: int
    kappas_sq: np.ndarray
    etas: np.ndarray
    epsilons: np.ndarray
    atoms_per_slice: float = 0.0

    def __post_init__(self):
        require_finite(atoms_per_slice=self.atoms_per_slice)
        if self.n_slices < 1:
            raise InvalidInputError("need at least one slice")
        for name in ("kappas_sq", "etas", "epsilons"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.n_slices,):
                raise InvalidInputError(
                    f"{name} must have one entry per slice ({self.n_slices})"
                )
            require_finite(**{name: v})
            if np.any(v < 0):
                raise InvalidInputError(f"{name} entries must be nonnegative")
            object.__setattr__(self, name, v)
        if np.any(self.epsilons > SLICE_EPSILON_MAX):
            raise InvalidInputError(
                f"per-slice absorption must not exceed {SLICE_EPSILON_MAX}"
            )

    @classmethod
    def split(
        cls,
        n: int,
        rates: CouplingRates,
        per_slice_epsilon: float | None = None,
        atoms_per_slice: float = 0.0,
    ):
        """Divide one sample into n equal slices at fixed collective coupling.

        The summed coupling stays rates.kappa_sq (each slice carries 1/n of
        the atoms); the per-atom decay rate is intensity-set and stays
        rates.eta in every slice.  ``per_slice_epsilon`` is the absorption
        each slice inflicts on the beam (defaults to rates.epsilon), so the
        stack's total absorption grows with n.
        """
        eps = rates.epsilon if per_slice_epsilon is None else per_slice_epsilon
        return cls(
            n_slices=n,
            kappas_sq=np.full(n, rates.kappa_sq / n),
            etas=np.full(n, rates.eta),
            epsilons=np.full(n, eps),
            atoms_per_slice=atoms_per_slice,
        )

    def total_absorption(self) -> float:
        """Absorbed beam fraction through the whole stack, 1 - prod(e^-eps)."""
        transmission = 1.0
        for e in self.epsilons:
            transmission *= math.exp(-float(e))
        return 1.0 - transmission


@dataclass(frozen=True)
class ProbeGroup:
    """One simultaneous coupling of a set of slices to the light.

    ``ax_rows`` are the x-variable indices of the coupled slices (each
    slice's p variable follows its x).  ``kappas_sq`` and ``etas`` are the
    coupling and decay rate each slice sees at the start of probing,
    ``epsilon`` the absorption the group inflicts on the beam, and
    ``transmission`` the fraction of the beam intensity that reaches it,
    which amplifies the photon noise the group adds by 1 / transmission.
    """

    ax_rows: np.ndarray
    kappas_sq: np.ndarray
    etas: np.ndarray
    epsilon: float = 0.0
    transmission: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ax_rows", np.asarray(self.ax_rows, dtype=int))
        for name in ("kappas_sq", "etas"):
            v = np.asarray(getattr(self, name), dtype=float)
            require_finite(**{name: v})
            if v.shape != self.ax_rows.shape:
                raise InvalidInputError(
                    f"{name} must have one entry per row in ax_rows"
                )
            if np.any(v < 0):
                raise InvalidInputError(f"{name} entries must be nonnegative")
            object.__setattr__(self, name, v)
        require_finite(epsilon=self.epsilon, transmission=self.transmission)
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie in [0, 1)")
        if not 0.0 < self.transmission <= 1.0:
            raise InvalidInputError("transmission must lie in (0, 1]")


def _block_rows(m: int) -> tuple[slice, slice]:
    """(read, unread) rows of an m-variable atomic block, as strided slices.

    The read rows are theta (present when m is odd) and the p rows, the
    unread rows the x rows.
    """
    return slice(1 - m % 2, m, 2), slice(m % 2, m, 2)


#: Most steps one chunk of the runner covers.
CHUNK_STEPS = 1024
#: Most entries of one per-step chunk array (steps x block width).
CHUNK_ELEMENTS = 8192
#: The read block runs in loss-scaled coordinates, whose noise grows by up
#: to growth / loss**2 per step; a chunk keeps that below exp(LOSS_SCALE_LOG).
LOSS_SCALE_LOG = 230.0


@dataclass(frozen=True)
class BlockMap:
    """The part of a segment map acting on one block of the atomic rows.

    ``rows`` slices the block out of the atomic layout.  ``loss``, ``noise0``
    and ``growth`` are its diagonals; ``coupling0`` is the read-out h on the
    read block and the back-action w on the unread block, and it shrinks by
    ``decay`` per step.  Diagonals that would leave the state unchanged are
    None.
    """

    rows: slice
    loss: np.ndarray | None
    noise0: np.ndarray | None
    growth: np.ndarray | None
    coupling0: np.ndarray
    decay: np.ndarray | None

    @classmethod
    def take(cls, rows, loss, noise, growth, coupling, decay) -> "BlockMap":
        def part(v, neutral):
            sub = v[rows]
            return None if np.all(sub == neutral) else sub

        return cls(rows, part(loss, 1.0), part(noise, 0.0), part(growth, 1.0),
                   coupling[rows], part(decay, 1.0))


@dataclass(frozen=True)
class BeamSegment:
    """One beam segment as a map of the atomic block (theta included).

    The probe pair enters every step as vacuum and leaves after it, so a
    segment crossing a phase's groups in order acts on the atomic
    covariance gamma and means a as

        gamma -> (D D^T) o gamma + diag(q) + (w w^T) o S,   a -> D o a,

    where o is the entrywise product.  D is the loss diagonal and q the
    atomic noise.  w carries the back-action of the probe momentum on the x
    rows: the slice loss times its coupling times the light transmission
    in front of it.  S[i, j] is the normalized variance of that momentum in
    front of whichever of the two slices the beam reaches first, built from
    the light's losses and the noise each slice adds to it; it is one
    everywhere for a thin sample and stored as None then.  The detected
    quadrature is x_ph = h . a + noise of covariance ``shot``, where h is
    the coupling on the p rows times the light transmission from the slice
    onward, and a detection conditions on it with one rank-1 (Kalman)
    update.

    h vanishes on the x rows, w on theta and the p rows, and D and q are
    diagonal, so the map never couples the read block (theta and the p
    rows) to the unread block (the x rows).  It is stored split that way:
    ``read`` and ``unread`` are the two BlockMaps and ``spread`` is S on the
    unread block.  At step k of the phase w and h carry decay**k and q
    carries growth**k; S and ``shot`` are fixed.  ``chunk_steps`` caps the
    steps the runner advances at once.
    """

    read: BlockMap
    unread: BlockMap
    spread: np.ndarray | None
    shot: float
    kappas0: np.ndarray
    slice_decay: np.ndarray
    chunk_steps: int

    @classmethod
    def compose(cls, groups, m: int, tau: float, t_start: float = 0.0):
        """Fold groups, applied in beam order, into one segment map.

        ``m`` is the size of the atomic block and ``t_start`` the time the
        phase begins.  At time t a slice with rates (kappa^2, eta) couples
        with sqrt(kappa^2 tau) exp(-eta t / 2) and damps its two rows by
        sqrt(1 - eta tau) while feeding them noise 2 eta tau exp(eta t); a
        group damps the light by sqrt(1 - epsilon) and adds epsilon /
        transmission of noise to it.  Each group may couple only x rows
        (with their p rows), each slice at most once, and eta tau must stay
        below one.
        """
        read, unread = _block_rows(m)
        x_rows = np.arange(m)[unread]
        loss = np.ones(m)
        noise = np.zeros(m)
        growth = np.ones(m)
        back = np.zeros(m)
        readout = np.zeros(m)
        decay = np.ones(m)
        level = np.ones(m)
        coupled = np.zeros(m, dtype=bool)
        kappas0 = []
        slice_decay = []
        shot = 1.0  # variance of each light quadrature, group by group
        trans_p = 1.0
        for i, g in enumerate(groups):
            ax = g.ax_rows
            if not np.all(np.isin(ax, x_rows)):
                raise InvalidInputError(f"group {i} couples rows that are not x rows")
            if np.any(coupled[ax]):
                raise InvalidInputError(f"group {i} couples a slice already coupled")
            coupled[ax] = True
            eta_tau = g.etas * tau
            if np.any(eta_tau >= 1.0):
                raise InvalidInputError(f"group {i}: eta * tau must be below 1")
            k0 = np.sqrt(g.kappas_sq * tau) * np.exp(-g.etas * t_start / 2.0)
            k_decay = np.exp(-eta_tau / 2.0)
            loss[ax] = loss[ax + 1] = np.sqrt(1.0 - eta_tau)
            noise[ax] = noise[ax + 1] = 2.0 * eta_tau * np.exp(g.etas * t_start)
            growth[ax] = growth[ax + 1] = np.exp(eta_tau)
            back[ax] = loss[ax] * k0 * trans_p
            level[ax] = shot / (trans_p * trans_p)
            decay[ax] = decay[ax + 1] = k_decay
            readout[ax + 1] = k0
            light = math.sqrt(1.0 - g.epsilon)
            readout *= light
            shot = light * light * shot + g.epsilon / g.transmission
            trans_p *= light
            kappas0.append(k0)
            slice_decay.append(k_decay)
        read_map = BlockMap.take(read, loss, noise, growth, readout, decay)
        width = max(len(read_map.coupling0), len(x_rows))
        steps = min(CHUNK_STEPS, max(1, CHUNK_ELEMENTS // width))
        if read_map.loss is not None:
            rate = -2.0 * math.log(float(np.min(read_map.loss)))
            if read_map.growth is not None:
                rate += math.log(float(np.max(read_map.growth)))
            steps = max(1, min(steps, int(LOSS_SCALE_LOG / rate)))
        level = level[unread]
        return cls(
            read=read_map,
            unread=BlockMap.take(unread, loss, noise, growth, back, decay),
            spread=None if np.all(level == 1.0) else np.minimum.outer(level, level),
            shot=shot,
            kappas0=np.concatenate(kappas0 or [np.empty(0)]),
            slice_decay=np.concatenate(slice_decay or [np.empty(0)]),
            chunk_steps=steps,
        )

    def kappas_at(self, k: int) -> np.ndarray:
        """Per-slice couplings in effect at step index k of the phase."""
        return self.kappas0 * self.slice_decay**k


#: Relative tolerance within which a phase duration must be a whole number
#: of steps.
WHOLE_STEPS_RTOL = 1e-9


@dataclass(frozen=True)
class ProbePhase:
    """A stretch of continuous probing: one beam segment per step of tau.

    Groups are applied in order within each step (a single group for a
    thin sample, one group per slice for a stack the beam crosses
    sequentially); the spent segment is then measured, or traced out when
    ``measure`` is off.  The duration must be a whole number of steps.
    ``t_start`` is the time the groups' rates refer back to: the phase
    resumes with the couplings and noise floors they reached by then.
    """

    duration: float
    tau: float
    groups: tuple
    measure: bool = True
    t_start: float = 0.0

    def __post_init__(self):
        require_finite(duration=self.duration, tau=self.tau, t_start=self.t_start)
        if self.tau <= 0:
            raise InvalidInputError("tau must be positive")
        if self.duration < 0:
            raise InvalidInputError("duration must be nonnegative")
        ratio = self.duration / self.tau
        if abs(ratio - round(ratio)) > WHOLE_STEPS_RTOL * max(ratio, 1.0):
            raise InvalidInputError(
                f"duration {self.duration!r} is not a whole number of steps "
                f"of tau = {self.tau!r} ({ratio!r} steps)"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.tau))


@dataclass(frozen=True)
class RotationPhase:
    """Impulsive displacement p_i -> p_i + alpha_i * theta.

    The dark interval [t1, t2] has no other dynamics, so the accumulated
    rotation is applied as one transform and the duration only advances the
    clock.
    """

    duration: float
    targets: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=int))
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        require_finite(duration=self.duration, alphas=self.alphas)
        if self.duration < 0:
            raise InvalidInputError("duration must be nonnegative")

    @property
    def n_steps(self) -> int:
        return 0


@dataclass(frozen=True)
class Scenario:
    """Executable plan: initial state, phases, observables, sampling."""

    initial_state: GaussianState
    phases: tuple
    observables: tuple
    sample_every: int = 1000
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sample_every < 1:
            raise InvalidInputError("sample_every must be >= 1")
        for obs in self.observables:
            if isinstance(obs, str) and obs not in NAMED_OBSERVABLES:
                raise InvalidInputError(
                    f"unknown observable {obs!r}; expected one of "
                    f"{NAMED_OBSERVABLES} or a CollectiveVariable"
                )

    @property
    def total_steps(self) -> int:
        return sum(p.n_steps for p in self.phases)

    @cached_property
    def blocks(self) -> tuple:
        """The initial state as the runner splits it, checked once.

        (read covariance, read means, unread covariance, unread means) of
        the atomic block, the probe pair dropped; see run.  Refuses a probe
        pair that is not fresh vacuum, a state that correlates the x rows
        with the p rows or theta, and a rotation other than a shear of p
        rows by theta: the split cannot represent them.
        """
        state = self.initial_state
        dim = state.dim
        m = dim - 2
        if not (np.array_equal(state.cov[m:], np.eye(dim)[m:])
                and not np.any(state.mean[m:])):
            raise InvalidInputError("the initial probe pair must be fresh vacuum")
        read, unread = _block_rows(m)
        cov = state.cov[:m, :m]
        if np.any(cov[read, unread]) or np.any(cov[unread, read]):
            raise InvalidInputError(
                "the initial state correlates x rows with p rows or theta"
            )
        read_rows = np.arange(m)[read]
        for phase in self.phases:
            if isinstance(phase, RotationPhase) and not (
                    m % 2 and np.all(np.isin(phase.targets, read_rows))):
                raise InvalidInputError(
                    "a rotation must shear p rows or theta by a theta variable"
                )
        cov_r, cov_u = cov[read, read], cov[unread, unread]
        return ((cov_r + cov_r.T) / 2.0, state.mean[read],
                (cov_u + cov_u.T) / 2.0, state.mean[unread])

    @cached_property
    def segments(self) -> tuple:
        """One BeamSegment per probe phase, None for a rotation."""
        m = self.initial_state.dim - 2
        return tuple(
            BeamSegment.compose(p.groups, m, p.tau, p.t_start)
            if isinstance(p, ProbePhase) else None
            for p in self.phases
        )

    @cached_property
    def sampler(self) -> "_Sampler":
        """The observables' evaluator, built once per scenario."""
        return _Sampler(self, self.initial_state)

    @property
    def duration(self) -> float:
        return sum(p.duration for p in self.phases)


def _check_validity(kappa_sq_max: float, tau: float):
    if kappa_sq_max * tau > KAPPA_TAU_SQ_MAX + 1e-15:
        raise ConfigError(
            f"kappa^2 * tau = {kappa_sq_max * tau:.4g} exceeds the "
            f"coarse-graining validity bound {KAPPA_TAU_SQ_MAX}; reduce tau"
        )


def _check_thin_epsilon(epsilon: float):
    if epsilon > SLICE_EPSILON_MAX:
        raise ConfigError(
            f"single-pass absorption {epsilon} is not small; slice the gas "
            "with build_thick instead"
        )


def _thin_groups(
    kappas_sq: np.ndarray, etas: np.ndarray, epsilon: float, offset: int
) -> tuple[ProbeGroup, ...]:
    """Single group: every slice couples to the beam segment simultaneously."""
    ax_rows = offset + 2 * np.arange(len(kappas_sq))
    return (ProbeGroup(ax_rows, kappas_sq, etas, epsilon),)


def _thick_groups(slices: SliceConfig, offset: int) -> tuple[ProbeGroup, ...]:
    """One group per slice, in beam order, with entering-beam attenuation.

    Slice i sees the beam attenuated by the slices in front of it: its
    coupling and decay rate carry the accumulated transmission of the
    upstream slices, and the photon noise it adds is amplified by the
    inverse factor.  The transmission is accumulated multiplicatively slice
    by slice, so the stack's bookkeeping composes exactly.
    """
    groups = []
    transmission = 1.0
    for i, eps in enumerate(slices.epsilons.tolist()):
        row = slice(i, i + 1)
        groups.append(ProbeGroup(
            [offset + 2 * i], slices.kappas_sq[row] * transmission,
            slices.etas[row] * transmission, eps, transmission,
        ))
        transmission *= math.exp(-eps)
    return tuple(groups)


def build_homogeneous(
    rates: CouplingRates,
    tau: float,
    t_end: float,
    sample_every: int = 1000,
    measure: bool = True,
) -> Scenario:
    """Uniformly coupled ensemble probed and detected segment by segment."""
    _check_validity(rates.kappa_sq, tau)
    _check_thin_epsilon(rates.epsilon)
    state = vacuum_state(standard_labels(1))
    groups = _thin_groups(
        np.array([rates.kappa_sq]), np.array([rates.eta]), rates.epsilon, offset=0
    )
    phase = ProbePhase(duration=t_end, tau=tau, groups=groups, measure=measure)
    return Scenario(
        initial_state=state,
        phases=(phase,),
        observables=("var_p",),
        sample_every=sample_every,
        meta={
            "scenario": "homogeneous",
            "kappa_sq": rates.kappa_sq,
            "eta": rates.eta,
            "epsilon": rates.epsilon,
            "tau": tau,
            "t_end": t_end,
        },
    )


def build_thin_inhomogeneous(
    spread: SpreadSpec,
    n: int,
    rates: CouplingRates,
    tau: float,
    t_end: float,
    sample_every: int = 1000,
    eta_mode: str = "uniform",
    rng=None,
) -> Scenario:
    """Transversally inhomogeneous thin sample: n slices, one beam pass.

    Slice couplings come from ``spread`` (their squares sum to
    spread.kappa0_sq exactly); ``rates`` supplies the decay rate and the
    single-pass absorption.  The default gives every slice the same decay
    rate, which keeps the most-squeezed variance independent of the spread
    delta at fixed collective coupling; ``eta_mode="intensity"`` instead
    scales each slice's decay with its local intensity,
    eta_i = eta0 * kappa_i^2 / mean(kappa^2), which shifts the squeezing
    floor upward by roughly delta^2/3 in relative terms.
    """
    if eta_mode not in ("intensity", "uniform"):
        raise InvalidInputError("eta_mode must be 'intensity' or 'uniform'")
    _check_validity(spread.kappa0_sq, tau)
    _check_thin_epsilon(rates.epsilon)
    kappas_sq = spread.slice_kappas_sq(n, rng=rng)
    if eta_mode == "intensity":
        etas = rates.eta * kappas_sq / float(np.mean(kappas_sq))
    else:
        etas = np.full(n, rates.eta)
    state = vacuum_state(standard_labels(n))
    groups = _thin_groups(kappas_sq, etas, rates.epsilon, offset=0)
    phase = ProbePhase(duration=t_end, tau=tau, groups=groups)
    return Scenario(
        initial_state=state,
        phases=(phase,),
        observables=("min_eig_var", "min_eig_overlap", "var_P_eff", "var_P"),
        sample_every=sample_every,
        meta={
            "scenario": "thin_inhomogeneous",
            "n_slices": n,
            "delta": spread.delta,
            "spread_mode": spread.mode,
            "kappa0_sq": spread.kappa0_sq,
            "slice_kappas_sq": kappas_sq.tolist(),
            "slice_etas": etas.tolist(),
            "eta_mode": eta_mode,
            "epsilon": rates.epsilon,
            "tau": tau,
            "t_end": t_end,
        },
    )


def build_thick(
    slices: SliceConfig,
    tau: float,
    t_end: float,
    sample_every: int = 2000,
) -> Scenario:
    """Optically thick sample: each segment crosses the slices in order.

    The covariance is updated slice by slice as the segment advances; the
    segment is detected only after leaving the last slice.  A single slice
    reproduces the homogeneous scenario exactly.
    """
    _check_validity(float(np.max(slices.kappas_sq)), tau)
    state = vacuum_state(standard_labels(slices.n_slices))
    groups = _thick_groups(slices, offset=0)
    phase = ProbePhase(duration=t_end, tau=tau, groups=groups)
    return Scenario(
        initial_state=state,
        phases=(phase,),
        observables=("min_eig_var", "var_P_eff"),
        sample_every=sample_every,
        meta={
            "scenario": "thick",
            "n_slices": slices.n_slices,
            "slice_kappas_sq": np.asarray(slices.kappas_sq).tolist(),
            "slice_etas": np.asarray(slices.etas).tolist(),
            "slice_epsilons": np.asarray(slices.epsilons).tolist(),
            "total_absorption": slices.total_absorption(),
            "tau": tau,
            "t_end": t_end,
        },
    )


def build_estimation(
    base,
    est: EstimationParams,
    tau: float,
    t_end: float,
    sample_every: int = 500,
    eta_mode: str = "uniform",
    atoms_per_slice: float | None = None,
    rng=None,
) -> Scenario:
    """Squeeze, rotate by an unknown angle, then probe the angle.

    ``base`` selects the probing configuration: CouplingRates for a single
    homogeneous sample, (SpreadSpec, n, CouplingRates) for a thin
    inhomogeneous sample, or a SliceConfig for a thick stack.  The angle is
    adjoined as a leading variable with prior variance est.var_theta0 and
    mean est.theta_true; probing for t > t2 resumes with the couplings and
    noise floors the squeezing phase reached at t1.
    """
    if est.t2 < est.t1:
        raise InvalidInputError("t2 must not precede t1")
    if t_end <= est.t2:
        raise InvalidInputError("t_end must exceed t2")

    if isinstance(base, CouplingRates):
        _check_validity(base.kappa_sq, tau)
        _check_thin_epsilon(base.epsilon)
        n = 1
        groups = _thin_groups(
            np.array([base.kappa_sq]), np.array([base.eta]), base.epsilon, offset=1
        )
        base_meta = {"base_scenario": "homogeneous", "kappa_sq": base.kappa_sq,
                     "eta": base.eta, "epsilon": base.epsilon}
    elif isinstance(base, SliceConfig):
        _check_validity(float(np.max(base.kappas_sq)), tau)
        n = base.n_slices
        groups = _thick_groups(base, offset=1)
        base_meta = {"base_scenario": "thick", "n_slices": n,
                     "slice_epsilons": base.epsilons.tolist()}
        if atoms_per_slice is None and base.atoms_per_slice:
            atoms_per_slice = base.atoms_per_slice
    else:
        try:
            spread, n, rates = base
        except (TypeError, ValueError):
            raise InvalidInputError(
                "base must be CouplingRates, SliceConfig, or "
                "(SpreadSpec, n, CouplingRates)"
            ) from None
        _check_validity(spread.kappa0_sq, tau)
        _check_thin_epsilon(rates.epsilon)
        kappas_sq = spread.slice_kappas_sq(n, rng=rng)
        if eta_mode == "intensity":
            etas = rates.eta * kappas_sq / float(np.mean(kappas_sq))
        else:
            etas = np.full(n, rates.eta)
        groups = _thin_groups(kappas_sq, etas, rates.epsilon, offset=1)
        base_meta = {"base_scenario": "thin_inhomogeneous", "n_slices": n,
                     "delta": spread.delta, "spread_mode": spread.mode,
                     "kappa0_sq": spread.kappa0_sq, "eta_mode": eta_mode,
                     "slice_kappas_sq": kappas_sq.tolist(),
                     "slice_etas": etas.tolist(), "epsilon": rates.epsilon}

    # effective decay rates inside the stack, for the lever-arm default
    if est.alphas is not None:
        alphas = np.asarray(est.alphas, dtype=float)
        if alphas.shape != (n,):
            raise InvalidInputError(f"alphas must have one entry per slice ({n})")
    elif est.alpha is not None:
        alphas = np.full(n, float(est.alpha))
    elif atoms_per_slice:
        probe_etas = np.concatenate([g.etas for g in groups])
        alphas = np.array(
            [
                rotation_coupling(atoms_per_slice, float(probe_etas[i]), est.t1)
                for i in range(n)
            ]
        )
    else:
        raise InvalidInputError(
            "rotation lever arms undetermined: give alphas/alpha or atoms_per_slice"
        )

    state = vacuum_state(standard_labels(n, theta=True), est.var_theta0)
    mean = state.mean.copy()
    mean[0] = est.theta_true
    state = GaussianState(state.labels, mean, state.cov)
    squeeze = ProbePhase(duration=est.t1, tau=tau, groups=groups)
    rotation = RotationPhase(
        duration=est.t2 - est.t1,
        targets=2 + 2 * np.arange(n),
        alphas=alphas,
    )
    probe = ProbePhase(duration=t_end - est.t2, tau=tau, groups=groups,
                       t_start=est.t1)
    meta = dict(base_meta)
    meta.update(
        {
            "scenario": "estimation",
            "t1": est.t1,
            "t2": est.t2,
            "t_end": t_end,
            "tau": tau,
            "var_theta0": est.var_theta0,
            "theta_true": est.theta_true,
            "alphas": alphas.tolist(),
        }
    )
    return Scenario(
        initial_state=state,
        phases=(squeeze, rotation, probe),
        observables=("var_theta", "mean_theta", "var_P_eff"),
        sample_every=sample_every,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Runner


class _Sampler:
    """Computes the requested observables from the working state."""

    def __init__(self, scenario: Scenario, state: GaussianState):
        self.obs = scenario.observables
        self.atom_slice = state.atom_slice
        self.n_pairs = state.n_pairs
        n = self.n_pairs
        self.p_rows_local = 2 * np.arange(n) + 1
        self.sym = np.full(n, 1.0 / math.sqrt(n))
        self.need_eig = any(
            o in ("min_eig_var", "min_eig_overlap") for o in self.obs
        )
        self.need_vectors = "min_eig_overlap" in self.obs
        if ("var_theta" in self.obs or "mean_theta" in self.obs) and not state.has_theta:
            raise InvalidInputError("theta observables need a theta variable")

    def row(self, cov, mean, kappa_weights) -> tuple:
        block = cov[self.atom_slice, self.atom_slice]
        p = self.p_rows_local
        eig_val = eig_vec = None
        if self.need_eig:
            w, v = sym_eig_all(block, vectors=self.need_vectors)
            i = int(np.argmin(w))
            eig_val = float(w[i]) / 2.0
            if self.need_vectors:
                eig_vec = v[:, i]
        weights = None
        if kappa_weights is not None and len(kappa_weights):
            nrm = float(np.linalg.norm(kappa_weights))
            if nrm > 0:
                weights = kappa_weights / nrm
        out = []
        for o in self.obs:
            if isinstance(o, CollectiveVariable):
                c = o.coefficients
                out.append(float(c @ block @ c) / 2.0)
            elif o == "var_p":
                out.append(float(block[1, 1]) / 2.0)
            elif o == "min_eig_var":
                out.append(eig_val)
            elif o == "min_eig_overlap":
                if weights is None:
                    out.append(float("nan"))
                else:
                    full = np.zeros(2 * self.n_pairs)
                    full[p] = weights
                    out.append(abs(float(eig_vec @ full)))
            elif o == "var_P_eff":
                if weights is None:
                    out.append(float("nan"))
                else:
                    sub = block[np.ix_(p, p)]
                    out.append(float(weights @ sub @ weights) / 2.0)
            elif o == "var_P":
                sub = block[np.ix_(p, p)]
                out.append(float(self.sym @ sub @ self.sym) / 2.0)
            elif o == "var_theta":
                out.append(float(cov[0, 0]) / 2.0)
            elif o == "mean_theta":
                out.append(float(mean[0]))
        return tuple(out)


def _column_names(observables) -> list[str]:
    names = []
    custom = 0
    for o in observables:
        if isinstance(o, CollectiveVariable):
            names.append(f"var_cv{custom}")
            custom += 1
        else:
            names.append(o)
    return names


def _ramp(start, factor, rows):
    """Fill rows[i] = start * factor**i by running products; the next start."""
    rows[0] = start
    if factor is None:
        rows[1:] = start
        return start
    rows[1:] = factor
    np.cumprod(rows, axis=0, out=rows)
    return rows[-1] * factor


class _BlockRun:
    """One block's run through a phase: running noise and coupling, buffers."""

    def __init__(self, blk: BlockMap, steps: int):
        width = len(blk.coupling0)
        self.blk = blk
        self.noise = blk.noise0
        self.coupling = blk.coupling0
        self.pows = None if blk.loss is None else np.empty((steps + 1, width))
        self.noise_rows = None if blk.noise0 is None else np.empty((steps, width))
        self.coupling_rows = np.empty((steps, width))

    def fill(self, n: int):
        """Rows for the next n steps: loss powers d**0..d**n, noise, coupling."""
        blk = self.blk
        pows = noise = None
        if self.pows is not None:
            pows = self.pows[: n + 1]
            pows[0] = 1.0
            pows[1:] = blk.loss
            np.cumprod(pows, axis=0, out=pows)
        if self.noise_rows is not None:
            noise = self.noise_rows[:n]
            self.noise = _ramp(self.noise, blk.growth, noise)
        coupling = self.coupling_rows[:n]
        self.coupling = _ramp(self.coupling, blk.decay, coupling)
        return pows, noise, coupling


def _open_chunk(cov, mean, block: _BlockRun, n: int, back: bool, spread=None):
    """n unconditioned steps of one block in closed form.

    With d the loss, q_k the noise and w_k the back-action of step k,

        gamma -> P gamma P + diag(sum_k d**(2(n-1-k)) q_k) + S o (W^T W),

    where P = d**n and row k of W is d**(n-1-k) w_k: one Gram product for
    the back-action of the whole chunk.
    """
    pows, noise, coupling = block.fill(n)
    if pows is not None:
        power = pows[n]
        cov *= np.outer(power, power)
        mean *= power
        lever = pows[n - 1 :: -1]
    if noise is not None:
        if pows is not None:
            noise *= lever * lever
        cov.ravel()[:: len(cov) + 1] += noise.sum(axis=0)
    if back:
        if pows is not None:
            coupling *= lever
        gram = np.dot(coupling.T, coupling)
        if spread is not None:
            gram *= spread
        cov += gram


def _kalman_chunk(cov, mean, block: _BlockRun, z, pre, shot, gains, buf, k0, t0, tau):
    """len(z) measured steps of the read block; z becomes the deviations chi.

    The steps run in loss-scaled coordinates, gamma_j = E_j G_j E_j with
    E_j = diag(d**j): the loss then leaves the step, which becomes the
    rank-1 Kalman update of G_j with read-out E_j h_j followed by the noise
    q_j / E_(j+1)**2.  The scaled means E_j**-1 a_j move only by the scaled
    gains, so one running sum gives them for the whole chunk, and with them
    the predicted read-out in front of each detection, ``pre``.
    """
    n = len(z)
    pows, noise, h_rows = block.fill(n)
    if pows is not None:
        h_rows *= pows[:n]
        if noise is not None:
            noise /= pows[1:]
            noise /= pows[1:]
    gains = gains[:n]
    roots = np.empty(n)
    diag = cov.ravel()[:: len(cov) + 1]
    for i, (h, g, g_col) in enumerate(zip(h_rows, gains, gains[:, :, None])):
        cov.dot(h, out=g)
        bxx = h.dot(g) + shot
        if not bxx > 0.0:
            raise DegenerateCovarianceError(
                f"measured-quadrature variance must be positive, got "
                f"{bxx} at step {k0 + i + 1} (t = {t0 + (i + 1) * tau:.6e} s)"
            )
        root = math.sqrt(bxx)
        roots[i] = root
        g /= root
        np.multiply(g_col, g, out=buf)
        cov -= buf
        if noise is not None:
            diag += noise[i]
    steps = gains * z[:, None]
    np.cumsum(steps, axis=0, out=steps)
    np.dot(h_rows, mean, out=pre)
    pre[1:] += (h_rows[1:] * steps[:-1]).sum(axis=1)
    mean += steps[-1]
    if pows is not None:
        power = pows[n]
        cov *= np.outer(power, power)
        mean *= power
    z *= roots


def run(
    scenario: Scenario, seed: int = 0, record_cov: bool = False
) -> tuple[TimeSeries, TrajectoryRecord]:
    """Execute a scenario; deterministic and bit-reproducible given a seed.

    Samples the configured observables every ``sample_every`` steps,
    including step 0 when the scenario has any steps at all.  The
    covariance stream is outcome independent; only means depend on the
    drawn measurement deviations.  Every detection deviation is
    chi = sqrt(bxx) * z, with bxx the covariance entry of the detected
    quadrature and z drawn as Normal(0, 1/2) from a PCG64 stream seeded
    with ``seed``.  Recorded means and covariances keep the full layout,
    with the probe pair in its fresh vacuum state.

    The atomic block is kept as two blocks that no step couples: the read
    block (theta and the p rows) takes the per-step Kalman updates, the
    unread block (the x rows) advances in closed form once per chunk of
    steps, and the full block is assembled only at sample points.  The
    initial state must not correlate the two blocks, and a rotation must
    shear p rows by theta (see Scenario.blocks).
    """
    state = scenario.initial_state
    dim = state.dim
    m = dim - 2
    cov_r, mean_r, cov_u, mean_u = (a.copy() for a in scenario.blocks)
    read, unread = _block_rows(m)
    rng = np.random.default_rng(seed)
    sampler = scenario.sampler
    names = _column_names(scenario.observables)
    times: list[float] = []
    rows: list[tuple] = []
    traj = TrajectoryRecord(seed=seed)
    m_times: list[np.ndarray] = []
    m_chis: list[np.ndarray] = []
    m_outs: list[np.ndarray] = []
    se = scenario.sample_every

    block = np.zeros((m, m))

    def sample(t, kappas):
        # records keep the full layout, the spent light pair as fresh vacuum
        block[read, read] = cov_r
        block[unread, unread] = cov_u
        full_mean = np.zeros(dim)
        full_mean[read] = mean_r
        full_mean[unread] = mean_u
        r = sampler.row(block, full_mean, kappas if len(kappas) else None)
        times.append(t)
        rows.append(r)
        traj.samples.append((t, full_mean, r))
        if record_cov:
            full_cov = np.eye(dim)
            full_cov[:m, :m] = block
            traj.cov_samples.append(full_cov)

    k = 0
    t = 0.0
    phases = tuple(zip(scenario.phases, scenario.segments))
    if scenario.total_steps > 0:
        sample(0.0, next((seg.kappas0 for p, seg in phases
                          if seg is not None and p.groups), np.empty(0)))
    for phase, seg in phases:
        if isinstance(phase, RotationPhase):
            targets = (phase.targets - read.start) // 2
            _impulse_inplace(cov_r, mean_r, targets, phase.alphas, 0)
            t += phase.duration
            continue
        n_steps = phase.n_steps
        if n_steps == 0:
            t += phase.duration
            continue
        cap = min(seg.chunk_steps, n_steps)
        reads = _BlockRun(seg.read, cap)
        unreads = _BlockRun(seg.unread, cap)
        measure = phase.measure
        if measure:
            chis = rng.normal(0.0, CHI_STD, n_steps)
            pre = np.empty(n_steps)
            gains = np.empty((cap, len(mean_r)))
            buf = np.empty((len(mean_r), len(mean_r)))
        j = 0
        while j < n_steps:
            n = min(n_steps - j, cap, se - k % se)
            if measure:
                _kalman_chunk(cov_r, mean_r, reads, chis[j : j + n], pre[j : j + n],
                              seg.shot, gains, buf, k, t + j * phase.tau, phase.tau)
            else:
                _open_chunk(cov_r, mean_r, reads, n, back=False)
            _open_chunk(cov_u, mean_u, unreads, n, back=True, spread=seg.spread)
            j += n
            k += n
            if k % se == 0:
                sample(t + j * phase.tau, seg.kappas_at(j))
        if measure:
            m_times.append(t + phase.tau * np.arange(1, n_steps + 1))
            m_chis.append(chis)
            m_outs.append(pre + chis)
        t += n_steps * phase.tau
    if m_times:
        traj.measurement_times = np.concatenate(m_times)
        traj.chis = np.concatenate(m_chis)
        traj.outcomes = np.concatenate(m_outs)
    cols = {name: np.array([r[i] for r in rows]) for i, name in enumerate(names)}
    return TimeSeries(times=np.array(times), columns=cols), traj


def tau_convergence(factory, tau: float, column: str, seed: int = 0) -> float:
    """Max relative change of a sampled column when tau is halved.

    ``factory(tau, sample_every)`` must build the scenario; the halved run
    doubles sample_every so both runs sample identical times.
    """
    ts_a, _ = run(factory(tau, 1000), seed=seed)
    ts_b, _ = run(factory(tau / 2.0, 2000), seed=seed)
    a = ts_a.columns[column]
    b = ts_b.columns[column]
    m = min(len(a), len(b))
    denom = np.maximum(np.abs(b[:m]), 1e-300)
    return float(np.max(np.abs(a[:m] - b[:m]) / denom))
