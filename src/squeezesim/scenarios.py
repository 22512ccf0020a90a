"""Scenario builders and the production run loop.

A Scenario is an immutable plan: an initial state, an ordered list of
phases, and the observables to sample.  Probe phases advance the state one
beam segment at a time (couple, damp, inject noise, detect); a rotation
phase applies the unknown-angle displacement as a single impulse, since the
dark interval has no other dynamics.

Three builders turn a sample into slices and one probe phase:
build_homogeneous, build_thin_inhomogeneous and build_thick.
build_estimation takes a scenario from any of them and cuts its probe
phase around the rotation.

A probe phase holds ProbeGroups, each no more than the rates of the slices
it couples: the coupling kappa^2 and decay rate eta each slice sees, the
group's absorption epsilon and the transmission of the beam reaching it.
The groups take the slices in order, each the next len(kappas_sq) of them,
so together they cover every slice once.  The probe pair is fresh vacuum
at the start of every step and spent at its end, so neither the state nor
the records carry it: each probe phase folds its groups' rates into one
BeamSegment (cached per scenario in Scenario.segments), a map of the
atomic block followed by a rank-1 Kalman update for the detection.  The
probe reads only theta and the p rows, and the map never couples them to
the x rows, so the runner keeps two blocks: the read block takes the
Kalman update every step, and the unread x block advances in closed form
only when it is read, at sample points and phase ends.  No measured step
loops in Python.  A one-row read block (a single slice without theta)
takes a chunk's Kalman updates at once, as a prefix scan of its scalar
Riccati recursion; a wider one takes them KALMAN_BLOCK steps at a time,
as one Cholesky factorization of the joint covariance of their read-outs
and the final state.  The single-slice homogeneous run and the one-slice
limit of the sliced (thick) run therefore take the same path and execute
identical arithmetic.  A read block of p rows alone whose loss, noise,
growth and decay are one value on every row (a thin sample with uniform
decay, a noiseless stack) and that starts as c I with zero mean runs as
its read-out mode, one row on the scan, plus one variance across it, as
does its x block without a spread; neither needs an eigen-solve.  The
tests check all of it against dense operators built from the same rates,
which carry the light pair explicitly (tests/oracles.py).

Per-step time dependence uses exponential factors frozen at the step start:
couplings shrink as exp(-eta t / 2) while the mean spin decays, the atomic
noise floor grows as exp(+eta t), and inside an absorbing stack each slice
sees the beam attenuated by the slices in front of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    vacuum_state,
)
from .numerics import sym_eig_all
from .physics import CouplingRates

#: Per-segment coupling validity bound: kappa^2 * tau must not exceed this.
KAPPA_TAU_SQ_MAX = 0.1
#: Per-slice absorption bound for the segment-local coupling to hold.
SLICE_EPSILON_MAX = 0.05

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

    def __post_init__(self):
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
        )

    def total_absorption(self) -> float:
        """Absorbed beam fraction through the whole stack, 1 - prod(e^-eps)."""
        transmission = 1.0
        for e in self.epsilons:
            transmission *= math.exp(-float(e))
        return 1.0 - transmission


@dataclass(frozen=True)
class ProbeGroup:
    """One simultaneous coupling of a run of slices to the light.

    The group couples the next len(kappas_sq) slices after those of the
    groups before it in its phase.  ``kappas_sq`` and ``etas`` are the
    coupling and decay rate each slice sees at the start of probing,
    ``epsilon`` the absorption the group inflicts on the beam, and
    ``transmission`` the fraction of the beam intensity that reaches it,
    which amplifies the photon noise the group adds by 1 / transmission.
    """

    kappas_sq: np.ndarray
    etas: np.ndarray
    epsilon: float = 0.0
    transmission: float = 1.0

    def __post_init__(self):
        rates = {name: np.asarray(getattr(self, name), dtype=float)
                 for name in ("kappas_sq", "etas")}
        # one pass over both arrays; only a refusal looks at them one by one
        both = np.concatenate([v.ravel() for v in rates.values()])
        if not np.all((both >= 0.0) & (both < math.inf)):
            for name, v in rates.items():
                require_finite(**{name: v})
                if np.any(v < 0):
                    raise InvalidInputError(f"{name} entries must be nonnegative")
        k, e = rates["kappas_sq"], rates["etas"]
        if k.ndim != 1 or e.shape != k.shape:
            raise InvalidInputError(
                "kappas_sq must have one entry per slice and etas must have "
                f"one entry per slice, got shapes {k.shape} and {e.shape}"
            )
        object.__setattr__(self, "kappas_sq", k)
        object.__setattr__(self, "etas", e)
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
#: Most measured steps of a wide read block one Cholesky factorization covers.
KALMAN_BLOCK = 64
#: The read block runs in loss-scaled coordinates, whose noise grows by up
#: to growth / loss**2 per step; a chunk keeps that below exp(LOSS_SCALE_LOG).
LOSS_SCALE_LOG = 230.0


@dataclass(frozen=True)
class BlockMap:
    """The part of a segment map acting on one block of the atomic rows.

    ``loss``, ``noise0`` and ``growth`` are its diagonals; ``coupling0`` is
    the read-out h on the read block and the back-action w on the unread
    block, and it shrinks by ``decay`` per step.  A diagonal that would
    leave the state unchanged is stored as None.  ``logs`` holds np.log of
    loss, growth and decay, None where they are.
    """

    loss: np.ndarray | None
    noise0: np.ndarray | None
    growth: np.ndarray | None
    coupling0: np.ndarray
    decay: np.ndarray | None

    def __post_init__(self):
        for name, neutral in zip(("loss", "noise0", "growth", "decay"), (1, 0, 1, 1)):
            v = getattr(self, name)
            if v is not None and np.all(v == neutral):
                object.__setattr__(self, name, None)

    @cached_property
    def logs(self) -> tuple:
        return tuple(None if v is None else np.log(v)
                     for v in (self.loss, self.growth, self.decay))

    def at(self, k: int) -> tuple:
        """(noise, coupling) in effect at step index k of the phase."""
        noise, coupling = self.noise0, self.coupling0
        if noise is not None and self.growth is not None:
            noise = noise * self.growth**k
        if self.decay is not None:
            coupling = coupling * self.decay**k
        return noise, coupling


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
    carries growth**k; S and ``shot`` are fixed, as is ``kappas0``, the
    slice couplings at step 0, which kappas_at shrinks by the decay.  Taken
    from ``read`` when first asked for, ``chunk_steps`` caps the measured
    steps the runner takes at once and ``ramps`` holds the read block's
    rows for such a chunk in loss-scaled coordinates, k = 0 .. chunk_steps:
    (decay loss)**k for the read-out, growth**k / loss**(2 (k + 1)) for the
    noise and loss**k.
    """

    read: BlockMap
    unread: BlockMap
    spread: np.ndarray | None
    shot: float
    kappas0: np.ndarray

    @classmethod
    def compose(cls, groups, m: int, tau: float, t_start: float = 0.0):
        """Fold groups, applied in beam order, into one segment map.

        ``m`` is the size of the atomic block and ``t_start`` the time the
        phase begins.  At time t a slice with rates (kappa^2, eta) couples
        with sqrt(kappa^2 tau) exp(-eta t / 2) and damps its two rows by
        sqrt(1 - eta tau) while feeding them noise 2 eta tau exp(eta t); a
        group damps the light by sqrt(1 - epsilon) and adds epsilon /
        transmission of noise to it.  The groups take the slices in order,
        so their sizes must add up to the slice count, and eta tau must stay
        below one.  Both blocks take the per-slice loss, noise, growth and
        decay as rows, the read block after theta's untouched row (m odd).
        """
        sizes = [len(g.kappas_sq) for g in groups]
        if sum(sizes) != m // 2:
            raise InvalidInputError(
                f"the groups couple {sum(sizes)} slices, the state has {m // 2}"
            )
        owner = np.repeat(np.arange(len(groups)), sizes)
        kappas_sq, etas = (np.concatenate([getattr(g, name) for g in groups])
                           for name in ("kappas_sq", "etas"))
        eta_tau = etas * tau
        bad = eta_tau >= 1.0
        if bad.any():
            raise InvalidInputError(
                f"group {owner[np.argmax(bad)]}: eta * tau must be below 1"
            )
        # the light, group by group in beam order: the transmission and the
        # variance of each quadrature reaching the group; the read-out of a
        # slice is damped by its own group and every later one
        k0 = np.sqrt(kappas_sq * tau) * np.exp(-etas * t_start / 2.0)
        reach = np.empty(len(groups))
        level_g = np.empty(len(groups))
        read_k = k0.copy()
        shot = 1.0
        trans_p = 1.0
        end = 0
        for i, (g, size) in enumerate(zip(groups, sizes)):
            reach[i] = trans_p
            level_g[i] = shot / (trans_p * trans_p)
            light = math.sqrt(1.0 - g.epsilon)
            end += size
            read_k[:end] *= light
            shot = light * light * shot + g.epsilon / g.transmission
            trans_p *= light
        loss = np.sqrt(1.0 - eta_tau)
        noise = 2.0 * eta_tau * np.exp(etas * t_start)
        growth = np.exp(eta_tau)
        decay = np.exp(-eta_tau / 2.0)
        unread = BlockMap(loss, noise, growth, loss * k0 * reach[owner], decay)
        read = (loss, noise, growth, read_k, decay)
        if m % 2:  # theta heads the read block, unread and left unchanged
            read = [np.concatenate(([v0], v))
                    for v0, v in zip((1.0, 0.0, 1.0, 0.0, 1.0), read)]
        level = level_g[owner]
        return cls(
            read=BlockMap(*read),
            unread=unread,
            spread=None if np.all(level == 1.0) else np.minimum.outer(level, level),
            shot=shot,
            kappas0=k0,
        )

    @cached_property
    def chunk_steps(self) -> int:
        read = self.read
        steps = min(CHUNK_STEPS, max(1, CHUNK_ELEMENTS // len(read.coupling0)))
        if read.loss is not None:
            rate = -2.0 * math.log(float(np.min(read.loss)))
            if read.growth is not None:
                rate += math.log(float(np.max(read.growth)))
            steps = max(1, min(steps, int(LOSS_SCALE_LOG / rate)))
        return steps

    @cached_property
    def ramps(self) -> tuple:
        k = np.arange(self.chunk_steps + 1.0)[:, None]
        d, g, b = (1.0 if v is None else v
                   for v in (self.read.loss, self.read.growth, self.read.decay))
        return b**k * d**k, g**k / d ** (2.0 * k + 2.0), d**k

    @cached_property
    def collective(self) -> tuple | None:
        """(h^, w^ or None, the segment of the modes alone), or None.

        None unless the read block is two or more p rows (no theta) whose
        loss, noise, growth and decay are each None or one value on every
        row: that map commutes with any rotation, and the read-out touches
        only h^ = h / |h|, so the mode runs alone as one row of read-out |h|
        (run).  The x rows share those diagonals, so without a spread the
        back-action touches only w^ = w / |w|, and the mode segment's unread
        block is two rows, w^ (back-action |w|) and one direction across it.
        """
        h, w = self.read.coupling0, self.unread.coupling0
        norm, norm_w = (math.sqrt(float(u @ u)) for u in (h, w))
        diags = {f: getattr(self.read, f) for f in ("loss", "noise0", "growth", "decay")}
        if not (1 < len(h) == len(w) and norm > 0.0 and all(
                v is None or np.all(v == v[0]) for v in diags.values())):
            return None

        def rows(blk, *coupling):  # its first len(coupling) rows, that coupling
            cut = {f: v[: len(coupling)] for f, v in diags.items() if v is not None}
            return replace(blk, coupling0=np.array(coupling), **cut)
        mode = replace(self, read=rows(self.read, norm))
        if self.spread is not None:
            return h / norm, None, mode
        return h / norm, w / norm_w, replace(mode, unread=rows(self.unread, norm_w, 0.0))

    def kappas_at(self, k: int) -> np.ndarray:
        """Per-slice couplings in effect at step index k of the phase."""
        decay = self.unread.decay
        return self.kappas0 if decay is None else self.kappas0 * decay**k


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
    """Impulsive displacement p_i -> p_i + alpha_i * theta of every slice i.

    The dark interval [t1, t2] has no other dynamics, so the accumulated
    rotation is applied as one transform and the duration only advances the
    clock.  ``alphas`` holds one lever arm per slice.
    """

    duration: float
    alphas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=float))
        require_finite(duration=self.duration, alphas=self.alphas)
        if self.duration < 0:
            raise InvalidInputError("duration must be nonnegative")

    @property
    def n_steps(self) -> int:
        return 0


@dataclass(frozen=True)
class Scenario:
    """Executable plan: initial state, phases, observables, sampling.

    ``sampler`` evaluates the observables; building it, with the scenario,
    checks them.
    """

    initial_state: GaussianState
    phases: tuple
    observables: tuple
    sample_every: int = 1000
    meta: dict = field(default_factory=dict)
    sampler: "_Sampler" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sample_every < 1:
            raise InvalidInputError("sample_every must be >= 1")
        if self.initial_state.n_pairs < 1:
            raise InvalidInputError("the initial state needs at least one slice")
        object.__setattr__(self, "sampler",
                           _Sampler(self.initial_state, self.observables))

    @property
    def total_steps(self) -> int:
        return sum(p.n_steps for p in self.phases)

    @cached_property
    def blocks(self) -> tuple:
        """The initial state as the runner splits it, checked once.

        (read covariance, read means, unread covariance, unread means); see
        run.  Refuses a state that correlates the x rows with the p rows or
        theta, which the split cannot represent, and a rotation on a state
        without theta or without one lever arm per slice.  Refuses a
        non-physical state too: a theta variance that is not positive, an
        (x, p) pair with gamma_xx <= 0 or gamma_xx gamma_pp below one (to
        round-off), and then any state that breaks gamma + i Omega >= 0 as
        a whole (_check_uncertainty).  An accepted state keeps the read-out
        covariance of every block of measured steps positive definite, so
        the runner's Cholesky factors exist.
        """
        state = self.initial_state
        m = state.dim
        read, unread = _block_rows(m)
        cov = state.cov
        if np.any(cov[read, unread]) or np.any(cov[unread, read]):
            raise InvalidInputError(
                "the initial state correlates x rows with p rows or theta"
            )
        if state.has_theta and not cov[0, 0] > 0.0:
            raise InvalidInputError(
                f"the initial theta variance must be positive, got {cov[0, 0] / 2.0}"
            )
        cov_r, cov_u = cov[read, read], cov[unread, unread]
        xx = cov_u.diagonal()
        det = xx * cov_r.diagonal()[int(state.has_theta):]
        bad = (xx <= 0.0) | (det < 1.0 - 1e-12 * np.abs(det))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidInputError(
                f"the initial state of slice {i + 1} is not physical: "
                f"gamma_xx = {xx[i]}, gamma_xx gamma_pp = {det[i]} "
                "(need gamma_xx > 0 and gamma_xx gamma_pp >= 1)"
            )
        for phase in self.phases:
            if not isinstance(phase, RotationPhase):
                continue
            if not state.has_theta:
                raise InvalidInputError("a rotation needs a theta variable")
            if phase.alphas.shape != (state.n_pairs,):
                raise InvalidInputError(
                    f"a rotation needs one alpha per slice ({state.n_pairs}), "
                    f"got {phase.alphas.size}"
                )
        cov_r, cov_u = (cov_r + cov_r.T) / 2.0, (cov_u + cov_u.T) / 2.0
        if len(cov_r) > 1:  # one pair without theta: the pair check is all of it
            _check_uncertainty(cov_r, cov_u)
        return cov_r, state.mean[read], cov_u, state.mean[unread]

    @cached_property
    def segments(self) -> tuple:
        """One BeamSegment per probe phase, None for a rotation."""
        m = self.initial_state.dim
        return tuple(
            BeamSegment.compose(p.groups, m, p.tau, p.t_start)
            if isinstance(p, ProbePhase) else None
            for p in self.phases
        )


def _check_uncertainty(cov_r: np.ndarray, cov_u: np.ndarray):
    """Refuse read and unread blocks that break gamma + i Omega >= 0.

    Omega pairs each x row with its p row and leaves theta alone, so with
    the two blocks uncorrelated the condition is, in Schur form, Gamma_x > 0
    and Gamma_p|theta - Gamma_x^-1 >= 0.  With Gamma_x = L L^T the second
    is checked as L^T Gamma_p|theta L - I >= 0, a congruence that keeps its
    inertia and scales the bound to one, and theta is kept in the block
    (its variance is positive) in place of conditioning on it.
    """
    try:
        low = np.linalg.cholesky(cov_u)
    except np.linalg.LinAlgError:
        raise InvalidInputError(
            "the initial state is not physical: its x block is not positive "
            "definite (need gamma + i Omega >= 0)"
        ) from None
    p = slice(len(cov_r) - len(cov_u), None)
    gap = cov_r.copy()
    gap[p] = np.dot(low.T, gap[p])
    gap[:, p] = np.dot(gap[:, p], low)
    gap.ravel()[p.start * (len(gap) + 1) :: len(gap) + 1] -= 1.0
    least = float(np.linalg.eigvalsh(gap)[0])
    if least < -1e-12 * max(1.0, float(np.max(np.abs(gap)))):
        raise InvalidInputError(
            "the initial state is not physical: gamma + i Omega has a negative "
            f"direction (L^T Gamma_p|theta L - I reaches {least:.6g}, "
            "need >= 0)"
        )


def _check_validity(kappa_sq_max: float, tau: float):
    if not kappa_sq_max > 0.0:
        raise InvalidInputError("kappa_sq must be positive on at least one slice")
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


def _slice_rates(spread: SpreadSpec, n: int, rates: CouplingRates, tau: float,
                 eta_mode: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice kappa^2 and eta of a thin sample, its bounds checked.

    ``eta_mode`` "uniform" gives every slice rates.eta; "intensity" scales
    it with the slice's coupling, eta_i = eta0 * kappa_i^2 / mean(kappa^2).
    """
    if eta_mode not in ("intensity", "uniform"):
        raise InvalidInputError("eta_mode must be 'intensity' or 'uniform'")
    _check_validity(spread.kappa0_sq, tau)
    _check_thin_epsilon(rates.epsilon)
    kappas_sq = spread.slice_kappas_sq(n, rng=rng)
    if eta_mode == "intensity":
        return kappas_sq, rates.eta * kappas_sq / float(np.mean(kappas_sq))
    return kappas_sq, np.full(n, rates.eta)


def _thick_groups(slices: SliceConfig) -> tuple[ProbeGroup, ...]:
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
            slices.kappas_sq[row] * transmission,
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
    state = vacuum_state(1)
    group = ProbeGroup(np.array([rates.kappa_sq]), np.array([rates.eta]), rates.epsilon)
    phase = ProbePhase(duration=t_end, tau=tau, groups=(group,), measure=measure)
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
    kappas_sq, etas = _slice_rates(spread, n, rates, tau, eta_mode, rng)
    state = vacuum_state(n)
    group = ProbeGroup(kappas_sq, etas, rates.epsilon)  # every slice at once
    phase = ProbePhase(duration=t_end, tau=tau, groups=(group,))
    return Scenario(
        initial_state=state,
        phases=(phase,),
        observables=("min_eig_var", "var_P_eff", "var_P"),
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
    state = vacuum_state(slices.n_slices)
    groups = _thick_groups(slices)
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
    base: Scenario, est: EstimationParams, atoms_per_slice: float | None = None
) -> Scenario:
    """Squeeze, rotate by an unknown angle, then probe the angle.

    ``base`` is a squeezing scenario from build_homogeneous,
    build_thin_inhomogeneous or build_thick; its single probe phase is cut
    at t1 and t2 around the rotation, and its tau, measure flag, sampling
    and meta carry over ("scenario" becomes "base_scenario").  The angle is
    adjoined as a leading variable with prior variance est.var_theta0 and
    mean est.theta_true; probing for t > t2 resumes with the couplings and
    noise floors the squeezing phase reached at t1.  Lever arms come from
    est.alphas or est.alpha, else from ``atoms_per_slice`` and each slice's
    decay rate inside the sample.
    """
    state0 = base.initial_state
    phase = base.phases[0] if len(base.phases) == 1 else None
    if state0.has_theta or not isinstance(phase, ProbePhase):
        raise InvalidInputError(
            "base must be a squeezing scenario: one probe phase, no theta"
        )
    if phase.duration <= est.t2:
        raise InvalidInputError("t_end must exceed t2")
    n = state0.n_pairs
    if est.alphas is not None:
        alphas = np.asarray(est.alphas, dtype=float)
        if alphas.shape != (n,):
            raise InvalidInputError(f"alphas must have one entry per slice ({n})")
    elif est.alpha is not None:
        alphas = np.full(n, float(est.alpha))
    elif atoms_per_slice:
        probe_etas = np.concatenate([g.etas for g in phase.groups])
        alphas = np.array([rotation_coupling(atoms_per_slice, float(eta), est.t1)
                           for eta in probe_etas])
    else:
        raise InvalidInputError(
            "rotation lever arms undetermined: give alphas/alpha or atoms_per_slice"
        )

    m = state0.dim + 1
    cov = np.zeros((m, m))
    cov[0, 0] = 2.0 * est.var_theta0
    cov[1:, 1:] = state0.cov
    state = GaussianState(np.concatenate(([est.theta_true], state0.mean)), cov,
                          has_theta=True)
    squeeze = replace(phase, duration=est.t1)
    rotation = RotationPhase(duration=est.t2 - est.t1, alphas=alphas)
    probe = replace(squeeze, duration=phase.duration - est.t2, t_start=est.t1)
    meta = dict(base.meta)
    meta["base_scenario"] = meta.pop("scenario", None)
    meta.update(
        {
            "scenario": "estimation",
            "t1": est.t1,
            "t2": est.t2,
            "var_theta0": est.var_theta0,
            "theta_true": est.theta_true,
            "alphas": alphas.tolist(),
        }
    )
    return Scenario(
        initial_state=state,
        phases=(squeeze, rotation, probe),
        observables=("var_theta", "mean_theta"),
        sample_every=base.sample_every,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Runner


class _Sampler:
    """The observables of a scenario: their checks, names and values.

    An observable is one of NAMES or a CollectiveVariable, whose column is
    named var_cv0, var_cv1, ... in order.  Every check runs here, when the
    scenario is built: unknown names, a collective variable of the wrong
    length and theta observables on a state without theta are refused.

    ``row`` reads the runner's two blocks as run holds them: the read block
    (theta when present, then the p rows) and the unread block (the x
    rows).  They never correlate, so the smallest eigenvalue of the atomic
    block is the smaller of theirs, a tie going to the x block (whose
    eigenvectors have no p part), and a collective variable's variance is
    the sum of its x part and its p part.  ``least`` gives the smallest
    eigenvalue of a block run as modes; only the others are eigen-solved.
    """

    NAMES = ("var_p", "min_eig_var", "min_eig_overlap", "var_P_eff", "var_P",
             "var_theta", "mean_theta")

    def __init__(self, state: GaussianState, observables):
        n = state.n_pairs
        self.obs = tuple(observables)
        self.names = []
        custom = 0
        for o in self.obs:
            if isinstance(o, CollectiveVariable):
                if o.coefficients.shape != (2 * n,):
                    raise InvalidInputError(
                        f"collective variable has {len(o.coefficients)} "
                        f"coefficients, the state has {2 * n} atomic variables"
                    )
                self.names.append(f"var_cv{custom}")
                custom += 1
            elif o not in self.NAMES:
                raise InvalidInputError(
                    f"unknown observable {o!r}; expected one of "
                    f"{self.NAMES} or a CollectiveVariable"
                )
            else:
                self.names.append(o)
        if not state.has_theta and {"var_theta", "mean_theta"} & set(self.names):
            raise InvalidInputError("theta observables need a theta variable")
        self.p0 = int(state.has_theta)  # first p row of the read block
        self.sym = np.full(n, 1.0 / math.sqrt(n))
        self.need_eig = bool({"min_eig_var", "min_eig_overlap"} & set(self.names))
        self.need_vectors = "min_eig_overlap" in self.names

    def row(self, cov_r, mean_r, cov_u, kappa_weights, least) -> tuple:
        p = cov_r[self.p0 :, self.p0 :]
        eig_val = eig_p = None
        if self.need_eig:
            least_x, least_p = least
            if least_x is None:
                least_x = sym_eig_all(cov_u, vectors=False)[0][0]
            if least_p is None or self.need_vectors:
                w_p, v_p = sym_eig_all(p, vectors=self.need_vectors)
                least_p = w_p[0]
            eig_val = float(min(least_x, least_p)) / 2.0
            if self.need_vectors and least_p < least_x:
                eig_p = v_p[:, 0]
        nrm = float(np.linalg.norm(kappa_weights))
        weights = kappa_weights / nrm if nrm > 0 else None
        out = []
        for o in self.obs:
            if isinstance(o, CollectiveVariable):
                cx, cp = o.coefficients[::2], o.coefficients[1::2]
                out.append(float(cx @ cov_u @ cx + cp @ p @ cp) / 2.0)
            elif o == "var_p":
                out.append(float(p[0, 0]) / 2.0)
            elif o == "min_eig_var":
                out.append(eig_val)
            elif o == "min_eig_overlap":
                if weights is None:
                    out.append(float("nan"))
                else:
                    out.append(0.0 if eig_p is None else abs(float(eig_p @ weights)))
            elif o == "var_P_eff":
                if weights is None:
                    out.append(float("nan"))
                else:
                    out.append(float(weights @ p @ weights) / 2.0)
            elif o == "var_P":
                out.append(float(self.sym @ p @ self.sym) / 2.0)
            elif o == "var_theta":
                out.append(float(cov_r[0, 0]) / 2.0)
            elif o == "mean_theta":
                out.append(float(mean_r[0]))
        return tuple(out)


def _geometric(log_a, log_b, n: int):
    """sum_(k<n) A**(n-1-k) B**k entrywise, from log A and log B (None: 0).

    Taken as e**((n-1) top) expm1(n y) / expm1(y), with top the larger log
    and y = -|log B - log A| <= 0, so it overflows only where the sum
    does; y = 0 gives n e**((n-1) top).
    """
    if log_a is None and log_b is None:
        return float(n)
    log_a = 0.0 if log_a is None else log_a
    log_b = 0.0 if log_b is None else log_b
    top = np.maximum(log_a, log_b)
    y = -np.abs(log_b - log_a)
    ratio = np.full(y.shape, float(n))
    np.divide(np.expm1(n * y), np.expm1(y), out=ratio, where=y != 0.0)
    return np.exp((n - 1) * top) * ratio


def _advance(cov, mean, blk: BlockMap, n: int, k0: int, back=False, spread=None):
    """n unconditioned steps of one block from step index k0, in closed form.

    With d the loss, q_k = q0 g**(k0+k) the noise and, when ``back`` is
    set, c_k = w0 b**(k0+k) the back-action of step k,

        gamma -> P gamma P + diag(sum_k d**(2(n-1-k)) q_k)
                 + S o sum_k (d d^T)**(n-1-k) o (c_k c_k^T),

    where P = d**n.  Both sums are geometric (_geometric), so a call costs
    the same whatever n is.  Each term is symmetric entry by entry, so a
    symmetric cov stays exactly symmetric.
    """
    log_d, log_g, log_b = blk.logs
    noise, coupling = blk.at(k0)
    if blk.loss is not None:
        power = blk.loss**n
        cov *= np.outer(power, power)
        mean *= power
    if noise is not None:
        twice = None if log_d is None else 2.0 * log_d
        cov.ravel()[:: len(cov) + 1] += noise * _geometric(twice, log_g, n)
    if back:
        gram = np.outer(coupling, coupling)
        if spread is not None:
            gram *= spread
        gram *= _geometric(None if log_d is None else np.add.outer(log_d, log_d),
                           None if log_b is None else np.add.outer(log_b, log_b), n)
        cov += gram


def _mode_block(out, unit, v, s):
    """out = s I + (v - s) u u^T, exactly symmetric: v along the unit u, s across."""
    np.multiply(np.outer(unit, unit), v - s, out=out)
    out.ravel()[:: len(out) + 1] += s


def _theta_shear(cov, mean, alphas):
    """Shear the p rows of the read block by alphas * theta (and columns).

    With u = (0, alphas), S = 1 + u e_0^T maps cov to S cov S^T = cov +
    (u c^T + c u^T) + cov[0, 0] u u^T, c the theta column.  Each term is
    symmetric entry by entry, so a symmetric cov stays exactly symmetric.
    """
    u = np.zeros(cov.shape[0])
    u[1:] = alphas
    cross = np.outer(u, cov[:, 0])
    cov += (cross + cross.T) + cov[0, 0] * np.outer(u, u)
    mean += u * mean[0]


def _riccati_scan(g0: float, c: np.ndarray, q) -> np.ndarray:
    """G_0..G_n of the scalar Riccati G -> G / (1 + c_j G) + q_j.

    Step j is the linear-fractional map with matrix [[1 + q_j c_j, q_j],
    [c_j, 1]]; maps compose by matrix product, so a Hillis-Steele prefix
    product gives every G_j in ceil(log2(n)) rounds of elementwise
    arithmetic, without a per-step loop (Sarkka & Garcia-Fernandez, IEEE
    TAC 66, 299 (2021)).  Each partial product is divided by its (2, 2)
    entry, which then stays one.  With g0, c and q nonnegative (a physical
    initial state has g0 > 0, see Scenario.blocks) every entry stays
    nonnegative, so no sum cancels.
    """
    n = len(c)
    a = np.ones(n) if q is None else q * c + 1.0
    b = np.zeros(n) if q is None else q.copy()
    c = c.copy()
    s = 1
    while s < n:
        # the maps up to j (later, left) times the partial products to j - s
        a1, b1, c1 = a[s:], b[s:], c[s:]
        a0, b0, c0 = a[:-s], b[:-s], c[:-s]
        inv = 1.0 / (c1 * b0 + 1.0)
        a[s:], b[s:], c[s:] = ((a1 * a0 + b1 * c0) * inv,
                               (a1 * b0 + b1) * inv, (c1 * a0 + c0) * inv)
        s *= 2
    g = np.empty(n + 1)
    g[0] = g0
    g[1:] = (a * g0 + b) / (c * g0 + 1.0)
    return g


def _cholesky_block(cov, mean, h_rows, noise, z, pre, shot, k0, t0, tau):
    """len(z) <= KALMAN_BLOCK measured steps of a wide read block at once.

    In loss-scaled coordinates the state inside the block is a random walk,
    a_j = a_s + sum_(k<j) w_k with Cov w_k = diag(q_k), read out as
    y_j = h_j . a_j + v_j with Cov v_j = shot.  With Qc_j = sum_(k<j) q_k
    the read-outs and the final state are jointly Gaussian, of covariance

        A = [[M, Y], [Y^T, Z]],   M_ij = h_i^T (G + diag Qc_min(i,j)) h_j
                                         + shot delta_ij,
        row i of Y = (G + diag Qc_i) h_i,   Z = G + diag Qc_n,

    and Kalman filtering the block is taking the Cholesky factor
    [[L, 0], [B, C]] of A (the innovations form; Kailath, Sayed & Hassibi,
    Linear Estimation (2000), ch. 9).  LAPACK reads only the lower triangle
    of A, so only that is filled.  diag L holds the roots sqrt(bxx_j),
    the predicted read-outs are pre = H a_s + (L - diag L) z, the state
    moves to a_s + B z and its covariance to Z - B B^T.  That last one is a
    Gram product, so the covariance stays exactly symmetric.  z becomes the
    deviations chi.  A block whose A is not positive definite raises
    DegenerateCovarianceError naming its first step.
    """
    n, r = h_rows.shape
    qc = np.zeros((n + 1, r))
    if noise is not None:
        np.cumsum(noise, axis=0, out=qc[1:])
    y = np.dot(h_rows, cov)
    y += qc[:n] * h_rows
    m = np.dot(h_rows, y.T)
    a = np.empty((n + r, n + r))
    a[:n, :n] = m  # m_ij carries Qc_j: right on and below the diagonal
    a[n:, :n] = y.T
    a[n:, n:] = cov
    diag = a.ravel()[:: n + r + 1]
    diag[:n] += shot
    diag[n:] += qc[n]
    try:
        f = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise DegenerateCovarianceError(
            f"the read-out covariance of steps {k0 + 1}..{k0 + n} is not "
            f"positive definite (first step at t = {t0 + tau:.6e} s)"
        ) from None
    low, back = f[:n, :n], f[n:, :n]
    roots = low.diagonal().copy()
    np.dot(low, z, out=pre)
    pre -= roots * z
    pre += np.dot(h_rows, mean)
    mean += np.dot(back, z)
    np.subtract(a[n:, n:], np.dot(back, back.T), out=cov)
    z *= roots


def _kalman_chunk(cov, mean, seg: BeamSegment, j0, z, pre, k0, t0, tau):
    """len(z) measured steps of the read block from step index j0 of the phase.

    z becomes the deviations chi.  The steps run in loss-scaled
    coordinates, gamma_j = E_j G_j E_j with E_j = diag(d**j): the loss then
    leaves the step, which becomes the rank-1 Kalman update of G_j with
    read-out E_j h_j followed by the noise q_j / E_(j+1)**2.  The rows of
    both are the segment's ramps times the read-out and noise at step j0,
    one broadcast product each.  No step loops in Python.  A one-row read
    block takes all the chunk's steps at once, by a prefix scan of the
    scalar Riccati recursion (_riccati_scan); its scaled means E_j**-1 a_j
    move only by the scaled gains, so one running sum gives them, and with
    them the predicted read-out in front of each detection, ``pre``.  A
    wider one takes KALMAN_BLOCK steps at a time as one Cholesky
    factorization of their joint covariance (_cholesky_block).
    """
    n = len(z)
    out_ramp, noise_ramp, powers = seg.ramps
    shot = seg.shot
    noise, h = seg.read.at(j0)
    h_rows = h * out_ramp[:n]
    if noise is not None:
        noise = noise * noise_ramp[:n]
    if len(cov) == 1:
        h = h_rows[:, 0]
        g = _riccati_scan(float(cov[0, 0]), h * h / shot,
                          None if noise is None else noise[:, 0])
        bxx = h * h * g[:n] + shot
        bad = ~(bxx > 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateCovarianceError(
                f"measured-quadrature variance must be positive, got {bxx[i]} "
                f"at step {k0 + i + 1} (t = {t0 + (i + 1) * tau:.6e} s)"
            )
        roots = np.sqrt(bxx)
        steps = g[:n] * h / roots * z
        np.cumsum(steps, out=steps)
        np.multiply(h, mean[0], out=pre)
        pre[1:] += h[1:] * steps[:-1]
        mean += steps[-1]
        cov[0, 0] = g[n]
        z *= roots
    else:
        for s in range(0, n, KALMAN_BLOCK):
            e = min(s + KALMAN_BLOCK, n)
            _cholesky_block(cov, mean, h_rows[s:e],
                            None if noise is None else noise[s:e], z[s:e],
                            pre[s:e], shot, k0 + s, t0 + s * tau, tau)
    if seg.read.loss is not None:
        power = powers[n]
        cov *= np.outer(power, power)
        mean *= power


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
    with ``seed``, the z of all measured steps of the run in one draw.  The
    trajectory records (t, means) at each sample point, over the initial
    state's variables (the atomic block with theta when present), and the
    covariances too with ``record_cov``.

    The atomic block is kept as two blocks that no step couples: the read
    block (theta and the p rows) takes the per-step Kalman updates, in
    chunks of at most BeamSegment.chunk_steps, while the unread block (the
    x rows) advances in closed form (_advance) only at sample points and at
    the end of each phase, as does the read block of an unmeasured phase.
    The observables are read from the two blocks (_Sampler); the
    full covariance is assembled only when ``record_cov`` asks for it.  A
    one-row read block takes a whole chunk's updates in one prefix scan of
    the scalar Riccati recursion, a wider one KALMAN_BLOCK steps at a time
    in one Cholesky factorization; a failed factorization raises
    DegenerateCovarianceError naming the block's first step, a failed
    eigen-solve of the observables one naming the sample time.  A measured
    phase whose segment splits (BeamSegment.collective) and whose read
    block starts as c I with zero mean runs as the one-row mode (v, mu) of
    the unit read-out h^ plus one variance s across it, rebuilt as s I +
    (v - s) h^ h^T and mu h^ at sample points and the phase end; without a
    spread, an x block that starts as c' I with zero mean runs likewise as
    its back-action mode along w^ plus one variance across it.  The sampler
    is given min(s, v) of each such block, in place of an eigen-solve.  The
    initial state must be physical (gamma + i Omega >= 0) and must not
    correlate the two blocks, and a rotation needs theta and one lever arm
    per slice (see Scenario.blocks).
    """
    m = scenario.initial_state.dim
    cov_r, mean_r, cov_u, mean_u = (a.copy() for a in scenario.blocks)
    read, unread = _block_rows(m)
    rng = np.random.default_rng(seed)
    sampler = scenario.sampler
    times: list[float] = []
    rows: list[tuple] = []
    traj = TrajectoryRecord(seed=seed)
    chis = traj.chis = rng.normal(0.0, CHI_STD, sum(
        p.n_steps for p in scenario.phases if isinstance(p, ProbePhase) and p.measure))
    pre = np.empty(len(chis))
    traj.measurement_times = np.empty(len(chis))
    done = 0  # measured steps of the phases before
    se = scenario.sample_every

    def sample(t, kappas):
        try:  # a block run as modes has the smaller one as its least eigenvalue
            rows.append(sampler.row(cov_r, mean_r, cov_u, kappas, (
                None if x is None else min(x[0, 0], x[1, 1]),
                min(blk[0, 0], across[0, 0]) if split else None)))
        except np.linalg.LinAlgError as exc:
            raise DegenerateCovarianceError(
                f"the eigen-solve of the sample at t = {t:.6e} s failed: {exc}"
            ) from None
        times.append(t)
        mean = np.empty(m)
        mean[read] = mean_r
        mean[unread] = mean_u
        traj.samples.append((t, mean))
        if record_cov:
            cov = np.zeros((m, m))
            cov[read, read] = cov_r
            cov[unread, unread] = cov_u
            traj.cov_samples.append(cov)

    k = 0
    t = 0.0
    for i, (phase, seg) in enumerate(zip(scenario.phases, scenario.segments)):
        blk, blk_mean, chunk_seg, x = cov_r, mean_r, seg, None
        split = (seg is not None and phase.measure and seg.collective and not mean_r.any()
                 and np.array_equal(cov_r, cov_r[0, 0] * np.eye(len(cov_r))))
        if split:
            h_hat, w_hat, chunk_seg = seg.collective
            blk, blk_mean = cov_r[:1, :1].copy(), np.zeros(1)
            across = blk.copy()  # the variance of every direction across h_hat
            if w_hat is not None and not mean_u.any() and np.array_equal(
                    cov_u, cov_u[0, 0] * np.eye(len(cov_u))):
                x = cov_u[0, 0] * np.eye(2)  # along w_hat and across it
        if i == 0 and scenario.total_steps > 0:
            sample(0.0, next(s.kappas0 for s in scenario.segments if s is not None))
        if seg is None:
            _theta_shear(cov_r, mean_r, phase.alphas)
            t += phase.duration
            continue
        n_steps = phase.n_steps
        if n_steps == 0:
            t += phase.duration
            continue
        measure = phase.measure
        if measure:
            steps = slice(done, done + n_steps)
            z, z_pre = chis[steps], pre[steps]
            traj.measurement_times[steps] = t + phase.tau * np.arange(1, n_steps + 1)
            done += n_steps
        cap = chunk_seg.chunk_steps
        j = 0
        while j < n_steps:
            n = min(n_steps - j, se - k % se)
            if measure:
                for s in range(j, j + n, cap):
                    e = min(s + cap, j + n)
                    _kalman_chunk(blk, blk_mean, chunk_seg, s, z[s:e], z_pre[s:e],
                                  k + s - j, t + s * phase.tau, phase.tau)
                if split:  # rebuilt at sample points and the phase end
                    _advance(across, np.zeros(1), chunk_seg.read, n, j)
                    _mode_block(cov_r, h_hat, blk[0, 0], across[0, 0])
                    np.multiply(h_hat, blk_mean[0], out=mean_r)
            else:
                _advance(cov_r, mean_r, seg.read, n, j)
            if x is None:
                _advance(cov_u, mean_u, seg.unread, n, j, back=True, spread=seg.spread)
            else:  # the modes of the x block, which keeps a zero mean
                _advance(x, np.zeros(2), chunk_seg.unread, n, j, back=True)
                _mode_block(cov_u, w_hat, x[0, 0], x[1, 1])
            j += n
            k += n
            if k % se == 0:
                sample(t + j * phase.tau, seg.kappas_at(j))
        t += n_steps * phase.tau
    traj.outcomes = pre + chis
    cols = {name: np.array([r[i] for r in rows])
            for i, name in enumerate(sampler.names)}
    return TimeSeries(times=np.array(times), columns=cols), traj
