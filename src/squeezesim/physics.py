"""Derivation of effective coupling and noise rates from laboratory parameters.

Units are SI throughout; detunings and linewidths are angular frequencies.
The photon scattering rate per atom (eta) and the photon absorption
probability through the gas (epsilon) share the same cross-section and
detuning factor, so eta/epsilon = flux/atom number identically.

Two detuning-response forms are implemented and never silently mixed:

* ``form="lorentzian"`` (default): (Gamma^2/4) / (Gamma^2/4 + Delta^2)
* ``form="far_detuned"``: Gamma^2 / Delta^2, the simplification valid for
  Delta >> Gamma, which is larger by a factor of 4.

The two forms bracket the published operating point for the cesium D1
probing example; see README for the convention report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import InvalidInputError, OpticallyThickError, require_finite

HBAR = 1.054571817e-34  # J s
C0 = 299792458.0  # speed of light in vacuum, m / s
EPSILON_0 = 8.8541878128e-12  # F / m

RATE_FORMS = ("lorentzian", "far_detuned")


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory parameters of one ensemble-probing configuration.

    n_atoms      atom number in the beam (dimensionless count)
    photon_flux  photons per second through the sample
    area         transverse beam/sample area, m^2
    detuning     angular detuning from resonance, rad/s
    linewidth    atomic decay rate Gamma, s^-1
    wavelength   probe wavelength, m (sets the resonant cross-section
                 sigma = wavelength^2 / 2 pi)
    dipole       transition dipole moment, C m
    omega        optical angular frequency, rad/s; derived from the
                 wavelength when omitted
    """

    n_atoms: float
    photon_flux: float
    area: float
    detuning: float
    linewidth: float
    wavelength: float
    dipole: float
    omega: float = field(default=0.0)

    def __post_init__(self):
        require_finite(**{name: getattr(self, name) for name in (
            "n_atoms", "photon_flux", "area", "detuning", "linewidth",
            "wavelength", "dipole", "omega")})
        if self.n_atoms < 0 or self.photon_flux < 0:
            raise InvalidInputError("n_atoms and photon_flux must be nonnegative")
        for name in ("area", "detuning", "linewidth", "wavelength", "dipole"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")
        if self.omega == 0.0:
            object.__setattr__(
                self, "omega", 2.0 * math.pi * C0 / self.wavelength
            )
        elif self.omega < 0:
            raise InvalidInputError("omega must be positive")

    @property
    def cross_section(self) -> float:
        """Resonant photon absorption cross-section, wavelength^2 / 2 pi."""
        return self.wavelength**2 / (2.0 * math.pi)


@dataclass(frozen=True)
class CouplingRates:
    """Effective rates driving the Gaussian engine.

    kappa_sq  squared collective coupling rate, s^-1 (per-segment coupling
              is kappa_tau = sqrt(kappa_sq * tau))
    eta       per-atom decay (depolarization) rate, s^-1
    epsilon   photon absorption probability through the sample, in [0, 1)
    """

    kappa_sq: float
    eta: float
    epsilon: float

    def __post_init__(self):
        require_finite(kappa_sq=self.kappa_sq, eta=self.eta, epsilon=self.epsilon)
        if self.kappa_sq < 0 or self.eta < 0:
            raise InvalidInputError("kappa_sq and eta must be nonnegative")
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie in [0, 1)")


def atom_chi(p: PhysicalParams) -> float:
    """Single-atom light-shift rate d^2 omega / (A c eps0 hbar), s^-1.

    Named to avoid a clash with the measurement deviation (also
    conventionally written chi) drawn in the Gaussian engine.
    """
    return p.dipole**2 * p.omega / (p.area * C0 * EPSILON_0 * HBAR)


def lorentz_factor(p: PhysicalParams, form: str = "lorentzian") -> float:
    """Detuning response entering both eta and epsilon."""
    if form == "lorentzian":
        g2 = p.linewidth**2 / 4.0
        return g2 / (g2 + p.detuning**2)
    if form == "far_detuned":
        return p.linewidth**2 / p.detuning**2
    raise InvalidInputError(f"unknown rate form {form!r}, expected one of {RATE_FORMS}")


def derive_rates(p: PhysicalParams, form: str = "lorentzian") -> CouplingRates:
    """Effective (kappa^2, eta, epsilon) for a physical configuration.

    kappa^2 = N_at * Phi * (atom_chi / Delta)^2 is independent of ``form``;
    eta and epsilon carry the chosen detuning response.  Raises
    OpticallyThickError when epsilon >= 1, in which case the gas has to be
    sliced (see scenarios.build_thick) instead of treated in a single pass.
    """
    if p.detuning < 10.0 * p.linewidth:
        warnings.warn(
            "detuning is not large compared with the linewidth; "
            "the dispersive rate formulas lose accuracy",
            stacklevel=2,
        )
    lor = lorentz_factor(p, form)
    sigma_over_a = p.cross_section / p.area
    eta = p.photon_flux * sigma_over_a * lor
    epsilon = p.n_atoms * sigma_over_a * lor
    kappa_sq = p.n_atoms * p.photon_flux * (atom_chi(p) / p.detuning) ** 2
    if epsilon >= 1.0:
        raise OpticallyThickError(
            f"single-pass absorption epsilon={epsilon:.3f} >= 1; "
            "slice the gas (scenarios.build_thick) instead"
        )
    return CouplingRates(kappa_sq=kappa_sq, eta=eta, epsilon=epsilon)


def kappa_tau(kappa_sq: float, tau: float) -> float:
    """Dimensionless per-segment coupling sqrt(kappa_sq * tau)."""
    if kappa_sq < 0 or tau < 0:
        raise InvalidInputError("kappa_sq and tau must be nonnegative")
    return math.sqrt(kappa_sq * tau)


def flux_requirement(p: PhysicalParams) -> tuple[float, float]:
    """Photon budget needed to reach the decay-limited squeezing optimum.

    Returns (flux_time_product, min_flux):

    * flux_time_product: lower bound on Phi * t_min assuming percent-level
      absorption, 100 * sqrt(A/sigma) * sqrt(N_at)
    * min_flux: the flux floor 1e8 * sqrt(N_at) s^-1 obtained by capping
      t_min at one millisecond
    """
    root_n = math.sqrt(p.n_atoms)
    flux_time = 100.0 * math.sqrt(p.area / p.cross_section) * root_n
    return flux_time, 1e8 * root_n


def cesium_d1_params(
    n_atoms: float = 2e12,
    photon_flux: float = 5e14,
    area: float = 2e-6,
    detuning_hz: float = 1e10,
) -> PhysicalParams:
    """Cesium D1-line probing configuration used by the bundled presets.

    ``detuning_hz`` is an ordinary frequency; the stored detuning is the
    angular value 2*pi*detuning_hz.  This is the convention under which the
    derived kappa^2 and eta land on the preset operating point.
    """
    return PhysicalParams(
        n_atoms=n_atoms,
        photon_flux=photon_flux,
        area=area,
        detuning=2.0 * math.pi * detuning_hz,
        linewidth=3.1e7,
        wavelength=852e-9,
        dipole=2.61e-29,
    )
