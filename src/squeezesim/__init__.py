"""Gaussian-state simulation of spin squeezing and precision angle probing.

Collective atomic spin and probe polarization are tracked as canonical
Gaussian variables: means plus a covariance matrix, propagated through
bilinear couplings, loss channels, and measurement conditioning.  Closed
forms for the squeezing curves and estimation limits live in ``analytic``
and double as oracles for the discrete engine.
"""

__version__ = "0.1.0"

from .analytic import (
    CollectiveVariable,
    EstimationParams,
    SqueezeCurveParams,
    collective_decomposition,
    dp_min,
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
from .errors import (
    ConfigError,
    DegenerateCovarianceError,
    DivergenceError,
    InvalidInputError,
    NoMinimumError,
    OpticallyThickError,
    SqueezesimError,
)
from .gaussian_core import (
    GaussianState,
    StepOperators,
    TimeSeries,
    TrajectoryRecord,
    apply_step,
    measure_light_x,
    squeezing_minimum,
    standard_labels,
    vacuum_state,
    variance_of,
)
from .numerics import integrate_scalar_ode, sym_eig_min
from .physics import (
    CouplingRates,
    PhysicalParams,
    cesium_d1_params,
    derive_rates,
    flux_requirement,
    kappa_tau,
)
from .scenarios import (
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
