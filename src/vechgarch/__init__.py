"""Closed-form moment estimation for unrestricted vech-GARCH(1,1).

The squared-returns process of a vech-GARCH(1,1) is a VARMA(1,1), so the
model parameters are explicit functions of the process mean and its first
three autocovariances.  This package computes those functions directly:
no likelihood, no optimiser, one cyclic-reduction solve.  It also
provides delta-method standard errors and exact temporal aggregation of
parameter sets.
"""

from . import aggregation, asymptotics, cli, exceptions, linalg, model, moments, simulate, solver
from .aggregation import (
    AggregatedSpec,
    AggregationInput,
    aggregate_data,
    aggregate_params,
    flow_gammas,
    stock_gammas,
)
from .asymptotics import (
    AsymptoticReport,
    JacobianState,
    jacobian_action,
    jacobian_matrix,
    param_names,
    standard_errors,
    xi,
)
from .exceptions import (
    InsufficientData,
    InvalidInput,
    MissingSigmaW,
    NonStationary,
    NotPositiveDefinite,
    NumericalFailure,
    PositivityViolation,
    SingularLyapunov,
    SingularMatrix,
    UnimodularEigenvalues,
    VechGarchError,
)
from .linalg import dlyap, unvech, vech
from .model import (
    Diagnostics,
    GarchSpec,
    MomentSet,
    diagnostics,
    population_moments,
    random_sigma,
    random_spec,
    uncond_h,
)
from .moments import (
    PsiEstimate,
    default_bandwidth,
    hac_psi,
    sample_moments,
)
from .simulate import SimulationResult, simulate, to_x
from .solver import (
    EstimateReport,
    GammaState,
    SigmaRecovery,
    SolventResult,
    build_p,
    estimate,
    gammas,
    phi_lstsq,
    pme_residual,
    nme_residual,
    recover_sigma,
    solve_b,
)

__version__ = "0.1.0"
