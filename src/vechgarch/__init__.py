"""Closed-form moment estimation for unrestricted vech-GARCH(1,1).

The squared-returns process of a vech-GARCH(1,1) is a VARMA(1,1), so the
model parameters are explicit functions of the process mean and its first
three autocovariances.  This package computes those functions directly:
no likelihood, no optimiser, one cyclic-reduction solve.  It also
provides delta-method standard errors and exact temporal aggregation of
parameter sets.

The top level exports that chain and nothing else: moments, the
estimate, its standard errors, aggregation, and the typed errors.  Each
stage's helpers (``solve_b``, ``dlyap``, ``stock_gammas``, ...) are
imported from their own module, e.g. ``from vechgarch.solver import
solve_b``.
"""

from . import aggregation, asymptotics, cli, exceptions, linalg, model, moments, solver
from .aggregation import AggregatedSpec, AggregationInput, aggregate_data, aggregate_params
from .asymptotics import AsymptoticReport, JacobianState, jacobian_matrix, standard_errors, xi
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
from .linalg import unvech, vech
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
from .moments import PsiEstimate, hac_psi, sample_moments
from .simulate import SimulationResult, simulate, to_x
from .solver import EstimateReport, estimate

__version__ = "0.1.0"
