"""Fixed-energy connecting trajectories in stationary Lagrangian systems.

The library discretizes curves between a point and a flow line of the
symmetry field, restricts them to the constant-charge constraint manifold,
and minimizes the arrival-time functional whose critical points are exactly
the fixed-energy solutions of the Euler-Lagrange equations.

The package root holds the entry points; the functionals, residuals and
helpers behind them are imported from their modules (`fermatpath.arrival`,
`fermatpath.models`, `fermatpath.paths`, `fermatpath.solve`).
"""

from .arrival import (
    ArrivalEvaluation,
    arrival_gradient,
    arrival_times,
    criticality_residual,
    randers_arrival,
)
from .errors import (
    AdmissibilityError,
    ConstraintViolationError,
    ModelEvaluationError,
    ScenarioError,
    UnsupportedModelError,
)
from .models import (
    Point,
    StationaryModel,
    build_model,
    get_model,
    load_custom_model,
    validate_assumptions,
)
from .paths import (
    DiscretePath,
    apply_flow,
    load_path,
    project_to_N,
    save_path,
    straight_path,
)
from .solve import (
    SolutionRecord,
    SolverOptions,
    minimize_arrival,
    multi_start,
)

__all__ = [
    "AdmissibilityError",
    "ArrivalEvaluation",
    "ConstraintViolationError",
    "DiscretePath",
    "ModelEvaluationError",
    "Point",
    "ScenarioError",
    "SolutionRecord",
    "SolverOptions",
    "StationaryModel",
    "UnsupportedModelError",
    "apply_flow",
    "arrival_gradient",
    "arrival_times",
    "build_model",
    "criticality_residual",
    "get_model",
    "load_custom_model",
    "load_path",
    "minimize_arrival",
    "multi_start",
    "project_to_N",
    "randers_arrival",
    "save_path",
    "straight_path",
    "validate_assumptions",
]
