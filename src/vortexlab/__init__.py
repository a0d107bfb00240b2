"""vortexlab: a numerical laboratory for Ginzburg-Landau vortices in
periodically heterogeneous planar media.

The package computes, at desk scale, the quantities that control the
asymptotic energy of vortices in a medium with a fast-oscillating periodic
coefficient: the effective (homogenized) tensor, the per-vortex
singularity cost on annuli (oscillating and homogenized), energy
minimization with topological degree constraints, vortex detection, the
ball-construction energy lower bound, the flat distance between atomic
vortex measures, and batch scaling studies comparing measured energies to
the predicted limits.
"""

__version__ = "0.1.0"

from .cell_problem import (
    CorrectorSolution,
    HomogenizedTensor,
    TensorRefinement,
    homogenized_tensor,
    refine_tensor,
    solve_corrector,
)
from .coefficients import (
    PeriodicCoefficient,
    checkerboard,
    constant,
    laminate,
    raster,
    raster_from_file,
    smooth_trigonometric,
)
from .fields import (
    CartesianGrid,
    PolarGrid,
    ScalarField2D,
    VectorField2D,
)
from .solvers import SolverError
from .vortex_analysis import (
    Rectangle,
    VortexMeasure,
    boundary_degree,
    detect_vortices,
    flat_distance,
    jacobian,
)
from .singularity_cost import (
    AnnulusProblem,
    PsiEstimate,
    capital_psi,
    min_annulus_energy,
    oscillating_annulus_grid,
    predicted_gamma_limit,
    psi_of_z,
)
from .ball_construction import (
    BallTimeline,
    WeightedBall,
    evolve,
    lower_bound,
)
from .gl_solver import (
    GLParameters,
    MinimizationReport,
    MinimizeBudget,
    core_radius_energy,
    gl_energy,
    minimize_gl,
    recovery_field,
)
from .experiments import (
    ExperimentConfig,
    ScalingRow,
    emit_report,
    parse_config,
    run_scaling_study,
)

__all__ = [
    "__version__",
    "PeriodicCoefficient",
    "constant",
    "checkerboard",
    "laminate",
    "smooth_trigonometric",
    "raster",
    "raster_from_file",
    "CartesianGrid",
    "PolarGrid",
    "ScalarField2D",
    "VectorField2D",
    "HomogenizedTensor",
    "CorrectorSolution",
    "TensorRefinement",
    "solve_corrector",
    "homogenized_tensor",
    "refine_tensor",
    "SolverError",
    "Rectangle",
    "VortexMeasure",
    "jacobian",
    "boundary_degree",
    "detect_vortices",
    "flat_distance",
    "AnnulusProblem",
    "PsiEstimate",
    "oscillating_annulus_grid",
    "min_annulus_energy",
    "psi_of_z",
    "capital_psi",
    "predicted_gamma_limit",
    "WeightedBall",
    "BallTimeline",
    "evolve",
    "lower_bound",
    "GLParameters",
    "MinimizeBudget",
    "MinimizationReport",
    "gl_energy",
    "recovery_field",
    "core_radius_energy",
    "minimize_gl",
    "ExperimentConfig",
    "ScalingRow",
    "parse_config",
    "run_scaling_study",
    "emit_report",
]
