"""Solvers and identification tools for scalar Tresca-friction models.

The package covers the full loop around a variational inequality of the
second kind: smoothing kernels for the nonsmooth friction term, P1 finite
element discretization, forward solvers (nonsmooth oracle and regularized
Newton), forward/adjoint sensitivities, and box-constrained output-least-
squares identification of the ellipticity and friction coefficients.
"""

__version__ = "0.1.0"

from .adjoint import (
    LinearizedMap,
    OptimalityBundle,
    adjoint_solve,
    reduced_gradients,
    reduced_objective,
    solution_derivative,
)
from .discretization import (
    DiscreteOperator,
    Mesh,
    ParameterField,
    assemble_operator,
    build_mesh,
    ellipticity_field,
    friction_field,
    h1_gram,
    interval_mesh,
    mass_matrix,
    reg_inner,
    trace_adjoint,
    trace_apply,
    unit_square_mesh,
    v_norm,
)
from .errors import ConfigError, SolverError
from .forward import (
    ForwardState,
    Problem,
    solution_map,
    solve_regularized,
    solve_vi_oracle,
)
from .identify import (
    IdentificationConfig,
    IdentificationResult,
    continuation_distances,
    continuation_identify,
    identify,
    synthesize_observation,
)
from .kernels import (
    KERNEL_NAMES,
    KernelSpec,
    SmoothedEval,
    from_density,
    get_kernel,
    modulus_smooth,
    plus_smooth,
)

__all__ = [
    "__version__",
    "LinearizedMap",
    "OptimalityBundle",
    "adjoint_solve",
    "reduced_gradients",
    "reduced_objective",
    "solution_derivative",
    "DiscreteOperator",
    "Mesh",
    "ParameterField",
    "assemble_operator",
    "build_mesh",
    "ellipticity_field",
    "friction_field",
    "h1_gram",
    "interval_mesh",
    "mass_matrix",
    "reg_inner",
    "trace_adjoint",
    "trace_apply",
    "unit_square_mesh",
    "v_norm",
    "ConfigError",
    "SolverError",
    "ForwardState",
    "Problem",
    "solution_map",
    "solve_regularized",
    "solve_vi_oracle",
    "IdentificationConfig",
    "IdentificationResult",
    "continuation_distances",
    "continuation_identify",
    "identify",
    "synthesize_observation",
    "KERNEL_NAMES",
    "KernelSpec",
    "SmoothedEval",
    "from_density",
    "get_kernel",
    "modulus_smooth",
    "plus_smooth",
]
