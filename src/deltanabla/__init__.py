"""Delta-nabla calculus of variations on finite time scales.

The package covers the finite-scale delta/nabla calculus (jump operators,
derivatives, integrals, and their exact conversion identities), weighted
delta-nabla variational problems with both integral Euler-Lagrange forms
and a sampled convexity certificate, the piecewise-linear extension with
directional derivatives, direction-driven problems that unify the two
calculi, and a small expression language so Lagrangians can be written as
text.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    ExpressionSyntaxError,
    ProblemFileError,
    ScaleMismatchError,
)
from .timescale import (
    DomainTag,
    DuboisReymondReport,
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    dubois_reymond_probe,
    hat_variation,
    nabla_derivative,
    nabla_integral,
    shift_rho,
    shift_sigma,
    variation_constraint_matrix,
)
from .extension import (
    PLExtension,
    directional_derivative,
    epigraph_contains,
    extend,
    is_convex,
    secant_slopes,
)
from .expressions import (
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from .variational import (
    Certificate,
    DeltaNablaProblem,
    Lagrangian,
    Solution,
    Term,
    TermSumProblem,
    certify,
    el_residual_1,
    el_residual_2,
    first_variation,
    gradient,
    linear_interpolant,
    local_min_probe,
    norm_1_inf,
    objective,
    solve,
)
from .directional import (
    DirectionalProblem,
    DirectionalSolution,
    d_u_integral,
    directional_el_residual,
    reduced_lagrangian,
    shifted_composition,
    solve_directional,
)
from .identities import (
    FAMILIES,
    IDENTITY_NAMES,
    identity_suite,
    random_grid_function,
    random_scale,
)
from .problemfile import LoadedProblem, load_problem, load_problem_dict

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConfigurationError",
    "DeltaNablaProblem",
    "DirectionalProblem",
    "DirectionalSolution",
    "DomainError",
    "DomainTag",
    "DuboisReymondReport",
    "EvaluationError",
    "ExpressionSyntaxError",
    "FAMILIES",
    "GridFunction",
    "IDENTITY_NAMES",
    "Lagrangian",
    "LoadedProblem",
    "PLExtension",
    "ProblemFileError",
    "ScaleMismatchError",
    "Solution",
    "Term",
    "TermSumProblem",
    "TimeScale",
    "certify",
    "compile_expr",
    "d_u_integral",
    "delta_derivative",
    "delta_integral",
    "differentiate",
    "directional_derivative",
    "directional_el_residual",
    "dubois_reymond_probe",
    "el_residual_1",
    "el_residual_2",
    "epigraph_contains",
    "evaluate",
    "extend",
    "first_variation",
    "gradient",
    "hat_variation",
    "identity_suite",
    "is_convex",
    "linear_interpolant",
    "load_problem",
    "load_problem_dict",
    "local_min_probe",
    "nabla_derivative",
    "nabla_integral",
    "norm_1_inf",
    "objective",
    "parse",
    "random_grid_function",
    "random_scale",
    "reduced_lagrangian",
    "secant_slopes",
    "shift_rho",
    "shift_sigma",
    "shifted_composition",
    "solve",
    "solve_directional",
    "to_source",
    "variation_constraint_matrix",
]
