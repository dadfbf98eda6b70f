"""Closed-time-contour Green's functions for free bosons and fermions.

Two independent computational routes are provided and cross-checked:

* closed-form continuum expressions fixed by the contour boundary
  conditions (:mod:`contourgf.continuum`),
* inversion of the discrete contour action matrix on a finite time grid
  (:mod:`contourgf.discrete`).

:mod:`contourgf.verify` binds the two routes together with structure and
convergence suites; :mod:`contourgf.cli` exposes them as a command-line
tool.  All functions are pure and keep no global state, so callers may
parallelize over systems or time pairs freely.
"""

from .core import (
    Branch,
    ContourComponent,
    GridTooLargeError,
    IllConditionedWarning,
    LevelSystem,
    NonHermitianError,
    OccupationOutOfRangeError,
    SingularMatrixError,
    Statistics,
    ThermalDivergenceError,
    TimeGrid,
)
from .continuum import (
    KeldyshComponent,
    SolutionConstants,
    component_table,
    fix_constants,
    gf_component,
    initial_boundary_ratio,
    keldysh_weight,
    normalization_prefactor,
    regularized_step,
    rho_from_nbar,
    rotated_block_layout,
    solution_from_constants,
    thermal_nbar,
)
from .discrete import (
    DiscreteGf,
    contour_times,
    discrete_green,
    discrete_partition_function,
)
from .verify import (
    CheckResult,
    ConvergenceReport,
    assemble_report,
    oracle_checks,
    oracle_error_bound,
    run_oracle_suite,
    run_structure_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CheckResult",
    "ContourComponent",
    "ConvergenceReport",
    "DiscreteGf",
    "GridTooLargeError",
    "IllConditionedWarning",
    "KeldyshComponent",
    "LevelSystem",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "SolutionConstants",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "assemble_report",
    "component_table",
    "contour_times",
    "discrete_green",
    "discrete_partition_function",
    "fix_constants",
    "gf_component",
    "initial_boundary_ratio",
    "keldysh_weight",
    "normalization_prefactor",
    "oracle_checks",
    "oracle_error_bound",
    "regularized_step",
    "rho_from_nbar",
    "rotated_block_layout",
    "run_oracle_suite",
    "run_structure_suite",
    "solution_from_constants",
    "thermal_nbar",
]
