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
    ContourIndex,
    GridTooLargeError,
    IllConditionedWarning,
    IndexOutOfRangeError,
    LevelSystem,
    NonHermitianError,
    OccupationOutOfRangeError,
    SingularMatrixError,
    Statistics,
    ThermalDivergenceError,
    TimeGrid,
    Tolerances,
)
from .continuum import (
    KeldyshComponent,
    SolutionConstants,
    component_table,
    fix_constants,
    gf_component,
    initial_boundary_ratio,
    keldysh_rotate_boson,
    keldysh_rotate_fermion,
    keldysh_unrotate_boson,
    keldysh_unrotate_fermion,
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
    build_contour_matrix,
    contour_branch_signs,
    contour_times,
    discrete_green,
    discrete_partition_function,
    extract_component,
)
from .verify import (
    CheckResult,
    ConvergenceReport,
    assemble_report,
    continuum_contour_matrix,
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
    "ContourIndex",
    "ConvergenceReport",
    "DiscreteGf",
    "GridTooLargeError",
    "IllConditionedWarning",
    "IndexOutOfRangeError",
    "KeldyshComponent",
    "LevelSystem",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "SolutionConstants",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "Tolerances",
    "assemble_report",
    "build_contour_matrix",
    "component_table",
    "continuum_contour_matrix",
    "contour_branch_signs",
    "contour_times",
    "discrete_green",
    "discrete_partition_function",
    "extract_component",
    "fix_constants",
    "gf_component",
    "initial_boundary_ratio",
    "keldysh_rotate_boson",
    "keldysh_rotate_fermion",
    "keldysh_unrotate_boson",
    "keldysh_unrotate_fermion",
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
