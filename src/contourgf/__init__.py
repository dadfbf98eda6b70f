"""Closed-time-contour Green's functions for free bosons and fermions.

Two independent computational routes are provided and cross-checked:

* closed-form continuum expressions fixed by the contour boundary
  conditions (:mod:`contourgf.continuum`),
* inversion of the discrete contour action matrix on a finite time grid
  (:mod:`contourgf.discrete`).

:mod:`contourgf.verify` binds the two routes together with structure and
convergence suites; :mod:`contourgf.cli` exposes them as a command-line
tool.  Every result depends only on the arguments, so callers may
parallelize over systems or time pairs freely; the private number
formatter of ``gf`` fills lookup tables per process on first use, which
changes no output.
"""

from .core import (
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
    component_table,
    fix_constants,
    keldysh_weight,
    regularized_step,
    rotated_block_layout,
    thermal_nbar,
)
from .discrete import contour_times
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
    "CheckResult",
    "ContourComponent",
    "ConvergenceReport",
    "GridTooLargeError",
    "IllConditionedWarning",
    "KeldyshComponent",
    "LevelSystem",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "assemble_report",
    "component_table",
    "contour_times",
    "fix_constants",
    "keldysh_weight",
    "oracle_checks",
    "oracle_error_bound",
    "regularized_step",
    "rotated_block_layout",
    "run_oracle_suite",
    "run_structure_suite",
    "thermal_nbar",
]
