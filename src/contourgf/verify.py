"""Structure and convergence suites binding the two computation routes.

The structure suite evaluates the closed-form components on a
deterministic sample of time pairs and checks the exact relations they
must satisfy (causality, the equal-time jump, conjugation, Keldysh
anti-Hermiticity, the vanishing rotated block, thermal proportionality
where defined, the contour boundary conditions, and consistency of the
solved constants).  The oracle suite compares the closed forms against
the independently built discrete contour inverse on a sequence of grids
and fits the convergence order.  The closed forms are a rank-d product
``P [W + c] P^dag`` over the contour, so the suite computes them in
blocks of contour rows and compares each block with the same rows of the
discrete inverse: per grid it costs O((N d)^2 d) time and the memory of
the discrete inverse plus one row block.

Both suites are deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_MAX_DIMENSION,
    ContourComponent,
    LevelSystem,
    TimeGrid,
    max_abs,
    propagator_stack,
)
from .continuum import (
    KeldyshComponent,
    component_table,
    fix_constants,
    keldysh_weight,
    regularized_step,
    rotated_block_layout,
    solution_from_constants,
)
from .discrete import (
    _check_dimension,
    contour_branch_signs,
    contour_times,
    discrete_green,
)

__all__ = [
    "CheckResult",
    "ConvergenceReport",
    "assemble_report",
    "chebyshev_interior",
    "continuum_contour_matrix",
    "oracle_checks",
    "oracle_error_bound",
    "run_oracle_suite",
    "run_structure_suite",
]

DEFAULT_THRESHOLD = 1e-12
# Below this error floor a convergence-order fit is meaningless.
ORDER_FLOOR = 1e-12
KELDYSH_SIGN_FLIP = "keldysh_sign_flip"
# Complex entries per row block of the streamed oracle comparison (at
# least one contour row): 1 MiB, so the few block-sized temporaries stay
# small next to the discrete inverse.
ORACLE_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structure check.

    ``passed`` is derived: it is true exactly when ``observed`` does not
    exceed ``threshold``.
    """

    name: str
    observed: float
    threshold: float
    details: str = ""
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.observed <= self.threshold))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "observed": self.observed,
            "threshold": self.threshold,
            "details": self.details,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid-resolved oracle comparison and fitted convergence order.

    ``fitted_order`` is None when every error sits at the roundoff
    floor (for example eps = 0, where the discrete inverse is exact)
    and an order fit would be meaningless.
    """

    grid_sizes: tuple[int, ...]
    errors: tuple[float, ...]
    error_bounds: tuple[float, ...]
    partition_deviations: tuple[float, ...]
    fitted_order: float | None
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "grid_sizes": list(self.grid_sizes),
            "errors": list(self.errors),
            "error_bounds": list(self.error_bounds),
            "partition_deviations": list(self.partition_deviations),
            "fitted_order": self.fitted_order,
            "details": self.details,
        }


def _worst(values) -> float:
    """Largest of ``values``, NaN if any is NaN: Python's ``max`` keeps
    whichever of a NaN and a number comes first."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def chebyshev_interior(t_initial: float, t_final: float, count: int) -> np.ndarray:
    """Chebyshev-spaced points strictly inside (t_initial, t_final)."""
    k = np.arange(count)
    mid = 0.5 * (t_initial + t_final)
    half = 0.5 * (t_final - t_initial)
    return np.sort(mid + half * np.cos((2 * k + 1) * math.pi / (2 * count)))


def _component_tables(system, t_row, t_col, t_ref):
    """R, A and K tables over t_row x t_col."""
    return tuple(
        component_table(system, t_row, t_col, comp, t_ref)
        for comp in (
            KeldyshComponent.RETARDED,
            KeldyshComponent.ADVANCED,
            KeldyshComponent.KELDYSH,
        )
    )


def _corrupt(kel, t_row, t_col, corruption):
    """The Keldysh table with the requested test corruption applied."""
    if corruption == KELDYSH_SIGN_FLIP:
        flip = (np.asarray(t_row)[:, None] > np.asarray(t_col)[None, :])
        return np.where(flip[:, :, None, None], -kel, kel)
    if corruption is not None:
        raise ValueError(f"unknown corruption {corruption!r}")
    return kel


def run_structure_suite(
    system: LevelSystem,
    *,
    t_initial: float = 0.0,
    t_final: float = 1.0,
    seed: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    corruption: str | None = None,
) -> list[CheckResult]:
    """Run all structure checks on a deterministic sample of time pairs.

    The sample crosses seven Chebyshev-spaced interior column times with
    the two endpoints plus three seeded interior row times.  Every check
    compares with ``threshold * max(1, max|W|)``, ``W = 1 + 2 zeta
    nbar^T`` the Keldysh weight, and reports that scaled value as its
    threshold: the roundoff of the checks that multiply by W grows with
    it.  The sampled times are offsets from ``t_initial``, so the
    checks do not depend on where the span lies on the time axis.
    Results are sorted by check name.  ``corruption`` is a test hook
    that flips the sign of the Keldysh component for t > t' before the
    checks run.
    """
    weight = keldysh_weight(system.nbar, system.statistics)
    threshold = threshold * max(1.0, max_abs(weight))
    rng = np.random.default_rng(seed)
    d = system.dimension
    eye = np.eye(d)
    # The closed forms depend on the times only through t - t' and
    # t - t_initial, so the samples are offsets from t_initial: absolute
    # times far from zero would round them together.
    span = t_final - t_initial
    t_col = chebyshev_interior(0.0, span, 7)
    t_interior = np.sort(span * rng.uniform(0.05, 0.95, size=3))
    t_row = np.concatenate([[0.0], t_interior, [span]])

    ret, adv, clean_kel = _component_tables(system, t_row, t_col, 0.0)
    ret_rev, adv_rev, kel_rev = _component_tables(system, t_col, t_row, 0.0)
    kel = _corrupt(clean_kel, t_row, t_col, corruption)
    kel_rev = _corrupt(kel_rev, t_col, t_row, corruption)
    delta = t_row[:, None] - t_col[None, :]
    results = []

    # Causality: retarded vanishes for t < t', advanced for t > t'.
    later = delta > 0
    earlier = delta < 0
    obs = _worst([max_abs(ret[earlier]), max_abs(adv[later])])
    results.append(CheckResult("causality", obs, threshold))

    # Equal-time jump: R(t,t) - A(t,t) = -i.
    diag = component_table(
        system, t_row, t_row, KeldyshComponent.RETARDED, 0.0
    ) - component_table(system, t_row, t_row, KeldyshComponent.ADVANCED, 0.0)
    idx = np.arange(t_row.size)
    obs = float(np.abs(diag[idx, idx] + 1j * eye).max())
    results.append(CheckResult("equal_time_jump", obs, threshold))

    # Conjugation: R(t,t')^dag = A(t',t).
    obs = float(
        np.abs(np.conjugate(np.swapaxes(ret, 2, 3)) - adv_rev.transpose(1, 0, 2, 3)).max()
    )
    results.append(CheckResult("conjugation", obs, threshold))

    # Keldysh anti-Hermiticity: K(t,t')^dag = -K(t',t).
    obs = float(
        np.abs(np.conjugate(np.swapaxes(kel, 2, 3)) + kel_rev.transpose(1, 0, 2, 3)).max()
    )
    results.append(CheckResult("keldysh_antihermiticity", obs, threshold))

    # The rotated zero block, assembled from the branch components.
    combo = {}
    for comp in ContourComponent:
        s_row = comp.row_branch.sign
        s_col = comp.col_branch.sign
        combo[comp.value] = (kel + s_col * ret + s_row * adv) / 2.0
    zero = (combo["++"] + combo["--"] - combo["+-"] - combo["-+"]) / 2.0
    results.append(CheckResult("zero_block", float(np.abs(zero).max()), threshold))

    # Thermal proportionality K = (R - A) (1 + 2 zeta nbar^T), defined
    # only when the occupation commutes with the energy matrix (the
    # transposed occupation must commute as well for the identity to
    # close).
    comm = max_abs(system.epsilon @ system.nbar - system.nbar @ system.epsilon)
    comm_t = max_abs(system.epsilon @ system.nbar.T - system.nbar.T @ system.epsilon)
    if comm <= 1e-12 and comm_t <= 1e-12:
        mask = delta != 0
        diff = kel - (ret - adv) @ weight
        obs = float(np.abs(diff[mask]).max()) if mask.any() else 0.0
        results.append(CheckResult("fdt_proportionality", obs, threshold))
    else:
        results.append(
            CheckResult(
                "fdt_proportionality",
                0.0,
                threshold,
                details=(
                    "not applicable: occupation does not commute with the "
                    f"energy matrix (max |[eps, nbar]| = {comm:.3e})"
                ),
            )
        )

    # Boundary conditions: the second rotated row vanishes at the final
    # time; at the initial time the first row is -(1 + 2 zeta nbar^T)
    # times the second.
    layout = rotated_block_layout(system.statistics)

    def layout_value(row_idx, col_idx, table_row):
        comp = layout[row_idx][col_idx]
        if comp is KeldyshComponent.RETARDED:
            return ret[table_row]
        if comp is KeldyshComponent.ADVANCED:
            return adv[table_row]
        if comp is KeldyshComponent.KELDYSH:
            return kel[table_row]
        return np.zeros_like(ret[table_row])

    final_row = t_row.size - 1
    obs_final = _worst(
        max_abs(layout_value(1, col_idx, final_row)) for col_idx in range(2)
    )
    results.append(CheckResult("boundary_final", obs_final, threshold))

    obs_initial = _worst(
        max_abs(layout_value(0, col_idx, 0) + weight @ layout_value(1, col_idx, 0))
        for col_idx in range(2)
    )
    results.append(CheckResult("boundary_initial", obs_initial, threshold))

    # Solved constants reproduce the uncorrupted closed forms at every
    # position.
    constants = fix_constants(system)
    direct = {
        KeldyshComponent.RETARDED: ret,
        KeldyshComponent.ADVANCED: adv,
        KeldyshComponent.KELDYSH: clean_kel,
        KeldyshComponent.ZERO: 0.0,
    }
    obs = _worst(
        max_abs(
            solution_from_constants(
                system, constants, row_idx, col_idx, t_row, t_col, t_ref=0.0
            )
            - direct[layout[row_idx][col_idx]]
        )
        for row_idx in range(2)
        for col_idx in range(2)
    )
    results.append(CheckResult("constant_fixing", obs, threshold))

    return sorted(results, key=lambda r: r.name)


def _contour_offsets(grid: TimeGrid) -> np.ndarray:
    """Contour times less ``t_initial``, which the closed forms depend on;
    absolute times far from zero would round slices together."""
    return contour_times(TimeGrid(0.0, grid.t_final - grid.t_initial, grid.n_slices))


def _continuum_rows(system: LevelSystem, grid: TimeGrid):
    """Kernel for contour rows of the continuum prediction.

    Every branch component is ``-i U(t) [c + step] U(t')^dag`` with a
    constant block between two propagators, so block (n, m) of the
    prediction is ``-i/2 P_n [W + c(n, m)] P_m^dag`` with ``P_n`` the
    propagator over ``tau_n``, contour time n less ``t_initial``,
    ``W = 1 + 2 zeta nbar^T`` and the scalar
    ``c = s_m theta - s_n (1 - theta)`` from the branch signs and the
    symmetric step ``theta(tau_n - tau_m)``.  Returns
    ``rows(start, stop)``, which computes contour rows start..stop as a
    ``((stop - start) d, 2 N d)`` array from two rank-d products.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    signs = contour_branch_signs(grid)
    props = propagator_stack(system, tau)
    weighted = -0.5j * props @ keldysh_weight(system.nbar, system.statistics)
    free = -0.5j * props
    right = props.conj().transpose(2, 0, 1).reshape(d, tau.size * d)

    def rows(start: int, stop: int) -> np.ndarray:
        count = stop - start
        out = weighted[start:stop].reshape(count * d, d) @ right
        bare = free[start:stop].reshape(count * d, d) @ right
        theta = regularized_step(tau[start:stop, None] - tau[None, :])
        c = signs[None, :] * theta - signs[start:stop, None] * (1.0 - theta)
        blocks = bare.reshape(count, d, tau.size, d)
        blocks *= c[:, None, :, None]
        out += bare
        return out

    return rows


def continuum_contour_matrix(system: LevelSystem, grid: TimeGrid) -> np.ndarray:
    """Continuum prediction for every block of the discrete inverse.

    Assembles the branch components at the contour-ordered times of the
    grid into one ``(2 N d, 2 N d)`` matrix, at the symmetric step value
    on equal times.  Costs O((N d)^2 d) time and the result's memory.
    :func:`run_oracle_suite` streams the same rows instead.
    """
    return _continuum_rows(system, grid)(0, 2 * grid.n_slices)


def _unequal_time_error(
    system: LevelSystem, grid: TimeGrid, green: np.ndarray
) -> float:
    """Largest |G - continuum| over blocks whose row and column times differ.

    Equal-time entries (the same-index diagonal and the cross-branch
    duplicates of one physical time) are excluded: the discrete inverse
    is contour ordered there while the closed forms carry the symmetric
    step value.  The prediction is streamed in blocks of contour rows,
    so only one block of it exists at a time.  NaN when any compared
    entry is NaN.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    rows = _continuum_rows(system, grid)
    block = max(1, ORACLE_BLOCK_ENTRIES // (tau.size * d * d))
    errors = []
    for start in range(0, tau.size, block):
        stop = min(start + block, tau.size)
        diff = rows(start, stop)
        diff -= green[start * d : stop * d]
        row, col = np.nonzero(tau[start:stop, None] == tau[None, :])
        diff.reshape(stop - start, d, tau.size, d)[row, :, col, :] = 0.0
        errors.append(max_abs(diff))
    return _worst(errors)


def oracle_error_bound(system: LevelSystem, grid: TimeGrid) -> float:
    """First-order error allowance ``5 dt (1 + ||eps|| T)``."""
    span = grid.t_final - grid.t_initial
    norm = float(np.linalg.norm(system.epsilon, 2))
    return 5.0 * grid.dt * (1.0 + norm * span)


def run_oracle_suite(
    system: LevelSystem,
    grids: list[TimeGrid],
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> ConvergenceReport:
    """Compare the discrete inverse against the closed forms per grid.

    Requires at least two grids with strictly increasing slice counts
    and identical endpoints.  Reports the maximum block error away from
    equal times, the error allowance, the partition-function deviation
    |Z - 1|, and the order fitted by least squares on the log-log error
    curve (None when all errors sit at the roundoff floor).  Each grid
    is factorized once: Z comes with the discrete inverse.  Raises
    ``FloatingPointError`` when an error is not finite, and
    :class:`~contourgf.core.GridTooLargeError` before any grid is filled
    when ``2 N d`` of the finest grid exceeds ``max_dimension``.  The
    continuum prediction is compared in blocks of contour rows, so each
    grid costs O((N d)^2 d) time and the memory of the discrete inverse
    plus one row block.
    """
    if len(grids) < 2:
        raise ValueError("need at least two grids for a convergence fit")
    sizes = [g.n_slices for g in grids]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    first = grids[0]
    if any(
        g.t_initial != first.t_initial or g.t_final != first.t_final for g in grids
    ):
        raise ValueError("grids must share their endpoints")
    # Refuse an over-cap grid before any fill; the finest is the largest.
    _check_dimension(system, grids[-1], max_dimension)
    errors = []
    bounds = []
    deviations = []
    for grid in grids:
        disc = discrete_green(system, grid, max_dimension)
        error = _unequal_time_error(system, grid, disc.matrix)
        if not math.isfinite(error):
            raise FloatingPointError(
                f"oracle error on {grid.n_slices} slices is {error!r}"
            )
        errors.append(error)
        bounds.append(oracle_error_bound(system, grid))
        deviations.append(float(abs(disc.partition_function - 1.0)))
        # Release this grid's inverse before the next one is filled.
        del disc
    if max(errors) < ORDER_FLOOR:
        order = None
        details = "errors at roundoff floor; order fit not applicable"
    else:
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        order = float(-slope)
        details = ""
    return ConvergenceReport(
        tuple(sizes),
        tuple(errors),
        tuple(bounds),
        tuple(deviations),
        order,
        details,
    )


def oracle_checks(report: ConvergenceReport) -> list[CheckResult]:
    """Pass/fail view of a convergence report for exit-code decisions."""
    checks = [
        CheckResult(
            f"oracle_error_n{size}",
            err,
            bound,
            details="max block deviation vs closed forms, off equal times",
        )
        for size, err, bound in zip(report.grid_sizes, report.errors, report.error_bounds)
    ]
    if report.fitted_order is None:
        checks.append(
            CheckResult(
                "oracle_order",
                0.0,
                0.2,
                details="not applicable: " + report.details,
            )
        )
    else:
        checks.append(
            CheckResult(
                "oracle_order",
                abs(report.fitted_order - 1.0),
                0.2,
                details=f"fitted order {report.fitted_order:.4f}",
            )
        )
    return checks


def assemble_report(
    structure: list[CheckResult],
    convergence: ConvergenceReport | None = None,
    extra_checks: list[CheckResult] | None = None,
) -> dict:
    """Versioned report document for serialization."""
    checks = list(structure) + list(extra_checks or [])
    return {
        "schema": 1,
        "checks": [c.to_dict() for c in checks],
        "convergence": convergence.to_dict() if convergence else None,
        "passed": all(c.passed for c in checks),
    }
