"""Structure and convergence suites binding the two computation routes.

The structure suite evaluates the closed-form components on a
deterministic sample of time pairs and checks the exact relations they
must satisfy (causality, the equal-time jump, conjugation, Keldysh
anti-Hermiticity, the vanishing rotated block, thermal proportionality
where defined, the contour boundary conditions, and consistency of the
solved constants), each on one table per component and orientation.
The oracle suite compares the closed forms against the independently
built discrete contour inverse on a sequence of grids and fits the
convergence order.  Along a contour row the closed forms are one rank-d
product with the greater weight for the columns before the row and one
with the lesser weight for the columns after it, and the discrete
inverse is a rank-d product plus a block-Toeplitz term, so the suite
computes both in blocks of contour rows and compares them block by
block: per grid it costs O((N d)^2 d) time and the memory of a few row
blocks, independent of N.  Reports serialize from their dataclasses.

Both suites are deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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
    rotated_block_layout,
    solution_from_constants,
)
from .discrete import _check_dimension, _factor, _green_rows, contour_times

__all__ = [
    "CheckResult",
    "ConvergenceReport",
    "assemble_report",
    "oracle_checks",
    "oracle_error_bound",
    "run_oracle_suite",
    "run_structure_suite",
]

DEFAULT_THRESHOLD = 1e-12
# Below this error floor a convergence-order fit is meaningless.
ORDER_FLOOR = 1e-12
# Complex entries per row block of the streamed oracle comparison (at
# least one contour row): 1 MiB.  A few block-sized temporaries set the
# comparison's memory, whatever the grid.
ORACLE_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structure check; its fields in order are the keys
    of its report entry.

    ``passed`` is derived: it is true exactly when ``observed`` does not
    exceed ``threshold``.
    """

    name: str
    passed: bool = field(init=False)
    observed: float
    threshold: float
    details: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", bool(self.observed <= self.threshold))


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


def _worst(values) -> float:
    """Largest of ``values``, 0 for none, NaN if any is NaN: Python's
    ``max`` keeps whichever of a NaN and a number comes first."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def chebyshev_interior(t_initial: float, t_final: float, count: int) -> np.ndarray:
    """Chebyshev-spaced points strictly inside (t_initial, t_final)."""
    k = np.arange(count)
    mid = 0.5 * (t_initial + t_final)
    half = 0.5 * (t_final - t_initial)
    return np.sort(mid + half * np.cos((2 * k + 1) * math.pi / (2 * count)))


def run_structure_suite(
    system: LevelSystem,
    *,
    t_initial: float = 0.0,
    t_final: float = 1.0,
    seed: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    corrupt_keldysh: bool = False,
) -> list[CheckResult]:
    """Run all structure checks on a deterministic sample of time pairs.

    The sample crosses seven Chebyshev-spaced interior column times with
    the two endpoints plus three seeded interior row times.  R, A and K
    are tabulated once over row times by column times, and A and K once
    the other way round; each check reads its components there and
    reports the largest entry of its deviations.  Every check compares
    with ``threshold * max(1, max|W|)``, ``W = 1 + 2 zeta nbar^T`` the
    Keldysh weight, and reports that scaled value as its threshold: the
    roundoff of the checks that multiply by W grows with it.  The
    sampled times are offsets from ``t_initial``, so the checks do not
    depend on where the span lies on the time axis.  Results are sorted
    by check name.  ``corrupt_keldysh`` is a test hook that flips the
    sign of the Keldysh component for t > t' before the checks run; the
    solved constants are still compared with the uncorrupted one.
    """
    ret, adv, kel, zero = KeldyshComponent  # in definition order
    weight = keldysh_weight(system)
    threshold = threshold * max(1.0, max_abs(weight))
    rng = np.random.default_rng(seed)
    # The closed forms depend on the times only through t - t' and
    # t - t_initial, so the samples are offsets from t_initial: absolute
    # times far from zero would round them together.
    span = t_final - t_initial
    t_col = chebyshev_interior(0.0, span, 7)
    t_interior = np.sort(span * rng.uniform(0.05, 0.95, size=3))
    t_row = np.concatenate([[0.0], t_interior, [span]])

    d = system.dimension
    delta = t_row[:, None] - t_col[None, :]
    forward = {
        c: component_table(system, t_row, t_col, c, 0.0) for c in (ret, adv, kel)
    }
    # One zero block, which broadcasts against any table or table row.
    forward[zero] = np.zeros((1, 1, d, d))
    clean = dict(forward)  # constant_fixing reads the uncorrupted K
    # backward[c][i, j] is component c at (t_col[j], t_row[i]).
    backward = {
        c: component_table(system, t_col, t_row, c, 0.0).transpose(1, 0, 2, 3)
        for c in (adv, kel)
    }
    if corrupt_keldysh:
        # Flip the sign of K(t, t') for t > t' in both orientations.
        for table, later in ((forward, delta > 0), (backward, delta < 0)):
            table[kel] = np.where(later[:, :, None, None], -table[kel], table[kel])
    results = []

    def check(name, deviations, details=""):
        observed = _worst(map(max_abs, deviations))
        results.append(CheckResult(name, observed, threshold, details))

    # Causality: retarded vanishes for t < t', advanced for t > t'.
    check("causality", (forward[ret][delta < 0], forward[adv][delta > 0]))

    # Equal-time jump: R(t,t) - A(t,t) = -i.
    diag = component_table(system, t_row, t_row, ret, 0.0) - component_table(
        system, t_row, t_row, adv, 0.0
    )
    idx = np.arange(t_row.size)
    check("equal_time_jump", [diag[idx, idx] + 1j * np.eye(d)])

    # Conjugation: R(t,t')^dag = A(t',t).
    check("conjugation", [forward[ret].conj().swapaxes(2, 3) - backward[adv]])

    # Keldysh anti-Hermiticity: K(t,t')^dag = -K(t',t).
    check(
        "keldysh_antihermiticity", [forward[kel].conj().swapaxes(2, 3) + backward[kel]]
    )

    # The rotated zero block, assembled from the branch components.
    combo = {}
    for c in ContourComponent:
        s_row, s_col = c.row_branch.sign, c.col_branch.sign
        combo[c.value] = (
            forward[kel] + s_col * forward[ret] + s_row * forward[adv]
        ) / 2.0
    check("zero_block", [(combo["++"] + combo["--"] - combo["+-"] - combo["-+"]) / 2.0])

    # Thermal proportionality K = (R - A) (1 + 2 zeta nbar^T), defined
    # only when the occupation commutes with the energy matrix (the
    # transposed occupation must commute as well for the identity to
    # close).
    comm = max_abs(system.epsilon @ system.nbar - system.nbar @ system.epsilon)
    comm_t = max_abs(system.epsilon @ system.nbar.T - system.nbar.T @ system.epsilon)
    if comm <= 1e-12 and comm_t <= 1e-12:
        diff = forward[kel] - (forward[ret] - forward[adv]) @ weight
        check("fdt_proportionality", [diff[delta != 0]])
    else:
        check(
            "fdt_proportionality",
            [],
            "not applicable: occupation does not commute with the energy "
            f"matrix (max |[eps, nbar]| = {comm:.3e})",
        )

    # Boundary conditions: the second rotated row vanishes at the final
    # time; at the initial time the first row is -(1 + 2 zeta nbar^T)
    # times the second.
    layout = rotated_block_layout(system.statistics)
    first, second = ([forward[c] for c in row] for row in layout)
    check("boundary_final", (table[-1] for table in second))
    check("boundary_initial", (a[0] + weight @ b[0] for a, b in zip(first, second)))

    # Solved constants reproduce the uncorrupted closed forms at every
    # position.
    constants = fix_constants(system)
    check(
        "constant_fixing",
        (
            solution_from_constants(
                system, constants, row, col, t_row, t_col, t_ref=0.0
            )
            - clean[layout[row][col]]
            for row in range(2)
            for col in range(2)
        ),
    )

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
    symmetric step ``theta(tau_n - tau_m)``.  Contour times increase
    along the forward branch and decrease along the backward one, so c
    is ``sign(n - m)``, the contour ordering of the two positions: a
    column before the row carries ``W + 1``, twice the greater weight
    ``1 + zeta nbar^T``, a column after it ``W - 1``, twice the lesser
    weight ``zeta nbar^T``, and the row's own column their mean ``W``.
    Returns ``rows(start, stop, out=None)``, which computes contour rows
    start..stop as a ``((stop - start) d, 2 N d)`` array, into ``out``
    (C-contiguous) when given: the columns up to ``stop`` as one rank-d
    product with the greater weight and those from ``stop`` on as one
    with the lesser weight, each written in place.  Only the square of
    columns start..stop, where the ordering changes inside the block,
    also takes the lesser product, for its columns after the row and
    for the mean on its diagonal.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    props = propagator_stack(system, tau)
    weight = keldysh_weight(system)
    greater = -0.5j * props @ (weight + np.eye(d))
    lesser = -0.5j * props @ (weight - np.eye(d))
    right = props.conj().transpose(2, 0, 1).reshape(d, tau.size * d)

    def rows(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        count = stop - start
        if out is None:
            out = np.empty((count * d, tau.size * d), dtype=complex)
        low, high = start * d, stop * d
        greater_rows = greater[start:stop].reshape(count * d, d)
        lesser_rows = lesser[start:stop].reshape(count * d, d)
        np.matmul(greater_rows, right[:, :high], out=out[:, :high])
        np.matmul(lesser_rows, right[:, high:], out=out[:, high:])
        square = out.reshape(count, d, tau.size, d)[:, :, start:stop]
        square_after = (lesser_rows @ right[:, low:high]).reshape(count, d, count, d)
        later = ~np.tri(count, dtype=bool)
        np.copyto(square, square_after, where=later[:, None, :, None])
        k = np.arange(count)
        square[k, :, k] = 0.5 * (square[k, :, k] + square_after[k, :, k])
        return out

    return rows


def _unequal_time_error(system: LevelSystem, grid: TimeGrid, green_rows) -> float:
    """Largest |G - continuum| over blocks whose row and column times differ.

    ``green_rows(start, stop, out)`` writes contour rows start..stop of
    the discrete G into ``out``, as the kernel of :func:`_continuum_rows`
    does for the prediction.  Equal-time entries (the same-index
    diagonal and the cross-branch duplicates of one physical time) are
    excluded: the discrete inverse is contour ordered there while the
    closed forms carry the symmetric step value.  Both are streamed in
    blocks of contour rows into two block buffers allocated once, so
    only one block of each exists at a time and no block is allocated
    anew.  NaN when any compared entry is NaN.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    rows = _continuum_rows(system, grid)
    block = max(1, ORACLE_BLOCK_ENTRIES // (tau.size * d * d))
    # Block-sized arrays allocated and freed per block would be returned
    # to the system and page-faulted back each time.
    predicted = np.empty((min(block, tau.size) * d, tau.size * d), dtype=complex)
    discrete = np.empty_like(predicted)
    errors = []
    for start in range(0, tau.size, block):
        stop = min(start + block, tau.size)
        count = (stop - start) * d
        diff = rows(start, stop, predicted[:count])
        diff -= green_rows(start, stop, discrete[:count])
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
    is factorized once: Z, the condition estimate and the rows of the
    discrete inverse come from that factorization.  Raises
    ``FloatingPointError`` when an error, Z or an entry of G is not
    finite, and :class:`~contourgf.core.GridTooLargeError` before any
    grid is factorized when ``2 N d`` of the finest grid exceeds
    ``max_dimension``.  The discrete inverse and the continuum
    prediction are compared in blocks of contour rows, so each grid
    costs O((N d)^2 d) time and the memory of a few row blocks: the cap
    bounds the work here, not the memory.
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
    # Refuse an over-cap grid before any work; the finest is the largest.
    _check_dimension(system, grids[-1], max_dimension)
    errors = []
    bounds = []
    deviations = []
    for grid in grids:
        fac = _factor(system, grid)
        error = _unequal_time_error(system, grid, _green_rows(fac))
        if not math.isfinite(error):
            raise FloatingPointError(
                f"oracle error on {grid.n_slices} slices is {error!r}"
            )
        errors.append(error)
        bounds.append(oracle_error_bound(system, grid))
        deviations.append(float(abs(fac.partition_function - 1.0)))
    if max(errors) < ORDER_FLOOR:
        order = None
        details = "errors at roundoff floor; order fit not applicable"
    else:
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        order = float(-slope)
        details = ""
    return ConvergenceReport(
        tuple(sizes), tuple(errors), tuple(bounds), tuple(deviations), order, details
    )


def oracle_checks(report: ConvergenceReport) -> list[CheckResult]:
    """Pass/fail view of a convergence report for exit-code decisions."""
    order = report.fitted_order
    return [
        CheckResult(
            f"oracle_error_n{size}",
            err,
            bound,
            details="max block deviation vs closed forms, off equal times",
        )
        for size, err, bound in zip(report.grid_sizes, report.errors, report.error_bounds)
    ] + [
        CheckResult(
            "oracle_order",
            0.0 if order is None else abs(order - 1.0),
            0.2,
            details=(
                "not applicable: " + report.details
                if order is None
                else f"fitted order {order:.4f}"
            ),
        )
    ]


def assemble_report(
    structure: list[CheckResult],
    convergence: ConvergenceReport | None = None,
) -> dict:
    """Versioned report document for serialization: the structure checks,
    followed by the oracle checks of ``convergence`` when given."""
    checks = list(structure)
    if convergence is not None:
        checks += oracle_checks(convergence)
    return {
        "schema": 1,
        "checks": [asdict(c) for c in checks],
        "convergence": asdict(convergence) if convergence is not None else None,
        "passed": all(c.passed for c in checks),
    }
