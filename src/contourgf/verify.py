"""Structure and convergence suites binding the two computation routes.

The structure suite evaluates the closed-form components on a
deterministic sample of time pairs and checks the exact relations they
must satisfy (causality, the equal-time jump, conjugation, Keldysh
anti-Hermiticity, the vanishing rotated block, thermal proportionality
where defined, the contour boundary conditions, and consistency of the
solved constants), each on one table per component and orientation.
The oracle suite compares the closed forms against the independently
built discrete contour inverse on a sequence of grids and fits the
convergence order.  Along a contour row the closed forms are a rank-d
product with the greater weight, less the jump to the lesser weight
after the row; within a branch that jump, like the discrete inverse's
own within-branch term, depends only on the lag.  So the suite computes
the difference directly, in blocks of contour rows: at most two
products of stacked low-rank factors and one block-Toeplitz add per
branch, into one block buffer that serves every grid.  Per grid it costs
O((N d)^2 d) time and O(N d^2) memory besides that buffer.  Reports
serialize from their dataclasses.

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
from .discrete import (
    _check_dimension,
    _factor,
    _green_factors,
    _lag_blocks,
    _row_kernel,
    _upper_toeplitz,
    contour_times,
)

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
# least one contour row): 768 KiB, and 384 KiB more for the float buffer
# of its magnitudes.  Allocated once per suite, the two set the
# comparison's memory with the O(N d^2) factors of one grid.
ORACLE_BLOCK_ENTRIES = 3 * 2**14


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


def _continuum_factors(system: LevelSystem, grid: TimeGrid):
    """Row and column factors of the continuum prediction, from the
    closed forms.

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
    Returns ``(greater, lesser, right)``: block (n, m) is
    ``greater[n] @ right[:, m]`` before the row and
    ``lesser[n] @ right[:, m]`` after it, and ``greater[n] - lesser[n]``
    is the jump ``-i P_n``.  The row factors are ``(2 N d, d)`` arrays,
    ``[n]`` the n-th group of d rows, and ``right`` is ``(d, 2 N d)``.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    props = propagator_stack(system, tau)
    right = props.conj().transpose(2, 0, 1).reshape(d, tau.size * d)
    props = props.reshape(-1, d)
    weight = keldysh_weight(system)
    greater = -0.5j * props @ (weight + np.eye(d))
    lesser = -0.5j * props @ (weight - np.eye(d))
    return greater, lesser, right


def _equal_time_pairs(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (n, m) with ``tau_n == tau_m``, sorted by n then m.

    One sort groups the equal times; every member of a group is paired
    with every member, itself included.
    """
    order = np.argsort(tau, kind="stable")
    ordered = tau[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, tau.size])
    # Per sorted position, the first position and the size of its group;
    # each position is repeated once per member of its group.
    first = np.repeat(starts, sizes)
    size = np.repeat(sizes, sizes)
    position = np.repeat(np.arange(tau.size), size)
    member = np.arange(position.size) - np.repeat(np.cumsum(size) - size, size)
    row, col = order[position], order[first[position] + member]
    by_row = np.lexsort((col, row))
    return row[by_row], col[by_row]


def _difference_rows(system: LevelSystem, grid: TimeGrid, fac):
    """Kernel for contour rows of ``G - C``, the discrete inverse of
    ``fac`` less the continuum prediction, by
    :func:`~contourgf.discrete._row_kernel`.

    C is the greater product of :func:`_continuum_factors` less the jump
    ``-i U(tau_n - tau_m)`` to the lesser one after the row; every
    backward column is after a forward row.  Within a branch the jump,
    like G's own within-branch term, depends only on the lag, so it
    joins G's lag tables once per grid: ``-i U(-lag dt)`` forward,
    ``-i U(lag dt)`` backward and ``-i/2`` at lag 0, where the row's own
    column takes the mean.  So a block costs ``[L_G | L_C^>] @ [R_G;
    -R_C]``, ``[L_G | L_C^< | forward rows] @ [R_G; -R_C; cross]`` from
    forward rows to backward columns, and one Toeplitz add.  Raises
    ``FloatingPointError`` when an entry of G could overflow.
    """
    d = system.dimension
    n = grid.n_slices
    discrete = _green_factors(fac)
    greater, lesser, right = _continuum_factors(system, grid)
    columns = np.vstack([discrete.columns[:d], right, discrete.columns[d:]])
    columns[d : 2 * d] *= -1
    left, forward_rows = discrete.left, discrete.forward_rows
    # The copied factors go before the lag tables, where a grid peaks.
    del discrete, right
    # Forward tau is dt, 2 dt, ..., so -R_C holds -P_m^dag = -U(-(m + 1) dt):
    # i times it is the forward jump at lag m + 1, i times its adjoint the
    # backward one.
    earlier = columns[d : 2 * d].reshape(d, -1, d)[:, : n - 1]
    forward, backward = _lag_blocks(fac)
    forward[:, n:] += 1j * earlier
    backward[:, n:] += 1j * earlier.conj().transpose(2, 1, 0)
    forward[:, n - 1] = backward[:, n - 1] = -0.5j * np.eye(d)
    return _row_kernel(
        [left, greater],
        [left, lesser, forward_rows],
        columns,
        (_upper_toeplitz(forward), _upper_toeplitz(backward)),
    )


def _block_rows(system: LevelSystem, grid: TimeGrid) -> int:
    """Contour rows per streamed block: at least one, at most all."""
    rows = ORACLE_BLOCK_ENTRIES // (2 * grid.n_slices * system.dimension**2)
    return min(max(1, rows), 2 * grid.n_slices)


def _workspace(system: LevelSystem, grids) -> tuple[np.ndarray, np.ndarray]:
    """Flat complex block and float magnitude buffers for the largest row
    block over ``grids``."""
    d = system.dimension
    entries = max(_block_rows(system, g) * 2 * g.n_slices * d * d for g in grids)
    return np.empty(entries, dtype=complex), np.empty(entries)


def _unequal_time_error(
    system: LevelSystem, grid: TimeGrid, difference_rows, workspace
) -> float:
    """Largest |G - continuum| over blocks whose row and column times differ.

    ``difference_rows(start, stop, out)`` writes contour rows start..stop
    of ``G - C`` into ``out``, as the kernel of :func:`_difference_rows`
    does.  Equal-time entries (the same-index diagonal and the
    cross-branch duplicates of one physical time) are excluded: the
    discrete inverse is contour ordered there while the closed forms
    carry the symmetric step value.  Their pairs are found once per
    grid, and each block zeroes its slice of them.  The blocks stream
    through ``workspace``, from :func:`_workspace` for grids including
    this one, so no block-sized array is allocated.  NaN when any
    compared entry is NaN.
    """
    d = system.dimension
    tau = _contour_offsets(grid)
    width = tau.size * d
    block = _block_rows(system, grid)
    starts = np.arange(0, tau.size, block)
    # The flat positions in G - C of the d x d blocks of the equal-time
    # pairs, in row order, and where each block of rows begins there.
    pair_rows, pair_cols = _equal_time_pairs(tau)
    entries = np.arange(d)[:, None] * width + np.arange(d)
    flat = ((pair_rows * width + pair_cols) * d)[:, None, None] + entries
    flat = flat.reshape(-1)
    edges = np.searchsorted(pair_rows, np.r_[starts, tau.size]) * d * d
    buffer, magnitudes = workspace
    errors = []
    for start, low, high in zip(starts, edges, edges[1:]):
        stop = min(start + block, tau.size)
        shape = ((stop - start) * d, width)
        size = shape[0] * width
        diff = difference_rows(start, stop, buffer[:size].reshape(shape))
        diff.reshape(-1)[flat[low:high] - start * d * width] = 0.0
        errors.append(float(np.abs(diff, out=magnitudes[:size].reshape(shape)).max()))
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
    curve (None when all errors sit at the roundoff floor).  All grids
    are factorized once, in one stacked pass before any comparison: Z,
    the condition estimate and the rows of the discrete inverse come
    from that factorization.  Raises
    :class:`~contourgf.core.GridTooLargeError` before any grid is
    factorized when ``2 N d`` of the finest grid exceeds
    ``max_dimension``, and ``FloatingPointError`` when ``eps dt``
    overflows on any grid.  Then, grid by grid: raises
    :class:`~contourgf.core.SingularMatrixError` when A' is singular,
    warns with :class:`~contourgf.core.IllConditionedWarning` when D'
    is ill-conditioned and raises ``FloatingPointError`` when Z
    overflows, for every grid before any comparison; after that, raises
    ``FloatingPointError`` when an error or an entry of G is not
    finite.  The discrete inverse less the continuum
    prediction is computed in blocks of contour rows
    (:func:`_difference_rows`) through one block buffer for all grids,
    so each grid costs O((N d)^2 d) time and the memory of one row block:
    the cap bounds the work here, not the memory.
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
    factorizations = _factor(system, grids)
    workspace = _workspace(system, grids)
    errors = []
    bounds = []
    deviations = []
    for grid in grids:
        # Each grid's factorization is released once its grid is done.
        fac = factorizations.pop(0)
        error = _unequal_time_error(
            system, grid, _difference_rows(system, grid, fac), workspace
        )
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
