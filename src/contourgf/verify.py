"""Structure and convergence suites binding the two computation routes.

The structure suite evaluates the closed-form components on a
deterministic sample of time pairs and checks the exact relations they
must satisfy (causality, the equal-time jump, conjugation, Keldysh
anti-Hermiticity, the vanishing rotated block, thermal proportionality
where defined, the contour boundary conditions, and consistency of the
solved constants), each on one table per component and orientation.
Every table comes from a pair of sides, times and their propagator
stack, as ``gf``'s do, and the suite computes the step, the free and the
Keldysh product of each pair once (row by column, column by row, and
row by row times): every table over that pair reads them.  The branch
components come from the suite's R, A and K by the combination ``gf``
applies, and a solved constant block that is exactly zero takes no
product.  The row-by-column pair is
released before the column-by-row one is built, so at most one pair's
products are alive.
A suite call computes the Keldysh weight W and the statistics' layout
once, and every pair and the solved constants read them; each check's
deviations are reduced one at a time through one buffer of a table's
magnitudes, and no deviation is alive beside the next.
The oracle suite compares the closed forms against the independently
built discrete contour inverse on a sequence of grids and fits the
convergence order.  Along a contour row the closed forms are a rank-d
product with the greater weight, less the jump to the lesser weight
after the row; at the row's own column the step takes the contour
order, the row the later position, as in the discrete inverse, so the
comparison covers every entry.  Within a branch that jump, like the
discrete inverse's own within-branch term, depends only on the lag.  So
this suite places the closed forms, their factors negated, into the
inverse's operand set and reads back one number per grid, the largest
entry of the difference: ``discrete`` owns the set's layout and the stream that
takes that maximum, its tiles, buffers and cost.
Reports serialize from their dataclasses, whose field tables give the
keys in order; ``cli`` writes them as ``json.dumps(indent=2)`` would.

Both suites are deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_MAX_DIMENSION,
    ContourComponent,
    GridTooLargeError,
    LevelSystem,
    TimeGrid,
    max_abs,
    propagator_stack,
)
from .continuum import (
    KeldyshComponent,
    _Pair,
    _branch,
    _side,
    _tabulate,
    fix_constants,
    keldysh_weight,
    rotated_block_layout,
)
from .discrete import (
    _factor,
    _green_operands,
    _largest_entry,
    _workspace,
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
    the two endpoints plus three seeded interior row times.  Every table
    comes from one row and one column side through the evaluator of
    ``component_table``, which reads the step, the free and the Keldysh
    product of a pair of sides, each computed once per pair, as ``gf``'s.
    In order: over row by column times R, A and K, then the four branch
    components one at a time, formed from those three tables by
    :func:`~contourgf.continuum._branch`, the combination ``gf`` applies,
    which ``zero_block`` compares with R, A and K; then, while that
    pair's products are alive, the solutions from the solved constants,
    which ``constant_fixing`` compares with the tables at their
    positions, a constant block that is exactly zero taking no product;
    then that pair is released, and R and A
    at equal times (row by row), then A and K over column by row times,
    each come from a pair of their own.  W and the layout are computed
    once and passed to the pairs and to
    :func:`~contourgf.continuum.fix_constants`.  Each check reports the
    largest entry of its deviations, 0 for none and NaN when one holds
    a NaN, reduced one deviation at a time through one buffer of a
    table's magnitudes; no deviation is alive beside the next, and the
    adjoint checks are formed in the backward tables' layout, so that no
    operand is strided.  It compares with
    ``threshold * max(1, max|W|)``, ``W = 1 + 2 zeta nbar^T`` the Keldysh
    weight, reported as its threshold: the roundoff of the checks that
    multiply by W grows with it.  The sampled times are offsets from
    ``t_initial``, so the checks do not depend on where the span lies on
    the time axis; a span that is not finite and positive raises
    ``ValueError``, as a :class:`~contourgf.core.TimeGrid` on it would.
    Results are sorted by check name.  ``corrupt_keldysh``
    is a test hook that flips the sign of K for t > t' after
    ``zero_block`` and ``constant_fixing`` ran and before the other
    checks, so those two compare with the uncorrupted tables.
    """
    ret, adv, kel, zero = KeldyshComponent  # in definition order
    # The span, checked as a grid's; W and the layout, each once per suite.
    span = TimeGrid(t_initial, t_final, 1).dt
    weight = keldysh_weight(system)
    layout = rotated_block_layout(system.statistics)
    threshold = threshold * max(1.0, max_abs(weight))
    rng = np.random.default_rng(seed)
    # The closed forms depend on the times only through t - t' and
    # t - t_initial, so the samples are offsets from t_initial: absolute
    # times far from zero would round them together.
    t_col = chebyshev_interior(0.0, span, 7)
    t_interior = np.sort(span * rng.uniform(0.05, 0.95, size=3))
    t_row = np.concatenate([[0.0], t_interior, [span]])

    d = system.dimension
    delta = t_row[:, None] - t_col[None, :]
    row_side, col_side = _side(system, t_row, 0.0), _side(system, t_col, 0.0)
    # The magnitudes of one deviation at a time; none is larger than a
    # table over row by column times.
    magnitudes = np.empty(delta.size * d * d)
    results = []

    def check(name, deviations, details=""):
        # The largest entry of the deviations, 0 for none, NaN once one
        # holds a NaN: each deviation's magnitudes go through the buffer.
        observed = 0.0
        for deviation in deviations:
            if deviation.size:
                out = magnitudes[: deviation.size].reshape(deviation.shape)
                np.abs(deviation, out=out)
                largest = float(np.maximum.reduce(out, axis=None))
                if not largest <= observed:
                    observed = largest
                    if math.isnan(largest):
                        break
            # Not held while the next deviation is computed.
            del deviation
        results.append(CheckResult(name, observed, threshold, details))

    # Row by column times: R, A and K, then the two checks that compare
    # them with other tables over the same stacks, while the pair's
    # products are alive.
    pair = _Pair(system, row_side, col_side, weight=weight)
    forward = {c: _tabulate(pair, c) for c in (ret, adv, kel)}
    forward[zero] = np.zeros((1, 1, d, d))  # broadcasts against any table or row

    # Branch components from R, A and K by the combination gf applies,
    # one table at a time: ++ - +- = R, ++ - -+ = A, ++ + -- = K and the
    # rotated zero block ++ + -- - +- - -+ = 0.  Each branch table takes
    # its sign in place, each difference goes into one new table, and
    # none is held while the next branch is formed.
    def rotation():
        pp, *others = ContourComponent
        rotated = forward[kel], forward[ret], forward[adv]
        plus = total = _branch(pp.signs, *rotated)
        for branch, sign, c in zip(others, (1, 1, -1), (ret, adv, kel)):
            other = _branch(branch.signs, *rotated)
            np.multiply(sign, other, out=other)
            deviation = plus - other
            deviation -= forward[c]
            yield deviation
            total = total - other
            del deviation, other
        yield total

    check("zero_block", rotation())

    # Solved constants reproduce the closed forms at every position.
    def positions(constants):
        for row in range(2):
            for col in range(2):
                deviation = _tabulate(pair, (constants, row, col))
                deviation -= forward[layout[row][col]]
                yield deviation
                del deviation

    check("constant_fixing", positions(fix_constants(system, weight)))

    # Equal-time jump: R(t,t) - A(t,t) = -i.  The forward products go
    # first.
    pair = _Pair(system, row_side, row_side)
    jump = np.diagonal(_tabulate(pair, ret) - _tabulate(pair, adv))
    check("equal_time_jump", [jump + 1j * np.eye(d)[..., None]])

    # backward[c][i, j] is component c at (t_col[j], t_row[i]); A is the
    # one reader of the free product.
    pair = _Pair(system, col_side, row_side, shared=False, weight=weight)
    backward = {c: _tabulate(pair, c).transpose(1, 0, 2, 3) for c in (adv, kel)}
    if corrupt_keldysh:
        # Flip the sign of K(t, t') for t > t' in both orientations.
        for table, later in ((forward, delta > 0), (backward, delta < 0)):
            table[kel] = np.where(later[:, :, None, None], -table[kel], table[kel])

    # Causality: retarded vanishes for t < t', advanced for t > t'.
    check("causality", (forward[ret][delta < 0], forward[adv][delta > 0]))

    # Conjugation: R(t,t')^dag = A(t',t), and Keldysh anti-Hermiticity:
    # K(t,t')^dag = -K(t',t).  Each is formed over column by row times,
    # the layout the backward tables were computed in, in one table that
    # takes the forward table's transpose by a copy and is conjugated in
    # place: no ufunc reads a strided operand, for which numpy would
    # allocate a buffer as large as the table per operand.
    adjoint = np.empty((t_col.size, t_row.size, d, d), dtype=complex)
    adjoint[...] = forward[ret].transpose(1, 0, 3, 2)
    np.conjugate(adjoint, out=adjoint)
    adjoint -= backward[adv].transpose(1, 0, 2, 3)
    check("conjugation", [adjoint])
    adjoint[...] = forward[kel].transpose(1, 0, 3, 2)
    np.conjugate(adjoint, out=adjoint)
    adjoint += backward[kel].transpose(1, 0, 2, 3)
    check("keldysh_antihermiticity", [adjoint])
    del adjoint

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
    first, second = ([forward[c] for c in row] for row in layout)
    check("boundary_final", (table[-1] for table in second))
    check("boundary_initial", (a[0] + weight @ b[0] for a, b in zip(first, second)))

    return sorted(results, key=lambda r: r.name)


def _contour_offsets(grid: TimeGrid) -> np.ndarray:
    """Contour times less ``t_initial``, which the closed forms depend on;
    absolute times far from zero would round slices together."""
    return contour_times(TimeGrid(0.0, grid.t_final - grid.t_initial, grid.n_slices))


def _continuum_operands(system: LevelSystem, grid: TimeGrid, operands):
    """Place the continuum prediction C, negated, into ``operands``, a
    set on ``grid`` with room ``(d, 0, d)`` for C's ranks, as
    :func:`~contourgf.discrete._green_operands` makes it, and return the
    set, which then holds its terms less C.

    Every branch component is ``-i U(t) [c + step] U(t')^dag`` with a
    constant block between two propagators, so block (n, m) of the
    prediction is ``-i/2 P_n [W + c(n, m)] P_m^dag`` with ``P_n`` the
    propagator over ``tau_n``, contour time n less ``t_initial``,
    ``W = 1 + 2 zeta nbar^T`` and the scalar
    ``c = s_m theta - s_n (1 - theta)`` from the branch signs and the
    step ``theta(tau_n - tau_m)``, taken at equal times by contour order
    with the row as the later position, as the discrete inverse takes
    it.  Contour times increase along the forward branch and decrease
    along the backward one, so c is 1 for a column at or before the row
    and -1 for a column after it: ``W + 1``, twice the greater weight
    ``1 + zeta nbar^T``, and ``W - 1``, twice the lesser weight
    ``zeta nbar^T``.  So over the column factors ``conj(P_m)`` the row
    factors are the greater ``-i/2 P_n (W + 1)`` and, every backward
    column being after a forward row, the cross rows the lesser
    ``-i/2 P_n (W - 1)``.  Within a branch the jump between the two,
    ``-i U(tau_n - tau_m)`` after the row, depends only on the lag: the
    lag blocks are ``i U(-lag dt)`` forward and ``i U(lag dt)`` backward,
    zero at lag 0, from the energy eigensystem.  C's sign is carried by a
    d x d factor of each term, negating each product exactly: the rows'
    ``i/2 (W +- 1)`` and the lags' ``left``, ``-i V``.
    """
    d = system.dimension
    n = grid.n_slices
    tau = _contour_offsets(grid)
    # Forward tau is dt, 2 dt, ..., N dt: the lags' phases exp(-i w lag dt).
    # The lag factors are placed, and released, before the others are
    # made.
    energies, basis = system.epsilon_eigh
    phases = np.exp(-1j * np.outer(tau[: n - 1], energies))
    powers = np.zeros((2, n, d), dtype=complex)
    np.conjugate(phases, out=powers[0, 1:])
    powers[1, 1:] = phases
    del phases
    operands.place(lags=(-1j * basis, powers, basis.conj().T))
    del powers
    props = propagator_stack(system, tau).reshape(-1, d)
    weight = keldysh_weight(system)
    greater = props @ (0.5j * (weight + np.eye(d)))
    lesser = props[: n * d] @ (0.5j * (weight - np.eye(d)))
    # Column (m, b) takes row b of P_m^dag, transposed: row b of conj(P_m).
    np.conjugate(props, out=props)
    operands.place(rows=(greater,), cross_rows=(lesser,), columns=(props,))
    return operands


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
    and identical endpoints.  Reports the largest entry of |G - C| over
    every block, the error allowance, the partition-function deviation
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
    prediction is streamed by :func:`~contourgf.discrete._largest_entry`
    through one workspace for all grids, so each grid costs O((N d)^2 d)
    time and the memory of one tile: the cap bounds the work here, not
    the memory.
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
    d = system.dimension
    total = 2 * grids[-1].n_slices * d
    if total > max_dimension:
        raise GridTooLargeError(
            f"contour matrix dimension {total} exceeds cap {max_dimension}"
        )
    factorizations = _factor(system, grids)
    workspace = _workspace(sizes, d)
    errors = []
    bounds = []
    deviations = []
    for grid in grids:
        # Each grid's factorization and operands are released once its
        # grid is done, before the next grid's operands are built.  The
        # set is passed on, not kept, so while it streams only the kernel
        # holds its factors.
        fac = factorizations.pop(0)
        error = _largest_entry(
            _continuum_operands(system, grid, _green_operands(fac, (d, 0, d))),
            workspace,
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
            details="max block deviation vs closed forms",
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
        "checks": [_as_dict(c) for c in checks],
        "convergence": _as_dict(convergence) if convergence is not None else None,
        "passed": all(c.passed for c in checks),
    }


def _as_dict(record) -> dict:
    """A report dataclass as a dict of its fields in order, read from
    its class's field table without a ``fields()`` call.  Unlike
    ``dataclasses.asdict`` it copies nothing: the values are numbers,
    strings and tuples of numbers, which serialize as they are."""
    return {name: getattr(record, name) for name in record.__dataclass_fields__}
