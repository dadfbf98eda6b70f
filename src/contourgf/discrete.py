"""Discrete contour action matrix and its structured inverse.

The finite-difference contour action on an N-slice grid couples the
retained variables in contour order: forward slots 1..N (times t_1..t_N)
followed by backward slots N-1..0 (times t_{N-1}..t_0).  The quadratic
form matrix D' of total dimension 2 N d has

* the first diagonal block ``M = 1 + zeta nbar^T`` and identity
  diagonal blocks after it,
* forward subdiagonal blocks ``-h`` with ``h = 1 - i eps dt``,
* a turning-point block ``-1`` (continuity between the branches, no
  evolution factor across the turn),
* backward subdiagonal blocks ``-hbar`` with ``hbar = 1 + i eps dt``
  (the backward action enters with an overall minus sign, reversing the
  finite-difference orientation),
* a corner block ``-zeta nbar^T`` closing the contour.

The first block row ``[1 + zeta nbar^T, 0, ..., -zeta nbar^T]`` is the
boundary condition that carries the initial occupation (plain
transposition, matching the many-level Keldysh weight); it sums to the
identity.  The discrete Green's function is
``G = -i D'^{-1} diag(M, 1, ..., 1)``, finite for every valid occupation
including a full fermion level; its blocks approximate the continuum
branch components to first order in dt away from equal times.  The
partition function ``det(D')^{-zeta}`` equals one up to O(1/N), exactly
for eps = 0 or nbar = 0.

D' is solved from its distinct blocks, never densely.  The transfer
blocks h and hbar are normal and commute, so one unitary V diagonalizes
both.  With ``f_j`` and ``s_j`` the products of the transfer blocks
before and after contour position j (so ``f_j s_j = l``, the loop
product), ``C = -zeta V^dag nbar^T V`` the rotated corner and the d x d
matrix ``A' = diag(1/l) + C diag(1 - 1/l)``,

* ``det D' = det(diag l) det A'``,
* block (j, k) of ``V^dag D'^{-1} V`` is ``diag(1/s_j) A'^{-1}`` for
  k = 1 and ``diag(1/s_j) A'^{-1} (1 - C) diag(1/f_k) - [k > j]
  diag(f_j / f_k)`` otherwise; ``1 - C = V^dag M V``, so the second
  form is block (j, k) of ``V^dag G V / (-i)`` for every k.

Every transfer factor in the second line has modulus at most one.  The
products are kept as logarithms, integer counts of forward and backward
factors times the logarithms of the transfer eigenvalues, so no power
of a transfer block is formed and no product overflows.  The partition
function costs O(d^3), independent of N, and the full inverse
O((N d)^2 d).  Only the blocks of D' enter: no closed form is used.
:func:`build_contour_matrix` expands the same blocks into the dense D',
which serves as the reference.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_MAX_DIMENSION,
    ContourComponent,
    ContourIndex,
    GridTooLargeError,
    IllConditionedWarning,
    LevelSystem,
    SingularMatrixError,
    TimeGrid,
    max_abs,
)

__all__ = [
    "DiscreteGf",
    "build_contour_matrix",
    "contour_branch_signs",
    "contour_times",
    "discrete_green",
    "discrete_partition_function",
    "extract_component",
]

# A' is singular when, each row scaled to the largest entry of that row
# of the first block row of D', its smallest singular value is within this
# many roundoffs: each entry of A' carries a few units of roundoff.
SINGULAR_ROUNDOFFS = 8
# _factor warns with IllConditionedWarning above this condition estimate.
CONDITION_WARN = 1e12
LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class DiscreteGf:
    """Discrete Green's function ``-i D'^{-1} diag(M, 1, ..., 1)`` with its
    grid and system.

    ``condition`` estimates the 1-norm condition number of D' with each
    row of its first block row divided by that row's largest entry, as
    ``||D'||_1 ||V^dag D'^{-1} V||_1`` of that matrix, both norms exact,
    which lies within a factor d of the true one.  The scaling keeps the
    estimate bounded in the boson classical limit.  ``partition_function``
    is Z from the same factorization (see
    :func:`discrete_partition_function`).
    """

    matrix: np.ndarray
    grid: TimeGrid
    system: LevelSystem
    condition: float
    partition_function: complex


@dataclass(frozen=True)
class _Factorization:
    """D' reduced to its transfer eigenvalues and the d x d matrix A'.

    ``a_inverse`` is ``A'^{-1} V^dag M V``, the factor every block of G
    shares, and ``det D' = exp(log_det) 2**exponent``.
    """

    basis: np.ndarray
    log_forward: np.ndarray
    log_backward: np.ndarray
    a_inverse: np.ndarray
    log_det: complex
    exponent: int
    condition: float


def contour_times(grid: TimeGrid) -> np.ndarray:
    """Times of the 2N retained variables in contour order."""
    times = grid.times
    n = grid.n_slices
    return np.concatenate([times[1:], times[n - 1 :: -1]])


def contour_branch_signs(grid: TimeGrid) -> np.ndarray:
    """Branch sign (+1 forward, -1 backward) per contour position."""
    n = grid.n_slices
    return np.concatenate([np.ones(n), -np.ones(n)])


def _contour_blocks(
    system: LevelSystem, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct blocks of D': forward h, backward hbar and the first
    block row's pair, ``1 + zeta nbar^T`` on the diagonal and the corner
    ``-zeta nbar^T``.

    The other diagonal blocks and the turning-point block are the
    identity.  Raises ``FloatingPointError`` when ``eps dt`` overflows.
    """
    eye = np.eye(system.dimension, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        step = 1j * system.epsilon * grid.dt
        if not np.isfinite(step).all():
            raise FloatingPointError(
                f"transfer blocks 1 -/+ i eps dt overflow: max|eps| = "
                f"{max_abs(system.epsilon):.6g}, dt = {grid.dt:.6g}"
            )
    forward = eye - step
    backward = eye + step
    occupation = system.statistics.zeta * system.nbar.T
    return forward, backward, eye + occupation, -occupation


def _check_dimension(system: LevelSystem, grid: TimeGrid, max_dimension: int) -> int:
    total = 2 * grid.n_slices * system.dimension
    if total > max_dimension:
        raise GridTooLargeError(
            f"contour matrix dimension {total} exceeds cap {max_dimension}"
        )
    return total


def build_contour_matrix(
    system: LevelSystem,
    grid: TimeGrid,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> np.ndarray:
    """Assemble the dense ``(2 N d, 2 N d)`` contour matrix D' from its blocks.

    The solvers never build D'; this is the dense reference.  Raises
    :class:`~contourgf.core.GridTooLargeError` when ``2 N d`` exceeds
    ``max_dimension``.
    """
    d = system.dimension
    n = grid.n_slices
    total = _check_dimension(system, grid, max_dimension)
    forward, backward, first, corner = _contour_blocks(system, grid)
    eye = np.eye(d, dtype=complex)
    matrix = np.zeros((total, total), dtype=complex)
    matrix[0:d, 0:d] = first
    for j in range(2, 2 * n + 1):
        matrix[(j - 1) * d : j * d, (j - 1) * d : j * d] = eye
    for j in range(2, n + 1):
        matrix[(j - 1) * d : j * d, (j - 2) * d : (j - 1) * d] = -forward
    matrix[n * d : (n + 1) * d, (n - 1) * d : n * d] = -eye
    for j in range(n + 2, 2 * n + 1):
        matrix[(j - 1) * d : j * d, (j - 2) * d : (j - 1) * d] = -backward
    matrix[0:d, (2 * n - 1) * d :] = corner
    return matrix


def _log_transfer(generator: np.ndarray, sign: int) -> np.ndarray:
    """``log(1 + sign i x)`` per real x, finite for every finite x."""
    with np.errstate(over="ignore", divide="ignore"):
        square = generator * generator
        modulus = np.where(
            np.isfinite(square), 0.5 * np.log1p(square), np.log(np.abs(generator))
        )
    return modulus + 1j * sign * np.arctan(generator)


def _log_prefix(
    log_forward: np.ndarray, log_backward: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``log f_j`` and ``log s_j`` as (2N, d) arrays, j = 1..2N.

    Built from integer counts of forward and backward factors; ``f_j``
    and ``s_j`` together hold ``N - 1`` of each.
    """
    j = np.arange(1, 2 * n + 1)[:, None]
    forward = np.minimum(j, n) - 1
    backward = np.maximum(j - n - 1, 0)
    log_f = forward * log_forward + backward * log_backward
    log_s = (n - 1 - forward) * log_forward + (n - 1 - backward) * log_backward
    return log_f, log_s


def _ldexp(values: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``values * 2**exponents`` for a C-contiguous complex array, exact
    unless it overflows or underflows."""
    parts = values.view(float).reshape(*values.shape, 2)
    return np.ldexp(parts, exponents[..., None]).view(complex)[..., 0]


def _geometric(mu: np.ndarray, count: int) -> np.ndarray:
    """``sum_{i < count} exp(-i mu)`` per ``mu >= 0``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.expm1(-count * mu) / np.expm1(-mu)
    return np.where(mu > 0, ratio, float(count))


def _inverse_norm(
    mu_forward: np.ndarray,
    mu_backward: np.ndarray,
    n: int,
    a_inverse: np.ndarray,
    first_column: np.ndarray,
    inv_loop: np.ndarray,
) -> float:
    """Exact 1-norm of ``V^dag D'^{-1} V``, its first block column
    multiplied on the right by ``first_column`` over ``A'^{-1}``.

    Column (1, b) sums ``|1/s_j|_a |first_column_ab|`` over all j and a.  With
    ``a_inverse`` the shared factor of the other columns, column (k, b)
    sums ``|1/s_j|_a |a_inverse_ab| |1/f_k|_b`` over all j and a != b,
    the same with a = b over j >= k, and
    ``|f_j / f_k|_b |a_inverse_bb / l_b - 1|`` over j < k.  With
    ``|1/f_k|`` and ``|1/s_j|`` geometric within each branch, every such
    sum is affine in ``|1/f_k|_b`` there, so the largest lies at a branch
    end: k = 2, N, N + 1 or 2N.  The suffix sums of ``|1/s_j|`` and
    prefix sums of ``|f_j / f_k|`` at those columns are geometric series,
    each the full one of N terms less its last.
    """
    r_f, r_b = np.exp(-mu_forward), np.exp(-mu_backward)
    last_f, last_b = np.exp(-(n - 1) * mu_forward), np.exp(-(n - 1) * mu_backward)
    sum_f, sum_b = _geometric(mu_forward, n), _geometric(mu_backward, n)
    total = sum_b + last_b * sum_f
    abs_inv = np.abs(a_inverse)
    diag = np.diag(abs_inv)
    off = total @ abs_inv - total * diag
    turn = np.abs(np.diag(a_inverse) * inv_loop - 1.0)
    # (|1/f_k|, sum_{j >= k} |1/s_j|, sum_{j < k} |f_j / f_k|) per end column.
    ends = [
        (last_f, sum_b, sum_f),
        (last_f * last_b, 1.0, last_b * sum_f + r_b * (sum_b - last_b)),
    ]
    if n > 1:
        inner = sum_f - last_f
        ends += [(r_f, sum_b + last_b * inner, r_f), (last_f, sum_b + last_b, r_f * inner)]
    columns = [total @ np.abs(first_column)] + [
        inv_f * (off + after * diag) + before * turn for inv_f, after, before in ends
    ]
    return float(max(column.max() for column in columns))


def _factor(system: LevelSystem, grid: TimeGrid) -> _Factorization:
    """Reduce D' to its transfer eigenvalues and factor A'.

    Raises :class:`~contourgf.core.SingularMatrixError` when the smallest
    singular value of A', each row scaled by the largest entry of that
    row of the first block row of D', falls to roundoff, and warns with
    :class:`~contourgf.core.IllConditionedWarning` when the condition
    estimate (see :class:`DiscreteGf`) exceeds ``CONDITION_WARN`` (1e12;
    infinite once ``A'^{-1}`` overflows).
    The forward generator gets its own ``eigh``, not the stored one of
    ``epsilon``, so that this route uses the entries of D' and nothing
    else.
    """
    d = system.dimension
    n = grid.n_slices
    forward, backward, first, corner = _contour_blocks(system, grid)
    eye = np.eye(d)
    generator, basis = np.linalg.eigh(1j * (forward - eye))
    basis_h = basis.conj().T
    backward_generator = np.diag(basis_h @ (-1j * (backward - eye)) @ basis).real
    log_forward = _log_transfer(generator, -1)
    log_backward = _log_transfer(backward_generator, 1)
    log_loop = (n - 1) * (log_forward + log_backward)
    inv_loop = np.exp(-log_loop)
    closure = basis_h @ corner @ basis
    # The first block row sums to the identity: V^dag M V = 1 - C.
    # Taking it so leaves an empty level's row exactly e_i.
    rotated_first = eye - closure
    # Row i of A' = (1 - C) diag(1/l) + C is scaled by 2^-shift_i,
    # exactly, with shift_i the binary exponent of the largest term of
    # that row, found in log form: 1/l_k underflows once l_k > 1e308.
    with np.errstate(divide="ignore"):
        log2_terms = np.maximum(
            np.log2(np.abs(rotated_first)) - log_loop.real / LOG2,
            np.log2(np.abs(closure)),
        )
    shift = np.ceil(log2_terms.max(axis=1)).astype(int)
    # 1/l_i takes its own exponent, so that a huge log l_i cancels
    # against it before it is summed with the other levels; the rest of
    # each shift reaches det D' exactly, as a power of two.
    own = np.ceil(-log_loop.real / LOG2).astype(int)
    log_level = log_loop + own * LOG2
    # A' as diag(1/l) + C diag(1 - 1/l): no cancellation when l ~ 1.
    a = np.diag(_ldexp(np.exp(-log_level), own - shift)) + _ldexp(
        closure * -np.expm1(-log_loop), -shift[:, None]
    )
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    threshold = SINGULAR_ROUNDOFFS * d * np.finfo(float).eps
    if smallest <= threshold:
        raise SingularMatrixError(
            f"smallest singular value {smallest:.3e} of the row-scaled "
            f"{d}x{d} loop matrix at or below {threshold:.3e}"
        )
    sign, log_abs = np.linalg.slogdet(a)
    log_det = complex(np.sum(log_level) + log_abs + np.log(sign))
    # The estimate is of D' with each row of its first block row divided
    # by that row's largest entry R: the occupation there grows without
    # bound in the boson classical limit while Z stays exact.  The first
    # block row sums to the identity, so no R is below 1/2.  The scaling
    # multiplies the first block column of the inverse by V^dag R V.
    scale = np.maximum(
        np.abs(first).max(axis=1, keepdims=True),
        np.abs(corner).max(axis=1, keepdims=True),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _ldexp(np.linalg.inv(a), -shift[None, :])
        a_inverse = inverse @ rotated_first
        first_column = inverse @ (basis_h @ (scale * basis))
    # The peak memory of Z falls in _inverse_norm, so nothing that is no
    # longer needed is kept alive into it.
    del inverse
    # ||D'||_1 per block column: M over h (over the turn when N = 1), and
    # the identity under the corner, over the turn or over h or hbar,
    # whose entries have equal moduli.
    norm = max(
        (np.abs(first) / scale + np.abs(forward if n > 1 else eye)).sum(axis=0).max(),
        1.0
        + max(
            np.abs(block).sum(axis=0).max()
            for block in [corner / scale] + ([eye, backward] if n > 1 else [])
        ),
    )
    condition = np.inf
    if np.isfinite(a_inverse).all() and np.isfinite(first_column).all():
        condition = norm * _inverse_norm(
            log_forward.real, log_backward.real, n, a_inverse, first_column, inv_loop
        )
    if condition > CONDITION_WARN:
        warnings.warn(
            f"condition estimate {condition:.3e} exceeds {CONDITION_WARN:.1e}",
            IllConditionedWarning,
            stacklevel=3,
        )
    exponent = int(np.sum(shift - own))
    return _Factorization(
        basis, log_forward, log_backward, a_inverse, log_det, exponent, condition
    )


def _partition_function(fac: _Factorization, system: LevelSystem) -> complex:
    zeta = system.statistics.zeta
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(-zeta * fac.log_det)
        parts = np.ldexp([z.real, z.imag], -zeta * fac.exponent)
    z = complex(*parts)
    if not cmath.isfinite(z):
        raise FloatingPointError(
            f"partition function overflows: log det D' = {fac.log_det:.6g} "
            f"+ {fac.exponent} log 2"
        )
    return z


def _add_upper_toeplitz(
    out: np.ndarray, log_transfer: np.ndarray, basis: np.ndarray
) -> None:
    """Add ``i V diag(exp(-(k - j) log t)) V^dag`` to block (j, k), k > j,
    of the block view ``out`` of shape (n, d, n, d)."""
    n, d = out.shape[:2]
    lags = np.arange(1, n)[:, None]
    powers = np.einsum(
        "am,sm,bm->sab", 1j * basis, np.exp(-lags * log_transfer), basis.conj()
    )
    # padded[n - 1 + lag] is the block at that lag, zero for lag <= 0.
    padded = np.concatenate([np.zeros((n, d, d), dtype=complex), powers])
    window = np.lib.stride_tricks.sliding_window_view(padded, n, axis=0)
    out += window[::-1].transpose(0, 1, 3, 2)


def _fill_green(fac: _Factorization, n: int) -> np.ndarray:
    """G from the eigenbasis block formula.

    The first term is a rank-d product over all blocks.  The
    ``[k > j]`` term is block Toeplitz within each branch and, across
    them, a rank-d product of a forward row factor and a backward
    column factor, which joins the first term's product there.
    """
    basis = fac.basis
    basis_h = basis.conj().T
    d = basis.shape[0]
    half = n * d
    log_f, log_s = _log_prefix(fac.log_forward, fac.log_backward, n)
    left = (basis[None, :, :] * np.exp(-log_s)[:, None, :]).reshape(2 * half, d)
    left = left @ (-1j * fac.a_inverse)
    right = (np.exp(-log_f)[:, :, None] * basis_h[None, :, :]).transpose(1, 0, 2)
    right = right.reshape(d, 2 * half)
    steps = np.arange(n)[:, None]
    rows = 1j * basis[None, :, :] * np.exp(-(n - 1 - steps) * fac.log_forward)[
        :, None, :
    ]
    cols = np.exp(-steps * fac.log_backward)[:, :, None] * basis_h[None, :, :]
    out = np.empty((2 * half, 2 * half), dtype=complex)
    np.matmul(left[:half], right[:, :half], out=out[:half, :half])
    np.matmul(
        np.hstack([left[:half], rows.reshape(half, d)]),
        np.vstack([right[:, half:], cols.transpose(1, 0, 2).reshape(d, half)]),
        out=out[:half, half:],
    )
    np.matmul(left[half:], right, out=out[half:])
    blocks = out.reshape(2 * n, d, 2 * n, d)
    _add_upper_toeplitz(blocks[:n, :, :n, :], fac.log_forward, basis)
    _add_upper_toeplitz(blocks[n:, :, n:, :], fac.log_backward, basis)
    return out


def discrete_green(
    system: LevelSystem,
    grid: TimeGrid,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> DiscreteGf:
    """Discrete Green's function ``G = -i D'^{-1} diag(M, 1, ..., 1)`` by
    the structured solve.

    Fills the dense ``(2 N d)^2`` result in O((N d)^2 d) from one
    factorization of the d x d loop matrix A', which also gives the
    partition function and the condition estimate of D' carried on the
    result.  Raises :class:`~contourgf.core.GridTooLargeError` when
    ``2 N d`` exceeds ``max_dimension``,
    :class:`~contourgf.core.SingularMatrixError` when A' is singular to
    roundoff, and ``FloatingPointError`` when an entry of G or Z is not
    finite.
    """
    _check_dimension(system, grid, max_dimension)
    fac = _factor(system, grid)
    z = _partition_function(fac, system)
    # |V|, |1/s_j|, |1/f_k| and |f_j / f_k| are at most 1, so no entry of
    # G exceeds d^2 max|a_inverse| + d.
    d = system.dimension
    if not d * d * max_abs(fac.a_inverse) + d < np.finfo(float).max:
        raise FloatingPointError("discrete Green's function overflows")
    matrix = _fill_green(fac, grid.n_slices)
    return DiscreteGf(matrix, grid, system, fac.condition, z)


def discrete_partition_function(system: LevelSystem, grid: TimeGrid) -> complex:
    """Partition function ``det(D')^{-zeta}``.

    Gaussian integration gives ``det^{-1}`` for bosons and ``det`` for
    fermions; the occupation in the first block row of D' normalizes
    it.  ``det D' = det(diag l) det A'`` and the
    condition estimate cost O(d^3), independent of N; D' is never built,
    so no grid cap applies.  Defined for every valid occupation,
    including a full fermion level.  Equals 1 exactly for ``eps = 0`` or
    ``nbar = 0`` and approaches 1 as O(1/N) otherwise.  Raises
    :class:`~contourgf.core.SingularMatrixError` when A' is singular to
    roundoff and ``FloatingPointError`` when Z overflows.
    """
    fac = _factor(system, grid)
    return _partition_function(fac, system)


def extract_component(
    gf: DiscreteGf,
    component: ContourComponent,
    n: int,
    m: int,
) -> tuple[np.ndarray, float, float]:
    """One ``(d, d)`` block of the discrete Green's function.

    ``n`` and ``m`` are slice indices on the row and column branches
    selected by ``component``.  Eliminated variables (forward slot 0,
    backward slot N) raise
    :class:`~contourgf.core.IndexOutOfRangeError`.

    Returns
    -------
    (block, t, t_prime)
        The block and the physical times of the two slots.
    """
    grid = gf.grid
    d = gf.system.dimension
    row = ContourIndex(component.row_branch, n)
    col = ContourIndex(component.col_branch, m)
    j = row.position(grid.n_slices)
    k = col.position(grid.n_slices)
    block = gf.matrix[(j - 1) * d : j * d, (k - 1) * d : k * d]
    return block, row.time(grid), col.time(grid)
