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
function costs O(d^3), independent of N, each contour row of G
O(N d^2) and the full inverse O((N d)^2 d).  Only the blocks of D'
enter: no closed form is used.

All grids of a run are factorized in one pass, with the grid as the
leading axis of every array and each linalg call made once over the
stack.  The refusals come first for an ``eps dt`` that overflows on any
grid; then, grid by grid in the order given, a singular A' raises, an
ill-conditioned D' warns, and an overflowing Z raises.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_MAX_DIMENSION,
    GridTooLargeError,
    IllConditionedWarning,
    LevelSystem,
    SingularMatrixError,
    TimeGrid,
    max_abs,
)

__all__ = [
    "DiscreteGf",
    "contour_times",
    "discrete_green",
    "discrete_partition_function",
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


@dataclass(frozen=True, slots=True)
class _Factorization:
    """D' reduced to its transfer eigenvalues and the d x d matrix A'.

    ``a_inverse`` is ``A'^{-1} V^dag M V``, the factor every block of G
    shares, on a grid of ``n_slices`` slices; ``partition_function`` is
    ``det(D')^{-zeta}``.
    """

    basis: np.ndarray
    log_forward: np.ndarray
    log_backward: np.ndarray
    a_inverse: np.ndarray
    n_slices: int
    condition: float
    partition_function: complex


def contour_times(grid: TimeGrid) -> np.ndarray:
    """Times of the 2N retained variables in contour order."""
    times = grid.times
    n = grid.n_slices
    return np.concatenate([times[1:], times[n - 1 :: -1]])


def _contour_blocks(
    system: LevelSystem, grids: list[TimeGrid]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct blocks of D' on each of ``grids``: forward h and
    backward hbar as ``(G, d, d)`` stacks over the G grids, and the first
    block row's pair, ``1 + zeta nbar^T`` on the diagonal and the corner
    ``-zeta nbar^T``, which no grid changes.

    The other diagonal blocks and the turning-point block are the
    identity.  Raises ``FloatingPointError``, naming the first such grid,
    when ``eps dt`` overflows.
    """
    eye = np.eye(system.dimension, dtype=complex)
    dt = np.array([grid.dt for grid in grids])
    with np.errstate(over="ignore", invalid="ignore"):
        step = 1j * system.epsilon * dt[:, None, None]
    finite = np.isfinite(step).all(axis=(1, 2))
    if not finite.all():
        raise FloatingPointError(
            f"transfer blocks 1 -/+ i eps dt overflow: max|eps| = "
            f"{max_abs(system.epsilon):.6g}, dt = {dt[finite.argmin()]:.6g}"
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


def _geometric(mu: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``sum_{i < count} exp(-i mu)`` per ``mu >= 0``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.expm1(-count * mu) / np.expm1(-mu)
    return np.where(mu > 0, ratio, count)


def _inverse_norm(
    mu_forward: np.ndarray,
    mu_backward: np.ndarray,
    n: np.ndarray,
    a_inverse: np.ndarray,
    first_column: np.ndarray,
    inv_loop: np.ndarray,
) -> np.ndarray:
    """Exact 1-norm of ``V^dag D'^{-1} V``, its first block column
    multiplied on the right by ``first_column`` over ``A'^{-1}``, per grid
    of a stack: the arrays lead with the grid axis and ``n`` is the
    ``(G, 1)`` column of slice counts.

    Column (1, b) sums ``|1/s_j|_a |first_column_ab|`` over all j and a.  With
    ``a_inverse`` the shared factor of the other columns, column (k, b)
    sums ``|1/s_j|_a |a_inverse_ab| |1/f_k|_b`` over all j and a != b,
    the same with a = b over j >= k, and
    ``|f_j / f_k|_b |a_inverse_bb / l_b - 1|`` over j < k.  With
    ``|1/f_k|`` and ``|1/s_j|`` geometric within each branch, every such
    sum is affine in ``|1/f_k|_b`` there, so the largest lies at a branch
    end: k = 2, N, N + 1 or 2N, the first two only when N > 1.  The
    suffix sums of ``|1/s_j|`` and prefix sums of ``|f_j / f_k|`` at those
    columns are geometric series, each the full one of N terms less its
    last.
    """
    r_f, r_b = np.exp(-mu_forward), np.exp(-mu_backward)
    last_f, last_b = np.exp(-(n - 1) * mu_forward), np.exp(-(n - 1) * mu_backward)
    sum_f, sum_b = _geometric(mu_forward, n), _geometric(mu_backward, n)
    total = (sum_b + last_b * sum_f)[:, None, :]
    largest = (total @ np.abs(first_column)).max(axis=(1, 2))
    abs_inv = np.abs(a_inverse)
    diag = np.diagonal(abs_inv, axis1=1, axis2=2)
    off = (total @ abs_inv)[:, 0] - total[:, 0] * diag
    turn = np.abs(np.diagonal(a_inverse, axis1=1, axis2=2) * inv_loop - 1.0)
    inner = sum_f - last_f
    multi = n[:, 0] > 1

    def end(inv_f, after, before, present=True):
        # An end column is reduced as it is made, so only one is alive.
        column = (inv_f * (off + after * diag) + before * turn).max(axis=1)
        np.maximum(largest, column * present, out=largest)

    # |1/f_k|, sum_{j >= k} |1/s_j| and sum_{j < k} |f_j / f_k| per end.
    end(last_f, sum_b, sum_f)
    end(last_f * last_b, 1.0, last_b * sum_f + r_b * (sum_b - last_b))
    end(r_f, sum_b + last_b * inner, r_f, multi)
    end(last_f, sum_b + last_b, r_f * inner, multi)
    return largest


def _factor(system: LevelSystem, grids: list[TimeGrid]) -> list[_Factorization]:
    """Reduce D' on each of ``grids`` to its transfer eigenvalues, factor
    A' and take Z from the determinant, in one pass over the stacked
    grids.

    Raises ``FloatingPointError`` when ``eps dt`` overflows on any grid,
    before anything is computed from the blocks.  Then, grid by grid in
    the order given: raises :class:`~contourgf.core.SingularMatrixError`
    when the smallest singular value of A', each row scaled by the
    largest entry of that row of the first block row of D', falls to
    roundoff; warns with :class:`~contourgf.core.IllConditionedWarning`
    when the condition estimate (see :class:`DiscreteGf`) exceeds
    ``CONDITION_WARN`` (1e12; infinite once ``A'^{-1}`` overflows); and
    raises ``FloatingPointError`` when Z overflows.  Each grid's forward
    generator gets its own ``eigh``, not the stored one of ``epsilon``,
    so that this route uses the entries of D' and nothing else.
    """
    d = system.dimension
    n = np.array([grid.n_slices for grid in grids])[:, None]
    forward, backward, first, corner = _contour_blocks(system, grids)
    eye = np.eye(d)
    generator, basis = np.linalg.eigh(1j * (forward - eye))
    basis_h = basis.conj().swapaxes(1, 2)
    backward_generator = np.diagonal(
        basis_h @ (-1j * (backward - eye)) @ basis, axis1=1, axis2=2
    ).real
    log_forward = _log_transfer(generator, -1)
    log_backward = _log_transfer(backward_generator, 1)
    del generator, backward_generator
    log_loop = (n - 1) * (log_forward + log_backward)
    closure = basis_h @ corner @ basis
    # The first block row sums to the identity: V^dag M V = 1 - C.
    # Taking it so leaves an empty level's row exactly e_i.
    rotated_first = eye - closure
    # Row i of A' = (1 - C) diag(1/l) + C is scaled by 2^-shift_i,
    # exactly, with shift_i the binary exponent of the largest term of
    # that row, found in log form: 1/l_k underflows once l_k > 1e308.
    with np.errstate(divide="ignore"):
        log2_terms = np.maximum(
            np.log2(np.abs(rotated_first)) - (log_loop.real / LOG2)[:, None, :],
            np.log2(np.abs(closure)),
        )
    shift = np.ceil(log2_terms.max(axis=2)).astype(int)
    del log2_terms
    # 1/l_i takes its own exponent, so that a huge log l_i cancels
    # against it before it is summed with the other levels; the rest of
    # each shift reaches det D' exactly, as a power of two.
    own = np.ceil(-log_loop.real / LOG2).astype(int)
    log_level = log_loop + own * LOG2
    # A' as diag(1/l) + C diag(1 - 1/l): no cancellation when l ~ 1.
    a = np.zeros_like(closure)
    levels = np.arange(d)
    a[:, levels, levels] = _ldexp(np.exp(-log_level), own - shift)
    a += _ldexp(closure * -np.expm1(-log_loop)[:, None, :], -shift[:, :, None])
    del closure
    smallest = np.linalg.svd(a, compute_uv=False)[:, -1]
    threshold = SINGULAR_ROUNDOFFS * d * np.finfo(float).eps
    singular = smallest <= threshold
    # A singular grid is refused below, after the grids before it; the
    # identity in its place keeps the stacked inverse defined.
    a[singular] = eye
    sign, log_abs = np.linalg.slogdet(a)
    log_det = log_level.sum(axis=1) + log_abs + np.log(sign)
    exponent = (shift - own).sum(axis=1)
    del sign, log_abs, log_level, own
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
        inverse = _ldexp(np.linalg.inv(a), -shift[:, None, :])
        a_inverse = inverse @ rotated_first
        first_column = inverse @ (basis_h @ (scale * basis))
    # ||D'||_1 per block column: M over h (over the turn when N = 1), and
    # the identity under the corner, over the turn or over h or hbar,
    # whose entries have equal moduli.
    single = n[:, 0] == 1
    lower = np.abs(forward)
    lower[single] = eye
    below = np.maximum(1.0, np.abs(backward).sum(axis=1).max(axis=1))
    below[single] = 0.0
    norm = np.maximum(
        (np.abs(first) / scale + lower).sum(axis=1).max(axis=1),
        1.0 + np.maximum(np.abs(corner / scale).sum(axis=0).max(), below),
    )
    # The peak memory of Z falls in _inverse_norm, so nothing that is no
    # longer needed is kept alive into it.
    del inverse, basis_h, rotated_first, a, shift, scale, lower, below, single
    del forward, backward, first, corner
    finite = np.isfinite(a_inverse).all(axis=(1, 2)) & np.isfinite(first_column).all(
        axis=(1, 2)
    )
    # The grids where A'^{-1} overflows are left out of the norm; most
    # runs have none, and then no argument is copied.
    kept = slice(None) if finite.all() else finite
    condition = np.full(len(grids), np.inf)
    condition[kept] = norm[kept] * _inverse_norm(
        log_forward.real[kept],
        log_backward.real[kept],
        n[kept],
        a_inverse[kept],
        first_column[kept],
        np.exp(-log_loop[kept]),
    )
    del first_column, finite, norm
    # Z = det(D')^{-zeta} with det D' = exp(log_det) 2**exponent.
    zeta = system.statistics.zeta
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(-zeta * log_det)
        parts = np.ldexp([z.real, z.imag], -zeta * exponent)
    # Each grid's arrays are copied out of the stacks, so that a caller
    # done with one grid frees its memory.
    factorizations = []
    for index, grid in enumerate(grids):
        if singular[index]:
            raise SingularMatrixError(
                f"smallest singular value {smallest[index]:.3e} of the row-scaled "
                f"{d}x{d} loop matrix at or below {threshold:.3e}"
            )
        if condition[index] > CONDITION_WARN:
            warnings.warn(
                f"condition estimate {condition[index]:.3e} exceeds "
                f"{CONDITION_WARN:.1e}",
                IllConditionedWarning,
                stacklevel=3,
            )
        z = complex(*parts[:, index])
        if not cmath.isfinite(z):
            raise FloatingPointError(
                f"partition function overflows: log det D' = {log_det[index]:.6g} "
                f"+ {exponent[index]} log 2"
            )
        factorizations.append(
            _Factorization(
                basis[index].copy(),
                log_forward[index].copy(),
                log_backward[index].copy(),
                a_inverse[index].copy(),
                grid.n_slices,
                float(condition[index]),
                z,
            )
        )
    return factorizations


def _lag_blocks(fac: _Factorization) -> tuple[np.ndarray, np.ndarray]:
    """The within-branch ``[k > j]`` term of G by lag, from ``fac`` alone:
    block (j, k) is ``i V diag(exp(-lag log t)) V^dag`` at lag ``k - j``
    = 1..N-1 (t the branch's transfer eigenvalues) and zero at lag <= 0.
    Returns the forward and the backward table as new ``(d, 2N - 1, d)``
    arrays, ``[:, N - 1 + lag]`` the block at lag 1 - N .. N - 1."""
    basis = fac.basis
    d = basis.shape[0]
    n = fac.n_slices
    lags = np.arange(1, n)[:, None]
    tables = np.zeros((2, d, 2 * n - 1, d), dtype=complex)
    for table, log_transfer in zip(tables, (fac.log_forward, fac.log_backward)):
        powers = np.exp(-lags * log_transfer)
        np.einsum("am,sm,bm->asb", 1j * basis, powers, basis.conj(), out=table[:, n:])
    return tables[0], tables[1]


def _upper_toeplitz(table: np.ndarray) -> np.ndarray:
    """Block-Toeplitz view of a lag table of :func:`_lag_blocks`: block
    (j, k) is the table's block at lag ``k - j``.  A read-only float
    ``(N, d, 2 N d)`` view, entry [j, a] row a of block row j as
    interleaved real and imaginary parts, contiguous over (k, b): numpy
    buffers a strided add by 8192 items, so floats halve its buffers."""
    d, lags, _ = table.shape
    n = (lags + 1) // 2
    padded = table.reshape(d, lags * d).view(float)
    # window[a, s] is row a of the blocks at lags s - n + 1 .. s.
    window = np.lib.stride_tricks.sliding_window_view(padded, 2 * n * d, axis=1)
    return window[:, :: 2 * d][:, ::-1].transpose(1, 0, 2)


@dataclass(frozen=True)
class _GreenFactors:
    """Rank-d factors of G: block (j, k) is ``left[j] @ columns[:d, k]``,
    plus ``forward_rows[j] @ columns[d:, k]`` for a forward row j (the
    cross-branch term, zero over the forward columns), plus the
    within-branch term of :func:`_lag_blocks`; ``[j]`` is the j-th group
    of d rows."""

    left: np.ndarray
    forward_rows: np.ndarray
    columns: np.ndarray


def _green_factors(fac: _Factorization) -> _GreenFactors:
    """Rank-d factors of G from one factorization.

    Block (j, k) of G is a rank-d product over all blocks plus, for
    k > j, the ``[k > j]`` term of the eigenbasis block formula.  Across
    the branches that term is a rank-d product of a forward row factor
    and a backward column factor; within a branch it depends only on the
    lag (:func:`_lag_blocks`).  The factors hold O(N d^2) memory.  Raises
    ``FloatingPointError`` when an entry of G could overflow.
    """
    basis = fac.basis
    basis_h = basis.conj().T
    d = basis.shape[0]
    n = fac.n_slices
    # |V|, |1/s_j|, |1/f_k| and |f_j / f_k| are at most 1, so no entry of
    # G exceeds d^2 max|a_inverse| + d.
    if not d * d * max_abs(fac.a_inverse) + d < np.finfo(float).max:
        raise FloatingPointError("discrete Green's function overflows")
    half = n * d
    log_f, log_s = _log_prefix(fac.log_forward, fac.log_backward, n)
    left = (basis[None, :, :] * np.exp(-log_s)[:, None, :]).reshape(2 * half, d)
    left = left @ (-1j * fac.a_inverse)
    columns = np.zeros((2 * d, 2 * half), dtype=complex)
    right = np.exp(-log_f)[:, :, None] * basis_h[None, :, :]
    columns[:d] = right.transpose(1, 0, 2).reshape(d, 2 * half)
    steps = np.arange(n)[:, None]
    forward_rows = 1j * basis[None, :, :] * np.exp(
        -(n - 1 - steps) * fac.log_forward
    )[:, None, :]
    cross = np.exp(-steps * fac.log_backward)[:, :, None] * basis_h[None, :, :]
    columns[d:, half:] = cross.transpose(1, 0, 2).reshape(d, half)
    return _GreenFactors(left, forward_rows.reshape(half, d), columns)


def _row_kernel(factors, crossing, columns: np.ndarray, toeplitz):
    """Kernel for contour rows of low-rank products plus a within-branch
    block-Toeplitz term.

    ``factors`` and ``crossing`` are lists of ``(2 N d, d)`` row factors,
    stacked side by side per block, for the stacked column factors
    ``columns``: ``crossing`` from the forward rows to the backward
    columns, ``factors`` elsewhere.  ``toeplitz`` holds the forward and
    the backward view of :func:`_upper_toeplitz`.  Returns
    ``rows(start, stop, out=None)``, which writes contour rows start..stop
    into ``out`` (a new array when None), C-contiguous and
    ``((stop - start) d, 2 N d)``.
    """
    forward_toeplitz, backward_toeplitz = toeplitz
    n, d = forward_toeplitz.shape[:2]
    half = n * d
    full = columns[: len(factors) * d]
    cross = columns[: len(crossing) * d, half:]

    def stacked(row_factors, low: int, high: int) -> np.ndarray:
        return np.concatenate([f[low * d : high * d] for f in row_factors], axis=1)

    def rows(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(((stop - start) * d, 2 * half), dtype=complex)
        # Rows start..split are forward, split..stop backward; either
        # range may be empty.
        split = min(max(start, n), stop)
        within = split - start
        # Per row the forward and the backward columns, as floats.
        block_rows = out.view(float).reshape(stop - start, d, 2, 2 * half)
        if within:
            top = out[: within * d]
            np.matmul(stacked(factors, start, split), full[:, :half], out=top[:, :half])
            np.matmul(stacked(crossing, start, split), cross, out=top[:, half:])
            block_rows[:within, :, 0] += forward_toeplitz[start:split]
        if split < stop:
            np.matmul(stacked(factors, split, stop), full, out=out[within * d :])
            block_rows[within:, :, 1] += backward_toeplitz[split - n : stop - n]
        return out

    return rows


def _green_rows(fac: _Factorization):
    """Kernel for contour rows of G from one factorization, by
    :func:`_row_kernel`; ``rows(0, 2 N)`` is the dense G.  Raises
    ``FloatingPointError`` when an entry of G could overflow."""
    factors = _green_factors(fac)
    return _row_kernel(
        [factors.left],
        [factors.left, factors.forward_rows],
        factors.columns,
        tuple(map(_upper_toeplitz, _lag_blocks(fac))),
    )


def discrete_green(
    system: LevelSystem,
    grid: TimeGrid,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> DiscreteGf:
    """Discrete Green's function ``G = -i D'^{-1} diag(M, 1, ..., 1)`` by
    the structured solve.

    Computes the dense ``(2 N d)^2`` result as one call of the row
    kernel, in O((N d)^2 d) from one factorization of the d x d loop
    matrix A', which also gives the partition function and the condition
    estimate of D' carried on the result.  Raises
    :class:`~contourgf.core.GridTooLargeError` when ``2 N d`` exceeds
    ``max_dimension``, :class:`~contourgf.core.SingularMatrixError` when
    A' is singular to roundoff, and ``FloatingPointError`` when an entry
    of G or Z is not finite.
    """
    _check_dimension(system, grid, max_dimension)
    (fac,) = _factor(system, [grid])
    matrix = _green_rows(fac)(0, 2 * grid.n_slices)
    return DiscreteGf(matrix, grid, system, fac.condition, fac.partition_function)


def discrete_partition_function(system: LevelSystem, grid: TimeGrid) -> complex:
    """Partition function ``det(D')^{-zeta}``.

    Gaussian integration gives ``det^{-1}`` for bosons and ``det`` for
    fermions; the occupation in the first block row of D' normalizes
    it.  ``det D' = det(diag l) det A'`` and the
    condition estimate cost O(d^3), independent of N; D' is never built,
    so no grid cap applies.  Defined for every valid occupation,
    including a full fermion level.  Equals 1 exactly for ``eps = 0`` or
    ``nbar = 0`` and approaches 1 as O(1/N) otherwise.  Raises
    ``FloatingPointError`` when ``eps dt`` overflows; then raises
    :class:`~contourgf.core.SingularMatrixError` when A' is singular to
    roundoff, warns with :class:`~contourgf.core.IllConditionedWarning`
    when the condition estimate exceeds 1e12, and raises
    ``FloatingPointError`` when Z overflows, in that order.
    """
    return _factor(system, [grid])[0].partition_function

