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
branch components to first order in dt, at equal times with the step
taken by contour order (the row the later position).  The
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

Every transfer factor in the second line has modulus at most one: an
entry ``t^-k``, k < N, of the power table of the forward or the backward
transfer eigenvalues t, taken from their logarithms, or a product of
two entries, so no product overflows.  The partition function costs
O(d^3), independent of N, each contour row of G O(N d^2) and the full
inverse O((N d)^2 d).  Only the blocks of D' enter: no closed form is
used.  G is held as :class:`_Operands`, whose layout this module owns:
:mod:`contourgf.verify` writes the continuum prediction in that form,
subtracts it, and streams the rows of the difference by
:func:`_row_kernel`, in any order of row blocks.  Within a branch the
kernel splits each lag that reaches past the block's own span of
columns into two powers, so a block is products of low-rank factors
but for that span, where it adds the lag blocks from a table.

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

# A' is singular when, each row scaled to the largest of the terms it is
# computed from, its smallest singular value is at most this many
# roundoffs times d: a relative error of one roundoff in those terms (in
# nbar as given, or in the arithmetic) then moves Z by about 1/(32 d) of
# itself or more.  A row's scale is rounded up to a power of two.
SINGULAR_ROUNDOFFS = 32
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
    when the smallest singular value of A' = diag(1/l) + C diag(1 - 1/l),
    each row scaled by the largest of the terms it is computed from, falls
    to roundoff; warns with :class:`~contourgf.core.IllConditionedWarning`
    when the condition estimate (see :class:`DiscreteGf`) exceeds
    ``CONDITION_WARN`` (1e12; infinite once ``A'^{-1}`` or the norm of
    ``D'^{-1}`` overflows); and
    raises ``FloatingPointError`` when Z overflows.  Each grid's forward
    generator gets its own ``eigh``, not the stored one of ``epsilon``,
    so that this route uses the entries of D' and nothing else.
    """
    d = system.dimension
    # Float counts only scale logarithms; integer ones wrap from 2^63 on.
    n = np.array([grid.n_slices for grid in grids], dtype=float)[:, None]
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
    # A' = diag(1/l) + C diag(1 - 1/l), with 1 - 1/l from expm1: no
    # cancellation when l ~ 1.  Row i is scaled by 2^-shift_i, exactly,
    # with shift_i the binary exponent of the largest of the terms that
    # row is computed from, 1/l_i and |C_ik| |1 - 1/l_k|, found in log
    # form: 1/l_i underflows once l_i > 1e308, and C may be near overflow.
    gap = -np.expm1(-log_loop)
    with np.errstate(divide="ignore"):
        log2_terms = np.log2(np.abs(closure)) + np.log2(np.abs(gap))[:, None, :]
    shift = np.ceil(
        np.maximum(log2_terms.max(axis=2), -log_loop.real / LOG2)
    ).astype(int)
    del log2_terms
    # 1/l_i takes its own exponent, so that a huge log l_i cancels
    # against it before it is summed with the other levels; the rest of
    # each shift reaches det D' exactly, as a power of two.
    own = np.ceil(-log_loop.real / LOG2).astype(int)
    log_level = log_loop + own * LOG2
    a = np.zeros_like(closure)
    levels = np.arange(d)
    a[:, levels, levels] = _ldexp(np.exp(-log_level), own - shift)
    a += _ldexp(closure * gap[:, None, :], -shift[:, :, None])
    del closure, gap
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
    with np.errstate(over="ignore", invalid="ignore"):
        condition[kept] = norm[kept] * _inverse_norm(
            log_forward.real[kept],
            log_backward.real[kept],
            n[kept],
            a_inverse[kept],
            first_column[kept],
            np.exp(-log_loop[kept]),
        )
    # A norm past overflow (inf - inf among its sums) is infinite.
    condition[np.isnan(condition)] = np.inf
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


@dataclass
class _Operands:
    """G, the continuum prediction C or ``G - C`` as low-rank products
    plus a within-branch lag term.  With ``[j]`` the j-th group of d rows
    of the row factors (tuples of ``(2 N d, r_i)`` or, cross, ``(N d, c_i)``
    arrays, side by side), block (j, k) is ``rows[j] @ columns[:, k]``, or
    ``cross_rows[j] @ cross_columns[:, k - N]`` from a forward row j to a
    backward column k, plus, within a branch and for k >= j, the lag block
    ``left @ diag(powers[branch, k - j]) @ right``, ``(left, powers,
    right) = lags`` with ``powers`` ``(2, N, s)``, forward branch first.
    ``powers[:, 0]`` is the lag-0 coefficient; ``powers[:, m]`` for
    m >= 1 is geometric, the m-th power of ``powers[:, 1]`` entry by
    entry to roundoff, with no modulus above one: :func:`_row_kernel`
    splits a lag between two such factors.
    """

    rows: tuple[np.ndarray, ...]
    columns: np.ndarray
    cross_rows: tuple[np.ndarray, ...]
    cross_columns: np.ndarray
    lags: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __isub__(self, other: _Operands) -> _Operands:
        """Subtract ``other`` in place: its row factors follow these, its
        column and lag factors are stacked under these, negated.  Each of
        this set's factors is released once it is copied, and so are
        ``other``'s column factors, which it keeps as None, before the
        lag factors are joined."""
        self.rows += other.rows
        self.cross_rows += other.cross_rows
        self.columns = _stack(self.columns, other.columns)
        self.cross_columns = _stack(self.cross_columns, other.cross_columns)
        other.columns = other.cross_columns = None
        self.lags = (
            np.concatenate([self.lags[0], other.lags[0]], axis=1),
            np.concatenate([self.lags[1], other.lags[1]], axis=2),
            _stack(self.lags[2], other.lags[2]),
        )
        return self


def _stack(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """``[top; -bottom]``, copied into place and negated there: a ufunc
    or ``np.concatenate`` reading a strided view buffers it."""
    out = np.empty((len(top) + len(bottom), top.shape[1]), dtype=complex)
    out[: len(top)] = top
    negated = out[len(top) :]
    negated[:] = bottom
    np.negative(negated, out=negated)
    return out


def _green_operands(fac: _Factorization) -> _Operands:
    """G's operands from one factorization.

    Block (j, k) of G is ``V diag(1/s_j) A'^{-1} V^dag M V diag(1/f_k)
    V^dag / i`` plus, for k > j, ``i V diag(f_j / f_k) V^dag``.  ``1/s_j``
    and ``1/f_k`` hold at most N - 1 transfer factors of each branch, a
    product of two power table entries, and ``f_j / f_k`` is one: across
    the branches a forward row factor times a backward column factor,
    within a branch the power at the lag.  Raises ``FloatingPointError``
    when an entry of G could overflow.
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
    # powers[branch, k] = t^-k for k < N, forward branch first; |t| >= 1.
    logs = np.stack([fac.log_forward, fac.log_backward])[:, None, :]
    powers = np.exp(-np.arange(n)[:, None] * logs)
    forward, backward = powers
    # Contour position j: 1/s_j for forward rows then backward rows, and
    # 1/f_k for forward columns then backward columns.
    inv_s = np.concatenate([forward[::-1] * backward[-1], backward[::-1]])
    inv_f = np.concatenate([forward, forward[-1] * backward])
    left = (basis[None, :, :] * inv_s[:, None, :]).reshape(2 * half, d)
    left = left @ (-1j * fac.a_inverse)

    def column_factor(scale: np.ndarray) -> np.ndarray:
        right = scale[:, :, None] * basis_h[None, :, :]
        return right.transpose(1, 0, 2).reshape(d, -1)

    columns = column_factor(inv_f)
    forward_rows = 1j * basis[None, :, :] * forward[::-1, None, :]
    cross_columns = np.concatenate([columns[:, half:], column_factor(backward)])
    # The table serves as the lag powers, zero at lag 0.
    powers[:, 0] = 0.0
    return _Operands(
        (left,),
        columns,
        (left[:half], forward_rows.reshape(half, d)),
        cross_columns,
        (1j * basis, powers, basis_h),
    )


def _upper_toeplitz(table: np.ndarray) -> np.ndarray:
    """Block-Toeplitz view of a ``(d, 2 w - 1, d)`` lag table,
    ``[:, w - 1 + lag]`` the block at lag 1 - w .. w - 1: block (j, k) is
    the table's block at lag ``k - j``.  A read-only float
    ``(w, d, 2 w d)`` view, entry [j, a] row a of block row j as
    interleaved real and imaginary parts, contiguous over (k, b): numpy
    buffers a strided add by 8192 items, so floats halve its buffers.
    Its top-left corners are the views of fewer rows and columns."""
    d, lags, _ = table.shape
    w = (lags + 1) // 2
    padded = table.reshape(d, lags * d).view(float)
    row, item = padded.strides
    # Entry [j, a, x] is padded[a, 2 d (w - 1 - j) + x].
    return np.lib.stride_tricks.as_strided(
        padded[:, 2 * d * (w - 1) :],
        shape=(w, d, 2 * w * d),
        strides=(-2 * d * item, row, item),
        writeable=False,
    )


def _row_kernel(operands: _Operands, block: int | None = None):
    """Kernel for contour rows of ``operands``.

    Returns ``rows(start, stop, out=None)``, which writes contour rows
    start..stop into ``out`` (a new array when None), C-contiguous and
    ``((stop - start) d, 2 N d)``.  It takes the rows in pieces of at
    most w = min(``block``, N) rows of one branch, w = N when ``block``
    is None, so a call of at most ``block`` rows is at most one piece
    per branch.  A piece from row ``low`` adds the lag blocks of columns
    low .. low + w - 1 from a block-Toeplitz view of lags 0 .. w - 1,
    formed once, where the lag-0 coefficient ``powers[:, 0]`` enters.
    Past those columns, with a = low + w - 1 >= j and P the geometric
    powers with ``P[0] = 1``, the lag block at row j and column k is
    ``left diag(P[a - j]) @ diag(P[k - a]) right``, each factor of
    modulus at most one when ``powers`` is.  So a piece takes one
    product of its row factors, with the lag factors of its rows beside
    them, and the column factors there, with their lag factors under
    them; one without lag factors over the columns before; and, for
    forward rows, one of the cross factors over the backward columns.
    With w = N no product carries lag factors.
    """
    left, powers, right = operands.lags
    n, d, s = powers.shape[1], left.shape[0], left.shape[1]
    half = n * d
    width = n if block is None else min(block, n)
    # tables[branch, a, w - 1 + lag, b] = (left diag(powers[lag]) right)_ab.
    mixed = (left.T[:, :, None] * right[:, None, :]).reshape(s, d * d)
    tables = np.zeros((2, d, 2 * width - 1, d), dtype=complex)
    lagged = (powers[:, :width] @ mixed).reshape(2, width, d, d)
    tables[:, :, width - 1 :] = lagged.transpose(0, 2, 1, 3)
    squares = tuple(map(_upper_toeplitz, tables))
    # The rows close over the factors, not the set.
    factors, columns = operands.rows, operands.columns
    crossing, cross_columns = operands.cross_rows, operands.cross_columns
    r = len(columns)
    # The column factors past a piece's table columns, copied in per
    # piece, over the lag factors diag(P[k - a]) right of one branch,
    # filled when the branch changes; made when a piece first needs it.
    past = None
    filled = None

    def stacked(row_factors, low: int, high: int, *beside) -> np.ndarray:
        return np.concatenate(
            [f[low * d : high * d] for f in row_factors] + list(beside), axis=1
        )

    def products(branch: int, low: int, high: int, reach: int, out) -> None:
        # Contour rows low..high of ``branch``, whose columns end at
        # ``end``, but for the lag blocks on columns low..reach.
        nonlocal past, filled
        end = (branch + 1) * n
        if reach < end:
            v, count = high - low, end - reach
            # Row j takes left diag(P[a - j]), a = low + w - 1 >= j.
            lags = left * powers[branch, width - v : width][::-1, None, :]
            if v == width:
                lags[-1] = left
            row = stacked(factors, low, high, lags.reshape(v * d, s))
            if past is None:
                past = np.empty((r + s, n - width, d), dtype=complex)
            if filled != branch:
                # A product, not a broadcast, which numpy would buffer.
                band = powers[branch, 1 : n - width + 1].T[:, :, None]
                np.matmul(band, right[:, None, :], out=past[r:])
                filled = branch
            ahead = columns[:, reach * d : end * d]
            past[:r, :count] = ahead.reshape(r, count, d)
            operand = past.reshape(r + s, -1)[:, : count * d]
            np.matmul(row, operand, out=out[:, reach * d : end * d])
        else:
            row = stacked(factors, low, high)
        np.matmul(row[:, :r], columns[:, : reach * d], out=out[:, : reach * d])
        if not branch:
            np.matmul(stacked(crossing, low, high), cross_columns, out=out[:, half:])

    def rows(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(((stop - start) * d, 2 * half), dtype=complex)
        # Rows start..min(stop, N) are forward, max(start, N)..stop
        # backward; either range may be empty.
        for branch, first, last in ((0, start, min(stop, n)), (1, max(start, n), stop)):
            end = (branch + 1) * n
            for low in range(first, last, width):
                high = min(low + width, last)
                reach = min(low + width, end)
                piece = out[(low - start) * d : (high - start) * d]
                products(branch, low, high, reach, piece)
                # The lag blocks on columns low..reach from the table, as
                # floats [row, a, (column, b, part)], once the products'
                # temporaries are released: numpy buffers a strided add.
                v, u = high - low, 2 * (reach - low) * d
                added = piece.view(float).reshape(v, d, 4 * half)
                added = added[:, :, 2 * low * d : 2 * low * d + u]
                added += squares[branch][:v, :, :u]
        return out

    return rows


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
    matrix = _row_kernel(_green_operands(fac))(0, 2 * grid.n_slices)
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

