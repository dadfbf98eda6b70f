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
O(d^3), independent of N, and each contour row of G O(N d^2).  Only
the blocks of D' enter: no closed form is used.

G is held as :class:`_Operands`, and this module owns the whole stream
of such a set: the operand layout, the row kernel, the tile plan and
the streamed maximum.  :mod:`contourgf.verify` places the continuum
prediction, negated, into G's set, each factor copied into place once,
and reads back one number, :func:`_largest_entry` of the set.  That
streams the matrix in tiles of contour rows and columns, latest rows
first, each written column-major by :func:`_row_kernel` into one tile
buffer of ``ORACLE_BLOCK_ENTRIES`` complex entries that serves every
grid, and the tiles' magnitudes through one slab of ``MAGNITUDE_SLAB``
floats.  A tile spans every column while the buffer holds
``TILE_ROWS`` contour rows; otherwise it takes that many rows and as
many columns as fit.  Within a branch the kernel splits each lag that
reaches past a piece of rows' own span of columns into two powers, so
a tile is products of low-rank factors, each one real GEMM, but for
that span, where it adds the lag blocks from a table.  A tile of
forward rows that provably cannot hold the maximum skips its
magnitudes.  Per grid the stream costs O((N d)^2 d) time and O(N d^2)
memory besides the buffer and the slab.

All grids of a run are factorized in one pass, with the grid as the
leading axis of every array and each linalg call made once over the
stack.  The refusals come first for an ``eps dt`` that overflows on any
grid; then, grid by grid in the order given, a singular A' raises, an
ill-conditioned D' warns, and an overflowing Z raises.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    IllConditionedWarning,
    LevelSystem,
    SingularMatrixError,
    TimeGrid,
    max_abs,
)

__all__ = []

# A' is singular when, each row scaled to the largest of the terms it is
# computed from, its smallest singular value is at most this many
# roundoffs times d: a relative error of one roundoff in those terms (in
# nbar as given, or in the arithmetic) then moves Z by about 1/(32 d) of
# itself or more.  A row's scale is rounded up to a power of two.
SINGULAR_ROUNDOFFS = 32
# _factor warns with IllConditionedWarning above this condition estimate.
CONDITION_WARN = 1e12
LOG2 = float(np.log(2.0))
# (x, y) @ _EXPANSION[0] = (x, y) and (x, y) @ _EXPANSION[1] = (-y, x),
# the float parts of x + i y and of i (x + i y), exactly when x and y
# are finite, for _real_operand.
_EXPANSION = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])
# 1 and i, exact factors: a number times either is exact when finite.
_UNIT_AND_I = np.array([1.0, 1j])[:, None, None]
# Complex entries of the one tile buffer of the streamed oracle
# comparison: 768 KiB, allocated once per suite.  With the magnitude
# slab and the O(N d^2) factors of one grid it sets the comparison's
# memory: the oracle suite on d = 2, N = 64, 128 and 256 (no grid
# tiled) peaks at 1.20 MiB (tracemalloc).  Half the buffer peaked at
# 0.82 MiB there but ran about 6 % slower, from the fixed cost of a
# tile.
ORACLE_BLOCK_ENTRIES = 3 * 2**14
# Floats of the slab through which a tile's magnitudes are reduced:
# 128 KiB, which stays in a core's cache.
MAGNITUDE_SLAB = 2**14
# Contour rows of a tile where the buffer holds fewer whole contour
# rows; its columns are cut to fit.  Fewer rows pay a tile's fixed cost
# and the copy of the column factors past its lag table more often, and
# take products of fewer rows: a tile's rows are the short side, 2 d
# TILE_ROWS floats, of each of its real products.  At the grid cap
# (d = 1, 2 and 4, 2 N d = 8192) 16, 32 and 48 rows were not faster
# beyond the spread of the runs.
TILE_ROWS = 24
# Items per operand of numpy's ufunc buffers while a grid streams.  At
# numpy's default of 8192 the kernel's strided Toeplitz add on a tile
# takes three buffers of up to 64 KiB, more than the tile's other
# temporaries; at 128 numpy 2.4 iterates that add without buffers, and
# no slower.
STREAM_BUFFER = 128
# |z| <= sqrt(2) max(|Re z|, |Im z|): the bound by which _grid_error
# skips a tile's magnitudes.
SQRT2 = 1.4142135623730951


@dataclass(frozen=True, slots=True)
class _Factorization:
    """D' reduced to its transfer eigenvalues and the d x d matrix A'.

    ``a_inverse`` is ``A'^{-1} V^dag M V``, the factor every block of G
    shares, on a grid of ``n_slices`` slices; ``partition_function`` is
    ``det(D')^{-zeta}``.  ``condition`` estimates the 1-norm condition
    number of D' with each row of its first block row divided by that
    row's largest entry, as ``||D'||_1 ||V^dag D'^{-1} V||_1`` of that
    matrix, both norms exact, which lies within a factor d of the true
    one.  The scaling keeps the estimate bounded in the boson classical
    limit.
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
    backward hbar as ``(G, d, d)`` arrays over the G grids, and the first
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
    when the condition estimate (see :class:`_Factorization`) exceeds
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
    with np.errstate(over="ignore", invalid="ignore"):
        condition = norm * _inverse_norm(
            log_forward.real,
            log_backward.real,
            n,
            a_inverse,
            first_column,
            np.exp(-log_loop),
        )
    # A norm past overflow (inf - inf among its sums), or of an A'^{-1}
    # that overflows, is infinite.
    condition[np.isnan(condition)] = np.inf
    del first_column, norm
    # Z = det(D')^{-zeta} with det D' = exp(log_det) 2**exponent.
    zeta = system.statistics.zeta
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(-zeta * log_det)
        parts = np.ldexp([z.real, z.imag], -zeta * exponent)
    # Each grid's arrays are copied out of those of all grids, so that a
    # caller done with one grid frees its memory.
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
    plus a within-branch lag term, in the layout :func:`_row_kernel`
    streams.  With ``[j]`` the j-th group of d rows of an array, block
    (j, k) is ``rows[j] @ columns[k, :r]^T``, the ``(2 N d, r_i)`` row
    factors side by side and r the sum of their ranks.  From a forward
    row j to a backward column k it is instead ``cross[j] @
    columns[k]^T``, ``cross`` the ``(N d, c_i)`` factors ``cross_rows``,
    over the same r columns as the row factors, and then ``extra_rows``,
    over the columns past r, which only the backward rows of
    ``columns`` hold.  Within a branch and for k >= j the lag block
    ``left @ diag(powers[branch, k - j]) @ right`` is added, ``(left,
    powers, right) = lags`` with ``powers`` ``(2, N, s)``, forward
    branch first.  ``powers[:, 0]`` is the lag-0 coefficient;
    ``powers[:, m]`` for m >= 1 is geometric, the m-th power of
    ``powers[:, 1]`` entry by entry to roundoff, with no modulus above
    one: :func:`_row_kernel` splits a lag between two such factors.
    The row factors are tuples of the terms' own arrays; the column and
    lag factors are joined, each copied into place once by
    :meth:`place`, at the ranks ``placed`` so far.  Row (k, b) of
    ``columns`` holds the factors of contour column (k, b), so a range
    of columns is a block of rows, which the kernel reads in place
    through its float view, each entry's real and imaginary part side by
    side.
    """

    rows: tuple[np.ndarray, ...]
    cross_rows: tuple[np.ndarray, ...]
    extra_rows: tuple[np.ndarray, ...]
    columns: np.ndarray
    lags: tuple[np.ndarray, np.ndarray, np.ndarray]
    placed: list[int]

    @classmethod
    def empty(cls, n: int, d: int, ranks: tuple[int, int, int]) -> _Operands:
        """A set on N slices of d levels with no term placed, with room
        for the ranks ``ranks`` of the column factors, the columns that
        only the backward rows hold and the lag factors."""
        rank, extra, lag = ranks
        columns = np.empty((2 * n * d, rank + extra), dtype=complex)
        lags = (
            np.empty((d, lag), dtype=complex),
            np.empty((2, n, lag), dtype=complex),
            np.empty((lag, d), dtype=complex),
        )
        return cls((), (), (), columns, lags, [0, rank, 0])

    def place(self, *, rows=(), cross_rows=(), columns=(), extra=(), lags=None) -> None:
        """Add factors of a term: ``rows`` and ``cross_rows``, tuples of
        arrays, after this set's, and ``columns``, a tuple as wide as
        ``rows``, with ``extra``, pairs of a forward row factor and a
        backward column factor, and ``lags = (left, powers, right)``,
        each copied into place after the ranks placed so far.  A term
        may be placed in several calls, each factor once, so that no
        builder holds all of its factors at the same time."""
        self.rows += rows
        self.cross_rows += cross_rows
        main, past, lag = self.placed
        for factor in columns:
            main = _put(self.columns[:, main:], factor) + main
        half = len(self.columns) // 2
        for row, factor in extra:
            self.extra_rows += (row,)
            past = _put(self.columns[half:, past:], factor) + past
        if lags is not None:
            left, powers, right = lags
            at = slice(lag, lag + len(right))
            self.lags[0][:, at] = left
            self.lags[1][..., at] = powers
            lag = _put(self.lags[2][lag:].T, right.T) + lag
        self.placed = [main, past, lag]


def _put(target: np.ndarray, factor: np.ndarray) -> int:
    """Copy ``factor`` into the first columns of ``target``; returns how
    many."""
    target[:, : factor.shape[1]] = factor
    return factor.shape[1]


def _green_operands(fac: _Factorization, room: tuple[int, int, int]) -> _Operands:
    """G's operands from one factorization, in a new set with ``room``
    for the ranks of a term placed after G's.

    Block (j, k) of G is ``V diag(1/s_j) A'^{-1} V^dag M V diag(1/f_k)
    V^dag / i`` plus, for k > j, ``i V diag(f_j / f_k) V^dag``.  ``1/s_j``
    and ``1/f_k`` hold at most N - 1 transfer factors of each branch, a
    product of two power table entries, and ``f_j / f_k`` is one: across
    the branches a forward row factor times a backward column factor,
    which the extra factors hold, within a branch the power at the lag.
    Raises ``FloatingPointError`` when an entry of G could overflow.
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
    operands = _Operands.empty(n, d, tuple(d + extra for extra in room))
    # powers[branch, k] = t^-k for k < N, forward branch first; |t| >= 1.
    logs = np.stack([fac.log_forward, fac.log_backward])[:, None, :]
    powers = np.exp(-np.arange(n)[:, None] * logs)
    forward, backward = powers
    # Contour position j: 1/s_j for forward rows then backward rows, and
    # 1/f_k for forward columns then backward columns; column (k, b)
    # takes row b of diag(1/f_k) V^dag.
    inv_s = np.concatenate([forward[::-1] * backward[-1], backward[::-1]])
    left = (basis[None, :, :] * inv_s[:, None, :]).reshape(2 * half, d)
    del inv_s
    left = left @ (-1j * fac.a_inverse)
    inv_f = np.concatenate([forward, forward[-1] * backward])
    columns = (inv_f[:, None, :] * basis_h.T[None, :, :]).reshape(2 * half, d)
    del inv_f
    forward_rows = (1j * basis[None, :, :] * forward[::-1, None, :]).reshape(half, d)
    cross = (backward[:, None, :] * basis_h.T[None, :, :]).reshape(half, d)
    # The table serves as the lag powers, zero at lag 0.
    powers[:, 0] = 0.0
    operands.place(
        rows=(left,),
        cross_rows=(left[:half],),
        columns=(columns,),
        extra=((forward_rows, cross),),
        lags=(1j * basis, powers, basis_h),
    )
    return operands


def _toeplitz(table: np.ndarray) -> np.ndarray:
    """Block-Toeplitz view of a ``(d, 2 w - 1, d)`` table: block (p, q)
    is ``table[:, w - 1 - p + q]``.  A read-only float ``(w, d, 2 w d)``
    view, entry [p, b] row b of block row p as interleaved real and
    imaginary parts, contiguous over (q, a): numpy buffers a strided add
    by 8192 items, so floats halve its buffers.  Its top-left corners
    are the views of fewer rows and columns."""
    d, lags, _ = table.shape
    w = (lags + 1) // 2
    padded = table.reshape(d, lags * d).view(float)
    row, item = padded.strides
    # Entry [p, b, x] is padded[b, 2 d (w - 1 - p) + x].
    return np.lib.stride_tricks.as_strided(
        padded[:, 2 * d * (w - 1) :],
        shape=(w, d, 2 * w * d),
        strides=(-2 * d * item, row, item),
        writeable=False,
    )


def _real_operand(factors, low: int, high: int, rank: int):
    """The float operand ``A_x``, ``(2 rank, 2 m)``, of the real product
    ``B_x @ A_x`` that is the float view of ``B @ A``, for ``B_x`` the
    float view of a complex ``(n, rank)`` B and a complex ``(rank, m)``
    A: row 2l of ``A_x`` is row l of A as floats, and row 2l + 1 is i
    times it.  The first rows of A are rows low..high of the complex
    ``factors``, side by side and transposed, set here from the factors'
    float views by one product each with ``_EXPANSION``.  Also returns
    the complex ``(rank, 2, m)`` view of ``A_x``, ``[l, 0]`` row l of A
    and ``[l, 1]`` i times it, for the caller to set the rest: a ufunc
    that read one half to write the other would copy its input, which
    numpy cannot tell apart from the output."""
    m = high - low
    floats = np.empty((rank, 2, m, 2))
    at = 0
    for factor in factors:
        k = factor.shape[1]
        parts = factor[low:high].view(float).reshape(m, k, 1, 2)
        np.matmul(parts.transpose(1, 2, 0, 3), _EXPANSION, out=floats[at : at + k])
        at += k
    return floats.reshape(2 * rank, 2 * m), floats.view(complex)[..., 0]


def _row_kernel(operands: _Operands, block: int):
    """Kernel for tiles of contour rows of ``operands``.

    Returns ``rows(start, stop, out, span)``, which writes contour rows
    start..stop over contour columns ``span = (first, last)`` into
    ``out`` column-major and returns it: ``out`` is C-contiguous and
    ``((last - first) d, (stop - start) d)``, the transpose of those
    rows, so that a column's entries over the rows are contiguous.  It
    takes the rows in pieces of at most w = min(``block``, N) rows of
    one branch, so a call of at most ``block`` rows is at most one piece
    per branch.  A piece from row ``low`` adds the lag blocks of columns
    low .. low + w - 1 from a block-Toeplitz view of lags 0 .. w - 1,
    formed once, where the lag-0 coefficient ``powers[:, 0]`` enters.
    Past those columns, with a = low + w - 1 >= j and P the geometric
    powers with ``P[0] = 1``, the lag block at row j and column k is
    ``left diag(P[a - j]) @ diag(P[k - a]) right``, each factor of
    modulus at most one when ``powers`` is.  So a piece takes one product of the column factors
    there, with their lag factors beside them, and its row factors, with
    the lag factors of its rows beside them; one without lag factors over
    the columns before; and, for forward rows, one of the cross factors
    over the backward columns; each over the part of its columns within
    the span, and the column factors past the table copied once per
    piece.  Each product is one real GEMM, ``B_x (n, 2 k) @ A_x (2 k,
    2 m)``, written into the float view of its part of ``out``: B_x the
    float view of the complex ``(n, k)`` column factors, read in place,
    and A_x the piece's ``(k, m)`` transposed row factors expanded by
    :func:`_real_operand`.  With w = N no product carries lag factors.
    """
    left, powers, right = operands.lags
    n, d, s = powers.shape[1], left.shape[0], left.shape[1]
    width = min(block, n)
    # tables[branch, b, w - 1 - lag, a] = (left diag(powers[lag]) right)_ab.
    mixed = (left.T[:, :, None] * right[:, None, :]).reshape(s, d * d)
    tables = np.zeros((2, d, 2 * width - 1, d), dtype=complex)
    lagged = (powers[:, :width] @ mixed).reshape(2, width, d, d)
    tables[:, :, :width] = lagged[:, ::-1].transpose(0, 3, 1, 2)
    squares = tuple(map(_toeplitz, tables))
    if width == n:
        # No piece reaches past its own square: the table holds every
        # lag, and the powers are released.
        powers = None
    # The rows close over the factors, not the set.
    factors, columns = operands.rows, operands.columns
    crossing = operands.cross_rows + operands.extra_rows
    r = sum(factor.shape[1] for factor in factors)
    # The column factors past a piece's table columns within its span,
    # copied in per piece, beside the lag factors (diag(P[k - a]) right)^T
    # of one branch from k - a = offset + 1 on, filled when the branch or
    # the offset changes: once per branch for calls over every column.
    # Made when a piece first needs it, as wide as its call's span, and
    # made again for a wider one.
    past = None
    filled = None
    # Per lag factor, its column of left and i times it, (s, 2, 1, d):
    # made when a piece first needs the lag factors of its rows.
    turns = None

    def part(out, lo: int, hi: int, first: int) -> np.ndarray:
        # The float view of columns lo..hi of ``out``, whose columns
        # start at ``first``.
        return out[(lo - first) * d : (hi - first) * d].view(float)

    def products(branch, low, high, reach, out, first, last) -> None:
        # Contour rows low..high of ``branch``, whose columns end at
        # ``end``, over columns first..last, but for the lag blocks on
        # columns low..reach.  Each product takes the part lo..hi of its
        # columns within first..last.
        nonlocal past, filled, turns
        # The cross product first: its operand is released before the
        # others' is made.
        lo, hi = max(n, first), last
        if not branch and lo < hi:
            cross = columns[lo * d : hi * d].view(float)
            operand = _real_operand(crossing, low * d, high * d, columns.shape[1])[0]
            np.matmul(cross, operand, out=part(out, lo, hi, first))
            del operand
        end = (branch + 1) * n
        lo, hi = max(reach, first), min(end, last)
        beyond = lo < hi
        if not beyond and min(reach, last) <= first:
            # The span holds none of the columns of the other products.
            return
        v = high - low
        rank = r + s if beyond else r
        operand, pairs = _real_operand(factors, low * d, high * d, rank)
        if beyond:
            # Row j takes left diag(P[a - j]), a = low + w - 1 >= j, and
            # i times it, from i left, to roundoff: a product, not a
            # broadcast, which numpy would buffer.
            if turns is None:
                turns = left.T[:, None, None, :] * _UNIT_AND_I
            row_powers = powers[branch, width - v : width][::-1].T[:, None, :, None]
            lags = pairs[r:].reshape(s, 2, v, d)
            np.matmul(row_powers, turns, out=lags)
            if v == width:
                lags[:, :, -1] = turns[:, :, 0]
            if past is None or len(past) < (hi - lo) * d:
                past = np.empty((min(n - width, last - first) * d, r + s), complex)
                filled = None
            # Column k takes diag(P[k - a]) right, at k - lo.
            offset = lo - reach
            if filled != (branch, offset):
                band = powers[branch, offset + 1 : offset + 1 + len(past) // d]
                lags = past[: len(band) * d, r:].reshape(len(band), d, s)
                lags = lags.transpose(2, 0, 1)
                np.matmul(band.T[:, :, None], right[:, None, :], out=lags)
                filled = branch, offset
            size = (hi - lo) * d
            past[:size, :r] = columns[lo * d : hi * d, :r]
            np.matmul(past[:size].view(float), operand, out=part(out, lo, hi, first))
        lo, hi = first, min(reach, last)
        if lo < hi:
            before = columns[lo * d : hi * d, :r].view(float)
            np.matmul(before, operand[: 2 * r], out=part(out, lo, hi, first))

    def rows(start: int, stop: int, out, span) -> np.ndarray:
        first, last = span
        # Rows start..min(stop, N) are forward, max(start, N)..stop
        # backward; either range may be empty.
        branches = ((0, start, min(stop, n)), (1, max(start, n), stop))
        for branch, begin, finish in branches:
            end = (branch + 1) * n
            for low in range(begin, finish, width):
                high = min(low + width, finish)
                reach = min(low + width, end)
                piece = out[:, (low - start) * d : (high - start) * d]
                products(branch, low, high, reach, piece, first, last)
                # The lag blocks on columns low..reach within the span
                # from the table, as floats [column, b, (row, a, part)],
                # once the products' temporaries are released: numpy
                # buffers a strided add.
                lo, hi = max(low, first), min(reach, last)
                if lo < hi:
                    v = high - low
                    added = piece.view(float).reshape(-1, d, 2 * v * d)
                    added = added[lo - first : hi - first]
                    added += squares[branch][lo - low : hi - low, :, : 2 * v * d]
        return out

    return rows


def _tile(n: int, d: int) -> tuple[int, int]:
    """Contour rows and columns per streamed tile on N slices of d
    levels.  A tile spans every column while ``ORACLE_BLOCK_ENTRIES``
    hold ``TILE_ROWS`` contour rows (or all 2N), and then takes as many
    rows as fit; otherwise it takes ``TILE_ROWS`` rows and as many
    columns as fit, at least one."""
    area = d * d
    size = 2 * n
    tall = min(TILE_ROWS, size)
    rows = ORACLE_BLOCK_ENTRIES // (size * area)
    if rows >= tall:
        return min(rows, size), size
    columns = ORACLE_BLOCK_ENTRIES // (tall * area)
    if columns:
        return tall, columns
    return max(1, ORACLE_BLOCK_ENTRIES // area), 1


def _workspace(slices, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat complex buffer for the largest tile over the slice counts
    ``slices`` of d levels, and the float slab through which its
    magnitudes are reduced."""
    entries = max(math.prod(_tile(n, d)) for n in slices) * d * d
    return np.empty(entries, dtype=complex), np.empty(min(entries, MAGNITUDE_SLAB))


def _largest_entry(operands: _Operands, workspace) -> float:
    """Largest entry in magnitude of the matrix ``operands`` holds, by
    :func:`_grid_error` over a kernel of :func:`_row_kernel` built for
    the tile height of :func:`_tile`, through ``workspace`` from
    :func:`_workspace` for slice counts including this set's.  The set
    is dropped once the kernel is built, which holds what it reads, so a
    caller that passes the set on without keeping it holds no factor
    twice while the matrix streams; the kernel is released on return."""
    left, powers, _ = operands.lags
    n, d = powers.shape[1], left.shape[0]
    rows = _row_kernel(operands, _tile(n, d)[0])
    del operands, left, powers
    return _grid_error(n, d, rows, workspace)


def _grid_error(n: int, d: int, rows, workspace) -> float:
    """Largest entry in magnitude of a ``(2 N d, 2 N d)`` matrix on N
    slices of d levels, such as ``G - C``.

    ``rows(start, stop, out, span)`` writes contour rows start..stop of
    the matrix over the contour columns ``span`` into ``out``
    column-major, ``out`` their transpose, as the kernel of
    :func:`_row_kernel` does.  The tiles of :func:`_tile` stream through
    ``workspace``, from :func:`_workspace` for slice counts including N,
    so no tile-sized array is allocated, and their magnitudes through
    its slab, with numpy's ufunc buffers at ``STREAM_BUFFER`` items.
    They stream latest rows first: the first-order error of G grows
    along the contour, so the largest entries come first.  A tile whose
    rows all lie on the forward branch then skips its magnitudes when
    ``sqrt(2) max(|Re|, |Im|)`` over its entries, with a margin for
    roundoff, is below the largest entry so far: it cannot hold the
    maximum, so the result is the plain maximum, bit for bit.  The test
    costs about a third of the magnitudes, so the backward tiles, which
    hold the largest entries, do not take it.  A NaN or an infinity
    fails it, so no such tile is skipped; the result is NaN when any
    entry is NaN.
    """
    size = 2 * n
    height, width = _tile(n, d)
    buffer, slab = workspace
    largest = 0.0
    with np.errstate():
        # Restored with the error state when the block exits.
        np.setbufsize(STREAM_BUFFER)
        for start in reversed(range(0, size, height)):
            stop = min(start + height, size)
            for first in range(0, size, width):
                last = min(first + width, size)
                shape = ((last - first) * d, (stop - start) * d)
                out = buffer[: shape[0] * shape[1]].reshape(shape)
                tile = rows(start, stop, out, (first, last))
                if stop <= n:
                    parts = tile.view(float)
                    bound = max(parts.max(), -parts.min())
                    if SQRT2 * bound * (1.0 + 1e-15) < largest:
                        continue
                entries = tile.reshape(-1)
                for at in range(0, entries.size, slab.size):
                    part = entries[at : at + slab.size]
                    error = float(np.abs(part, out=slab[: part.size]).max())
                    if math.isnan(error):
                        return error
                    largest = max(largest, error)
    return largest
