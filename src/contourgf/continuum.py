"""Closed-form contour Green's functions fixed by boundary conditions.

Conventions
-----------
The statistics sign is ``zeta`` (+1 bosons, -1 fermions).  The thermal
occupation is ``nbar = 1/(exp((eps - mu)/T) - zeta)``.  With the step
function theta (value 1/2 at coinciding times) the components are

* retarded   ``G_R(t, t') = -i theta(t - t') exp(-i eps (t - t'))``
* advanced   ``G_A(t, t') = +i theta(t' - t) exp(-i eps (t - t'))``
* Keldysh    ``G_K(t, t') = -i exp(-i eps (t - ti)) (1 + 2 zeta nbar^T)
  exp(+i eps (t' - ti))``

where ``ti`` is the reference (initial) time and the transpose is plain
transposition, not conjugation.  For a single level the Keldysh factor
reduces to ``1 + 2 zeta nbar`` and the reference time drops out.  The
remaining rotated-basis component vanishes identically.

Contour-branch components are computed from the same three tables, by
one combination for ``gf`` and the structure suite alike:
``G^{bb'} = (G_K + s(b') G_R + s(b) G_A)/2`` with branch signs
``s(+) = +1`` and ``s(-) = -1`` (:attr:`ContourComponent.signs`),
identical for both statistics.

:func:`regularized_step` is the one symmetric step of every table here
(the oracle's continuum rows take the contour order instead).  It sits
at the rotated-basis positions of R and A (:func:`rotated_block_layout`),
and :func:`fix_constants` solves the two boundary conditions for the
constant blocks of the general solution by block elimination.
Everything here reads a :class:`~contourgf.core.LevelSystem`'s stored
energy eigensystem and Keldysh weight W; nothing is validated again.

All functions are pure; nothing here keeps state between calls.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .core import (
    ContourComponent,
    LevelSystem,
    Statistics,
    ThermalDivergenceError,
    propagator_stack,
)

__all__ = [
    "ContourComponent",
    "KeldyshComponent",
    "component_table",
    "fix_constants",
]

class KeldyshComponent(enum.Enum):
    """Components in the rotated (Keldysh) basis."""

    RETARDED = "R"
    ADVANCED = "A"
    KELDYSH = "K"
    ZERO = "zero"

    __hash__ = object.__hash__  # as for Statistics


def regularized_step(x):
    """Unit step with the symmetric value 1/2 at exactly zero, elementwise.
    Built in the one array of ``sign(x)``: ``(sign(x) + 1) * 0.5`` is
    ``0.5 * (1 + sign(x))`` to the bit."""
    step = np.sign(x)
    step += 1.0
    step *= 0.5
    return step


def thermal_nbar(
    epsilon: float,
    mu: float,
    temperature: float,
    statistics: Statistics,
) -> float:
    """Equilibrium occupation ``1/(exp((eps - mu)/T) - zeta)``.

    Bose-Einstein for bosons, Fermi-Dirac for fermions.  Bosons require
    ``eps > mu``; otherwise :class:`~contourgf.core.ThermalDivergenceError`
    is raised.  ``temperature`` must be positive.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = (epsilon - mu) / temperature
    zeta = statistics.zeta
    if statistics is Statistics.BOSON and x <= 0:
        raise ThermalDivergenceError(
            f"bosonic occupation diverges for eps - mu = {epsilon - mu:.6g} <= 0"
        )
    if x > 700.0:
        # exp(x) overflows; the occupation is exp(-x) to double precision.
        return math.exp(-x) if x < 745.0 else 0.0
    if statistics is Statistics.BOSON:
        return 1.0 / math.expm1(x)
    return 1.0 / (math.exp(x) + 1.0)


def component_table(
    system: LevelSystem,
    t_values,
    t_prime_values,
    component,
    t_ref: float,
) -> np.ndarray:
    """Tabulate one component over all pairs from two sets of times.

    Parameters
    ----------
    system : LevelSystem
        Propagators come from its stored energy eigensystem, and the
        Keldysh and branch components read its ``keldysh_weight``.
    t_values, t_prime_values : array_like of float
        Row and column times, each read flattened in C order: a scalar is
        one time, and a 2-d array its rows one after another.
    component : KeldyshComponent or ContourComponent
        Which component to evaluate.
    t_ref : float
        Reference (initial) time entering the Keldysh component: every
        propagator is over ``t - t_ref``.

    Returns
    -------
    Array of shape ``(n, m, d, d)``, ``n`` and ``m`` the sizes of
    ``t_values`` and ``t_prime_values``.
    """
    if not isinstance(component, (KeldyshComponent, ContourComponent)):
        raise TypeError(f"unsupported component {component!r}")
    row, col = (_side(system, t, t_ref) for t in (t_values, t_prime_values))
    # The one table is the only reader of the pair's products.
    return _tabulate(_Pair(system, row, col, shared=False), component)


def _side(system: LevelSystem, times, t_ref: float):
    """The times as a flat float array and the propagators over
    ``times - t_ref``: one side of a :class:`_Pair`."""
    times = np.asarray(times, dtype=float).reshape(-1)
    return times, propagator_stack(system, times - t_ref)


class _Pair:
    """A row and a column side of :func:`_side` and, each computed once,
    when a table first reads it, the step ``theta(t - t')``, ``free = P_n
    P_m^dag`` and ``keldysh = -i P_n W P_m^dag``, W the system's
    ``keldysh_weight``.  Unless ``shared``, R and A overwrite ``free``: no
    later table reads it.
    """

    def __init__(self, system, row, col, *, shared=True):
        self.system, self.shared = system, shared
        (self.t_row, self.p_row), (self.t_col, self.p_col) = row, col

    @functools.cached_property
    def step(self) -> np.ndarray:
        return regularized_step(self.t_row[:, None] - self.t_col)

    @functools.cached_property
    def free(self) -> np.ndarray:
        return _products(self.p_row, self.p_col)

    @functools.cached_property
    def keldysh(self) -> np.ndarray:
        return _sandwich(self.p_row, self.system.keldysh_weight, self.p_col)


# Rows of R, A and the branch components multiplied by their step
# factor at a time: the factor and a block's temporaries are complex
# tables of these rows, so they stay a small part of the table.
_STEP_ROWS = 16
# Entries of a block of a product table at d >= 2 in the einsum's own
# layout, before the block is copied into the table: 512 KB.
_PRODUCT_ENTRIES = 2**15


def _tabulate(pair: _Pair, what) -> np.ndarray:
    """The tables of :func:`component_table` and the structure suite:
    ``what``, a component or a ``(constants, row, col)`` position, over the
    sides of ``pair``, from its step and products.  A branch component is
    :func:`_branch` of R, A and K, row block by row block.  A position
    holds the general solution ``-i P_n [c + theta(t - t')] P_m^dag`` with
    the constant block ``c = constants[row][col]`` of
    :func:`fix_constants`, the step term only where the statistics'
    layout puts R or A; a block that is exactly zero takes no product.
    Only the tables that hold the step read it, before the free product:
    built beside that product, it would raise the peak memory."""
    if what is KeldyshComponent.KELDYSH:
        return pair.keldysh
    shape = pair.p_row.shape[:1] + pair.p_col.shape
    if what is KeldyshComponent.ZERO:
        return np.zeros(shape, dtype=complex)
    if isinstance(what, tuple):
        constants, row, col = what
        block = constants[row][col]
        # Only the suite tabulates positions, and it reads magnitudes: a
        # zero block's table starts as zeros, where its product would
        # hold zeros of either sign.
        if block.any():
            out = _sandwich(pair.p_row, block, pair.p_col)
        else:
            out = np.zeros(shape, dtype=complex)
        if _has_step(pair.system.statistics, row, col):
            out += pair.step[:, :, None, None] * (-1j * pair.free)
        return out
    # R = -1j theta free, A = 1j (1 - theta) free and a branch component
    # from them, each operation as in those expressions, one block of
    # rows at a time, into the free table unless the pair is shared.  A's
    # block goes first, as R's block may be written over the free block
    # both read.  The Keldysh table is only read.
    theta = pair.step[:, :, None, None]
    free = pair.free
    out = np.empty_like(free) if pair.shared else free
    signs = what.signs if isinstance(what, ContourComponent) else None
    # The step factor keeps its real part 0.0, and each block writes its
    # imaginary part: -1j * theta and 1j * (1 - theta) to the bit, signs
    # of zeros included, without the buffer that casts theta to complex.
    factor = np.zeros(theta[:_STEP_ROWS].shape, dtype=complex)
    for start in range(0, len(free), _STEP_ROWS):
        rows = slice(start, start + _STEP_ROWS)
        step = factor[: len(free) - start]
        if what is not KeldyshComponent.RETARDED:
            np.subtract(1.0, theta[rows], out=step.imag)
            term = np.multiply(step, free[rows], out=None if signs else out[rows])
        if what is not KeldyshComponent.ADVANCED:
            np.negative(theta[rows], out=step.imag)
            np.multiply(step, free[rows], out=out[rows])
        if signs:
            _branch(signs, pair.keldysh[rows], out[rows], term, out[rows], term)
    return out


def _branch(signs, kel, ret, adv, out=None, term=None) -> np.ndarray:
    """The branch component of ``signs = (s_row, s_col)`` from the rotated
    ones, ``(K + s_col R + s_row A) / 2``, in this order of operations:
    ``s_col R`` into ``out``, ``s_row A`` into ``term``, each a new array
    when None and either one its own operand, then ``K +``, ``+`` and
    ``/ 2`` in ``out``.  Every branch table is formed here, so the suite's
    tables from its R, A and K are ``gf``'s to the bit."""
    s_row, s_col = signs
    total = np.multiply(s_col, ret, out=out)
    term = np.multiply(s_row, adv, out=term)
    np.add(kel, total, out=total)
    np.add(total, term, out=total)
    return np.divide(total, 2.0, out=total)


def _products(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``P_n Q_m^dag`` for every pair from two arrays of d x d matrices,
    as a C-contiguous (n, m, d, d) table.

    Each entry sums over b in order, exactly as ``einsum("nab,mcb->nmac")``
    does, so the table is the same to the bit, signs of zeros included;
    only the order in which the output entries are visited changes.  Of
    those orders, (c, n, a, m) was the fastest over the structure suite's
    tables: against the plain layout, 1.4x on a 5 x 7 table at d = 10 and
    4x on gf's 31 x 31 table at d = 2 (2-vCPU Xeon, numpy 2.4), and an
    einsum into the table through a transposed view runs in the plain
    order, as slowly.  At d = 1 its transpose is already contiguous, so
    gf's largest tables are not copied; (m, c, a, n) copies them, 3.5x
    slower there.  At d >= 2 the table is computed in blocks of rows of
    at most ``_PRODUCT_ENTRIES`` entries, or of one row, each copied into
    the table, so beside the table the einsum's own layout holds at most
    one such block.
    """
    q = q.conj()
    d = p.shape[-1]
    if d == 1:
        return np.einsum("nab,mcb->cnam", p, q).transpose(1, 3, 2, 0)
    step = max(1, _PRODUCT_ENTRIES // max(1, len(q) * d * d))
    out = np.empty((len(p), len(q), d, d), dtype=complex)
    for start in range(0, len(p), step):
        rows = slice(start, start + step)
        out[rows] = np.einsum("nab,mcb->cnam", p[rows], q).transpose(1, 3, 2, 0)
    return out


def _sandwich(p_row: np.ndarray, middle: np.ndarray, p_col: np.ndarray) -> np.ndarray:
    """``-i P_n M P_m^dag`` for every pair of propagators, as (n, m, d, d).
    Scaled in place: ``x * -1j`` is ``-1j * x`` to the bit."""
    out = _products(p_row @ middle, p_col)
    out *= -1j
    return out


# Which physical component sits at each rotated-basis position.
_LAYOUTS = {
    Statistics.BOSON: (
        (KeldyshComponent.KELDYSH, KeldyshComponent.RETARDED),
        (KeldyshComponent.ADVANCED, KeldyshComponent.ZERO),
    ),
    Statistics.FERMION: (
        (KeldyshComponent.RETARDED, KeldyshComponent.KELDYSH),
        (KeldyshComponent.ZERO, KeldyshComponent.ADVANCED),
    ),
}


def rotated_block_layout(
    statistics: Statistics,
) -> tuple[tuple[KeldyshComponent, KeldyshComponent], ...]:
    """Which physical component sits at each rotated-basis position.

    Bosons: ``[[K, R], [A, 0]]``.  Fermions: ``[[R, K], [0, A]]``.
    """
    return _LAYOUTS[statistics]


def _has_step(statistics: Statistics, row: int, col: int) -> bool:
    """Whether the ansatz holds ``c + theta(t - t')`` at a position:
    where the retarded and advanced components sit."""
    component = _LAYOUTS[statistics][row][col]
    return component in (KeldyshComponent.RETARDED, KeldyshComponent.ADVANCED)


def fix_constants(
    system: LevelSystem,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Solve the boundary conditions for the four constant blocks,
    returned as ``((c11, c12), (c21, c22))``, indexed by position like
    :func:`rotated_block_layout`.

    The general solution of the contour equations of motion leaves one
    constant block per rotated-basis position.  Two conditions fix them:
    the second-row components vanish at the final time, and at the
    initial time the first row equals ``-W`` times the second row, with
    ``W = 1 + 2 zeta nbar^T``, the system's ``keldysh_weight``.  The
    conditions are block triangular, so per column the second row follows
    from the first condition and the first row from the second, by
    elimination; every block is then ``a W + b 1`` with scalar
    coefficients, so it costs O(d^2):

    * ``c_2 = -theta(t_f - t') [step at row 2]``,
    * ``c_1 = -W c_2 - theta(t_i - t') ([step at row 1] + W [step at row 2])``,

    with the step values taken at an interior column time t' and the
    step positions read from :func:`rotated_block_layout`.  Nothing is
    hard coded.  For bosons the off-diagonal positions carry the step
    structure and the solved values are ``c11 = 1 + 2 nbar^T``,
    ``c12 = 0``, ``c21 = -1``, ``c22 = 0``; for fermions the diagonal
    positions carry it and the solved values are ``c11 = 0``,
    ``c12 = 1 - 2 nbar^T``, ``c21 = 0``, ``c22 = -1``.
    """
    statistics = system.statistics
    weight = system.keldysh_weight
    t_initial, t_prime, t_final = 0.0, 0.5, 1.0
    step_final = float(regularized_step(t_final - t_prime))
    step_initial = float(regularized_step(t_initial - t_prime))
    # Every block is a W + b 1, its coefficients folded as floats from
    # the layout's step flags (0 or 1): c_2 = -theta_f second, and
    # c_1 = -W c_2 - theta_i (first + second W)
    #     = (-c_2 - theta_i second) W - theta_i first.
    on_weight = [[0.0, 0.0], [0.0, 0.0]]
    on_eye = [[0.0, 0.0], [0.0, 0.0]]
    for col in range(2):
        first = _has_step(statistics, 0, col)
        second = _has_step(statistics, 1, col)
        # Second row vanishes at the final time.
        on_eye[1][col] = -step_final * second
        # First row plus weight times second row vanishes at the initial
        # time.
        on_weight[0][col] = -on_eye[1][col] - step_initial * second
        on_eye[0][col] = -step_initial * first
    eye = np.eye(weight.shape[0], dtype=complex)
    blocks = np.multiply.outer(on_weight, weight) + np.multiply.outer(on_eye, eye)
    return (blocks[0, 0], blocks[0, 1]), (blocks[1, 0], blocks[1, 1])
