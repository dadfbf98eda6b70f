"""Closed-form contour Green's functions fixed by boundary conditions.

Conventions
-----------
The statistics sign is ``zeta`` (+1 bosons, -1 fermions).  The
distribution parameter is ``rho = nbar (1 + zeta nbar)^(-1)`` and the
thermal occupation is ``nbar = 1/(exp((eps - mu)/T) - zeta)``.  With the
step function theta (value 1/2 at coinciding times) the components are

* retarded   ``G_R(t, t') = -i theta(t - t') exp(-i eps (t - t'))``
* advanced   ``G_A(t, t') = +i theta(t' - t) exp(-i eps (t - t'))``
* Keldysh    ``G_K(t, t') = -i exp(-i eps (t - ti)) (1 + 2 zeta nbar^T)
  exp(+i eps (t' - ti))``

where ``ti`` is the reference (initial) time and the transpose is plain
transposition, not conjugation.  For a single level the Keldysh factor
reduces to ``1 + 2 zeta nbar`` and the reference time drops out.  The
remaining rotated-basis component vanishes identically.

Contour-branch components follow from the same three functions:
``G^{bb'} = (G_K + s(b') G_R + s(b) G_A)/2`` with branch signs
``s(+) = +1`` and ``s(-) = -1``, identical for both statistics.

:func:`regularized_step` is the one symmetric step of every table here
(the oracle's continuum rows take the contour order instead).  It sits
at the rotated-basis positions of R and A (:func:`rotated_block_layout`),
and :func:`fix_constants` solves the two boundary conditions for the
constant blocks of the general solution by block elimination.
Everything here reads the eigensystems a :class:`~contourgf.core.LevelSystem`
checked and stored when it was constructed; nothing is validated again.

All functions are pure; nothing here keeps state between calls.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OCCUPATION_SLACK,
    ContourComponent,
    LevelSystem,
    OccupationOutOfRangeError,
    Statistics,
    ThermalDivergenceError,
    propagator_stack,
)

__all__ = [
    "ContourComponent",
    "KeldyshComponent",
    "SolutionConstants",
    "component_table",
    "fix_constants",
    "gf_component",
    "initial_boundary_ratio",
    "keldysh_weight",
    "normalization_prefactor",
    "regularized_step",
    "rho_from_nbar",
    "rotated_block_layout",
    "solution_from_constants",
    "thermal_nbar",
]

class KeldyshComponent(enum.Enum):
    """Components in the rotated (Keldysh) basis."""

    RETARDED = "R"
    ADVANCED = "A"
    KELDYSH = "K"
    ZERO = "zero"


def regularized_step(x):
    """Unit step with the symmetric value 1/2 at exactly zero, elementwise."""
    return 0.5 * (1.0 + np.sign(x))


def rho_from_nbar(system: LevelSystem) -> np.ndarray:
    """Distribution parameter ``rho = nbar (1 + zeta nbar)^(-1)``.

    Mapped through the stored eigenbasis of ``nbar``.  Raises
    :class:`~contourgf.core.OccupationOutOfRangeError` at the divergent
    fermionic endpoint: an occupation within ``OCCUPATION_SLACK`` (1e-10,
    absolute) of 1.
    """
    vals, vecs = system.nbar_eigh
    denom = 1 + system.statistics.zeta * vals
    if np.abs(denom).min() <= OCCUPATION_SLACK:
        raise OccupationOutOfRangeError(
            "distribution parameter diverges at occupation "
            f"{vals[np.abs(denom).argmin()]:.6g}"
        )
    return (vecs * (vals / denom)) @ vecs.conj().T


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


def normalization_prefactor(system: LevelSystem) -> float:
    """Partition-sum prefactor ``(1 - zeta rho)^zeta = det(1 + zeta nbar)^(-zeta)``.

    Equals ``1/(1 + nbar)`` for bosons and ``1 - nbar`` for fermions
    (the reciprocal of the two-state trace).  Taken from the stored
    eigenvalues of ``nbar`` directly, so it keeps its digits in the
    classical limit, where ``rho`` rounds to 1.
    """
    vals, _ = system.nbar_eigh
    zeta = system.statistics.zeta
    with np.errstate(over="ignore"):
        return float(np.prod(1.0 + zeta * vals) ** -zeta)


def keldysh_weight(system: LevelSystem) -> np.ndarray:
    """Statistical weight ``1 + 2 zeta nbar^T`` entering the Keldysh
    component and the initial-time boundary condition.

    The transpose is plain transposition (no conjugation).  Raises
    ``FloatingPointError`` when the weight overflows, as it does for a
    boson occupation near the largest double.
    """
    occ = system.nbar
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.eye(system.dimension) + 2 * system.statistics.zeta * occ.T
    if not np.isfinite(weight).all():
        raise FloatingPointError(
            "Keldysh weight 1 + 2 zeta nbar^T overflows: "
            f"max |nbar| = {np.abs(occ).max():.6g}"
        )
    return weight


def component_table(
    system: LevelSystem,
    t_values,
    t_prime_values,
    component,
    t_ref: float,
) -> np.ndarray:
    """Tabulate one component over all pairs from two time arrays.

    Parameters
    ----------
    system : LevelSystem
        Propagators come from its stored energy eigensystem.
    t_values, t_prime_values : 1-d arrays
        Row and column times.
    component : KeldyshComponent or ContourComponent
        Which component to evaluate.
    t_ref : float
        Reference (initial) time entering the Keldysh component.

    Returns
    -------
    Array of shape ``(len(t_values), len(t_prime_values), d, d)``.
    """
    if not isinstance(component, (KeldyshComponent, ContourComponent)):
        raise TypeError(f"unsupported component {component!r}")
    return _over_times(system, t_values, t_prime_values, t_ref, component)


def _over_times(system, rows, cols, t_ref, what) -> np.ndarray:
    """:func:`_tabulate` over all pairs of two time arrays: the set-up that
    :func:`component_table` and :func:`solution_from_constants` each had.
    The one table is the only reader of the pair's products."""
    t_row, t_col = (np.asarray(t, dtype=float).reshape(-1) for t in (rows, cols))
    p_row, p_col = (propagator_stack(system, t - t_ref) for t in (t_row, t_col))
    theta = regularized_step(t_row[:, None] - t_col)
    return _tabulate(_Pair(system, p_row, p_col, shared=False), theta, what)


class _Pair:
    """Two propagator stacks and their products over all pairs, each
    computed once, when a table first reads it: ``free = P_n P_m^dag``
    and ``keldysh = -i P_n W P_m^dag`` (W from :func:`keldysh_weight`).
    Unless ``shared``, R and A overwrite ``free``: no later table reads it.
    """

    def __init__(self, system, p_row, p_col, *, shared=True):
        self.system, self.p_row, self.p_col = system, p_row, p_col
        self.shared = shared

    @functools.cached_property
    def free(self) -> np.ndarray:
        return _products(self.p_row, self.p_col)

    @functools.cached_property
    def keldysh(self) -> np.ndarray:
        return _sandwich(self.p_row, keldysh_weight(self.system), self.p_col)


def _tabulate(pair: _Pair, theta, what) -> np.ndarray:
    """The tables of :func:`component_table` and :func:`solution_from_constants`:
    ``what``, a component or a ``(constants, row, col)`` position, over the
    stacks of ``pair``, from its products; the step table ``theta`` is only
    read."""
    if what is KeldyshComponent.ZERO:
        return np.zeros(theta.shape + pair.p_row.shape[1:], dtype=complex)
    theta = theta[:, :, None, None]
    if isinstance(what, tuple):
        constants, row, col = what
        middle = getattr(constants, f"c{row + 1}{col + 1}")
        out = _sandwich(pair.p_row, middle, pair.p_col)
        if _has_step(pair.system.statistics, row, col):
            out += theta * (-1j * pair.free)
        return out
    if what is KeldyshComponent.KELDYSH:
        return pair.keldysh
    free = pair.free
    # R and A may overwrite the free table: the same products as below, in
    # the same operand order, with no temporary beyond the step factor.
    # That factor is built as its real part 0.0 and its imaginary part,
    # which is -1j * theta and 1j * (1 - theta) to the bit, signs of zeros
    # included, without the buffer that casts theta to complex.
    out = None if pair.shared else free
    if what in (KeldyshComponent.RETARDED, KeldyshComponent.ADVANCED):
        step = np.zeros(theta.shape, dtype=complex)
        if what is KeldyshComponent.RETARDED:
            np.negative(theta, out=step.imag)
        else:
            np.subtract(1.0, theta, out=step.imag)
        return np.multiply(step, free, out=out)
    s_row = what.row_branch.sign
    s_col = what.col_branch.sign
    kel = pair.keldysh
    return (
        kel + s_col * (-1j * theta * free) + s_row * (1j * (1.0 - theta) * free)
    ) / 2.0


def _products(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``P_n Q_m^dag`` for every pair from two stacks, as a C-contiguous
    (n, m, d, d) table.

    Each entry sums over b in order, exactly as ``einsum("nab,mcb->nmac")``
    does, so the table is the same to the bit, signs of zeros included;
    only the order in which the output entries are visited changes.  Of
    those orders, (c, n, a, m) was the fastest over the structure suite's
    tables: against the plain layout, 1.4x on a 5 x 7 table at d = 10 and
    4x on gf's 31 x 31 table at d = 2 (2-vCPU Xeon, numpy 2.4).  At d = 1
    its transpose is already contiguous, so gf's largest tables are not
    copied; (m, c, a, n) copies them, 3.5x slower there.
    """
    table = np.einsum("nab,mcb->cnam", p, q.conj())
    return np.ascontiguousarray(table.transpose(1, 3, 2, 0))


def _sandwich(p_row: np.ndarray, middle: np.ndarray, p_col: np.ndarray) -> np.ndarray:
    """``-i P_n M P_m^dag`` for every pair of propagators, as (n, m, d, d)."""
    return -1j * _products(p_row @ middle, p_col)


def gf_component(
    system: LevelSystem,
    component: KeldyshComponent | ContourComponent,
    t: float,
    t_prime: float,
    *,
    t_ref: float,
) -> np.ndarray:
    """One rotated-basis or branch-labelled component at a single time pair.

    ``t_ref`` is the initial time of the contour; it is required even
    for a single level so the call shape does not change with dimension.
    Returns a ``(d, d)`` complex matrix.
    """
    return component_table(system, [t], [t_prime], component, t_ref)[0, 0]


def initial_boundary_ratio(nbar: float) -> float:
    """Quantum-to-classical boundary weight ``1/(1 + 2 nbar)`` at the
    initial time of a bosonic single level.

    Decays toward zero with growing occupation, which is the classical
    limit of the boundary condition.
    """
    val = float(nbar)
    if val < 0:
        raise OccupationOutOfRangeError(f"occupation {val:.6g} below 0")
    return 1.0 / (1.0 + 2.0 * val)


@dataclass(frozen=True)
class SolutionConstants:
    """Constant blocks of the general two-by-two contour solution.

    Fields are named by position in the rotated-basis ansatz.  For
    bosons the off-diagonal positions carry the step structure and the
    solved values are ``c11 = 1 + 2 nbar^T``, ``c12 = 0``, ``c21 = -1``,
    ``c22 = 0``; for fermions the diagonal positions carry the step
    structure and the solved values are ``c11 = 0``,
    ``c12 = 1 - 2 nbar^T``, ``c21 = 0``, ``c22 = -1``.
    """

    c11: np.ndarray
    c12: np.ndarray
    c21: np.ndarray
    c22: np.ndarray


def rotated_block_layout(
    statistics: Statistics,
) -> tuple[tuple[KeldyshComponent, KeldyshComponent], ...]:
    """Which physical component sits at each rotated-basis position.

    Bosons: ``[[K, R], [A, 0]]``.  Fermions: ``[[R, K], [0, A]]``.
    """
    if statistics is Statistics.BOSON:
        return (
            (KeldyshComponent.KELDYSH, KeldyshComponent.RETARDED),
            (KeldyshComponent.ADVANCED, KeldyshComponent.ZERO),
        )
    return (
        (KeldyshComponent.RETARDED, KeldyshComponent.KELDYSH),
        (KeldyshComponent.ZERO, KeldyshComponent.ADVANCED),
    )


def _has_step(statistics: Statistics, row: int, col: int) -> bool:
    """Whether the ansatz holds ``c + theta(t - t')`` at a position:
    where the retarded and advanced components sit."""
    component = rotated_block_layout(statistics)[row][col]
    return component in (KeldyshComponent.RETARDED, KeldyshComponent.ADVANCED)


def fix_constants(system: LevelSystem) -> SolutionConstants:
    """Solve the boundary conditions for the four constant blocks.

    The general solution of the contour equations of motion leaves one
    constant block per rotated-basis position.  Two conditions fix them:
    the second-row components vanish at the final time, and at the
    initial time the first row equals ``-W`` times the second row, with
    ``W = 1 + 2 zeta nbar^T``.  The conditions are block triangular, so
    per column the second row follows from the first condition and the
    first row from the second, by elimination in O(d^3):

    * ``c_2 = -theta(t_f - t') [step at row 2]``,
    * ``c_1 = -W c_2 - theta(t_i - t') ([step at row 1] + W [step at row 2])``,

    with the step values taken at an interior column time t' and the
    step positions read from :func:`rotated_block_layout`.  Nothing is
    hard coded.
    """
    statistics = system.statistics
    weight = keldysh_weight(system)
    eye = np.eye(weight.shape[0], dtype=complex)
    t_initial, t_prime, t_final = 0.0, 0.5, 1.0
    step_final = regularized_step(t_final - t_prime)
    step_initial = regularized_step(t_initial - t_prime)
    blocks = {}
    for col in range(2):
        first = _has_step(statistics, 0, col)
        second = _has_step(statistics, 1, col)
        # Second row vanishes at the final time.
        blocks[1, col] = -step_final * second * eye
        # First row plus weight times second row vanishes at the initial
        # time.
        blocks[0, col] = -weight @ blocks[1, col] - step_initial * (
            first * eye + second * weight
        )
    return SolutionConstants(blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1])


def solution_from_constants(
    system: LevelSystem,
    constants: SolutionConstants,
    row: int,
    col: int,
    t_values,
    t_prime_values,
    *,
    t_ref: float,
) -> np.ndarray:
    """Evaluate the general solution at one rotated-basis position.

    The constant block sits between the two propagators:
    ``-i exp(-i eps (t - t_ref)) [c + theta(t - t')] exp(+i eps
    (t' - t_ref))``, with the step term present only at the
    step-structured positions of the statistics' layout.  For a single
    level this is the familiar closed form; for many levels it is the
    solution whose boundary conditions stay time independent.  Like
    :func:`component_table` it tabulates all pairs from two time arrays
    and returns an array of shape ``(len(t_values), len(t_prime_values),
    d, d)``.
    """
    return _over_times(system, t_values, t_prime_values, t_ref, (constants, row, col))
