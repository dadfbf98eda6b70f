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

:func:`regularized_step` is the one symmetric step, used by every
table here and by the oracle's continuum rows.  The step sits at the
rotated-basis positions of R and A (:func:`rotated_block_layout`), and
:func:`fix_constants` solves the two boundary conditions for the
constant blocks of the general solution by block elimination.
Everything here reads the eigensystems a :class:`~contourgf.core.LevelSystem`
checked and stored when it was constructed; nothing is validated again.

All functions are pure; nothing here keeps state between calls.
"""

from __future__ import annotations

import enum
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
    as_complex_matrix,
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
    "keldysh_rotate_boson",
    "keldysh_rotate_fermion",
    "keldysh_unrotate_boson",
    "keldysh_unrotate_fermion",
    "keldysh_weight",
    "normalization_prefactor",
    "regularized_step",
    "rho_from_nbar",
    "rotated_block_layout",
    "solution_from_constants",
    "thermal_nbar",
]

_SQRT2 = math.sqrt(2.0)


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


def keldysh_rotate_boson(phi_plus, phi_minus):
    """Rotate branch fields to (classical, quantum) components.

    ``phi_cl = (phi_plus + phi_minus)/sqrt(2)``,
    ``phi_q = (phi_plus - phi_minus)/sqrt(2)``; conjugate fields rotate
    identically.
    """
    plus = np.asarray(phi_plus)
    minus = np.asarray(phi_minus)
    return (plus + minus) / _SQRT2, (plus - minus) / _SQRT2


def keldysh_unrotate_boson(phi_cl, phi_q):
    """Inverse of :func:`keldysh_rotate_boson`."""
    cl = np.asarray(phi_cl)
    q = np.asarray(phi_q)
    return (cl + q) / _SQRT2, (cl - q) / _SQRT2


def keldysh_rotate_fermion(phi_plus, phi_minus, phibar_plus, phibar_minus):
    """Rotate fermionic branch fields; barred fields rotate differently.

    Unbarred: ``phi_1 = (phi_plus + phi_minus)/sqrt(2)``,
    ``phi_2 = (phi_plus - phi_minus)/sqrt(2)``.
    Barred: ``phibar_1 = (phibar_plus - phibar_minus)/sqrt(2)``,
    ``phibar_2 = (phibar_plus + phibar_minus)/sqrt(2)``.
    """
    p = np.asarray(phi_plus)
    m = np.asarray(phi_minus)
    bp = np.asarray(phibar_plus)
    bm = np.asarray(phibar_minus)
    return (
        (p + m) / _SQRT2,
        (p - m) / _SQRT2,
        (bp - bm) / _SQRT2,
        (bp + bm) / _SQRT2,
    )


def keldysh_unrotate_fermion(phi_1, phi_2, phibar_1, phibar_2):
    """Inverse of :func:`keldysh_rotate_fermion`."""
    f1 = np.asarray(phi_1)
    f2 = np.asarray(phi_2)
    b1 = np.asarray(phibar_1)
    b2 = np.asarray(phibar_2)
    return (
        (f1 + f2) / _SQRT2,
        (f1 - f2) / _SQRT2,
        (b2 + b1) / _SQRT2,
        (b2 - b1) / _SQRT2,
    )


def keldysh_weight(nbar, statistics: Statistics) -> np.ndarray:
    """Statistical weight ``1 + 2 zeta nbar^T`` entering the Keldysh
    component and the initial-time boundary condition.

    The transpose is plain transposition (no conjugation).  Raises
    ``FloatingPointError`` when the weight overflows, as it does for a
    boson occupation near the largest double.
    """
    occ = as_complex_matrix(nbar, "nbar")
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.eye(occ.shape[0]) + 2 * statistics.zeta * occ.T
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
    t_row = np.asarray(t_values, dtype=float).reshape(-1)
    t_col = np.asarray(t_prime_values, dtype=float).reshape(-1)
    if component is KeldyshComponent.ZERO:
        d = system.dimension
        return np.zeros((t_row.size, t_col.size, d, d), dtype=complex)
    p_row = propagator_stack(system, t_row - t_ref)
    p_col = propagator_stack(system, t_col - t_ref)

    def keldysh():
        weight = keldysh_weight(system.nbar, system.statistics)
        return _sandwich(p_row, weight, p_col)

    if component is KeldyshComponent.KELDYSH:
        return keldysh()
    free = np.einsum("nab,mcb->nmac", p_row, p_col.conj())
    theta = regularized_step(t_row[:, None] - t_col[None, :])[:, :, None, None]
    # R and A overwrite the free table (and A the step table): the same
    # products as below, in the same operand order, without table-sized
    # temporaries.
    if component is KeldyshComponent.RETARDED:
        return np.multiply(-1j * theta, free, out=free)
    if component is KeldyshComponent.ADVANCED:
        return np.multiply(1j * np.subtract(1.0, theta, out=theta), free, out=free)
    s_row = component.row_branch.sign
    s_col = component.col_branch.sign
    return (
        keldysh() + s_col * (-1j * theta * free) + s_row * (1j * (1.0 - theta) * free)
    ) / 2.0


def _sandwich(p_row: np.ndarray, middle: np.ndarray, p_col: np.ndarray) -> np.ndarray:
    """``-i P_n M P_m^dag`` for every pair of propagators, as (n, m, d, d)."""
    return -1j * np.einsum("nab,mcb->nmac", p_row @ middle, p_col.conj())


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

    def to_scalars(self) -> tuple[complex, complex, complex, complex]:
        """The four constants as scalars (single-level systems only)."""
        if self.c11.shape != (1, 1):
            raise ValueError("constants are matrix valued")
        return (
            complex(self.c11[0, 0]),
            complex(self.c12[0, 0]),
            complex(self.c21[0, 0]),
            complex(self.c22[0, 0]),
        )


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
    weight = keldysh_weight(system.nbar, statistics)
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
    block = (constants.c11, constants.c12, constants.c21, constants.c22)[2 * row + col]
    t_row = np.asarray(t_values, dtype=float).reshape(-1)
    t_col = np.asarray(t_prime_values, dtype=float).reshape(-1)
    p_row = propagator_stack(system, t_row - t_ref)
    p_col = propagator_stack(system, t_col - t_ref)
    out = _sandwich(p_row, block, p_col)
    if _has_step(system.statistics, row, col):
        theta = regularized_step(t_row[:, None] - t_col[None, :])
        out += theta[:, :, None, None] * _sandwich(p_row, np.eye(block.shape[0]), p_col)
    return out
