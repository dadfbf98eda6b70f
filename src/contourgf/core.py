"""Domain types and validation.

Defines the statistics tag, the level system (single-particle energy
matrix plus initial occupation matrix), contour time grids, branch
labels, and the unitary propagators of a level system.  A
:class:`LevelSystem` is checked once, when it is constructed
(Hermiticity of both matrices and the occupation range), keeps the
energy eigensystem the check computes and its Keldysh weight W, computed
on first read; every other function reads them and checks nothing again.
The package needs numpy alone.

All operations are pure functions of their arguments.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContourComponent",
    "GridTooLargeError",
    "IllConditionedWarning",
    "LevelSystem",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "as_complex_matrix",
    "max_abs",
    "propagator_stack",
]

# Matrix dimension cap for the discrete contour matrix (2*N*d).
DEFAULT_MAX_DIMENSION = 8192


class ContourGfError(Exception):
    """Base class for domain errors raised by this package."""


class NonHermitianError(ContourGfError):
    """A matrix required to be Hermitian is not, beyond ``HERMITIAN_BOUND``."""


class OccupationOutOfRangeError(ContourGfError):
    """Occupation eigenvalues violate the range allowed by the statistics."""


class ThermalDivergenceError(ContourGfError):
    """Thermal occupation undefined for the requested parameters."""


class SingularMatrixError(ContourGfError):
    """A matrix is singular to within its roundoff threshold."""


class GridTooLargeError(ContourGfError):
    """Requested contour matrix dimension exceeds the configured cap."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of an inverted matrix exceeds the warning level."""


class Statistics(enum.Enum):
    """Particle statistics selecting the sign ``zeta``."""

    BOSON = "boson"
    FERMION = "fermion"

    # Members are singletons and compare by identity, so the identity
    # hash agrees with equality; Enum's own hashes the name in Python.
    __hash__ = object.__hash__

    @property
    def zeta(self) -> int:
        """Statistics sign: +1 for bosons, -1 for fermions."""
        return 1 if self is Statistics.BOSON else -1


class ContourComponent(enum.Enum):
    """Components labelled by (row branch, column branch): ``+`` the
    forward branch, ``-`` the backward one."""

    PLUS_PLUS = "++"
    PLUS_MINUS = "+-"
    MINUS_PLUS = "-+"
    MINUS_MINUS = "--"

    __hash__ = object.__hash__  # as for Statistics

    @property
    def signs(self) -> tuple[int, int]:
        """Branch signs (row, column): +1 forward, -1 backward."""
        return _BRANCH_SIGNS[self.value]


_BRANCH_SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Normalize a scalar or array to a square complex matrix.

    Scalars become 1x1 matrices.  Raises ``ValueError`` on non-square
    shapes or non-finite entries.
    """
    arr = np.atleast_2d(np.asarray(value, dtype=complex))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    # A complex entry is finite when both of its parts are.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def max_abs(matrix: np.ndarray) -> float:
    """Entrywise max-norm ``max|M_ij|``."""
    if matrix.size == 0:
        return 0.0
    return float(np.abs(matrix).max())


# Bound on max|M - M^dag| of epsilon and nbar, in units of max|M|.
HERMITIAN_BOUND = 1e-10

# Slack on the occupation range, in units of max(1, max|eigenvalue|):
# eigh rounds a zero eigenvalue beside a large one by about eps times
# the large one.
OCCUPATION_SLACK = 1e-10


@dataclass(frozen=True)
class LevelSystem:
    """A set of non-interacting levels with an initial occupation.

    Parameters
    ----------
    epsilon : scalar or (d, d) array
        Hermitian single-particle energy matrix.
    nbar : scalar or (d, d) array
        Hermitian initial occupation matrix.  Eigenvalues must be >= 0
        for bosons and within [0, 1] for fermions.
    statistics : Statistics
        Particle statistics.

    Construction raises :class:`NonHermitianError` unless both matrices
    are Hermitian within ``HERMITIAN_BOUND * max|M|`` (1e-10 relative),
    and :class:`OccupationOutOfRangeError` when an occupation eigenvalue
    is below 0, or above 1 for fermions, by more than
    ``OCCUPATION_SLACK * max(1, max|eigenvalue|)`` (1e-10 relative):
    ``eigh`` rounds each eigenvalue by about eps times the largest.  No invalid system
    exists.  The checked energy eigensystem is kept, eigenvalues
    ascending: ``epsilon_eigh = (w, V)`` with ``epsilon = V diag(w) V^dag``.
    """

    epsilon: np.ndarray
    nbar: np.ndarray
    statistics: Statistics
    epsilon_eigh: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        eps = as_complex_matrix(self.epsilon, "epsilon")
        occ = as_complex_matrix(self.nbar, "nbar")
        if eps.shape != occ.shape:
            raise ValueError(
                f"epsilon shape {eps.shape} != nbar shape {occ.shape}"
            )
        if not isinstance(self.statistics, Statistics):
            raise ValueError("statistics must be a Statistics member")
        eps_eigh = self._checked_eigh(eps, "epsilon")
        vals, _ = self._checked_eigh(occ, "nbar")
        slack = OCCUPATION_SLACK * max(1.0, float(np.abs(vals).max()))
        if vals.min() < -slack:
            raise OccupationOutOfRangeError(
                f"occupation eigenvalue {vals.min():.6g} below 0"
            )
        if self.statistics is Statistics.FERMION and vals.max() > 1 + slack:
            raise OccupationOutOfRangeError(
                f"fermionic occupation eigenvalue {vals.max():.6g} above 1"
            )
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "nbar", occ)
        object.__setattr__(self, "epsilon_eigh", eps_eigh)

    @staticmethod
    def _checked_eigh(matrix: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of a matrix after checking ``M == M^dag`` within
        ``HERMITIAN_BOUND * max|M|``."""
        dev = max_abs(matrix - matrix.conj().T)
        bound = HERMITIAN_BOUND * max_abs(matrix)
        if dev > bound:
            raise NonHermitianError(
                f"{name} deviates from Hermiticity by {dev:.3e} "
                f"(allowed {bound:.3e})"
            )
        return np.linalg.eigh(matrix)

    @property
    def dimension(self) -> int:
        return self.epsilon.shape[0]

    @functools.cached_property
    def keldysh_weight(self) -> np.ndarray:
        """Statistical weight ``W = 1 + 2 zeta nbar^T`` (plain transposition)
        of the Keldysh component and the initial-time boundary condition,
        read-only, computed on first read.  Raises ``FloatingPointError``
        when it overflows, as for a boson occupation near the largest double.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            weight = np.eye(self.dimension) + 2 * self.statistics.zeta * self.nbar.T
        if not np.isfinite(weight).all():
            raise FloatingPointError(
                "Keldysh weight 1 + 2 zeta nbar^T overflows: "
                f"max |nbar| = {np.abs(self.nbar).max():.6g}"
            )
        weight.flags.writeable = False
        return weight


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Uniform grid of N slices on [t_initial, t_final].

    Raises ``ValueError`` unless both endpoints and the span between
    them are finite, ``t_final > t_initial`` and N is a positive integer.
    """

    t_initial: float
    t_final: float
    n_slices: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_initial) or not np.isfinite(self.t_final):
            raise ValueError("grid endpoints must be finite")
        if self.t_final <= self.t_initial:
            raise ValueError("t_final must exceed t_initial")
        if not np.isfinite(float(self.t_final) - float(self.t_initial)):
            raise ValueError("grid span t_final - t_initial must be finite")
        if int(self.n_slices) != self.n_slices or self.n_slices < 1:
            raise ValueError("n_slices must be a positive integer")
        object.__setattr__(self, "n_slices", int(self.n_slices))

    @property
    def dt(self) -> float:
        return (self.t_final - self.t_initial) / self.n_slices

    @property
    def times(self) -> np.ndarray:
        """Slice times t_0 .. t_N, endpoints included."""
        return np.linspace(self.t_initial, self.t_final, self.n_slices + 1)


def propagator_stack(system: LevelSystem, scales: np.ndarray) -> np.ndarray:
    """``exp(-i epsilon s)`` for every s in ``scales`` from the system's
    energy eigensystem.

    Returns an array of shape ``(len(scales), d, d)``.
    """
    w, v = system.epsilon_eigh
    s = np.asarray(scales, dtype=float).reshape(-1)
    phases = np.exp(-1j * (s[:, None] * w))
    return np.einsum("ab,kb,cb->kac", v, phases, v.conj())
