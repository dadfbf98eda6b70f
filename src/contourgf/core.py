"""Domain types, validation and the dense linear-algebra reference.

Defines the statistics tag, the level system (single-particle energy
matrix plus initial occupation matrix), contour time grids and index
mapping, the unitary propagators of a level system, and a pivoted dense
LU with determinant and condition estimate.  A :class:`LevelSystem` is
checked once, when it is constructed (Hermiticity of both matrices and
the occupation range), and keeps the two eigendecompositions the checks
compute; every other function reads them and checks nothing again.  No
solver uses the dense LU; it is the reference the tests compare the
structured contour solve against.

All operations are pure functions of their arguments.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

__all__ = [
    "Branch",
    "ContourIndex",
    "GridTooLargeError",
    "IllConditionedWarning",
    "IndexOutOfRangeError",
    "LevelSystem",
    "LuFactorization",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "Tolerances",
    "as_complex_matrix",
    "lu_factorization",
    "max_abs",
    "propagator_stack",
]

# Matrix dimension cap for the discrete contour matrix (2*N*d).
DEFAULT_MAX_DIMENSION = 8192


class ContourGfError(Exception):
    """Base class for domain errors raised by this package."""


class NonHermitianError(ContourGfError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class OccupationOutOfRangeError(ContourGfError):
    """Occupation eigenvalues violate the range allowed by the statistics."""


class ThermalDivergenceError(ContourGfError):
    """Thermal occupation undefined for the requested parameters."""


class SingularMatrixError(ContourGfError):
    """LU factorization met a pivot below the singularity threshold."""


class GridTooLargeError(ContourGfError):
    """Requested contour matrix dimension exceeds the configured cap."""


class IndexOutOfRangeError(ContourGfError, IndexError):
    """Contour index refers to an eliminated or nonexistent variable."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of an inverted matrix exceeds the warning level."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    Attributes
    ----------
    hermitian : float
        Relative bound on ``max|M - M^dag|`` in units of ``max|M|``.
    eigenvalue : float
        Relative slack on the occupation range, in units of
        ``max(1, max|eigenvalue|)``.
    condition_warn : float
        Condition-number estimate above which inversion warns.

    Each must be positive and finite (``ValueError`` otherwise): a NaN
    slack would let every occupation through.
    """

    hermitian: float = 1e-10
    eigenvalue: float = 1e-10
    condition_warn: float = 1e12

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(
                    f"tolerances.{name} must be positive and finite, got {value!r}"
                )


DEFAULT_TOLERANCES = Tolerances()


class Statistics(enum.Enum):
    """Particle statistics selecting the sign ``zeta``."""

    BOSON = "boson"
    FERMION = "fermion"

    @property
    def zeta(self) -> int:
        """Statistics sign: +1 for bosons, -1 for fermions."""
        return 1 if self is Statistics.BOSON else -1


class Branch(enum.Enum):
    """Contour branch: forward in time, then backward."""

    FORWARD = "+"
    BACKWARD = "-"

    @property
    def sign(self) -> int:
        return 1 if self is Branch.FORWARD else -1


def as_complex_matrix(value, name: str = "matrix") -> np.ndarray:
    """Normalize a scalar or array to a square complex matrix.

    Scalars become 1x1 matrices.  Raises ``ValueError`` on non-square
    shapes or non-finite entries.
    """
    arr = np.atleast_2d(np.asarray(value, dtype=complex))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def max_abs(matrix: np.ndarray) -> float:
    """Entrywise max-norm ``max|M_ij|``."""
    if matrix.size == 0:
        return 0.0
    return float(np.abs(matrix).max())


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
    tolerances : Tolerances
        Bounds of the construction checks, and the condition estimate
        above which the discrete solve warns.

    Construction raises :class:`NonHermitianError` unless both matrices
    are Hermitian within ``tolerances.hermitian * max|M|``, and
    :class:`OccupationOutOfRangeError` when an occupation eigenvalue is
    below 0, or above 1 for fermions, by more than
    ``tolerances.eigenvalue * max(1, max|eigenvalue|)``: ``eigh`` rounds
    each eigenvalue by about eps times the largest.  No invalid system
    exists.  The checked eigensystems are kept, eigenvalues ascending:
    ``epsilon_eigh = (w, V)`` with ``epsilon = V diag(w) V^dag`` and
    ``nbar_eigh = (lam, U)`` with ``nbar = U diag(lam) U^dag``.
    """

    epsilon: np.ndarray
    nbar: np.ndarray
    statistics: Statistics
    tolerances: Tolerances = DEFAULT_TOLERANCES
    epsilon_eigh: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    nbar_eigh: tuple[np.ndarray, np.ndarray] = field(
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
        if not isinstance(self.tolerances, Tolerances):
            raise ValueError("tolerances must be a Tolerances instance")
        eps_eigh = self._checked_eigh(eps, "epsilon")
        vals, vecs = self._checked_eigh(occ, "nbar")
        slack = self.tolerances.eigenvalue * max(1.0, float(np.abs(vals).max()))
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
        object.__setattr__(self, "nbar_eigh", (vals, vecs))

    def _checked_eigh(
        self, matrix: np.ndarray, name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of a matrix after checking ``M == M^dag`` within
        ``tolerances.hermitian * max|M|``."""
        dev = max_abs(matrix - matrix.conj().T)
        bound = self.tolerances.hermitian * max_abs(matrix)
        if dev > bound:
            raise NonHermitianError(
                f"{name} deviates from Hermiticity by {dev:.3e} "
                f"(allowed {bound:.3e})"
            )
        return np.linalg.eigh(matrix)

    @property
    def dimension(self) -> int:
        return self.epsilon.shape[0]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N slices on [t_initial, t_final]."""

    t_initial: float
    t_final: float
    n_slices: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_initial) or not np.isfinite(self.t_final):
            raise ValueError("grid endpoints must be finite")
        if self.t_final <= self.t_initial:
            raise ValueError("t_final must exceed t_initial")
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


@dataclass(frozen=True)
class ContourIndex:
    """A retained contour variable: branch plus slice index.

    The forward branch keeps slots 1..N (slot 0 is eliminated by the
    initial-distribution constraint); the backward branch keeps slots
    0..N-1 (slot N is identified with the forward endpoint).
    """

    branch: Branch
    slot: int

    def position(self, n_slices: int) -> int:
        """1-based position in the contour-ordered basis of length 2N.

        Forward slot n sits at position n; backward slot n sits at
        position 2N - n (the backward branch is stored in decreasing
        time order).
        """
        n = self.slot
        big_n = n_slices
        if self.branch is Branch.FORWARD:
            if not 1 <= n <= big_n:
                raise IndexOutOfRangeError(
                    f"forward slot {n} outside retained range 1..{big_n}"
                )
            return n
        if not 0 <= n <= big_n - 1:
            raise IndexOutOfRangeError(
                f"backward slot {n} outside retained range 0..{big_n - 1}"
            )
        return 2 * big_n - n

    def time(self, grid: TimeGrid) -> float:
        """Physical time of this slot on the grid."""
        if not 0 <= self.slot <= grid.n_slices:
            raise IndexOutOfRangeError(
                f"slot {self.slot} outside grid 0..{grid.n_slices}"
            )
        return float(grid.times[self.slot])


def propagator_stack(system: LevelSystem, scales: np.ndarray) -> np.ndarray:
    """``exp(-i epsilon s)`` for every s in ``scales`` from the system's
    energy eigensystem.

    Returns an array of shape ``(len(scales), d, d)``.
    """
    w, v = system.epsilon_eigh
    s = np.asarray(scales, dtype=float).reshape(-1)
    phases = np.exp(-1j * np.outer(s, w))
    return np.einsum("ab,kb,cb->kac", v, phases, v.conj())


@dataclass(frozen=True)
class LuFactorization:
    """LU factors of a square matrix plus determinant and conditioning."""

    lu: np.ndarray
    piv: np.ndarray
    determinant: complex
    condition: float
    matrix_norm: float = field(repr=False, default=0.0)


def lu_factorization(
    matrix: np.ndarray,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> LuFactorization:
    """Pivoted LU with determinant and a 1-norm condition estimate.

    Raises :class:`SingularMatrixError` when a pivot falls below
    ``max|M| * eps * d``; emits :class:`IllConditionedWarning` when the
    condition estimate exceeds ``tolerances.condition_warn``.
    """
    mat = as_complex_matrix(matrix)
    norm_max = max_abs(mat)
    try:
        with warnings.catch_warnings():
            # The pivot check below is the singularity decision; scipy's
            # own warning would duplicate it.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises rarely
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(np.diag(lu))
    threshold = norm_max * np.finfo(float).eps * mat.shape[0]
    if pivots.min() <= threshold:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {threshold:.3e}"
        )
    swaps = int(np.sum(piv != np.arange(mat.shape[0])))
    determinant = complex((-1) ** swaps * np.prod(np.diag(lu)))
    gecon = get_lapack_funcs("gecon", (lu,))
    anorm = np.linalg.norm(mat, 1)
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:  # pragma: no cover - invalid argument only
        raise SingularMatrixError(f"condition estimate failed (info={info})")
    condition = float(1.0 / rcond) if rcond > 0 else np.inf
    if condition > tolerances.condition_warn:
        warnings.warn(
            f"condition estimate {condition:.3e} exceeds "
            f"{tolerances.condition_warn:.1e}",
            IllConditionedWarning,
            stacklevel=2,
        )
    return LuFactorization(lu, piv, determinant, condition, norm_max)
