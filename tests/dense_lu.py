"""Pivoted dense LU with determinant and condition estimate.

The reference the tests compare the structured contour solve against;
no solver uses it, so the package itself needs no scipy.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

from contourgf.core import (
    IllConditionedWarning,
    SingularMatrixError,
    as_complex_matrix,
    max_abs,
)
from contourgf.discrete import CONDITION_WARN


@dataclass(frozen=True)
class LuFactorization:
    """LU factors of a square matrix plus determinant and conditioning."""

    lu: np.ndarray
    piv: np.ndarray
    determinant: complex
    condition: float
    matrix_norm: float = field(repr=False, default=0.0)


def lu_factorization(matrix: np.ndarray) -> LuFactorization:
    """Pivoted LU with determinant and a 1-norm condition estimate.

    Raises :class:`SingularMatrixError` when a pivot falls below
    ``max|M| * eps * d``; emits :class:`IllConditionedWarning` when the
    condition estimate exceeds ``CONDITION_WARN`` (1e12), the level at
    which the structured solve warns.
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
    if condition > CONDITION_WARN:
        warnings.warn(
            f"condition estimate {condition:.3e} exceeds {CONDITION_WARN:.1e}",
            IllConditionedWarning,
            stacklevel=2,
        )
    return LuFactorization(lu, piv, determinant, condition, norm_max)
