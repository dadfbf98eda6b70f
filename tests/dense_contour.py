"""Dense contour matrix D' and block access to a dense discrete G.

The reference the tests compare the structured contour solve against:
D' expanded from the solver's own blocks, and the (d, d) block of G at a
pair of branch slots.  No solver builds D' or reads G by slot.
"""

from dataclasses import dataclass

import numpy as np

from contourgf import Branch, ContourComponent, DiscreteGf, LevelSystem, TimeGrid
from contourgf.discrete import _contour_blocks


class IndexOutOfRangeError(IndexError):
    """Contour index refers to an eliminated or nonexistent variable."""


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


def build_contour_matrix(system: LevelSystem, grid: TimeGrid) -> np.ndarray:
    """Assemble the dense ``(2 N d, 2 N d)`` contour matrix D' from the
    blocks the structured solve factors."""
    d = system.dimension
    n = grid.n_slices
    total = 2 * n * d
    (forward,), (backward,), first, corner = _contour_blocks(system, [grid])
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


def extract_component(
    gf: DiscreteGf,
    component: ContourComponent,
    n: int,
    m: int,
) -> tuple[np.ndarray, float, float]:
    """One ``(d, d)`` block of the discrete Green's function and the
    physical times of its two slots.

    ``n`` and ``m`` are slice indices on the row and column branches
    selected by ``component``.  Eliminated variables (forward slot 0,
    backward slot N) raise :class:`IndexOutOfRangeError`.
    """
    grid = gf.grid
    d = gf.system.dimension
    row = ContourIndex(component.row_branch, n)
    col = ContourIndex(component.col_branch, m)
    j = row.position(grid.n_slices)
    k = col.position(grid.n_slices)
    block = gf.matrix[(j - 1) * d : j * d, (k - 1) * d : k * d]
    return block, row.time(grid), col.time(grid)
