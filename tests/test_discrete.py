"""Tests for the discrete contour matrix and its inverse."""

import ast
import inspect
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from contourgf import (
    ContourComponent,
    GridTooLargeError,
    IllConditionedWarning,
    LevelSystem,
    SingularMatrixError,
    Statistics,
    TimeGrid,
    component_table,
    contour_times,
    oracle_error_bound,
    run_oracle_suite,
)
from contourgf.core import max_abs
from contourgf.discrete import _factor, _green_operands, _row_kernel

from conftest import (
    EPSILON_RANGE,
    OCCUPATION_RANGE,
    random_hermitian,
    random_system,
    random_unitary,
)
from dense_contour import (
    BACKWARD,
    FORWARD,
    ContourIndex,
    IndexOutOfRangeError,
    build_contour_matrix,
    dense_green,
    extract_component,
    kernel_rows,
)
from dense_lu import lu_factorization

EXACT_TOL = 1e-13
# Agreement of the structured solve with the dense LU of D'.
DENSE_TOL = 1e-12


def partition_function(system, grid):
    """Z of one grid, from the factorization ``z`` runs."""
    return _factor(system, [grid])[0].partition_function


def row_equilibrated(matrix, d):
    """D' with each row of its first block row divided by that row's
    largest entry, the matrix whose condition ``_factor`` estimates."""
    out = matrix.copy()
    out[:d] /= np.abs(out[:d]).max(axis=1, keepdims=True)
    return out


def dense_reference(system, grid):
    """G, Z and the 1-norm condition number from the dense matrix D'.

    ``G = -i D'^{-1} diag(M, 1, ..., 1)`` with ``M = 1 + zeta nbar^T``
    the first diagonal block of D', and ``Z = det(D')^(-zeta)``.  The
    condition number is that of D' row-equilibrated (:func:`row_equilibrated`).
    """
    matrix = build_contour_matrix(system, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        determinant = lu_factorization(matrix).determinant
    zeta = system.statistics.zeta
    z = determinant ** (-zeta)
    d = system.dimension
    right = np.eye(matrix.shape[0], dtype=complex)
    right[:d, :d] = matrix[:d, :d]
    condition = np.linalg.cond(row_equilibrated(matrix, d), 1)
    return -1j * np.linalg.inv(matrix) @ right, z, condition


def assert_matches_dense(system, grid):
    (fac,) = _factor(system, [grid])
    g_ref, z_ref, condition = dense_reference(system, grid)
    green = dense_green(system, grid)
    assert np.abs(green - g_ref).max() <= DENSE_TOL * np.abs(g_ref).max()
    assert abs(fac.partition_function - z_ref) <= DENSE_TOL * abs(z_ref)
    # Exact for one level, within a factor d otherwise.
    d = system.dimension
    ratio = fac.condition / condition
    assert 1.0 / d - 1e-10 <= ratio <= d + 1e-10
    if d == 1:
        assert ratio == pytest.approx(1.0, rel=1e-10)


def test_contour_times_ordering():
    grid = TimeGrid(0.0, 1.0, 4)
    np.testing.assert_allclose(
        contour_times(grid),
        [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0.0],
    )


def test_contour_matrix_two_slices_exact():
    # N = 2, eps = 1/2, boson nbar = 1: dt = 1/2, first row [1 + nbar, -nbar].
    system = LevelSystem(0.5, 1.0, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 2)
    built = build_contour_matrix(system, grid)
    h = 1.0 - 0.25j
    expected = np.array(
        [
            [2.0, 0.0, 0.0, -1.0],
            [-h, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 0.0, -h.conjugate(), 1.0],
        ]
    )
    np.testing.assert_allclose(built, expected, atol=1e-15)


def test_contour_matrix_fermion_corner_sign():
    # Fermionic corner carries +nbar and the first diagonal 1 - nbar
    # (zeta = -1).
    system = LevelSystem(0.0, 0.2, Statistics.FERMION)
    grid = TimeGrid(0.0, 1.0, 2)
    built = build_contour_matrix(system, grid)
    assert built[0, 3] == pytest.approx(0.2, abs=1e-15)
    assert built[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_contour_matrix_block_structure():
    rng = np.random.default_rng(21)
    system = random_system(rng, Statistics.FERMION, 2)
    grid = TimeGrid(0.0, 1.0, 3)
    built = build_contour_matrix(system, grid)
    d = 2
    total = 2 * grid.n_slices * d
    assert built.shape == (total, total)
    # Only the diagonal, the first subdiagonal, and the corner block are
    # populated.
    pattern = np.zeros((2 * grid.n_slices, 2 * grid.n_slices), dtype=bool)
    np.fill_diagonal(pattern, True)
    for j in range(1, 2 * grid.n_slices):
        pattern[j, j - 1] = True
    pattern[0, -1] = True
    block_norms = np.abs(built).reshape(6, d, 6, d).max(axis=(1, 3))
    assert np.all((block_norms > 0) <= pattern)


def test_static_empty_inverse_is_lower_triangle():
    # eps = 0 and nbar = 0 make the discrete inverse exactly -i on and
    # below the contour diagonal.
    system = LevelSystem(0.0, 0.0, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 4)
    expected = -1j * np.tril(np.ones((8, 8)))
    np.testing.assert_allclose(dense_green(system, grid), expected, atol=1e-14)


def test_discrete_matches_continuum_components():
    system = LevelSystem(1.0, 0.5, Statistics.FERMION)
    grid = TimeGrid(0.0, 1.0, 64)
    green = dense_green(system, grid)
    bound = oracle_error_bound(system, grid)
    for comp, n, m in (
        (ContourComponent.PLUS_PLUS, 40, 10),
        (ContourComponent.PLUS_MINUS, 10, 40),
        (ContourComponent.MINUS_PLUS, 25, 60),
        (ContourComponent.MINUS_MINUS, 5, 50),
    ):
        block, t, t_prime = extract_component(green, grid, comp, n, m)
        direct = component_table(system, [t], [t_prime], comp, 0.0)[0, 0]
        assert np.abs(block - direct).max() < bound


def test_extract_component_returns_grid_times():
    system = LevelSystem(0.3, 0.1, Statistics.BOSON)
    grid = TimeGrid(0.0, 2.0, 4)
    green = dense_green(system, grid)
    _, t, t_prime = extract_component(green, grid, ContourComponent.PLUS_MINUS, 3, 2)
    assert t == ContourIndex(FORWARD, 3).time(grid)
    assert t_prime == ContourIndex(BACKWARD, 2).time(grid)
    with pytest.raises(IndexOutOfRangeError):
        extract_component(green, grid, ContourComponent.PLUS_PLUS, 0, 2)
    with pytest.raises(IndexOutOfRangeError):
        extract_component(green, grid, ContourComponent.PLUS_MINUS, 1, 4)


def test_grid_cap():
    # The cap bounds the oracle's 2 N d on the finest grid; Z has none.
    system = LevelSystem(1.0, 0.5, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 16)
    with pytest.raises(GridTooLargeError):
        run_oracle_suite(system, [TimeGrid(0.0, 1.0, 8), grid], max_dimension=16)
    z = partition_function(system, grid)
    _, z_ref, _ = dense_reference(system, grid)
    assert np.isfinite(z)
    assert abs(z - z_ref) <= DENSE_TOL * abs(z_ref)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 8, 64])
def test_structured_solve_matches_dense(statistics, dimension, n_slices):
    rng = np.random.default_rng([dimension, n_slices, statistics.zeta + 1])
    system = random_system(rng, statistics, dimension)
    assert_matches_dense(system, TimeGrid(0.0, 1.0, n_slices))


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 8, 64])
@pytest.mark.parametrize("block", [1, 3, None])
def test_green_rows_match_dense(statistics, dimension, n_slices, block):
    # One contour row per call, three rows (which divides no 2N above 2
    # and, for N = 8 and 64, straddles the turn), and all 2N at once.
    rng = np.random.default_rng([dimension, n_slices, statistics.zeta + 3])
    system = random_system(rng, statistics, dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    dense = dense_green(system, grid)
    total = 2 * n_slices
    rows = _row_kernel(_green_operands(_factor(system, [grid])[0], (0, 0, 0)), total)
    block = block or total
    # Each call writes its rows column-major.
    stacked = np.vstack(
        [
            kernel_rows(rows, dimension, start, min(start + block, total), (0, total)).T
            for start in range(0, total, block)
        ]
    )
    assert stacked.shape == dense.shape
    assert max_abs(stacked - dense) <= EXACT_TOL * max_abs(dense)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 7, 16])
@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_green_rows_as_products_match_dense_inverse(
    statistics, dimension, n_slices, block
):
    # A kernel built for ``block`` rows takes pieces of at most
    # min(block, N) rows of one branch, and past a piece its lag term is
    # a product split at the piece's last row.  Every partition of the
    # 2N rows must give the dense inverse of D': calls of one row, calls
    # of ``block`` rows (across the turn where block does not divide N),
    # calls longer than the built square, which take several pieces per
    # branch, and the calls in reverse order, as the oracle streams them;
    # each over every column and in tiles of one column, of block + 1
    # columns, which cut the lag table's columns and the turn, and of
    # 2 block + 3, which reach past the table from within it.
    rng = np.random.default_rng([dimension, n_slices, block, statistics.zeta + 9])
    system = random_system(rng, statistics, dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    dense = dense_reference(system, grid)[0]
    rows = _row_kernel(_green_operands(_factor(system, [grid])[0], (0, 0, 0)), block)
    total = 2 * n_slices
    d = dimension
    tol = DENSE_TOL * max_abs(dense)
    for length in (1, block, 2 * block + 1, total):
        starts = range(0, total, length)
        for order in (starts, reversed(starts)):
            for start in order:
                stop = min(start + length, total)
                got = kernel_rows(rows, d, start, stop, (0, total))
                want = dense[start * d : stop * d].T
                assert max_abs(got - want) <= tol
                for width in (1, block + 1, 2 * block + 3):
                    for first in range(0, total, width):
                        last = min(first + width, total)
                        got = kernel_rows(rows, d, start, stop, (first, last))
                        assert max_abs(got - want[first * d : last * d]) <= tol


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
@pytest.mark.parametrize("commuting", [False, True])
def test_stacked_factorization_matches_one_grid_per_call(
    statistics, dimension, commuting
):
    # N = 1 is in the stack: the norm of D' and _inverse_norm branch on
    # N > 1.  The results must agree bit for bit.
    rng = np.random.default_rng([dimension, int(commuting), statistics.zeta + 5])
    low, high = OCCUPATION_RANGE[statistics]
    if commuting:
        basis = random_unitary(rng, dimension)
        epsilon = (basis * rng.uniform(*EPSILON_RANGE, dimension)) @ basis.conj().T
        nbar = (basis * rng.uniform(low, high, dimension)) @ basis.conj().T
        system = LevelSystem(epsilon, nbar, statistics)
    else:
        system = random_system(rng, statistics, dimension)
    grids = [TimeGrid(0.0, 1.0, n) for n in (1, 2, 7, 64)]
    stacked = _factor(system, grids)
    assert [fac.n_slices for fac in stacked] == [1, 2, 7, 64]
    for grid, fac in zip(grids, stacked):
        (single,) = _factor(system, [grid])
        bits = [
            (z.real.hex(), z.imag.hex())
            for z in (fac.partition_function, single.partition_function)
        ]
        assert bits[0] == bits[1]
        assert fac.condition.hex() == single.condition.hex()
        assert fac.a_inverse.tobytes() == single.a_inverse.tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [4, 16])
@pytest.mark.parametrize("nbar", [1e4, 1e8])
def test_condition_bounded_in_classical_limit(dimension, n_slices, nbar):
    # One level at a huge boson occupation, the others at 0.5, and a
    # random eps: the unscaled cond_1(D') grows as nbar.  The occupation
    # is diagonal, so each row of the first block row holds one level.
    rng = np.random.default_rng([dimension, n_slices])
    occupation = np.diag([nbar] + [0.5] * (dimension - 1))
    epsilon = random_hermitian(rng, dimension, *EPSILON_RANGE)
    system = LevelSystem(epsilon, occupation, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, n_slices)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        (fac,) = _factor(system, [grid])
    matrix = build_contour_matrix(system, grid)
    condition = np.linalg.cond(row_equilibrated(matrix, dimension), 1)
    assert 1.0 / dimension - 1e-10 <= fac.condition / condition <= dimension + 1e-10
    assert fac.condition < 1e-3 * np.linalg.cond(matrix, 1)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [8, 16])
@pytest.mark.parametrize("spread", [50.0, 100.0, 200.0])
def test_structured_solve_coarse_grid(statistics, dimension, n_slices, spread):
    # eps dt up to 25: D is well conditioned, but transfer products span
    # tens of decades, so only the scaled eigenbasis form keeps accuracy.
    rng = np.random.default_rng([dimension, n_slices, int(spread)])
    epsilon = random_hermitian(rng, dimension, -spread, spread)
    nbar = random_hermitian(rng, dimension, *OCCUPATION_RANGE[statistics])
    assert_matches_dense(
        LevelSystem(epsilon, nbar, statistics), TimeGrid(0.0, 1.0, n_slices)
    )


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 8, 64])
@pytest.mark.parametrize("top", [1.0 - 1e-11, 1.0])
@pytest.mark.parametrize("filled", [1, 3])
def test_structured_solve_matches_dense_at_full_fermion_level(
    dimension, n_slices, top, filled
):
    # Up to three occupation eigenvalues at or next to 1: the first
    # diagonal block 1 - nbar^T of D' is (nearly) singular, D' is not.
    rng = np.random.default_rng([dimension, n_slices, filled])
    spectrum = rng.uniform(0.1, 0.9, dimension)
    spectrum[:filled] = top
    basis = random_unitary(rng, dimension)
    nbar = (basis * spectrum) @ basis.conj().T
    epsilon = random_hermitian(rng, dimension, *EPSILON_RANGE)
    system = LevelSystem(epsilon, nbar, Statistics.FERMION)
    assert_matches_dense(system, TimeGrid(0.0, 1.0, n_slices))


@seed(6)
@settings(max_examples=30, deadline=None)
@given(
    statistics=st.sampled_from(list(Statistics)),
    dimension=st.integers(min_value=1, max_value=3),
    n_slices=st.sampled_from([1, 2, 8, 64]),
    draw=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_structured_solve_matches_dense_property(statistics, dimension, n_slices, draw):
    system = random_system(np.random.default_rng(draw), statistics, dimension)
    assert_matches_dense(system, TimeGrid(0.0, 1.0, n_slices))


def test_partition_function_large_n_matches_exact_loop_product():
    # One boson level: Z = (1 - rho) / (1 - rho l) with the loop product
    # l = (1 + x^2)^(N - 1), x = eps dt, evaluated here in 40 digits.
    eps, n = 0.7, 100_000
    x = Decimal(eps * (1.0 / n))
    with localcontext() as ctx:
        ctx.prec = 40
        loop = (1 + x * x) ** (n - 1)
        exact = Decimal("0.5") / (1 - Decimal("0.5") * loop) - 1
    z = partition_function(
        LevelSystem(eps, 1.0, Statistics.BOSON), TimeGrid(0.0, 1.0, n)
    )
    assert abs(z.imag) < 1e-15
    assert z.real - 1.0 == pytest.approx(float(exact), rel=1e-9)


# The d = 1 sweep: occupations from empty to 1e300 (boson) or full
# (fermion), energies from 0 to 1e3 and grids from one slice to 1e12.
ONE_LEVEL_OCCUPATIONS = {
    Statistics.BOSON: [0.0, 1e-300, 1e-8, 0.3, 1.0, 10.0, 1e6, 1e15, 1e100, 1e300],
    Statistics.FERMION: [0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-12, 1.0],
}
ONE_LEVEL_ENERGIES = [0.0, 1e-200, 1e-12, 1e-3, 0.5, 1.0, 7.0, 1e3]
ONE_LEVEL_SLICES = [1, 2, 16, 1024, 10**6, 10**12]
# Relative agreement with the closed form, beyond the pole's amplification.
ONE_LEVEL_TOL = 1e-12


@pytest.mark.filterwarnings("ignore::contourgf.core.IllConditionedWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("statistics", list(Statistics))
def test_one_level_partition_function_matches_closed_form(statistics):
    """Z of one level against its closed form, with
    ``x = nbar (l - 1)`` and ``l - 1 = expm1((N - 1) log1p((eps dt)^2))``:
    ``1 / (1 - x)`` for a boson and ``1 + x`` for a fermion.

    A boson Z near its pole carries the relative error of x amplified by
    ``x / |1 - x|``, which the tolerance allows; a raise is allowed only
    within roundoff of the pole.  The closed form stays here: the
    discrete route never sees it.
    """
    mismatches = []
    for nbar in ONE_LEVEL_OCCUPATIONS[statistics]:
        for eps in ONE_LEVEL_ENERGIES:
            for n in ONE_LEVEL_SLICES:
                loop_gap = math.expm1((n - 1) * math.log1p((eps / n) ** 2))
                x = nbar * loop_gap
                case = (nbar, eps, n)
                try:
                    z = partition_function(
                        LevelSystem(eps, nbar, statistics), TimeGrid(0.0, 1.0, n)
                    )
                except SingularMatrixError:
                    if abs(1.0 - x) > ONE_LEVEL_TOL * max(1.0, x):
                        mismatches.append((case, "raised"))
                    continue
                if statistics is Statistics.FERMION:
                    exact, amplification = 1.0 + x, 1.0
                else:
                    # Once x overflows, 1 / (1 - x) is -1 / x, and the
                    # amplification x / |1 - x| is 1.
                    if math.isinf(x):
                        exact, amplification = -1.0 / nbar / loop_gap, 1.0
                    else:
                        exact = 1.0 / (1.0 - x)
                        amplification = max(1.0, x * abs(exact))
                # A subnormal Z keeps fewer bits than the tolerance asks.
                tolerance = max(
                    ONE_LEVEL_TOL * abs(exact) * amplification, 2 * math.ulp(exact)
                )
                if abs(z - exact) > tolerance:
                    mismatches.append((case, z, exact))
    assert mismatches == []


@pytest.mark.parametrize("eps, n", [(1.0, 8), (0.7, 5), (2.0, 64)])
def test_discrete_pole_is_singular(eps, n):
    # A boson level with rho l = 1, l = (1 + (eps dt)^2)^(N - 1) the loop
    # product, makes D singular.
    loop = (1.0 + (eps / n) ** 2) ** (n - 1)
    rho = 1.0 / loop
    system = LevelSystem(eps, rho / (1.0 - rho), Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, n)
    with pytest.raises(SingularMatrixError):
        _factor(system, [grid])


@pytest.mark.parametrize("statistics", list(Statistics))
def test_ill_conditioned_warning(statistics):
    # Two empty levels and |eps| = 50 on eight slices: kappa_1 ~ 3e12.
    rng = np.random.default_rng(11)
    basis = random_unitary(rng, 3)
    nbar = (basis * np.array([0.0, 0.0, 0.5])) @ basis.conj().T
    basis = random_unitary(rng, 3)
    epsilon = (basis * np.array([-50.0, 50.0, 50.0])) @ basis.conj().T
    system = LevelSystem(epsilon, nbar, statistics)
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.warns(IllConditionedWarning):
        (fac,) = _factor(system, [grid])
    condition = np.linalg.cond(
        row_equilibrated(build_contour_matrix(system, grid), 3), 1
    )
    assert condition > 1e12
    assert condition / 3 <= fac.condition <= 3 * condition


def test_partition_function_static_cases():
    grid = TimeGrid(0.0, 1.0, 32)
    # eps = 0: the slice factors are exactly 1.
    for statistics, occupation in (
        (Statistics.BOSON, 1.3),
        (Statistics.FERMION, 0.7),
    ):
        z = partition_function(
            LevelSystem(0.0, occupation, statistics), grid
        )
        assert abs(z - 1.0) < EXACT_TOL
    # nbar = 0: the corner vanishes and det D = 1.
    for statistics in Statistics:
        z = partition_function(LevelSystem(1.2, 0.0, statistics), grid)
        assert abs(z - 1.0) < EXACT_TOL


@pytest.mark.filterwarnings("ignore::contourgf.IllConditionedWarning")
@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("eps", [2000.0, 1e200])
@pytest.mark.parametrize("n_slices", [20, 200])
def test_partition_function_empty_level_after_loop_underflow(statistics, eps, n_slices):
    # 1/l underflows for l > 1e308, but D stays unit lower triangular.
    grid = TimeGrid(0.0, 1.0, n_slices)
    assert partition_function(LevelSystem(eps, 0.0, statistics), grid) == 1.0
    # One empty level along an eps eigenvector beside an occupied one:
    # Z is that of the occupied level alone.
    two_levels = LevelSystem(np.diag([eps, 1.0]), np.diag([0.0, 0.3]), statistics)
    occupied = LevelSystem(1.0, 0.3, statistics)
    z = partition_function(two_levels, grid)
    z_ref = partition_function(occupied, grid)
    assert abs(z - z_ref) <= DENSE_TOL * abs(z_ref)


def test_partition_function_frozen_deviation():
    # Boson eps = 1, nbar = 1 on [0, 1]: closed-form determinant gives
    # |Z - 1| = 0.015741811... at N = 64, quartering at N = 256.
    system = LevelSystem(1.0, 1.0, Statistics.BOSON)
    z64 = partition_function(system, TimeGrid(0.0, 1.0, 64))
    assert abs(z64 - 1.0) == pytest.approx(0.01574181142848441, rel=1e-10)
    z256 = partition_function(system, TimeGrid(0.0, 1.0, 256))
    assert abs(z256 - 1.0) == pytest.approx(0.003913799251015426, rel=1e-10)
    assert abs(z64 - 1.0) / abs(z256 - 1.0) == pytest.approx(4.0, rel=0.05)


def test_partition_function_matrix_case_shrinks():
    rng = np.random.default_rng(27)
    system = random_system(rng, Statistics.FERMION, 2)
    deviations = [
        abs(partition_function(system, TimeGrid(0.0, 1.0, n)) - 1.0)
        for n in (16, 32, 64)
    ]
    assert deviations[0] > deviations[1] > deviations[2]
    # First-order convergence: doubling N roughly halves the deviation.
    assert deviations[0] / deviations[1] == pytest.approx(2.0, rel=0.2)


def test_rotated_components_are_statistics_independent():
    # The retarded combination of discrete branch blocks must agree
    # between statistics up to discretization error; the occupations
    # are chosen valid for both.
    eps, occ = 0.8, 0.4
    grid = TimeGrid(0.0, 1.0, 48)
    blocks = {}
    for statistics in Statistics:
        green = dense_green(LevelSystem(eps, occ, statistics), grid)
        pp, t, tp = extract_component(green, grid, ContourComponent.PLUS_PLUS, 30, 10)
        pm, _, _ = extract_component(green, grid, ContourComponent.PLUS_MINUS, 30, 10)
        blocks[statistics] = pp - pm
    bound = oracle_error_bound(LevelSystem(eps, occ, Statistics.BOSON), grid)
    assert np.abs(blocks[Statistics.BOSON] - blocks[Statistics.FERMION]).max() < 2 * bound


def test_zero_block_emerges_with_refinement():
    system = LevelSystem(1.0, 0.6, Statistics.BOSON)
    norms = []
    for n in (16, 64):
        grid = TimeGrid(0.0, 1.0, n)
        green = dense_green(system, grid)
        pp, pm, mp, mm = (
            extract_component(green, grid, component, 3 * n // 4, n // 4)[0]
            for component in ContourComponent
        )
        norms.append(np.abs((pp + mm - pm - mp) / 2.0).max())
    assert norms[0] < oracle_error_bound(system, TimeGrid(0.0, 1.0, 16))
    assert norms[1] < norms[0] / 2.0


def test_rotated_keldysh_combination():
    # G^{++} + G^{--} approximates the Keldysh closed form for both
    # statistics at the same occupation.
    grid = TimeGrid(0.0, 1.0, 64)
    for statistics in Statistics:
        system = LevelSystem(1.1, 0.45, statistics)
        green = dense_green(system, grid)
        pp, t, tp = extract_component(green, grid, ContourComponent.PLUS_PLUS, 48, 16)
        mm, _, _ = extract_component(green, grid, ContourComponent.MINUS_MINUS, 48, 16)
        weight = 1.0 + 2.0 * statistics.zeta * 0.45
        expected = -1j * weight * np.exp(-1j * 1.1 * (t - tp))
        bound = oracle_error_bound(system, grid)
        assert abs((pp + mm)[0, 0] - expected) < bound



def test_discrete_imports_no_package_module_but_core():
    # The discrete route stays independent of the closed forms: of the
    # package it reads only the system, grid and errors of ``core``.
    import contourgf.discrete

    tree = ast.parse(inspect.getsource(contourgf.discrete))
    relative = set()
    absolute = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative == {"core"}
    assert not {name for name in absolute if name.split(".")[0] == "contourgf"}
