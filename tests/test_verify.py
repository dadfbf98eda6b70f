"""Tests for the structure and convergence suites."""

import cmath
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from contourgf import (
    IllConditionedWarning,
    LevelSystem,
    SingularMatrixError,
    Statistics,
    TimeGrid,
    assemble_report,
    contour_times,
    discrete_green,
    discrete_partition_function,
    keldysh_weight,
    oracle_checks,
    oracle_error_bound,
    run_oracle_suite,
    run_structure_suite,
)
from contourgf import discrete, verify
from contourgf.core import propagator_stack
from contourgf.discrete import _factor
from contourgf.verify import chebyshev_interior

from conftest import random_system, random_unitary

# Agreement of the row kernel with the einsum reference, relative to max|G|.
KERNEL_TOL = 1e-13


def continuum_contour_reference(system, grid):
    """Every block of the continuum prediction from (2N)^2 einsum tensors."""
    d = system.dimension
    tau = contour_times(grid)
    signs = np.repeat([1.0, -1.0], grid.n_slices)
    props = propagator_stack(system, tau - grid.t_initial)
    free = np.einsum("nab,mcb->nmac", props, props.conj())
    weight = keldysh_weight(system)
    kel = -1j * np.einsum("nab,mcb->nmac", props @ weight, props.conj())
    delta = tau[:, None] - tau[None, :]
    theta = np.where(delta > 0, 1.0, np.where(delta < 0, 0.0, 0.5))
    ret = -1j * theta[:, :, None, None] * free
    adv = 1j * (1.0 - theta)[:, :, None, None] * free
    full = (
        kel + signs[None, :, None, None] * ret + signs[:, None, None, None] * adv
    ) / 2.0
    total = 2 * grid.n_slices * d
    return full.transpose(0, 2, 1, 3).reshape(total, total)


def continuum_from_factors(system, grid):
    """The dense continuum prediction from ``_continuum_factors``: the
    greater product before the row, the lesser one after it and their
    mean on the diagonal."""
    greater, lesser, right = verify._continuum_factors(system, grid)
    steps = np.arange(2 * grid.n_slices)
    order = np.sign(steps[:, None] - steps[None, :])
    greater_share = np.kron(
        0.5 * (1.0 + order), np.ones((system.dimension, system.dimension))
    )
    return greater_share * (greater @ right) + (1.0 - greater_share) * (lesser @ right)


def unequal_time_mask(grid, dimension):
    """Entries whose row and column contour times differ."""
    tau = contour_times(grid)
    distinct = tau[:, None] != tau[None, :]
    return np.kron(distinct, np.ones((dimension, dimension), dtype=bool))


def dense_oracle_errors(system, grids):
    """Masked max of |G - continuum| per grid from the dense reference."""
    errors = []
    for grid in grids:
        diff = discrete_green(system, grid).matrix - continuum_contour_reference(
            system, grid
        )
        errors.append(float(np.abs(diff)[unequal_time_mask(grid, system.dimension)].max()))
    return errors

STRUCTURE_CHECK_NAMES = [
    "boundary_final",
    "boundary_initial",
    "causality",
    "conjugation",
    "constant_fixing",
    "equal_time_jump",
    "fdt_proportionality",
    "keldysh_antihermiticity",
    "zero_block",
]


def test_structure_suite_passes_reference_system():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    checks = run_structure_suite(system)
    assert [c.name for c in checks] == STRUCTURE_CHECK_NAMES
    assert all(c.passed for c in checks)
    # Every threshold is scaled by max|W|, here 1 + 2 * 0.7.
    scale = float(np.abs(keldysh_weight(system)).max())
    assert all(c.threshold == 1e-12 * scale for c in checks)


def test_structure_suite_passes_matrix_systems():
    rng = np.random.default_rng(31)
    for statistics in Statistics:
        system = random_system(rng, statistics, 3)
        checks = run_structure_suite(system, seed=2)
        failing = [c.name for c in checks if not c.passed]
        assert failing == []


# Largest occupation eigenvalue per statistics in the property test.
TOP_OCCUPATION = {Statistics.BOSON: 1e6, Statistics.FERMION: 1.0}


@st.composite
def extreme_systems(draw):
    """Systems over both statistics, d = 1..6, eps spectra of 1e-3..1e3,
    and occupations either exactly 0 or with a spectrum that holds a top
    of up to 1e6 (bosons) or 1 (fermions) and, beside it, exact zeros
    and values in [top/10, top]; with a time span T of 1e-3..1e10 that
    starts at 0 or at +-T 10^j, j = 0..15.

    Rotated into a random basis, an eigenvalue of 0 next to one of 1e6
    comes back from ``eigh`` about 1e-10 below 0; the occupation range
    check allows that, because its slack is relative.  Beyond
    ``|t_initial| = 1e15 T`` the span is no longer resolved at
    ``t_initial``: ``t_initial + T`` rounds by more than a tenth of T.

    Returns ``(system, t_initial, t_final)``.
    """
    statistics = draw(st.sampled_from(list(Statistics)))
    dimension = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    basis = random_unitary(rng, dimension)
    epsilon = (basis * (scale * rng.uniform(-1.0, 1.0, dimension))) @ basis.conj().T
    top = TOP_OCCUPATION[statistics] * draw(
        st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0)
    )
    basis = random_unitary(rng, dimension)
    spectrum = top * rng.uniform(0.1, 1.0, dimension) * rng.integers(0, 2, dimension)
    spectrum[0] = top
    nbar = (basis * spectrum) @ basis.conj().T
    span = 10.0 ** draw(st.integers(-3, 10))
    offset = draw(st.sampled_from([0.0]) | st.integers(0, 15).map(lambda j: 10.0**j))
    t_initial = draw(st.sampled_from([1.0, -1.0])) * offset * span
    return LevelSystem(epsilon, nbar, statistics), t_initial, t_initial + span


@seed(41)
@settings(max_examples=60, deadline=None)
@given(case=extreme_systems(), n_slices=st.integers(1, 10**6))
def test_structure_suite_passes_across_the_domain(case, n_slices):
    # The suite scales its threshold by max|W| (up to 2e6 here), so the
    # default threshold is used as it is.
    system, t_initial, t_final = case
    checks = run_structure_suite(system, t_initial=t_initial, t_final=t_final)
    assert [c.name for c in checks] == STRUCTURE_CHECK_NAMES
    assert [c.name for c in checks if not c.passed] == []
    # Z is finite, or the discrete route raises one of its documented
    # domain errors (A' singular to roundoff, Z overflowing).
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            z = discrete_partition_function(
                system, TimeGrid(t_initial, t_final, n_slices)
            )
    except (SingularMatrixError, FloatingPointError):
        return
    assert cmath.isfinite(z)


@pytest.mark.parametrize("t_initial", [1e12, 1e16, -1e16])
def test_suites_do_not_depend_on_the_time_origin(t_initial):
    # At 1e16 the absolute sample times would round to even integers;
    # as offsets from t_initial they are those of a span starting at 0.
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    near = run_structure_suite(system, t_initial=0.0, t_final=2.0)
    far = run_structure_suite(system, t_initial=t_initial, t_final=t_initial + 2.0)
    assert all(c.passed for c in far)
    assert [c.observed for c in far] == [c.observed for c in near]
    near = run_oracle_suite(system, [TimeGrid(0.0, 2.0, n) for n in (16, 32)])
    far = run_oracle_suite(
        system, [TimeGrid(t_initial, t_initial + 2.0, n) for n in (16, 32)]
    )
    assert far == near


def test_structure_suite_constant_fixing_detects_wrong_constants(monkeypatch):
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    solved = verify.fix_constants(system)
    wrong = dataclasses.replace(solved, c21=solved.c21 + 1e-9)
    monkeypatch.setattr(verify, "fix_constants", lambda *args: wrong)
    checks = {c.name: c for c in run_structure_suite(system)}
    assert not checks["constant_fixing"].passed
    assert checks["constant_fixing"].observed == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("constant", ["c11", "c22"])
def test_structure_suite_nan_constant_fails(monkeypatch, constant):
    # A NaN in the first or the last position the check visits.
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    solved = verify.fix_constants(system)
    wrong = dataclasses.replace(solved, **{constant: np.full((1, 1), np.nan)})
    monkeypatch.setattr(verify, "fix_constants", lambda *args: wrong)
    checks = {c.name: c for c in run_structure_suite(system)}
    assert np.isnan(checks["constant_fixing"].observed)
    assert not checks["constant_fixing"].passed


def test_structure_suite_half_filled_fermion_degenerate_fdt():
    # 1 - 2 nbar = 0 makes the Keldysh component vanish identically;
    # the proportionality check degenerates to 0 = 0.
    system = LevelSystem(1.0, 0.5, Statistics.FERMION)
    checks = {c.name: c for c in run_structure_suite(system)}
    assert checks["fdt_proportionality"].passed
    assert checks["fdt_proportionality"].observed == 0.0
    assert all(c.passed for c in checks.values())


def test_structure_suite_noncommuting_fdt_not_applicable():
    rng = np.random.default_rng(33)
    system = random_system(rng, Statistics.BOSON, 2)
    checks = {c.name: c for c in run_structure_suite(system)}
    assert checks["fdt_proportionality"].passed
    assert "not applicable" in checks["fdt_proportionality"].details


def test_structure_suite_corruption_fails_antihermiticity():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    checks = {
        c.name: c
        for c in run_structure_suite(system, corrupt_keldysh=True)
    }
    assert not checks["keldysh_antihermiticity"].passed
    # Checks that do not involve the Keldysh sign stay green.
    assert checks["causality"].passed
    assert checks["zero_block"].passed
    assert checks["boundary_final"].passed
    # The solved constants are compared with the uncorrupted tables.
    assert checks["constant_fixing"].passed


def test_structure_suite_deterministic():
    rng = np.random.default_rng(35)
    system = random_system(rng, Statistics.FERMION, 2)
    first = run_structure_suite(system, seed=9)
    second = run_structure_suite(system, seed=9)
    assert [(c.name, c.observed) for c in first] == [
        (c.name, c.observed) for c in second
    ]


def test_check_result_passed_derivation():
    checks = run_structure_suite(LevelSystem(1.0, 0.1, Statistics.BOSON))
    for c in checks:
        assert c.passed == (c.observed <= c.threshold)
        doc = dataclasses.asdict(c)
        assert set(doc) == {"name", "passed", "observed", "threshold", "details"}


def test_chebyshev_interior_bounds():
    points = chebyshev_interior(0.0, 2.0, 7)
    assert points.shape == (7,)
    assert np.all(points > 0.0) and np.all(points < 2.0)
    assert np.all(np.diff(points) > 0)
    # Symmetric about the midpoint.
    np.testing.assert_allclose(points + points[::-1], 2.0, atol=1e-14)


def test_continuum_contour_matrix_shape_and_symmetry():
    system = LevelSystem(1.0, 0.4, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 4)
    full = continuum_from_factors(system, grid)
    assert full.shape == (8, 8)
    mask = unequal_time_mask(grid, 1)
    assert mask.shape == (8, 8)
    # Each of t_1 .. t_{N-1} appears on both branches, t_N and t_0 once:
    # 4N - 2 equal-time pairs.
    assert int((~mask).sum()) == 4 * grid.n_slices - 2


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 8, 64])
def test_continuum_rows_match_reference(statistics, dimension, n_slices):
    rng = np.random.default_rng([dimension, n_slices, statistics.zeta + 7])
    system = random_system(rng, statistics, dimension)
    grid = TimeGrid(0.0, 1.5, n_slices)
    reference = continuum_contour_reference(system, grid)
    tol = KERNEL_TOL * np.abs(reference).max()
    assert np.abs(continuum_from_factors(system, grid) - reference).max() <= tol
    # The jump between the two weights is -i P_n.
    greater, lesser, _ = verify._continuum_factors(system, grid)
    props = propagator_stack(system, contour_times(grid) - grid.t_initial)
    assert np.abs(greater - lesser + 1j * props.reshape(-1, dimension)).max() <= tol
    # The fused kernel gives G - C by contour rows.
    green = discrete_green(system, grid).matrix
    difference = green - reference
    tol = KERNEL_TOL * max(np.abs(reference).max(), np.abs(green).max())
    rows = verify._difference_rows(system, grid, _factor(system, [grid])[0])
    size = 2 * n_slices
    d = system.dimension

    def block_rows(start, stop):
        # A NaN-filled buffer: the segment products cover every entry.
        out = np.full(((stop - start) * d, size * d), np.nan, dtype=complex)
        assert rows(start, stop, out) is out
        return out

    # One block, and block sizes that leave a short last block.
    for block in (size, 3, 5):
        streamed = np.vstack(
            [
                block_rows(start, min(start + block, size))
                for start in range(0, size, block)
            ]
        )
        assert np.abs(streamed - difference).max() <= tol
    # Blocks that straddle the turn, start on the backward branch or hold
    # only its last row.
    last = size - 1
    for start, stop in [
        (n_slices - 1, min(n_slices + 2, size)),
        (n_slices, size),
        (min(n_slices + 1, last), min(n_slices + 3, size)),
        (last, size),
    ]:
        out = block_rows(start, stop)
        assert np.abs(out - difference[start * d : stop * d]).max() <= tol


@pytest.mark.parametrize("n_slices", [1, 2, 7, 33])
def test_equal_time_pairs_match_dense(n_slices):
    grid = TimeGrid(0.0, 1.0, n_slices)
    tau = verify._contour_offsets(grid)
    row, col = verify._equal_time_pairs(tau)
    dense_row, dense_col = np.nonzero(tau[:, None] == tau[None, :])
    # np.nonzero orders by row, then column, as the pairs are.
    assert row.tolist() == dense_row.tolist()
    assert col.tolist() == dense_col.tolist()
    assert row.size == 4 * n_slices - 2


def assert_oracle_errors_match_dense(system, grids):
    report = run_oracle_suite(system, grids)
    for error, dense in zip(report.errors, dense_oracle_errors(system, grids)):
        assert error == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("entries", [1, 500, 2**16])
def test_oracle_errors_match_dense_mask(monkeypatch, statistics, dimension, entries):
    # One contour row per block, blocks that do not divide 2N, one block.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng([dimension, statistics.zeta + 3])
    system = random_system(rng, statistics, dimension)
    grids = [TimeGrid(0.0, 1.0, n) for n in (7, 16, 33)]
    assert_oracle_errors_match_dense(system, grids)


def rotated(rng, spectrum):
    basis = random_unitary(rng, len(spectrum))
    return (basis * np.asarray(spectrum)) @ basis.conj().T


def extreme_case(name, rng):
    """``(system, span)`` of a named extreme input of the oracle."""
    boson, fermion = Statistics.BOSON, Statistics.FERMION
    if name == "span-1e3":
        return random_system(rng, boson, 2), 1e3
    epsilon = rotated(rng, [1.0, -0.5])
    systems = {
        # eps dt up to 1.4e3: the lag powers fall to about 1e-65.
        "large-eps": ([[1e4, 3.0], [3.0, -2e3]], [0.5, 0.2], boson),
        # The lag powers of the top level underflow to zero on N = 33.
        "huge-eps": ([[5e11, 3.0], [3.0, -2e3]], [0.5, 0.2], boson),
        "boson-nbar-1e3": (epsilon, [1e3, 0.5], boson),
        "fermion-nearly-full": (epsilon, [1 - 1e-9, 0.3], fermion),
    }
    epsilon, occupation, statistics = systems[name]
    return LevelSystem(epsilon, rotated(rng, occupation), statistics), 1.0


@pytest.mark.parametrize("entries", [1, 500, 2**16])
@pytest.mark.parametrize(
    "case",
    ["large-eps", "huge-eps", "boson-nbar-1e3", "fermion-nearly-full", "span-1e3"],
)
def test_oracle_errors_match_dense_mask_at_extremes(monkeypatch, case, entries):
    # Lag powers that underflow, Keldysh weights up to about 2e3, a
    # fermion level one part in 1e9 from full and a span of 1e3.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
    system, span = extreme_case(case, np.random.default_rng(47))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_oracle_errors_match_dense(
            system, [TimeGrid(0.0, span, n) for n in (7, 16, 33)]
        )


def dense_difference_rows(system, grid):
    """``G - C`` from the dense references, and a ``difference_rows``
    kernel that reads its rows: entries can be set per test."""
    difference = discrete_green(system, grid).matrix - continuum_contour_reference(
        system, grid
    )
    d = system.dimension

    def difference_rows(start, stop, out):
        out[:] = difference[start * d : stop * d]
        return out

    return difference, difference_rows


@pytest.mark.parametrize("row", [0, -1])
def test_oracle_error_keeps_nan(monkeypatch, row):
    # The NaN in the first or the last contour row, away from equal
    # times; one row per block, 3-row blocks that do not divide 2N = 16,
    # one block.
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    for entries in (1, 48, 2**16):
        monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
        difference, difference_rows = dense_difference_rows(system, grid)
        workspace = verify._workspace(system, [grid])
        assert np.isfinite(
            verify._unequal_time_error(system, grid, difference_rows, workspace)
        )
        difference[row, 3] = np.nan
        assert np.isnan(
            verify._unequal_time_error(system, grid, difference_rows, workspace)
        )


@pytest.mark.parametrize("entries", [1, 48, 2**16])
@pytest.mark.parametrize("row", [0, 8, 14])
def test_oracle_error_keeps_nan_off_equal_times(monkeypatch, entries, row):
    # One contour row per block, 3-row blocks that do not divide 2N = 16,
    # one block.  Forward row k and backward row 2N - 2 - k share a
    # time; the next column does not.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    tau = contour_times(grid)
    partner = 2 * grid.n_slices - 2 - row
    assert tau[row] == tau[partner] and tau[row] != tau[partner + 1]

    def error_with_nan_at(column):
        difference, difference_rows = dense_difference_rows(system, grid)
        difference[row, column] = np.nan
        return verify._unequal_time_error(
            system, grid, difference_rows, verify._workspace(system, [grid])
        )

    assert np.isfinite(error_with_nan_at(partner))
    assert np.isnan(error_with_nan_at(partner + 1))


@pytest.mark.parametrize("entries", [1, 48, 2**16])
def test_fused_rows_keep_nan(monkeypatch, entries):
    # A NaN in a discrete factor reaches the error through the fused
    # product.  A NaN in the lag-0 block of the Toeplitz term sits on the
    # same-index diagonal and is excluded; one in the lag-1 block, a
    # column later, is not.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    fac = _factor(system, [grid])[0]
    clean = verify._green_factors(fac)

    def error_with(**changes):
        factors = dataclasses.replace(clean, **changes)
        monkeypatch.setattr(verify, "_green_factors", lambda fac: factors)
        return verify._unequal_time_error(
            system,
            grid,
            verify._difference_rows(system, grid, fac),
            verify._workspace(system, [grid]),
        )

    assert np.isfinite(error_with())
    for row in (0, 15):
        left = clean.left.copy()
        left[row] = np.nan
        assert np.isnan(error_with(left=left))
    upper_toeplitz = verify._upper_toeplitz
    for lag in (0, 1):

        def with_nan(table, lag=lag):
            table = table.copy()
            table[:, grid.n_slices - 1 + lag] = np.nan
            return upper_toeplitz(table)

        monkeypatch.setattr(verify, "_upper_toeplitz", with_nan)
        assert np.isnan(error_with()) == (lag == 1)


def test_oracle_suite_rejects_a_nan_error(monkeypatch):
    errors = iter([1e-3, np.nan])
    monkeypatch.setattr(verify, "_unequal_time_error", lambda *args: next(errors))
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    with pytest.raises(FloatingPointError, match="8 slices"):
        run_oracle_suite(system, [TimeGrid(0.0, 1.0, n) for n in (4, 8)])


def test_oracle_suite_peak_memory_is_the_discrete_result():
    system = random_system(np.random.default_rng(41), Statistics.BOSON, 2)
    grids = [TimeGrid(0.0, 1.0, n) for n in (128, 256)]
    result_bytes = (2 * 256 * 2) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        run_oracle_suite(system, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * result_bytes


def test_grid_error_allocates_no_block():
    # With the caller's workspace, one grid allocates its equal-time
    # pairs, the per-block row factor stacks and numpy's buffers for the
    # strided Toeplitz add (192 KiB), not a block (768 KiB).
    system = random_system(np.random.default_rng(41), Statistics.BOSON, 2)
    grid = TimeGrid(0.0, 1.0, 256)
    rows = verify._difference_rows(system, grid, _factor(system, [grid])[0])
    workspace = verify._workspace(system, [grid])
    assert workspace[0].size == verify.ORACLE_BLOCK_ENTRIES
    tracemalloc.start()
    try:
        error = verify._unequal_time_error(system, grid, rows, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(error)
    assert peak < verify.ORACLE_BLOCK_ENTRIES * np.dtype(complex).itemsize / 2


@pytest.mark.parametrize("sizes", [(64, 128), (512, 1024)])
def test_oracle_suite_peak_is_independent_of_n(sizes):
    # The discrete rows are streamed like the continuum ones: a few row
    # blocks, not the 32 MiB inverse at 2 N d = 4096.
    system = random_system(np.random.default_rng(41), Statistics.BOSON, 2)
    grids = [TimeGrid(0.0, 1.0, n) for n in sizes]
    tracemalloc.start()
    try:
        run_oracle_suite(system, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def oracle_mutant_checks():
    """Oracle checks of a boson d = 2 system on grids (32, 64, 128)."""
    system = random_system(np.random.default_rng(43), Statistics.BOSON, 2)
    grids = [TimeGrid(0.0, 1.0, n) for n in (32, 64, 128)]
    return oracle_checks(run_oracle_suite(system, grids))


def test_oracle_passes_unmutated():
    assert all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_unit_keldysh_weight(monkeypatch):
    # W -> 1 on the continuum side only.
    monkeypatch.setattr(
        verify, "keldysh_weight", lambda system: np.eye(system.dimension)
    )
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_toeplitz_lag_off_by_one(monkeypatch):
    # Every lag of the discrete Toeplitz term moved one block later.
    lag_blocks = verify._lag_blocks

    def later(fac):
        shifted = []
        for table in lag_blocks(fac):
            moved = np.zeros_like(table)
            moved[:, fac.n_slices :] = table[:, fac.n_slices - 1 : -1]
            shifted.append(moved)
        return tuple(shifted)

    monkeypatch.setattr(verify, "_lag_blocks", later)
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_flipped_cross_branch_term(monkeypatch):
    green_factors = verify._green_factors

    def flipped(fac):
        factors = green_factors(fac)
        columns = factors.columns.copy()
        columns[fac.basis.shape[0] :] *= -1
        return dataclasses.replace(factors, columns=columns)

    monkeypatch.setattr(verify, "_green_factors", flipped)
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_without_m_in_the_source(monkeypatch):
    # G = -i D'^{-1} diag(M, 1, ...) with M dropped: the shared factor
    # A'^{-1} V^dag M V loses its V^dag M V.
    factor = verify._factor

    def without_m(system, grids):
        m = np.eye(system.dimension) + system.statistics.zeta * system.nbar.T
        return [
            dataclasses.replace(
                fac,
                a_inverse=fac.a_inverse
                @ np.linalg.inv(fac.basis.conj().T @ m @ fac.basis),
            )
            for fac in factor(system, grids)
        ]

    monkeypatch.setattr(verify, "_factor", without_m)
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_a_dt_error_in_h(monkeypatch):
    # h = 1 - 1.05 i eps dt and hbar = 1 + 1.05 i eps dt: a step 5 % too
    # long, an error that does not shrink with N.  The per-grid errors
    # (about 0.036, 0.029, 0.026) stay inside today's bound (0.19, 0.097,
    # 0.048); only the order fit (|order - 1| about 0.76) fails.
    contour_blocks = discrete._contour_blocks

    def stretched(system, grids):
        forward, backward, first, corner = contour_blocks(system, grids)
        eye = np.eye(system.dimension)
        forward, backward = (eye + 1.05 * (b - eye) for b in (forward, backward))
        return forward, backward, first, corner

    monkeypatch.setattr(discrete, "_contour_blocks", stretched)
    checks = oracle_mutant_checks()
    assert not all(c.passed for c in checks)
    assert not checks[-1].passed


def test_oracle_error_bound_scales():
    system = LevelSystem(2.0, 0.3, Statistics.BOSON)
    coarse = oracle_error_bound(system, TimeGrid(0.0, 1.0, 16))
    fine = oracle_error_bound(system, TimeGrid(0.0, 1.0, 32))
    assert coarse == pytest.approx(2 * fine)
    assert coarse == pytest.approx(5.0 * (1.0 / 16) * (1.0 + 2.0))


def test_oracle_suite_first_order_convergence():
    system = LevelSystem(1.0, 1.0, Statistics.BOSON)
    grids = [TimeGrid(0.0, 1.0, n) for n in (32, 64, 128)]
    report = run_oracle_suite(system, grids)
    assert report.grid_sizes == (32, 64, 128)
    assert all(e < b for e, b in zip(report.errors, report.error_bounds))
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert 0.8 <= report.fitted_order <= 1.2
    assert all(d > 0 for d in report.partition_deviations)


def test_oracle_suite_exact_static_case():
    system = LevelSystem(0.0, 0.8, Statistics.BOSON)
    grids = [TimeGrid(0.0, 1.0, n) for n in (8, 16)]
    report = run_oracle_suite(system, grids)
    assert report.fitted_order is None
    assert "not applicable" in report.details
    assert max(report.errors) < 1e-12


def test_oracle_suite_input_validation():
    system = LevelSystem(1.0, 0.5, Statistics.BOSON)
    with pytest.raises(ValueError):
        run_oracle_suite(system, [TimeGrid(0.0, 1.0, 8)])
    with pytest.raises(ValueError):
        run_oracle_suite(
            system, [TimeGrid(0.0, 1.0, 16), TimeGrid(0.0, 1.0, 8)]
        )
    with pytest.raises(ValueError):
        run_oracle_suite(
            system, [TimeGrid(0.0, 1.0, 8), TimeGrid(0.0, 2.0, 16)]
        )


def test_oracle_checks_summarize_report():
    system = LevelSystem(1.0, 0.6, Statistics.FERMION)
    report = run_oracle_suite(
        system, [TimeGrid(0.0, 1.0, n) for n in (16, 32)]
    )
    checks = oracle_checks(report)
    names = [c.name for c in checks]
    assert names == ["oracle_error_n16", "oracle_error_n32", "oracle_order"]
    assert all(c.passed for c in checks)
    order_check = checks[-1]
    assert order_check.observed == pytest.approx(abs(report.fitted_order - 1.0))
    assert order_check.threshold == 0.2


def test_oracle_checks_handle_not_applicable_order():
    system = LevelSystem(0.0, 0.8, Statistics.BOSON)
    report = run_oracle_suite(system, [TimeGrid(0.0, 1.0, n) for n in (8, 16)])
    order_check = oracle_checks(report)[-1]
    assert order_check.passed
    assert "not applicable" in order_check.details


def test_assemble_report_schema():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    structure = run_structure_suite(system)
    report = run_oracle_suite(system, [TimeGrid(0.0, 1.0, n) for n in (16, 32)])
    doc = assemble_report(structure, report)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(structure) + 3
    assert doc["convergence"]["grid_sizes"] == (16, 32)
    bare = assemble_report(structure)
    assert bare["convergence"] is None
    assert bare["passed"] is True


def test_assemble_report_aggregates_failures():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    structure = run_structure_suite(system, corrupt_keldysh=True)
    doc = assemble_report(structure)
    assert doc["passed"] is False
