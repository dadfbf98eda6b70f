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
    contour_branch_signs,
    contour_times,
    continuum_contour_matrix,
    discrete_green,
    discrete_partition_function,
    keldysh_weight,
    oracle_checks,
    oracle_error_bound,
    run_oracle_suite,
    run_structure_suite,
)
from contourgf import verify
from contourgf.core import propagator_stack
from contourgf.verify import KELDYSH_SIGN_FLIP, _continuum_rows, chebyshev_interior

from conftest import random_system, random_unitary

# Agreement of the row kernel with the einsum reference, relative to max|G|.
KERNEL_TOL = 1e-13


def continuum_contour_reference(system, grid):
    """Every block of the continuum prediction from (2N)^2 einsum tensors."""
    d = system.dimension
    tau = contour_times(grid)
    signs = contour_branch_signs(grid)
    props = propagator_stack(system, tau - grid.t_initial)
    free = np.einsum("nab,mcb->nmac", props, props.conj())
    weight = keldysh_weight(system.nbar, system.statistics)
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
    scale = float(np.abs(keldysh_weight(system.nbar, system.statistics)).max())
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
        for c in run_structure_suite(system, corruption=KELDYSH_SIGN_FLIP)
    }
    assert not checks["keldysh_antihermiticity"].passed
    # Checks that do not involve the Keldysh sign stay green.
    assert checks["causality"].passed
    assert checks["zero_block"].passed
    assert checks["boundary_final"].passed
    # The solved constants are compared with the uncorrupted tables.
    assert checks["constant_fixing"].passed


def test_structure_suite_rejects_unknown_corruption():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    with pytest.raises(ValueError):
        run_structure_suite(system, corruption="typo")


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
        doc = c.to_dict()
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
    full = continuum_contour_matrix(system, grid)
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
    assert np.abs(continuum_contour_matrix(system, grid) - reference).max() <= tol
    rows = _continuum_rows(system, grid)
    size = 2 * n_slices
    # Block sizes that leave a short last block.
    for block in (3, 5):
        streamed = np.vstack(
            [rows(start, min(start + block, size)) for start in range(0, size, block)]
        )
        assert np.abs(streamed - reference).max() <= tol


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("entries", [1, 500, 2**16])
def test_oracle_errors_match_dense_mask(monkeypatch, statistics, dimension, entries):
    # One contour row per block, blocks that do not divide 2N, one block.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng([dimension, statistics.zeta + 3])
    system = random_system(rng, statistics, dimension)
    grids = [TimeGrid(0.0, 1.0, n) for n in (7, 16, 33)]
    report = run_oracle_suite(system, grids)
    for error, dense in zip(report.errors, dense_oracle_errors(system, grids)):
        assert error == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("row", [0, -1])
def test_oracle_error_keeps_nan(monkeypatch, row):
    # One contour row per block, the NaN in the first or the last one,
    # away from equal times.
    monkeypatch.setattr(verify, "ORACLE_BLOCK_ENTRIES", 1)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    green = discrete_green(system, grid).matrix.copy()
    assert np.isfinite(verify._unequal_time_error(system, grid, green))
    green[row, 3] = np.nan
    assert np.isnan(verify._unequal_time_error(system, grid, green))


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
    doc = assemble_report(structure, report, oracle_checks(report))
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(structure) + 3
    assert doc["convergence"]["grid_sizes"] == [16, 32]
    bare = assemble_report(structure)
    assert bare["convergence"] is None
    assert bare["passed"] is True


def test_assemble_report_aggregates_failures():
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    structure = run_structure_suite(system, corruption=KELDYSH_SIGN_FLIP)
    doc = assemble_report(structure)
    assert doc["passed"] is False
