"""Tests for the closed-form components and their fixed constants."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contourgf import (
    ContourComponent,
    KeldyshComponent,
    LevelSystem,
    OccupationOutOfRangeError,
    Statistics,
    ThermalDivergenceError,
    component_table,
    fix_constants,
    gf_component,
    initial_boundary_ratio,
    keldysh_rotate_boson,
    keldysh_rotate_fermion,
    keldysh_unrotate_boson,
    keldysh_unrotate_fermion,
    keldysh_weight,
    normalization_prefactor,
    regularized_step,
    rho_from_nbar,
    rotated_block_layout,
    solution_from_constants,
    thermal_nbar,
)

from contourgf.core import propagator_stack

from conftest import random_hermitian, random_system, taylor_propagator

EXACT_TOL = 1e-13
ORACLE_TOL = 1e-12

# Frozen reference values.
FERMI_AT_UNIT_GAP = 0.2689414213699951  # 1/(e + 1)
BOSE_AT_UNIT_GAP = 0.5819767068693265  # 1/(e - 1)
FERMI_AT_TRIPLE_GAP = 0.04742587317756678  # 1/(e^3 + 1)


def test_regularized_step():
    assert regularized_step(2.5) == 1.0
    assert regularized_step(-1e-30) == 0.0
    assert regularized_step(0.0) == 0.5


def level(nbar, statistics):
    """A system with zero energy and the occupation ``nbar``."""
    return LevelSystem(np.zeros(np.shape(nbar)), nbar, statistics)


def test_rho_scalar_values():
    assert rho_from_nbar(level(3.0, Statistics.BOSON)) == pytest.approx(
        0.75, abs=1e-15
    )
    assert rho_from_nbar(level(0.25, Statistics.FERMION)) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    assert rho_from_nbar(level(0.0, Statistics.BOSON)) == 0.0


def test_rho_matrix_maps_eigenvalues():
    rng = np.random.default_rng(3)
    nbar = random_hermitian(rng, 3, 0.1, 2.0)
    rho = rho_from_nbar(level(nbar, Statistics.BOSON))
    occ_vals = np.sort(np.linalg.eigvalsh(nbar))
    rho_vals = np.sort(np.linalg.eigvalsh(rho))
    np.testing.assert_allclose(rho_vals, occ_vals / (1 + occ_vals), atol=1e-12)


def test_rho_fermion_diverges_at_unit_occupation():
    with pytest.raises(OccupationOutOfRangeError):
        rho_from_nbar(level(1.0, Statistics.FERMION))


def test_rho_rejects_negative_occupation():
    with pytest.raises(OccupationOutOfRangeError):
        rho_from_nbar(level(-0.2, Statistics.BOSON))


def test_thermal_nbar_values():
    assert thermal_nbar(1.0, 1.0, 0.7, Statistics.FERMION) == pytest.approx(
        0.5, abs=1e-15
    )
    assert thermal_nbar(1.0, 0.0, 1.0, Statistics.FERMION) == pytest.approx(
        FERMI_AT_UNIT_GAP, abs=1e-16
    )
    assert thermal_nbar(1.0, 0.0, 1.0, Statistics.BOSON) == pytest.approx(
        BOSE_AT_UNIT_GAP, abs=1e-15
    )
    assert thermal_nbar(2.0, 0.5, 0.5, Statistics.FERMION) == pytest.approx(
        FERMI_AT_TRIPLE_GAP, abs=1e-16
    )
    assert thermal_nbar(math.log(2.0), 0.0, 1.0, Statistics.BOSON) == pytest.approx(
        1.0, abs=1e-14
    )


def test_thermal_nbar_extreme_arguments():
    assert thermal_nbar(720.0, 0.0, 1.0, Statistics.FERMION) == pytest.approx(
        math.exp(-720.0), rel=1e-12
    )
    assert thermal_nbar(800.0, 0.0, 1.0, Statistics.BOSON) == 0.0


def test_thermal_nbar_domain_errors():
    with pytest.raises(ValueError):
        thermal_nbar(1.0, 0.0, 0.0, Statistics.BOSON)
    with pytest.raises(ValueError):
        thermal_nbar(1.0, 0.0, -2.0, Statistics.FERMION)
    with pytest.raises(ThermalDivergenceError):
        thermal_nbar(1.0, 1.0, 1.0, Statistics.BOSON)
    with pytest.raises(ThermalDivergenceError):
        thermal_nbar(0.5, 1.0, 1.0, Statistics.BOSON)


def test_normalization_prefactor_scalar():
    assert normalization_prefactor(level(1.0, Statistics.BOSON)) == pytest.approx(
        0.5, abs=1e-15
    )
    assert normalization_prefactor(
        level(0.25, Statistics.FERMION)
    ) == pytest.approx(0.75, abs=1e-15)


def test_normalization_prefactor_is_reciprocal_trace():
    # Bosonic trace over occupations is the geometric series in rho;
    # fermionic trace is 1 + rho.  The prefactor is the reciprocal.
    nbar = 0.8
    rho = rho_from_nbar(level(nbar, Statistics.BOSON))
    series = sum(rho**k for k in range(400))
    assert normalization_prefactor(level(nbar, Statistics.BOSON)) == pytest.approx(
        1.0 / series, abs=1e-14
    )
    nbar = 0.3
    rho = rho_from_nbar(level(nbar, Statistics.FERMION))
    assert normalization_prefactor(
        level(nbar, Statistics.FERMION)
    ) == pytest.approx(1.0 / (1.0 + rho), abs=1e-14)


def test_normalization_prefactor_matrix_factorizes():
    rng = np.random.default_rng(5)
    nbar = random_hermitian(rng, 3, 0.1, 1.5)
    vals = np.linalg.eigvalsh(nbar)
    expected = np.prod([1.0 / (1.0 + v) for v in vals])
    assert normalization_prefactor(level(nbar, Statistics.BOSON)) == pytest.approx(
        expected, rel=1e-12
    )


def test_keldysh_weight_transposes_without_conjugation():
    nbar = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    weight = keldysh_weight(nbar, Statistics.BOSON)
    expected = np.array([[2.0, 0.2 - 0.4j], [0.2 + 0.4j, 2.4]])
    np.testing.assert_allclose(weight, expected, atol=1e-15)
    weight = keldysh_weight(nbar, Statistics.FERMION)
    np.testing.assert_allclose(weight, 2 * np.eye(2) - expected, atol=1e-15)


@seed(4)
@settings(max_examples=30, deadline=None)
@given(
    fields=arrays(
        np.float64,
        (4, 3),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
def test_rotations_round_trip(fields):
    plus, minus, bar_plus, bar_minus = fields
    cl, qu = keldysh_rotate_boson(plus, minus)
    back_plus, back_minus = keldysh_unrotate_boson(cl, qu)
    np.testing.assert_allclose(back_plus, plus, atol=1e-9, rtol=1e-12)
    np.testing.assert_allclose(back_minus, minus, atol=1e-9, rtol=1e-12)
    f1, f2, b1, b2 = keldysh_rotate_fermion(plus, minus, bar_plus, bar_minus)
    out = keldysh_unrotate_fermion(f1, f2, b1, b2)
    for result, start in zip(out, (plus, minus, bar_plus, bar_minus)):
        np.testing.assert_allclose(result, start, atol=1e-9, rtol=1e-12)


def test_rotation_preserves_quadratic_form():
    # The bosonic rotation is orthogonal; the fermionic one pairs barred
    # with unbarred so the bilinear sum is preserved.
    rng = np.random.default_rng(6)
    plus, minus, bar_plus, bar_minus = rng.normal(size=(4, 5))
    cl, qu = keldysh_rotate_boson(plus, minus)
    assert np.sum(cl**2 + qu**2) == pytest.approx(np.sum(plus**2 + minus**2))
    f1, f2, b1, b2 = keldysh_rotate_fermion(plus, minus, bar_plus, bar_minus)
    assert np.sum(b1 * f1 + b2 * f2) == pytest.approx(
        np.sum(bar_plus * plus - bar_minus * minus)
    )


def test_retarded_at_equal_times():
    system = LevelSystem(1.3, 0.4, Statistics.BOSON)
    value = gf_component(system, KeldyshComponent.RETARDED, 0.5, 0.5, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-0.5j, abs=1e-15)
    value = gf_component(system, KeldyshComponent.ADVANCED, 0.5, 0.5, t_ref=0.0)
    assert value[0, 0] == pytest.approx(0.5j, abs=1e-15)


def test_keldysh_scalar_frozen_value():
    # eps = 1, nbar = 1/2 boson: -2i exp(-i (t - t')) at (0.7, 0.2).
    system = LevelSystem(1.0, 0.5, Statistics.BOSON)
    value = gf_component(system, KeldyshComponent.KELDYSH, 0.7, 0.2, t_ref=0.0)
    assert value[0, 0] == pytest.approx(
        -0.958851077208406 - 1.7551651237807455j, abs=1e-14
    )


def test_keldysh_static_boson():
    system = LevelSystem(0.0, 1.0, Statistics.BOSON)
    value = gf_component(system, KeldyshComponent.KELDYSH, 0.9, 0.1, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-3.0j, abs=1e-15)


def test_keldysh_empty_fermion():
    system = LevelSystem(0.0, 0.0, Statistics.FERMION)
    value = gf_component(system, KeldyshComponent.KELDYSH, 0.9, 0.1, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-1.0j, abs=1e-15)


def test_zero_component_vanishes():
    system = LevelSystem(1.0, 0.5, Statistics.FERMION)
    value = gf_component(system, KeldyshComponent.ZERO, 0.3, 0.8, t_ref=0.0)
    assert value[0, 0] == 0.0


def test_keldysh_matrix_against_series_oracle():
    rng = np.random.default_rng(8)
    system = random_system(rng, Statistics.FERMION, 2)
    t, t_prime, t_ref = 0.8, 0.3, 0.1
    value = gf_component(system, KeldyshComponent.KELDYSH, t, t_prime, t_ref=t_ref)
    weight = np.eye(2) - 2 * system.nbar.T
    left = taylor_propagator(system.epsilon, t - t_ref)
    right = taylor_propagator(system.epsilon, t_prime - t_ref)
    oracle = -1j * left @ weight @ right.conj().T
    assert np.abs(value - oracle).max() < ORACLE_TOL


def test_retarded_reference_time_invariance():
    system = LevelSystem(0.9, 0.6, Statistics.BOSON)
    a = gf_component(system, KeldyshComponent.RETARDED, 1.1, 0.4, t_ref=0.0)
    b = gf_component(system, KeldyshComponent.RETARDED, 1.1, 0.4, t_ref=-5.0)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_contour_equal_time_occupations():
    boson = LevelSystem(1.0, 0.8, Statistics.BOSON)
    value = gf_component(boson, ContourComponent.PLUS_MINUS, 0.4, 0.4, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-0.8j, abs=1e-15)
    value = gf_component(boson, ContourComponent.MINUS_PLUS, 0.4, 0.4, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-1.8j, abs=1e-15)
    fermion = LevelSystem(1.0, 0.4, Statistics.FERMION)
    value = gf_component(fermion, ContourComponent.PLUS_MINUS, 0.4, 0.4, t_ref=0.0)
    assert value[0, 0] == pytest.approx(0.4j, abs=1e-15)
    value = gf_component(fermion, ContourComponent.MINUS_PLUS, 0.4, 0.4, t_ref=0.0)
    assert value[0, 0] == pytest.approx(-0.6j, abs=1e-15)


def test_contour_components_reassemble_rotated_basis():
    rng = np.random.default_rng(9)
    system = random_system(rng, Statistics.BOSON, 2)
    t_vals = np.array([0.1, 0.45, 0.9])
    tables = {
        comp: component_table(system, t_vals, t_vals, comp, 0.0)
        for comp in ContourComponent
    }
    ret = component_table(system, t_vals, t_vals, KeldyshComponent.RETARDED, 0.0)
    adv = component_table(system, t_vals, t_vals, KeldyshComponent.ADVANCED, 0.0)
    kel = component_table(system, t_vals, t_vals, KeldyshComponent.KELDYSH, 0.0)
    np.testing.assert_allclose(
        tables[ContourComponent.PLUS_PLUS] - tables[ContourComponent.PLUS_MINUS],
        ret,
        atol=EXACT_TOL,
    )
    np.testing.assert_allclose(
        tables[ContourComponent.PLUS_PLUS] - tables[ContourComponent.MINUS_PLUS],
        adv,
        atol=EXACT_TOL,
    )
    np.testing.assert_allclose(
        tables[ContourComponent.PLUS_PLUS] + tables[ContourComponent.MINUS_MINUS],
        kel,
        atol=EXACT_TOL,
    )


def test_causality_is_exact():
    system = LevelSystem(1.7, 0.2, Statistics.FERMION)
    assert gf_component(
        system, KeldyshComponent.RETARDED, 0.2, 0.9, t_ref=0.0
    )[0, 0] == 0.0
    assert gf_component(
        system, KeldyshComponent.ADVANCED, 0.9, 0.2, t_ref=0.0
    )[0, 0] == 0.0


def test_conjugation_between_retarded_and_advanced():
    rng = np.random.default_rng(10)
    system = random_system(rng, Statistics.FERMION, 3)
    t, t_prime = 0.85, 0.25
    ret = gf_component(system, KeldyshComponent.RETARDED, t, t_prime, t_ref=0.0)
    adv = gf_component(system, KeldyshComponent.ADVANCED, t_prime, t, t_ref=0.0)
    assert np.abs(ret.conj().T - adv).max() < EXACT_TOL


def test_keldysh_anti_hermiticity():
    rng = np.random.default_rng(12)
    system = random_system(rng, Statistics.BOSON, 3)
    t, t_prime = 0.15, 0.65
    kel = gf_component(system, KeldyshComponent.KELDYSH, t, t_prime, t_ref=0.0)
    kel_swap = gf_component(system, KeldyshComponent.KELDYSH, t_prime, t, t_ref=0.0)
    assert np.abs(kel.conj().T + kel_swap).max() < EXACT_TOL


def test_fdt_proportionality_single_level():
    system = LevelSystem(1.2, 0.6, Statistics.BOSON)
    weight = 1.0 + 2.0 * 0.6
    for t, t_prime in ((0.7, 0.2), (0.2, 0.7)):
        kel = gf_component(system, KeldyshComponent.KELDYSH, t, t_prime, t_ref=0.0)
        ret = gf_component(system, KeldyshComponent.RETARDED, t, t_prime, t_ref=0.0)
        adv = gf_component(system, KeldyshComponent.ADVANCED, t, t_prime, t_ref=0.0)
        assert abs(kel[0, 0] - (ret - adv)[0, 0] * weight) < EXACT_TOL


def test_component_table_shape_and_consistency():
    system = LevelSystem(np.eye(2), 0.3 * np.eye(2), Statistics.BOSON)
    t_vals = np.array([0.0, 0.5, 1.0])
    table = component_table(system, t_vals, t_vals[:2], KeldyshComponent.RETARDED, 0.0)
    assert table.shape == (3, 2, 2, 2)
    single = gf_component(system, KeldyshComponent.RETARDED, 0.5, 0.0, t_ref=0.0)
    np.testing.assert_allclose(table[1, 0], single, atol=1e-15)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_retarded_and_advanced_tables_are_bit_exact(statistics, dimension):
    # R and A are computed in place; every bit, signs of zeros included,
    # must match the plain products the gf output was written from.
    system = random_system(np.random.default_rng(dimension), statistics, dimension)
    times = np.linspace(-0.5, 2.0, 11)
    p_row = propagator_stack(system, times[:7] + 0.5)
    p_col = propagator_stack(system, times + 0.5)
    free = np.einsum("nab,mcb->nmac", p_row, p_col.conj())
    theta = regularized_step(times[:7, None] - times[None, :])[:, :, None, None]
    expected = {
        KeldyshComponent.RETARDED: -1j * theta * free,
        KeldyshComponent.ADVANCED: 1j * (1.0 - theta) * free,
    }
    for component, want in expected.items():
        table = component_table(system, times[:7], times, component, -0.5)
        assert np.signbit(want.view(float)).any()
        assert (want == 0).any()
        np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))


def test_component_table_rejects_unknown_component():
    system = LevelSystem(1.0, 0.0, Statistics.BOSON)
    with pytest.raises(TypeError):
        component_table(system, [0.0], [0.0], "R", 0.0)


def test_initial_boundary_ratio_values():
    assert initial_boundary_ratio(0.0) == 1.0
    assert initial_boundary_ratio(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert initial_boundary_ratio(49.5) == pytest.approx(0.01, abs=1e-17)
    with pytest.raises(OccupationOutOfRangeError):
        initial_boundary_ratio(-0.5)


def test_initial_boundary_ratio_decreases():
    grid = np.logspace(-3, 3, 100)
    values = [initial_boundary_ratio(v) for v in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rotated_block_layout():
    boson = rotated_block_layout(Statistics.BOSON)
    assert boson[0] == (KeldyshComponent.KELDYSH, KeldyshComponent.RETARDED)
    assert boson[1] == (KeldyshComponent.ADVANCED, KeldyshComponent.ZERO)
    fermion = rotated_block_layout(Statistics.FERMION)
    assert fermion[0] == (KeldyshComponent.RETARDED, KeldyshComponent.KELDYSH)
    assert fermion[1] == (KeldyshComponent.ZERO, KeldyshComponent.ADVANCED)


def test_fix_constants_boson_scalars():
    constants = fix_constants(level(0.7, Statistics.BOSON))
    c11, c12, c21, c22 = constants.to_scalars()
    assert c11 == pytest.approx(1.0 + 2.0 * 0.7, abs=1e-12)
    assert c12 == pytest.approx(0.0, abs=1e-12)
    assert c21 == pytest.approx(-1.0, abs=1e-12)
    assert c22 == pytest.approx(0.0, abs=1e-12)
    constants = fix_constants(level(1.0, Statistics.BOSON))
    assert constants.to_scalars()[0] == pytest.approx(3.0, abs=1e-12)


def test_fix_constants_fermion_scalars():
    constants = fix_constants(level(0.3, Statistics.FERMION))
    c11, c12, c21, c22 = constants.to_scalars()
    assert c11 == pytest.approx(0.0, abs=1e-12)
    assert c12 == pytest.approx(1.0 - 2.0 * 0.3, abs=1e-12)
    assert c21 == pytest.approx(0.0, abs=1e-12)
    assert c22 == pytest.approx(-1.0, abs=1e-12)
    constants = fix_constants(level(0.0, Statistics.FERMION))
    assert constants.to_scalars()[1] == pytest.approx(1.0, abs=1e-12)


# Step-structured positions of the two-by-two ansatz, written out.
THETA_POSITIONS = {
    Statistics.BOSON: ((0, 1), (1, 0)),
    Statistics.FERMION: ((0, 0), (1, 1)),
}


def fix_constants_lstsq(statistics, nbar):
    """The boundary conditions as one stacked Kronecker least-squares
    system of size 12 d^2 x 4 d^2, sampled at three interior times."""
    occ = np.atleast_2d(np.asarray(nbar, dtype=complex))
    d = occ.shape[0]
    dim = d * d
    weight = keldysh_weight(occ, statistics)
    theta_positions = THETA_POSITIONS[statistics]
    eye_vec = np.eye(d, dtype=complex).reshape(-1)
    kron_eye = np.eye(dim, dtype=complex)
    kron_weight = np.kron(weight, np.eye(d))
    t_initial, t_final = 0.0, 1.0
    k = np.arange(3)
    samples = 0.5 + 0.5 * np.cos((2 * k + 1) * math.pi / 6)

    def block_column(row, col):
        offset = (2 * row + col) * dim
        return slice(offset, offset + dim)

    rows, rhs = [], []
    for t_prime in samples:
        step_final = 1.0 if t_final > t_prime else 0.0
        step_initial = 1.0 if t_initial > t_prime else 0.0
        for col in range(2):
            coeff = np.zeros((dim, 4 * dim), dtype=complex)
            coeff[:, block_column(1, col)] = kron_eye
            shift = step_final if (1, col) in theta_positions else 0.0
            rows.append(coeff)
            rhs.append(-shift * eye_vec)
        for col in range(2):
            coeff = np.zeros((dim, 4 * dim), dtype=complex)
            coeff[:, block_column(0, col)] = kron_eye
            coeff[:, block_column(1, col)] = kron_weight
            shift = step_initial if (0, col) in theta_positions else 0.0
            shift2 = step_initial if (1, col) in theta_positions else 0.0
            rows.append(coeff)
            rhs.append(-(shift * eye_vec + shift2 * (kron_weight @ eye_vec)))
    solution, _, rank, _ = np.linalg.lstsq(
        np.concatenate(rows), np.concatenate(rhs), rcond=None
    )
    assert rank == 4 * dim
    return [solution[block_column(r, c)].reshape(d, d) for r in range(2) for c in range(2)]


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_fix_constants_matches_least_squares(statistics, dimension):
    rng = np.random.default_rng(40 + dimension)
    for _ in range(5):
        system = random_system(rng, statistics, dimension)
        constants = fix_constants(system)
        reference = fix_constants_lstsq(statistics, system.nbar)
        scale = np.abs(keldysh_weight(system.nbar, statistics)).max()
        solved = (constants.c11, constants.c12, constants.c21, constants.c22)
        for block, ref in zip(solved, reference):
            assert np.abs(block - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("statistics", list(Statistics))
def test_fix_constants_closed_values_at_sixteen_levels(statistics):
    rng = np.random.default_rng(45)
    nbar = random_hermitian(rng, 16, 0.1, 0.9)
    weight = keldysh_weight(nbar, statistics)
    constants = fix_constants(level(nbar, statistics))
    eye = np.eye(16)
    if statistics is Statistics.BOSON:
        expected = (weight, 0 * eye, -eye, 0 * eye)
    else:
        expected = (0 * eye, weight, 0 * eye, -eye)
    solved = (constants.c11, constants.c12, constants.c21, constants.c22)
    for block, value in zip(solved, expected):
        np.testing.assert_array_equal(block, value)


def test_fix_constants_rejects_out_of_range_occupation():
    with pytest.raises(OccupationOutOfRangeError):
        fix_constants(level(1.5, Statistics.FERMION))
    with pytest.raises(OccupationOutOfRangeError):
        fix_constants(level(-0.5, Statistics.BOSON))


def test_solution_from_constants_matches_components():
    rng = np.random.default_rng(14)
    for statistics in Statistics:
        system = random_system(rng, statistics, 2)
        constants = fix_constants(system)
        layout = rotated_block_layout(statistics)
        for row in range(2):
            for col in range(2):
                for t, t_prime in ((0.9, 0.2), (0.2, 0.9), (0.5, 0.5)):
                    ansatz = solution_from_constants(
                        system, constants, row, col, [t], [t_prime], t_ref=0.0
                    )[0, 0]
                    direct = gf_component(
                        system, layout[row][col], t, t_prime, t_ref=0.0
                    )
                    assert np.abs(ansatz - direct).max() < ORACLE_TOL


def test_scalar_closed_forms_from_first_principles():
    # Single level: both step positions and the solved constants give
    # the textbook forms; verify against direct complex arithmetic.
    eps, nbar = 1.4, 0.9
    system = LevelSystem(eps, nbar, Statistics.BOSON)
    t, t_prime = 0.95, 0.15
    phase = cmath.exp(-1j * eps * (t - t_prime))
    ret = gf_component(system, KeldyshComponent.RETARDED, t, t_prime, t_ref=0.0)
    assert ret[0, 0] == pytest.approx(-1j * phase, abs=1e-14)
    kel = gf_component(system, KeldyshComponent.KELDYSH, t, t_prime, t_ref=0.0)
    assert kel[0, 0] == pytest.approx(-1j * (1 + 2 * nbar) * phase, abs=1e-14)
