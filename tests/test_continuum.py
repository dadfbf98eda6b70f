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
    TimeGrid,
    component_table,
    fix_constants,
)

from contourgf import continuum
from contourgf.continuum import regularized_step, rotated_block_layout, thermal_nbar
from contourgf.core import propagator_stack
from contourgf.discrete import _factor

from conftest import random_hermitian, random_system, taylor_propagator
from dense_contour import build_contour_matrix

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


def point(system, component, t, t_prime, t_ref=0.0):
    """The ``(d, d)`` block of ``component`` at one time pair."""
    return component_table(system, [t], [t_prime], component, t_ref)[0, 0]


def rho_from_nbar(system):
    """The paper's distribution parameter ``rho = nbar (1 + zeta nbar)^(-1)``,
    through the eigenbasis of ``nbar``."""
    vals, vecs = np.linalg.eigh(system.nbar)
    return (vecs * (vals / (1 + system.statistics.zeta * vals))) @ vecs.conj().T


def normalization_prefactor(system):
    """The paper's partition-sum prefactor
    ``(1 - zeta rho)^zeta = det(1 + zeta nbar)^(-zeta)``."""
    zeta = system.statistics.zeta
    return float(np.prod(1.0 + zeta * np.linalg.eigvalsh(system.nbar)) ** -zeta)


def assert_partition_function_carries_prefactor(system):
    """Z of ``z`` in the paper's form.  D' with its first block row
    multiplied by ``(1 + zeta nbar^T)^(-1)`` is Kamenev's contour matrix
    D, whose closing row is ``[1, 0, ..., -zeta rho^T]``, so
    ``Z = det(D')^(-zeta) = (1 - zeta rho)^zeta det(D)^(-zeta)``."""
    grid = TimeGrid(0.0, 1.0, 8)
    d, zeta = system.dimension, system.statistics.zeta
    kamenev = build_contour_matrix(system, grid)
    kamenev[:d] = np.linalg.solve(np.eye(d) + zeta * system.nbar.T, kamenev[:d])
    np.testing.assert_allclose(kamenev[:d, :d], np.eye(d), atol=1e-14)
    rho = rho_from_nbar(system)
    np.testing.assert_allclose(kamenev[:d, -d:], -zeta * rho.T, atol=1e-14)
    expected = normalization_prefactor(system) * np.linalg.det(kamenev) ** -zeta
    z = _factor(system, [grid])[0].partition_function
    assert z == pytest.approx(expected, rel=1e-12)


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
    for statistics, nbar in ((Statistics.BOSON, 1.0), (Statistics.FERMION, 0.25)):
        assert_partition_function_carries_prefactor(LevelSystem(0.8, nbar, statistics))


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
    epsilon = random_hermitian(rng, 3, -2.0, 2.0)
    for statistics in Statistics:
        occupation = nbar / 2.0 if statistics is Statistics.FERMION else nbar
        assert_partition_function_carries_prefactor(
            LevelSystem(epsilon, occupation, statistics)
        )


def test_keldysh_weight_transposes_without_conjugation():
    # Occupation eigenvalues 0.355 and 0.845: valid for both statistics.
    nbar = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    weight = level(nbar, Statistics.BOSON).keldysh_weight
    expected = np.array([[2.0, 0.2 - 0.4j], [0.2 + 0.4j, 2.4]])
    np.testing.assert_allclose(weight, expected, atol=1e-15)
    weight = level(nbar, Statistics.FERMION).keldysh_weight
    np.testing.assert_allclose(weight, 2 * np.eye(2) - expected, atol=1e-15)


_SQRT2 = math.sqrt(2.0)


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
    value = point(system, KeldyshComponent.RETARDED, 0.5, 0.5)
    assert value[0, 0] == pytest.approx(-0.5j, abs=1e-15)
    value = point(system, KeldyshComponent.ADVANCED, 0.5, 0.5)
    assert value[0, 0] == pytest.approx(0.5j, abs=1e-15)


def test_keldysh_scalar_frozen_value():
    # eps = 1, nbar = 1/2 boson: -2i exp(-i (t - t')) at (0.7, 0.2).
    system = LevelSystem(1.0, 0.5, Statistics.BOSON)
    value = point(system, KeldyshComponent.KELDYSH, 0.7, 0.2)
    assert value[0, 0] == pytest.approx(
        -0.958851077208406 - 1.7551651237807455j, abs=1e-14
    )


def test_keldysh_static_boson():
    system = LevelSystem(0.0, 1.0, Statistics.BOSON)
    value = point(system, KeldyshComponent.KELDYSH, 0.9, 0.1)
    assert value[0, 0] == pytest.approx(-3.0j, abs=1e-15)


def test_keldysh_empty_fermion():
    system = LevelSystem(0.0, 0.0, Statistics.FERMION)
    value = point(system, KeldyshComponent.KELDYSH, 0.9, 0.1)
    assert value[0, 0] == pytest.approx(-1.0j, abs=1e-15)


def test_zero_component_vanishes():
    system = LevelSystem(1.0, 0.5, Statistics.FERMION)
    value = point(system, KeldyshComponent.ZERO, 0.3, 0.8)
    assert value[0, 0] == 0.0


def test_keldysh_matrix_against_series_oracle():
    rng = np.random.default_rng(8)
    system = random_system(rng, Statistics.FERMION, 2)
    t, t_prime, t_ref = 0.8, 0.3, 0.1
    value = point(system, KeldyshComponent.KELDYSH, t, t_prime, t_ref=t_ref)
    weight = np.eye(2) - 2 * system.nbar.T
    left = taylor_propagator(system.epsilon, t - t_ref)
    right = taylor_propagator(system.epsilon, t_prime - t_ref)
    oracle = -1j * left @ weight @ right.conj().T
    assert np.abs(value - oracle).max() < ORACLE_TOL


def test_retarded_reference_time_invariance():
    system = LevelSystem(0.9, 0.6, Statistics.BOSON)
    a = point(system, KeldyshComponent.RETARDED, 1.1, 0.4)
    b = point(system, KeldyshComponent.RETARDED, 1.1, 0.4, t_ref=-5.0)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_contour_equal_time_occupations():
    boson = LevelSystem(1.0, 0.8, Statistics.BOSON)
    value = point(boson, ContourComponent.PLUS_MINUS, 0.4, 0.4)
    assert value[0, 0] == pytest.approx(-0.8j, abs=1e-15)
    value = point(boson, ContourComponent.MINUS_PLUS, 0.4, 0.4)
    assert value[0, 0] == pytest.approx(-1.8j, abs=1e-15)
    fermion = LevelSystem(1.0, 0.4, Statistics.FERMION)
    value = point(fermion, ContourComponent.PLUS_MINUS, 0.4, 0.4)
    assert value[0, 0] == pytest.approx(0.4j, abs=1e-15)
    value = point(fermion, ContourComponent.MINUS_PLUS, 0.4, 0.4)
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
    assert point(system, KeldyshComponent.RETARDED, 0.2, 0.9)[0, 0] == 0.0
    assert point(system, KeldyshComponent.ADVANCED, 0.9, 0.2)[0, 0] == 0.0


def test_conjugation_between_retarded_and_advanced():
    rng = np.random.default_rng(10)
    system = random_system(rng, Statistics.FERMION, 3)
    t, t_prime = 0.85, 0.25
    ret = point(system, KeldyshComponent.RETARDED, t, t_prime)
    adv = point(system, KeldyshComponent.ADVANCED, t_prime, t)
    assert np.abs(ret.conj().T - adv).max() < EXACT_TOL


def test_keldysh_anti_hermiticity():
    rng = np.random.default_rng(12)
    system = random_system(rng, Statistics.BOSON, 3)
    t, t_prime = 0.15, 0.65
    kel = point(system, KeldyshComponent.KELDYSH, t, t_prime)
    kel_swap = point(system, KeldyshComponent.KELDYSH, t_prime, t)
    assert np.abs(kel.conj().T + kel_swap).max() < EXACT_TOL


def test_fdt_proportionality_single_level():
    system = LevelSystem(1.2, 0.6, Statistics.BOSON)
    weight = 1.0 + 2.0 * 0.6
    for t, t_prime in ((0.7, 0.2), (0.2, 0.7)):
        kel = point(system, KeldyshComponent.KELDYSH, t, t_prime)
        ret = point(system, KeldyshComponent.RETARDED, t, t_prime)
        adv = point(system, KeldyshComponent.ADVANCED, t, t_prime)
        assert abs(kel[0, 0] - (ret - adv)[0, 0] * weight) < EXACT_TOL


def test_component_table_shape_and_consistency():
    system = LevelSystem(np.eye(2), 0.3 * np.eye(2), Statistics.BOSON)
    t_vals = np.array([0.0, 0.5, 1.0])
    table = component_table(system, t_vals, t_vals[:2], KeldyshComponent.RETARDED, 0.0)
    assert table.shape == (3, 2, 2, 2)
    single = point(system, KeldyshComponent.RETARDED, 0.5, 0.0)
    np.testing.assert_allclose(table[1, 0], single, atol=1e-15)


@pytest.mark.parametrize(
    "component", [KeldyshComponent.KELDYSH, ContourComponent.PLUS_MINUS]
)
def test_component_table_reads_times_flattened(component):
    # A scalar is one time and a 2-d array its rows in C order: the table
    # is that of the flat times, to the bit.
    system = random_system(np.random.default_rng(7), Statistics.BOSON, 2)
    grid = np.array([[0.1, 0.4, 0.7], [1.0, 1.3, 1.6]])
    table = component_table(system, 0.8, grid, component, 0.25)
    flat = component_table(system, [0.8], grid.ravel(), component, 0.25)
    assert table.shape == (1, 6, 2, 2)
    np.testing.assert_array_equal(table.view(np.int64), flat.view(np.int64))
    table = component_table(system, grid, 0.8, component, 0.25)
    flat = component_table(system, grid.ravel(), [0.8], component, 0.25)
    assert table.shape == (6, 1, 2, 2)
    np.testing.assert_array_equal(table.view(np.int64), flat.view(np.int64))


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_retarded_and_advanced_tables_are_bit_exact(statistics, dimension):
    # R and A are computed in place; every bit, signs of zeros included,
    # must match the plain products the gf output was written from, and
    # so must K and the branch components.  The shared step table is
    # read, never written.
    system = random_system(np.random.default_rng(dimension), statistics, dimension)
    times = np.linspace(-0.5, 2.0, 11)
    p_row = propagator_stack(system, times[:7] + 0.5)
    p_col = propagator_stack(system, times + 0.5)
    free = np.einsum("nab,mcb->nmac", p_row, p_col.conj())
    step = regularized_step(times[:7, None] - times[None, :])
    theta = step[:, :, None, None]
    kel = -1j * np.einsum("nab,mcb->nmac", p_row @ system.keldysh_weight, p_col.conj())
    expected = {
        KeldyshComponent.RETARDED: -1j * theta * free,
        KeldyshComponent.ADVANCED: 1j * (1.0 - theta) * free,
        KeldyshComponent.KELDYSH: kel,
    }
    # The tables hold signed zeros, and R and A exact zeros, so that the
    # bits pin the signs too.
    assert all(np.signbit(want.view(float)).any() for want in expected.values())
    assert (expected[KeldyshComponent.RETARDED] == 0).any()
    assert (expected[KeldyshComponent.ADVANCED] == 0).any()
    for c in ContourComponent:
        s_row, s_col = c.signs
        expected[c] = (
            kel + s_col * (-1j * theta * free) + s_row * (1j * (1.0 - theta) * free)
        ) / 2.0
    # One pair serves every component, so a table that wrote into a
    # shared product or the step would change the ones after it.
    sides = (continuum._side(system, t, -0.5) for t in (times[:7], times))
    pair = continuum._Pair(system, *sides)
    # The structure suite's branch tables: the combination of the pair's
    # K, R and A, which it only reads.
    ret, adv, kel_component, _ = KeldyshComponent
    order = kel_component, ret, adv
    rotated = [continuum._tabulate(pair, c) for c in order]
    for component, want in expected.items():
        table = component_table(system, times[:7], times, component, -0.5)
        shared = continuum._tabulate(pair, component)
        tables = [table, shared]
        if isinstance(component, ContourComponent):
            tables.append(continuum._branch(component.signs, *rotated))
        for got in tables:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for got, c in zip(rotated, order):
        np.testing.assert_array_equal(got.view(np.uint64), expected[c].view(np.uint64))
    np.testing.assert_array_equal(pair.step.view(np.uint64), step.view(np.uint64))


@pytest.mark.parametrize("statistics", list(Statistics))
def test_zero_constant_block_takes_no_product(monkeypatch, statistics):
    # fix_constants returns two exactly zero blocks for either statistics,
    # one where the layout puts a step and one where it puts none.  Such a
    # position's table has the magnitudes of the product of its block
    # plus its step term, entry by entry, and takes no product; so does
    # a block of negative zeros at every position.
    system = random_system(np.random.default_rng(23), statistics, 2)
    constants = fix_constants(system)
    zero = [(r, c) for r in range(2) for c in range(2) if not constants[r][c].any()]
    assert sorted(continuum._has_step(statistics, *rc) for rc in zero) == [False, True]
    negative = np.full((2, 2), -0.0, dtype=complex)
    cases = [(constants, *rc) for rc in zero]
    cases += [(((negative,) * 2,) * 2, r, c) for r in range(2) for c in range(2)]
    t_row, t_col = np.linspace(0.0, 1.0, 5), np.linspace(0.1, 0.9, 7)
    p_row, p_col = propagator_stack(system, t_row), propagator_stack(system, t_col)
    theta = regularized_step(t_row[:, None] - t_col)
    pair = continuum._Pair(system, (t_row, p_row), (t_col, p_col))
    sandwiches = []
    sandwich = continuum._sandwich

    def counted(*args):
        sandwiches.append(None)
        return sandwich(*args)

    for position in cases:
        blocks, row, col = position
        want = sandwich(p_row, blocks[row][col], p_col)
        if continuum._has_step(statistics, row, col):
            want += theta[:, :, None, None] * (-1j * pair.free)
        with monkeypatch.context() as patch:
            patch.setattr(continuum, "_sandwich", counted)
            got = continuum._tabulate(pair, position)
        assert not sandwiches
        np.testing.assert_array_equal(np.abs(got), np.abs(want))


def test_zero_weight_keldysh_table_keeps_negative_zeros():
    # A fermion with nbar = 1/2 has W = 0, and gf writes its K table as the
    # product of that zero: the product's negative zeros stay in the table.
    epsilon = random_hermitian(np.random.default_rng(8), 2, -1.0, 1.0)
    system = LevelSystem(epsilon, 0.5 * np.eye(2), Statistics.FERMION)
    weight = system.keldysh_weight
    assert not weight.any()
    times = np.linspace(0.0, 1.0, 5)
    table = component_table(system, times, times, KeldyshComponent.KELDYSH, 0.0)
    stack = propagator_stack(system, times)
    want = -1j * np.einsum("nab,mcb->nmac", stack @ weight, stack.conj())
    assert np.signbit(table.view(float)).any()
    np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("step_rows", [1, 3])
@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 3])
def test_step_blocks_are_bit_exact(monkeypatch, statistics, dimension, step_rows):
    # The seven table rows above in blocks of one row, and of three rows
    # with a ragged last block, into the free table and into a new one:
    # R and A, and ++, +-, -+ and --, whose sums go in place.
    monkeypatch.setattr(continuum, "_STEP_ROWS", step_rows)
    test_retarded_and_advanced_tables_are_bit_exact(statistics, dimension)


@pytest.mark.parametrize("step_rows", [1, 3, 16])
@pytest.mark.parametrize("statistics", list(Statistics))
def test_shared_pair_tables_leave_free_unchanged(monkeypatch, statistics, step_rows):
    # The structure suite's shared pairs: R, A and the branch components
    # go into new tables, bit for bit those of component_table, and the
    # free product the next table reads stays as it was.  20 rows make
    # blocks of one row, and of three and of sixteen rows with a ragged
    # last block.
    monkeypatch.setattr(continuum, "_STEP_ROWS", step_rows)
    system = random_system(np.random.default_rng(31), statistics, 2)
    t_row, t_col = np.linspace(0.0, 1.5, 20), np.linspace(0.0, 1.5, 11)
    sides = (continuum._side(system, t, 0.0) for t in (t_row, t_col))
    pair = continuum._Pair(system, *sides)
    kept = pair.free.copy()
    ret, adv = KeldyshComponent.RETARDED, KeldyshComponent.ADVANCED
    for component in (ret, adv, *ContourComponent):
        table = continuum._tabulate(pair, component)
        want = component_table(system, t_row, t_col, component, 0.0)
        np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(pair.free.view(np.uint64), kept.view(np.uint64))


# Entries of the largest table the layout test draws: 4 MiB of complex.
PRODUCT_ENTRIES = 2**18


@st.composite
def product_stacks(draw):
    """Two stacks of d x d matrices, d in 1..32 and n, m in 1..64 with at
    most ``PRODUCT_ENTRIES`` entries in their table, some entries zeros
    of either sign."""
    d = draw(st.integers(1, 32))
    n = draw(st.integers(1, 64))
    m = draw(st.integers(1, max(1, min(64, PRODUCT_ENTRIES // (n * d * d)))))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stack(count):
        values = rng.normal(size=(count, d, d, 2))
        signed_zero = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)
        values = np.where(rng.random(values.shape) < zeros, signed_zero, values)
        return values.view(complex)[..., 0]

    return stack(n), stack(m)


@seed(18)
@settings(max_examples=60, deadline=None)
@given(stacks=product_stacks())
def test_products_layout_is_bit_exact(stacks):
    # The einsum layout of the helper changes only the loop order over
    # the output, never the order of the sum over b.
    p, q = stacks
    got = continuum._products(p, q)
    want = np.einsum("nab,mcb->nmac", p, q.conj())
    assert got.flags.c_contiguous
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("statistics", list(Statistics))
def test_step_table_only_for_tables_that_read_it(monkeypatch, statistics):
    system = LevelSystem(1.0, 0.3, statistics)
    constants = fix_constants(system)
    built = []
    step = continuum.regularized_step
    monkeypatch.setattr(continuum, "regularized_step", lambda x: built.append(x) or step(x))
    times = np.linspace(0.0, 1.0, 5)
    for component in [*KeldyshComponent, *ContourComponent]:
        built.clear()
        component_table(system, times, times, component, 0.0)
        reads = component not in (KeldyshComponent.KELDYSH, KeldyshComponent.ZERO)
        assert len(built) == reads, component
    # A position of the ansatz reads the step table where it has a step,
    # and is tabulated without one elsewhere.
    side = continuum._side(system, times, 0.0)
    for row in range(2):
        for col in range(2):
            built.clear()
            pair = continuum._Pair(system, side, side)
            continuum._tabulate(pair, (constants, row, col))
            assert len(built) == continuum._has_step(statistics, row, col), (row, col)


@pytest.mark.parametrize("entries", [1, 40, 2**15])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_product_blocks_are_bit_exact(monkeypatch, entries, dimension):
    # Blocks of one row, of a few rows with a ragged last block, and one
    # block for the whole table; at d = 1 the table is never copied.
    monkeypatch.setattr(continuum, "_PRODUCT_ENTRIES", entries)
    rng = np.random.default_rng(dimension)
    p, q = (
        rng.normal(size=(count, dimension, dimension, 2)).view(complex)[..., 0]
        for count in (11, 5)
    )
    p[3] = -0.0
    got = continuum._products(p, q)
    want = np.einsum("nab,mcb->nmac", p, q.conj())
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_component_table_rejects_unknown_component():
    system = LevelSystem(1.0, 0.0, Statistics.BOSON)
    with pytest.raises(TypeError):
        component_table(system, [0.0], [0.0], "R", 0.0)


def initial_boundary_ratio(nbar):
    """Quantum-to-classical weight ``1/(1 + 2 nbar)`` of a boson level's
    initial boundary condition, from its solved constant ``c11 = W``."""
    return 1.0 / fix_constants(level(nbar, Statistics.BOSON))[0][0].item().real


def test_initial_boundary_ratio_values():
    assert initial_boundary_ratio(0.0) == 1.0
    assert initial_boundary_ratio(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert initial_boundary_ratio(49.5) == pytest.approx(0.01, abs=1e-17)


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


def scalars(constants):
    """The four solved constants of a single level as complex scalars."""
    return tuple(complex(block.item()) for row in constants for block in row)


def test_fix_constants_boson_scalars():
    constants = fix_constants(level(0.7, Statistics.BOSON))
    c11, c12, c21, c22 = scalars(constants)
    assert c11 == pytest.approx(1.0 + 2.0 * 0.7, abs=1e-12)
    assert c12 == pytest.approx(0.0, abs=1e-12)
    assert c21 == pytest.approx(-1.0, abs=1e-12)
    assert c22 == pytest.approx(0.0, abs=1e-12)
    constants = fix_constants(level(1.0, Statistics.BOSON))
    assert scalars(constants)[0] == pytest.approx(3.0, abs=1e-12)


def test_fix_constants_fermion_scalars():
    constants = fix_constants(level(0.3, Statistics.FERMION))
    c11, c12, c21, c22 = scalars(constants)
    assert c11 == pytest.approx(0.0, abs=1e-12)
    assert c12 == pytest.approx(1.0 - 2.0 * 0.3, abs=1e-12)
    assert c21 == pytest.approx(0.0, abs=1e-12)
    assert c22 == pytest.approx(-1.0, abs=1e-12)
    constants = fix_constants(level(0.0, Statistics.FERMION))
    assert scalars(constants)[1] == pytest.approx(1.0, abs=1e-12)


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
    weight = np.eye(d) + 2 * statistics.zeta * occ.T
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
        scale = np.abs(system.keldysh_weight).max()
        solved = [block for row in constants for block in row]
        for block, ref in zip(solved, reference):
            assert np.abs(block - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("statistics", list(Statistics))
def test_fix_constants_closed_values_at_sixteen_levels(statistics):
    rng = np.random.default_rng(45)
    nbar = random_hermitian(rng, 16, 0.1, 0.9)
    system = level(nbar, statistics)
    weight = system.keldysh_weight
    constants = fix_constants(system)
    eye = np.eye(16)
    if statistics is Statistics.BOSON:
        expected = (weight, 0 * eye, -eye, 0 * eye)
    else:
        expected = (0 * eye, weight, 0 * eye, -eye)
    # Indexed by position, as the layout is.
    assert [len(row) for row in constants] == [2, 2]
    solved = [block for row in constants for block in row]
    for block, value in zip(solved, expected):
        np.testing.assert_array_equal(block, value)


def test_fix_constants_rejects_out_of_range_occupation():
    with pytest.raises(OccupationOutOfRangeError):
        fix_constants(level(1.5, Statistics.FERMION))
    with pytest.raises(OccupationOutOfRangeError):
        fix_constants(level(-0.5, Statistics.BOSON))


def test_solution_from_constants_matches_components():
    # Each position of the ansatz, tabulated as the structure suite does,
    # is the component that the statistics' layout puts there.
    rng = np.random.default_rng(14)
    times = np.array([0.2, 0.5, 0.9])
    for statistics in Statistics:
        system = random_system(rng, statistics, 2)
        constants = fix_constants(system)
        layout = rotated_block_layout(statistics)
        side = continuum._side(system, times, 0.0)
        pair = continuum._Pair(system, side, side)
        for row in range(2):
            for col in range(2):
                ansatz = continuum._tabulate(pair, (constants, row, col))
                direct = component_table(system, times, times, layout[row][col], 0.0)
                assert np.abs(ansatz - direct).max() < ORACLE_TOL


def test_scalar_closed_forms_from_first_principles():
    # Single level: both step positions and the solved constants give
    # the textbook forms; verify against direct complex arithmetic.
    eps, nbar = 1.4, 0.9
    system = LevelSystem(eps, nbar, Statistics.BOSON)
    t, t_prime = 0.95, 0.15
    phase = cmath.exp(-1j * eps * (t - t_prime))
    ret = point(system, KeldyshComponent.RETARDED, t, t_prime)
    assert ret[0, 0] == pytest.approx(-1j * phase, abs=1e-14)
    kel = point(system, KeldyshComponent.KELDYSH, t, t_prime)
    assert kel[0, 0] == pytest.approx(-1j * (1 + 2 * nbar) * phase, abs=1e-14)
