"""Tests for the domain types and the dense linear-algebra kernel."""

import copy
import inspect
import json
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import lu_solve

from contourgf import (
    ContourComponent,
    IllConditionedWarning,
    LevelSystem,
    NonHermitianError,
    OccupationOutOfRangeError,
    SingularMatrixError,
    Statistics,
    TimeGrid,
    component_table,
    fix_constants,
    run_structure_suite,
)
import contourgf
from contourgf import cli, continuum, core, discrete, verify
from contourgf.core import propagator_stack
from contourgf.verify import _continuum_operands

from conftest import random_hermitian, random_system, random_unitary, taylor_propagator
from dense_contour import BACKWARD, FORWARD, ContourIndex, IndexOutOfRangeError
from dense_lu import lu_factorization

ORACLE_TOL = 1e-12
RESIDUAL_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def energy_system(matrix):
    """An empty level system with ``matrix`` as its energy matrix."""
    return LevelSystem(matrix, np.zeros(np.shape(matrix)), Statistics.BOSON)


def propagator(matrix, scale):
    """``exp(-i M s)`` for one scale, from the propagator stack."""
    return propagator_stack(energy_system(matrix), [scale])[0]


def lu_inverse(factors):
    """Dense inverse from the LU factors."""
    return lu_solve((factors.lu, factors.piv), np.eye(factors.lu.shape[0]))


def test_statistics_signs():
    assert Statistics.BOSON.zeta == 1
    assert Statistics.FERMION.zeta == -1
    assert ContourComponent.PLUS_PLUS.signs == (1, 1)
    assert ContourComponent.PLUS_MINUS.signs == (1, -1)
    assert ContourComponent.MINUS_PLUS.signs == (-1, 1)
    assert ContourComponent.MINUS_MINUS.signs == (-1, -1)


@pytest.mark.parametrize(
    "kind", [Statistics, ContourComponent, continuum.KeldyshComponent]
)
def test_enum_members_hash_by_identity(kind):
    # The identity hash: dict and set lookups by member, by a member
    # reached through its value or name, and by a copy all find it, and
    # no member equals another or its value.
    members = list(kind)
    assert all(hash(member) == object.__hash__(member) for member in members)
    table = {member: index for index, member in enumerate(members)}
    for index, member in enumerate(members):
        for same in (member, kind(member.value), kind[member.name], copy.copy(member)):
            assert same is member
            assert table[same] == index
            assert same in set(members)
        assert member.value not in table
        assert table.get(member.value) is None
    assert len(set(members)) == len(members)
    assert {**table, members[0]: -1}[members[0]] == -1


def test_expm_identity_at_zero_scale():
    rng = np.random.default_rng(7)
    matrix = random_hermitian(rng, 3, -2.0, 2.0)
    np.testing.assert_allclose(propagator(matrix, 0.0), np.eye(3), atol=1e-15)


def test_expm_pauli_quarter_period():
    # exp(-i X pi/2) = -i X
    result = propagator(PAULI_X, np.pi / 2)
    expected = np.array([[0.0, -1j], [-1j, 0.0]])
    np.testing.assert_allclose(result, expected, atol=1e-15)


def test_expm_against_taylor_series():
    rng = np.random.default_rng(11)
    for dimension in (1, 2, 4):
        matrix = random_hermitian(rng, dimension, -1.0, 1.0)
        for scale in (0.3, -0.9, 2.1):
            direct = propagator(matrix, scale)
            series = taylor_propagator(matrix, scale)
            assert np.abs(direct - series).max() < ORACLE_TOL


def test_expm_group_property():
    rng = np.random.default_rng(13)
    matrix = random_hermitian(rng, 3, -1.5, 1.5)
    u_a = propagator(matrix, 0.4)
    u_b = propagator(matrix, 1.1)
    u_ab = propagator(matrix, 1.5)
    assert np.abs(u_a @ u_b - u_ab).max() < ORACLE_TOL


@seed(2)
@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=-5.0, max_value=5.0))
def test_expm_unitary(scale):
    rng = np.random.default_rng(17)
    matrix = random_hermitian(rng, 3, -2.0, 2.0)
    u = propagator(matrix, scale)
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < ORACLE_TOL


def test_propagator_stack_matches_single_calls():
    rng = np.random.default_rng(19)
    matrix = random_hermitian(rng, 2, -1.0, 1.0)
    scales = np.array([-0.7, 0.0, 0.25, 3.0])
    stack = propagator_stack(energy_system(matrix), scales)
    for k, s in enumerate(scales):
        np.testing.assert_allclose(stack[k], propagator(matrix, s), atol=1e-14)


def test_expm_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_dense_invert_diagonal():
    factors = lu_factorization(np.diag([2.0, 4.0j]))
    np.testing.assert_allclose(lu_inverse(factors), np.diag([0.5, -0.25j]), atol=1e-15)
    assert abs(factors.determinant - 8.0j) < 1e-14
    assert factors.condition >= 1.0


def test_dense_invert_random_residual():
    rng = np.random.default_rng(23)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    factors = lu_factorization(matrix)
    residual = np.abs(matrix @ lu_inverse(factors) - np.eye(8)).max()
    assert residual < RESIDUAL_TOL
    assert abs(factors.determinant - np.linalg.det(matrix)) < 1e-10 * abs(
        factors.determinant
    )


def test_dense_invert_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_factorization(singular)


def test_dense_invert_warns_when_ill_conditioned():
    with pytest.warns(IllConditionedWarning):
        lu_factorization(np.diag([1.0, 1e-13]))


def test_dense_invert_condition_estimate():
    factors = lu_factorization(np.diag([1.0, 1e-3]))
    assert 5e2 < factors.condition < 2e3


def test_validate_system_accepts_valid_matrices():
    epsilon = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, -0.5]])
    nbar = np.array([[0.5, 0.1], [0.1, 0.5]])  # eigenvalues 0.4, 0.6
    system = LevelSystem(epsilon, nbar, Statistics.BOSON)
    np.testing.assert_allclose(system.nbar_eigh[0], [0.4, 0.6], atol=1e-15)


def test_validate_system_rejects_non_hermitian_epsilon():
    with pytest.raises(NonHermitianError):
        LevelSystem(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), Statistics.BOSON
        )


def test_validate_system_rejects_negative_occupation():
    with pytest.raises(OccupationOutOfRangeError):
        LevelSystem(0.5, -0.1, Statistics.BOSON)


def test_validate_system_rejects_overfilled_fermion():
    with pytest.raises(OccupationOutOfRangeError):
        LevelSystem(0.5, 1.5, Statistics.FERMION)
    # The same occupation is fine for bosons.
    LevelSystem(0.5, 1.5, Statistics.BOSON)


def test_occupation_slack_is_relative_to_the_spectrum():
    # eigh returns a zero eigenvalue beside 1e6 about 1e-10 below 0.
    for draw in range(50):
        basis = random_unitary(np.random.default_rng(draw), 3)
        nbar = (basis * [0.0, 3e5, 1e6]) @ basis.conj().T
        LevelSystem(np.zeros((3, 3)), nbar, Statistics.BOSON)
    basis = random_unitary(np.random.default_rng(50), 2)
    with pytest.raises(OccupationOutOfRangeError):
        LevelSystem(
            np.zeros((2, 2)), (basis * [-1e-3, 1e6]) @ basis.conj().T, Statistics.BOSON
        )


def test_system_is_diagonalized_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    system = random_system(np.random.default_rng(29), Statistics.FERMION, 3)
    assert len(calls) == 2
    grid = TimeGrid(0.0, 1.0, 8)
    times = np.linspace(0.0, 1.0, 5)
    run_structure_suite(system)
    component_table(system, times, times, ContourComponent.PLUS_MINUS, 0.0)
    fix_constants(system)
    _continuum_operands(system, grid, discrete._Operands.empty(8, 3, (3, 0, 3)))
    assert len(calls) == 2
    # The discrete route diagonalizes its own forward generator.
    for count in (3, 4):
        discrete._factor(system, [grid])
        assert len(calls) == count


def test_level_system_normalizes_scalars():
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    assert system.epsilon.shape == (1, 1)
    assert system.nbar.shape == (1, 1)
    assert system.dimension == 1


def test_level_system_shape_mismatch():
    with pytest.raises(ValueError):
        LevelSystem(np.eye(2), 0.3, Statistics.BOSON)


def test_level_system_rejects_non_finite():
    with pytest.raises(ValueError):
        LevelSystem(np.nan, 0.3, Statistics.BOSON)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 2.0, 4)
    assert grid.dt == 0.5
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, np.inf, 4)


def test_contour_index_positions():
    # N = 4: forward slots 1..4 then backward slots 3..0.
    assert ContourIndex(FORWARD, 1).position(4) == 1
    assert ContourIndex(FORWARD, 4).position(4) == 4
    assert ContourIndex(BACKWARD, 3).position(4) == 5
    assert ContourIndex(BACKWARD, 0).position(4) == 8


def test_contour_index_eliminated_slots():
    with pytest.raises(IndexOutOfRangeError):
        ContourIndex(FORWARD, 0).position(4)
    with pytest.raises(IndexOutOfRangeError):
        ContourIndex(BACKWARD, 4).position(4)
    with pytest.raises(IndexOutOfRangeError):
        ContourIndex(FORWARD, 5).position(4)


def test_contour_index_times():
    grid = TimeGrid(0.0, 2.0, 4)
    assert ContourIndex(FORWARD, 2).time(grid) == 1.0
    assert ContourIndex(BACKWARD, 0).time(grid) == 0.0
    with pytest.raises(IndexOutOfRangeError):
        ContourIndex(BACKWARD, 5).time(grid)


def test_tolerances_defaults():
    # The three bounds are module constants with fixed values.
    assert core.HERMITIAN_BOUND == 1e-10
    assert core.OCCUPATION_SLACK == 1e-10
    assert discrete.CONDITION_WARN == 1e12


def test_level_system_has_exactly_three_fields():
    system = LevelSystem(0.5, 0.1, Statistics.BOSON)
    assert [f.name for f in fields(system) if f.init] == ["epsilon", "nbar", "statistics"]
    with pytest.raises(TypeError):
        LevelSystem(0.5, 0.1, Statistics.BOSON, None)
    with pytest.raises(TypeError):
        LevelSystem(0.5, 0.1, Statistics.BOSON, tolerances=None)


PUBLIC_NAMES = [
    "CheckResult",
    "ContourComponent",
    "ConvergenceReport",
    "GridTooLargeError",
    "IllConditionedWarning",
    "KeldyshComponent",
    "LevelSystem",
    "NonHermitianError",
    "OccupationOutOfRangeError",
    "SingularMatrixError",
    "Statistics",
    "ThermalDivergenceError",
    "TimeGrid",
    "assemble_report",
    "component_table",
    "contour_times",
    "fix_constants",
    "keldysh_weight",
    "oracle_checks",
    "oracle_error_bound",
    "regularized_step",
    "rotated_block_layout",
    "run_oracle_suite",
    "run_structure_suite",
    "thermal_nbar",
]

# Reference code the tests keep in tests/: no program path calls it.
TEST_ONLY_NAMES = [
    "ContourIndex",
    "IndexOutOfRangeError",
    "build_contour_matrix",
    "contour_branch_signs",
    "continuum_contour_matrix",
    "dense_green",
    "extract_component",
    "keldysh_rotate_boson",
    "keldysh_rotate_fermion",
    "keldysh_unrotate_boson",
    "keldysh_unrotate_fermion",
    "normalization_prefactor",
    "rho_from_nbar",
]


def test_public_surface():
    # The package ships the two routes and their cross-check, no more.
    assert sorted(contourgf.__all__) == PUBLIC_NAMES
    for module in (contourgf, core, continuum, discrete, verify, cli):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in TEST_ONLY_NAMES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_commands_enter_every_public_function(tmp_path, capsys):
    # The library ships what the commands run: verify, converge and z on
    # a two-level boson, gf as CSV and verify on a thermal fermion enter
    # every function the package exports.
    boson = {
        "statistics": "boson",
        "epsilon": [[1.0, 0.3], [0.3, -0.5]],
        "nbar": [[0.4, 0.1], [0.1, 0.2]],
        "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": [16, 32]},
    }
    table = dict(
        boson,
        grid={"t_initial": 0.0, "t_final": 1.0, "n_slices": 8},
        output={"format": "csv", "components": ["R", "K", "+-"], "path": None},
    )
    thermal = dict(
        boson,
        statistics="fermion",
        epsilon=[[1.0, 0.0], [0.0, -0.5]],
        nbar={"mu": 0.2, "T": 0.8},
    )
    runs = [
        ("verify", boson),
        ("converge", boson),
        ("z", boson),
        ("gf", table),
        ("verify", thermal),
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for index, (command, raw) in enumerate(runs):
        config = tmp_path / f"run{index}.json"
        config.write_text(json.dumps(raw))
        sys.setprofile(profile)
        try:
            code = cli.main([command, "--config", str(config)])
        finally:
            sys.setprofile(None)
        assert code == 0, command
    capsys.readouterr()
    missed = [
        name
        for name in contourgf.__all__
        if inspect.isfunction(value := getattr(contourgf, name))
        and value.__code__ not in entered
    ]
    assert missed == []


def test_bounds_are_relative():
    # Hermiticity: a deviation of 1e-11 max|M| passes and 1e-9 max|M|
    # fails, at any scale of M.
    zero = np.zeros((2, 2))
    for scale in (1e-6, 1.0, 1e6):
        LevelSystem(scale * np.array([[1.0, 1e-11], [0.0, -1.0]]), zero, Statistics.BOSON)
        with pytest.raises(NonHermitianError):
            LevelSystem(scale * np.array([[1.0, 1e-9], [0.0, -1.0]]), zero, Statistics.BOSON)
    # Occupation: the slack is 1e-10 max(1, max|eigenvalue|).
    for top, inside, outside in ((0.5, -5e-11, -2e-10), (1e6, -5e-5, -2e-4)):
        LevelSystem(zero, np.diag([inside, top]), Statistics.BOSON)
        with pytest.raises(OccupationOutOfRangeError):
            LevelSystem(zero, np.diag([outside, top]), Statistics.BOSON)
    LevelSystem(0.0, 1.0 + 5e-11, Statistics.FERMION)
    with pytest.raises(OccupationOutOfRangeError):
        LevelSystem(0.0, 1.0 + 2e-10, Statistics.FERMION)
