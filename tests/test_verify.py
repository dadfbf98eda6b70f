"""Tests for the structure and convergence suites."""

import ast
import cmath
import dataclasses
import inspect
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from contourgf import (
    ContourComponent,
    IllConditionedWarning,
    KeldyshComponent,
    LevelSystem,
    SingularMatrixError,
    Statistics,
    TimeGrid,
    run_oracle_suite,
    run_structure_suite,
)
from contourgf import cli, continuum, discrete, verify
from contourgf.core import propagator_stack
from contourgf.discrete import _factor, contour_times
from contourgf.verify import (
    assemble_report,
    chebyshev_interior,
    oracle_checks,
    oracle_error_bound,
)

from conftest import random_system, random_unitary
from dense_contour import dense_green, dense_inverse, kernel_rows

# Agreement of the row kernel with the einsum reference, relative to max|G|.
KERNEL_TOL = 1e-13


def continuum_contour_reference(system, grid):
    """Every block of the continuum prediction from (2N)^2 einsum tensors."""
    d = system.dimension
    tau = contour_times(grid)
    signs = np.repeat([1.0, -1.0], grid.n_slices)
    props = propagator_stack(system, tau - grid.t_initial)
    free = np.einsum("nab,mcb->nmac", props, props.conj())
    weight = system.keldysh_weight
    kel = -1j * np.einsum("nab,mcb->nmac", props @ weight, props.conj())
    delta = tau[:, None] - tau[None, :]
    # At equal times the contour order: the row is the later position, so
    # theta is 1 on the forward branch and 0 on the backward one.
    theta = np.where(delta == 0, signs[:, None] > 0, delta > 0).astype(float)
    ret = -1j * theta[:, :, None, None] * free
    adv = 1j * (1.0 - theta)[:, :, None, None] * free
    full = (
        kel + signs[None, :, None, None] * ret + signs[:, None, None, None] * adv
    ) / 2.0
    total = 2 * grid.n_slices * d
    return full.transpose(0, 2, 1, 3).reshape(total, total)


def continuum_set(system, grid):
    """A set of operands that holds -C alone: ``_continuum_operands``
    placed into an empty one."""
    d = system.dimension
    operands = discrete._Operands.empty(grid.n_slices, d, (d, 0, d))
    verify._continuum_operands(system, grid, operands)
    return operands


def continuum_from_operands(system, grid):
    """The dense continuum prediction from ``_continuum_operands``, by the
    row kernel that streams ``G - C``: the greater product at and before
    the row, the lesser one after it.  The kernel writes the rows
    column-major."""
    total = 2 * grid.n_slices
    rows = discrete._row_kernel(continuum_set(system, grid), total)
    return -kernel_rows(rows, system.dimension, 0, total, (0, total)).T


def difference_kernel(system, grid, fac):
    """The kernel of ``G - C`` the oracle suite streams: C placed into
    G's operands, built for the tile height of ``discrete._tile``."""
    d = system.dimension
    operands = verify._green_operands(fac, (d, 0, d))
    verify._continuum_operands(system, grid, operands)
    return discrete._row_kernel(operands, discrete._tile(grid.n_slices, d)[0])


def oracle_grid_error(system, grid, fac):
    """The oracle error of one grid as ``run_oracle_suite`` takes it."""
    d = system.dimension
    operands = verify._green_operands(fac, (d, 0, d))
    verify._continuum_operands(system, grid, operands)
    return discrete._largest_entry(operands, discrete._workspace([grid.n_slices], d))


def dense_oracle_errors(system, grids):
    """Max of |G - continuum| per grid from the dense reference."""
    errors = []
    for grid in grids:
        diff = dense_green(system, grid) - continuum_contour_reference(system, grid)
        errors.append(float(np.abs(diff).max()))
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
    scale = float(np.abs(system.keldysh_weight).max())
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
            (fac,) = _factor(system, [TimeGrid(t_initial, t_final, n_slices)])
            z = fac.partition_function
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
    (c11, c12), (c21, c22) = verify.fix_constants(system)
    wrong = (c11, c12), (c21 + 1e-9, c22)
    monkeypatch.setattr(verify, "fix_constants", lambda *args: wrong)
    checks = {c.name: c for c in run_structure_suite(system)}
    assert not checks["constant_fixing"].passed
    assert checks["constant_fixing"].observed == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("row, col", [(0, 0), (1, 1)], ids=["c11", "c22"])
def test_structure_suite_nan_constant_fails(monkeypatch, row, col):
    # A NaN in the first or the last position the check visits.
    system = LevelSystem(1.0, 0.7, Statistics.BOSON)
    wrong = [list(row) for row in verify.fix_constants(system)]
    wrong[row][col] = np.full((1, 1), np.nan)
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


def test_structure_suite_builds_two_propagator_stacks(monkeypatch):
    # Every table of the suite comes from one row and one column stack.
    calls = []

    def counted(system, scales):
        calls.append(len(scales))
        return propagator_stack(system, scales)

    for module in (continuum, verify):
        monkeypatch.setattr(module, "propagator_stack", counted)
    system = random_system(np.random.default_rng(5), Statistics.FERMION, 2)
    assert all(c.passed for c in run_structure_suite(system))
    assert calls == [5, 7]


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
def test_structure_suite_computes_each_product_once(
    monkeypatch, weight_computations, statistics
):
    # 9 einsums: the two propagator stacks; the free and the Keldysh
    # product of the row-column and the column-row pair; the free product
    # of the row-row pair; the two solved constants that are not zero,
    # while the step terms read the row-column free product.  W is
    # computed once, by the system, and read by the suite, fix_constants
    # and the pairs that have a Keldysh product.
    einsums = []
    einsum = np.einsum

    def counted_einsum(*args, **kwargs):
        einsums.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted_einsum)
    system = random_system(np.random.default_rng(18), statistics, 3)
    assert all(c.passed for c in run_structure_suite(system))
    assert len(einsums) == 9
    assert len(weight_computations) == 1


def test_structure_suite_memory_peak():
    # At most seven tables of 35 d^2 complex entries are alive at once,
    # beside the two propagator stacks of 12 d^2; 32 KiB of slack hold
    # the steps, the times and the interpreter's objects.  With every
    # table of a pair built up front, about ten were alive.
    for statistics in Statistics:
        for dimension in (10, 16):
            system = random_system(np.random.default_rng(10), statistics, dimension)
            run_structure_suite(system)
            tracemalloc.start()
            try:
                run_structure_suite(system)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            entry = np.dtype(complex).itemsize * dimension**2
            bound = (7 * 35 + 12) * entry + 32 * 2**10
            assert peak <= bound, (statistics, dimension, peak, bound)


def _evaluator_with(replacements):
    """The evaluator with ``replacements[what](pair)`` in place of the
    table of each component it names; the positions of the general
    solution, ``(constants, row, col)`` tuples, pass through."""

    def evaluate(pair, what):
        if not isinstance(what, tuple) and what in replacements:
            return replacements[what](pair)
        return continuum._tabulate(pair, what)

    return evaluate


def _as(component, rows=lambda p: p, cols=lambda p: p, theta=lambda t: t, scale=1):
    """A replacement that evaluates ``component`` over a fresh pair of the
    pair's propagator stacks and its step table, passed through the given
    maps, times ``scale``; the suite's own pair and its products are left
    as they are."""

    def replacement(pair):
        row, col = (pair.t_row, rows(pair.p_row)), (pair.t_col, cols(pair.p_col))
        mapped = continuum._Pair(pair.system, row, col)
        mapped.step = theta(pair.step)
        return scale * continuum._tabulate(mapped, component)

    return replacement


RET, ADV, KEL, _ = KeldyshComponent
PM, MP = ContourComponent.PLUS_MINUS, ContourComponent.MINUS_PLUS
STRUCTURE_MUTANTS = {
    # A with the step of R: nonzero after t', so at the final time too.
    "boundary_final": {ADV: _as(ADV, theta=lambda t: 1.0 - t)},
    # K without the weight W: R with a unit step.
    "boundary_initial": {KEL: _as(RET, theta=np.ones_like)},
    # R without its step: nonzero before t'.
    "causality": {RET: _as(RET, theta=np.ones_like)},
    # A from conjugated propagators: still causal, no longer R^dag.
    "conjugation": {ADV: _as(ADV, rows=np.conj, cols=np.conj)},
    # Handled by the test: the solved c11 and c22 swapped.
    "constant_fixing": {},
    # A's step 1 at equal times, so R - A is -3i/2 there; equal times
    # cannot see a common theta(0).
    "equal_time_jump": {ADV: _as(ADV, theta=lambda t: np.where(t == 0.5, 0.0, t))},
    # K from conjugated propagators: still anti-Hermitian, not (R - A) W.
    "fdt_proportionality": {KEL: _as(KEL, rows=np.conj, cols=np.conj)},
    # K times i: Hermitian instead of anti-Hermitian.
    "keldysh_antihermiticity": {KEL: _as(KEL, scale=1j)},
    # Handled by the test: the +- and -+ branch components swapped where
    # the suite forms them from R, A and K.
    "zero_block": {},
}


def _swapped_branches(signs, *args, **kwargs):
    """The branch combination with +- and -+ swapped."""
    swap = {PM.signs: MP.signs, MP.signs: PM.signs}
    return continuum._branch(swap.get(signs, signs), *args, **kwargs)


def commuting_pair(statistics):
    """Two levels whose occupation commutes with the energy matrix (and,
    both real, with its transpose), so that every check applies."""
    c, s = np.cos(0.6), np.sin(0.6)
    rotation = np.array([[c, -s], [s, c]])
    occupation = [0.3, 0.8] if statistics is Statistics.FERMION else [0.3, 1.7]
    return LevelSystem(
        rotation @ np.diag([1.0, -0.4]) @ rotation.T,
        rotation @ np.diag(occupation) @ rotation.T,
        statistics,
    )


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("name", STRUCTURE_CHECK_NAMES)
def test_each_structure_check_fails_its_mutant(monkeypatch, name, statistics):
    system = commuting_pair(statistics)
    clean = {c.name: c for c in run_structure_suite(system)}
    assert all(c.passed for c in clean.values())
    assert "not applicable" not in clean["fdt_proportionality"].details
    if name == "constant_fixing":
        (c11, c12), (c21, c22) = verify.fix_constants(system)
        wrong = (c22, c12), (c21, c11)
        monkeypatch.setattr(verify, "fix_constants", lambda *args: wrong)
    if name == "zero_block":
        monkeypatch.setattr(verify, "_branch", _swapped_branches)
    monkeypatch.setattr(verify, "_tabulate", _evaluator_with(STRUCTURE_MUTANTS[name]))
    checks = {c.name: c for c in run_structure_suite(system)}
    assert not checks[name].passed
    if name == "zero_block":
        # The swap leaves R - A = -i U(t - t') off equal times, whose
        # largest entry, that of a 2 x 2 unitary, is at least 1/sqrt(2).
        assert checks[name].observed > 0.5


BRANCH_MUTANTS = {
    # (K + s_row R + s_col A) / 2: +- and -+ trade places.
    "signs_swapped": lambda signs, *args, **kwargs: continuum._branch(
        signs[::-1], *args, **kwargs
    ),
    # K + s_col R + s_row A: every branch component twice too large.
    "half_dropped": lambda *args, **kwargs: 2.0 * continuum._branch(*args, **kwargs),
}


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("mutant", BRANCH_MUTANTS)
def test_branch_combination_mutants_fail(monkeypatch, tmp_path, mutant, statistics):
    # The suite forms its branch components by the combination gf applies,
    # so a wrong combination fails a check and verify exits 1.
    system = commuting_pair(statistics)
    monkeypatch.setattr(verify, "_branch", BRANCH_MUTANTS[mutant])
    failing = [c.name for c in run_structure_suite(system) if not c.passed]
    assert failing == ["zero_block"]
    report = tmp_path / "report.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "statistics": statistics.value,
        "epsilon": system.epsilon.real.tolist(),
        "nbar": system.nbar.real.tolist(),
        "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": 4},
        "output": {"format": "json", "components": ["R"], "path": str(report)},
    }))
    assert cli.main(["verify", "--config", str(config)]) == 1
    doc = json.loads(report.read_text())
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["zero_block"]


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
def test_reversed_step_of_the_pair_fails_verify(monkeypatch, tmp_path, statistics):
    # gf and the structure suite take their step from the one pair, so a
    # step reversed there changes gf's tables and verify exits 1.
    system = commuting_pair(statistics)
    output, config = tmp_path / "output", tmp_path / "run.json"
    config.write_text(json.dumps({
        "statistics": statistics.value,
        "epsilon": system.epsilon.real.tolist(),
        "nbar": system.nbar.real.tolist(),
        "grid": {"t_initial": 0.5, "t_final": 1.5, "n_slices": 4},
        "output": {"format": "csv", "components": ["R", "++"], "path": str(output)},
    }))

    def run(command):
        code = cli.main([command, "--config", str(config)])
        return code, output.read_bytes()

    code, clean = run("gf")
    assert code == 0 and run("verify")[0] == 0
    step = continuum.regularized_step
    reversed_step = property(lambda pair: step(pair.t_col - pair.t_row[:, None]))
    monkeypatch.setattr(continuum._Pair, "step", reversed_step)
    code, table = run("gf")
    assert code == 0 and table != clean
    code, report = run("verify")
    assert code == 1
    failing = {c["name"] for c in json.loads(report)["checks"] if not c["passed"]}
    assert failing == {"boundary_final", "boundary_initial", "causality"}


@pytest.mark.parametrize(
    "span", [(1.0, 0.0), (0.0, 0.0), (0.0, math.nan), (0.0, math.inf)], ids=str
)
def test_structure_suite_refuses_an_empty_or_unbounded_span(span):
    # Such a span has no interior to sample, and its checks would fail or
    # read NaN on correct tables.
    t_initial, t_final = span
    system = LevelSystem(1.0, 0.1, Statistics.BOSON)
    with pytest.raises(ValueError):
        run_structure_suite(system, t_initial=t_initial, t_final=t_final)


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
    full = continuum_from_operands(system, grid)
    assert full.shape == (8, 8)
    props = propagator_stack(system, contour_times(grid))[:, 0, 0]
    weight = system.keldysh_weight[0, 0]

    def weighted(c, rows, cols):
        return -0.5j * props[rows] * (weight + c) * props[cols].conj()

    # The step at equal times takes the contour order, the row the later
    # position: the diagonal blocks carry the greater weight.
    size = 2 * grid.n_slices
    index = np.arange(size)
    np.testing.assert_allclose(
        full[index, index], weighted(1.0, index, index), rtol=0, atol=1e-15
    )
    # Each of t_1 .. t_{N-1} appears on both branches.  The backward
    # copy of a forward row's time comes after it on the contour (the
    # lesser weight), and the forward copy of a backward row's time
    # before it (the greater weight).
    forward = np.arange(grid.n_slices - 1)
    partner = size - 2 - forward
    np.testing.assert_allclose(
        full[forward, partner], weighted(-1.0, forward, partner), rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        full[partner, forward], weighted(1.0, partner, forward), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("n_slices", [1, 2, 8, 64])
def test_continuum_rows_match_reference(statistics, dimension, n_slices):
    rng = np.random.default_rng([dimension, n_slices, statistics.zeta + 7])
    system = random_system(rng, statistics, dimension)
    grid = TimeGrid(0.0, 1.5, n_slices)
    reference = continuum_contour_reference(system, grid)
    tol = KERNEL_TOL * np.abs(reference).max()
    assert np.abs(continuum_from_operands(system, grid) - reference).max() <= tol
    # The jump between the two weights on the forward rows is -i P_n; the
    # set's row factors are -C's, so theirs is i P_n.
    operands = continuum_set(system, grid)
    (greater,), (lesser,) = operands.rows, operands.cross_rows
    half = n_slices * dimension
    props = propagator_stack(system, contour_times(grid) - grid.t_initial)
    jump = greater[:half] - lesser - 1j * props.reshape(-1, dimension)[:half]
    assert np.abs(jump).max() <= tol
    # The fused kernel gives G - C by contour rows, built for the suite's
    # blocks and for blocks of one and of three rows, whose lag terms
    # past a piece are products; tiles of whole rows at one tile row.
    green = dense_green(system, grid)
    difference = green - reference
    tol = KERNEL_TOL * max(np.abs(reference).max(), np.abs(green).max())
    fac = _factor(system, [grid])[0]
    size = 2 * n_slices
    d = system.dimension
    row_entries = 2 * n_slices * d * d
    for entries in (discrete.ORACLE_BLOCK_ENTRIES, row_entries, 3 * row_entries):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
            patch.setattr(discrete, "TILE_ROWS", 1)
            tile = (min(entries // row_entries, size), size)
            assert discrete._tile(n_slices, d) == tile
            rows = difference_kernel(system, grid, fac)

        def block_rows(start, stop):
            # A NaN-filled buffer: the segment products cover every entry.
            # The rows are written column-major.
            out = np.full((size * d, (stop - start) * d), np.nan, dtype=complex)
            assert rows(start, stop, out, (0, size)) is out
            return out.T

        # One block, and block sizes that leave a short last block.
        for block in (size, 3, 5):
            streamed = np.vstack(
                [
                    block_rows(start, min(start + block, size))
                    for start in range(0, size, block)
                ]
            )
            assert np.abs(streamed - difference).max() <= tol
        # Blocks that straddle the turn, start on the backward branch or
        # hold only its last row.
        last = size - 1
        for start, stop in [
            (n_slices - 1, min(n_slices + 2, size)),
            (n_slices, size),
            (min(n_slices + 1, last), min(n_slices + 3, size)),
            (last, size),
        ]:
            out = block_rows(start, stop)
            assert np.abs(out - difference[start * d : stop * d]).max() <= tol


# Agreement of the G - C kernel with the dense references, in units of
# eps max|G|: the dense solve of D' and the einsum prediction round off
# too.
KERNEL_EPS = 1024


@st.composite
def kernel_calls(draw):
    """``(statistics, dimension, n_slices, sizes, rows, span, seed)``: a
    system's statistics, levels and seed, a grid, the tile buffer's
    entries and the tile rows the kernel is built for, and the contour
    rows and columns of one call.  The sizes give kernels built for one
    row, for blocks that do not divide 2N or straddle the turn and for
    every row; the call may take several pieces of a branch and a span
    that cuts the lag table, the turn or neither."""
    statistics = draw(st.sampled_from(list(Statistics)))
    d = draw(st.integers(1, 4))
    n_slices = draw(st.sampled_from([1, 2, 3, 7, 16, 33]))
    size = 2 * n_slices
    row_entries = size * d * d
    entries = draw(
        st.sampled_from([1, 48, discrete.ORACLE_BLOCK_ENTRIES])
        | st.integers(1, 3 * row_entries)
    )
    tile_rows = draw(st.integers(1, 8) | st.just(discrete.TILE_ROWS))
    start = draw(st.integers(0, size - 1))
    stop = draw(st.integers(start + 1, size))
    first = draw(st.integers(0, size - 1))
    last = draw(st.integers(first + 1, size))
    seed_ = draw(st.integers(0, 2**16))
    sizes = (entries, tile_rows)
    return statistics, d, n_slices, sizes, (start, stop), (first, last), seed_


@seed(29)
@settings(max_examples=200, deadline=None)
@given(case=kernel_calls())
def test_difference_kernel_matches_dense_inverse(case):
    # The kernel of G - C writes any rows over any span column-major,
    # into a NaN-filled buffer that its products and lag table cover,
    # as the dense inverse of D' less the einsum prediction.
    statistics, d, n_slices, sizes, (start, stop), span, seed_ = case
    system = random_system(np.random.default_rng(seed_), statistics, d)
    grid = TimeGrid(0.0, 1.0, n_slices)
    green = dense_inverse(system, grid)
    difference = green - continuum_contour_reference(system, grid)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in zip(("ORACLE_BLOCK_ENTRIES", "TILE_ROWS"), sizes):
            patch.setattr(discrete, name, value)
        rows = difference_kernel(system, grid, _factor(system, [grid])[0])
    first, last = span
    out = np.full(((last - first) * d, (stop - start) * d), np.nan, dtype=complex)
    assert rows(start, stop, out, span) is out
    want = difference[start * d : stop * d, first * d : last * d].T
    atol = KERNEL_EPS * np.finfo(float).eps * np.abs(green).max()
    assert np.abs(out - want).max() <= atol


def assert_oracle_errors_match_dense(system, grids):
    report = run_oracle_suite(system, grids)
    for error, dense in zip(report.errors, dense_oracle_errors(system, grids)):
        assert error == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("statistics", list(Statistics))
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("entries", [1, 500, 2**16])
def test_oracle_errors_match_dense_mask(monkeypatch, statistics, dimension, entries):
    # One contour row per block, blocks that do not divide 2N, one block.
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
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
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
    system, span = extreme_case(case, np.random.default_rng(47))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_oracle_errors_match_dense(
            system, [TimeGrid(0.0, span, n) for n in (7, 16, 33)]
        )


def dense_difference_rows(system, grid):
    """``G - C`` from the dense references, and a ``difference_rows``
    kernel that reads its rows: entries can be set per test."""
    difference = dense_green(system, grid) - continuum_contour_reference(system, grid)
    d = system.dimension

    def difference_rows(start, stop, out, span):
        # Column-major, as the kernel writes a tile.
        first, last = span
        out[:] = difference[start * d : stop * d, first * d : last * d].T
        return out

    return difference, difference_rows


@pytest.mark.parametrize("row", [0, -1])
def test_oracle_error_keeps_nan(monkeypatch, row):
    # The NaN in the first or the last contour row; tiles of one d x d
    # block, of all 16 rows by 3 columns (3 does not divide 2N = 16), and
    # one tile.
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    for entries in (1, 48, 2**16):
        monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
        difference, difference_rows = dense_difference_rows(system, grid)
        workspace = discrete._workspace([8], 1)
        assert np.isfinite(discrete._grid_error(8, 1, difference_rows, workspace))
        difference[row, 3] = np.nan
        assert np.isnan(discrete._grid_error(8, 1, difference_rows, workspace))


@pytest.mark.parametrize("entries", [1, 48, 2**16])
@pytest.mark.parametrize("row", [0, 8, 14])
def test_oracle_error_keeps_nan_off_equal_times(monkeypatch, entries, row):
    # Tiles of one d x d block, of all 16 rows by 3 columns (3 does not
    # divide 2N = 16), and one tile.  Forward row k and backward row
    # 2N - 2 - k share a time; the next column does not.  The error
    # covers both.
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    tau = contour_times(grid)
    partner = 2 * grid.n_slices - 2 - row
    assert tau[row] == tau[partner] and tau[row] != tau[partner + 1]

    def error_with_nan_at(column):
        difference, difference_rows = dense_difference_rows(system, grid)
        difference[row, column] = np.nan
        workspace = discrete._workspace([8], 1)
        return discrete._grid_error(8, 1, difference_rows, workspace)

    assert np.isnan(error_with_nan_at(partner + 1))
    assert np.isnan(error_with_nan_at(partner))


NONFINITE = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
             complex(-np.inf, 0.0), complex(0.0, np.inf), complex(0.0, -np.inf)]


@st.composite
def planted_entries(draw):
    """``(n_slices, dimension, sizes, damp, row, column, value)``: a grid;
    the tile buffer's entries, the tile rows and the magnitude slab's
    floats; a factor for the forward rows of G - C; and an entry with a
    value to plant there, NaN, an infinite part, or a finite value up to
    twice the largest entry in any phase.  The sizes give tiles of one
    d x d block, of rows cut into columns that may not divide 2N, of
    whole rows that may straddle the turn and of the whole grid, and
    slabs that split a tile, split it unevenly or hold it.  In about
    half the draws the row is forward, in a tile that may be skipped,
    which a damped difference lets every forward tile be; in about half
    the column is in the row's same-index diagonal block or in the
    cross-branch partner of its time."""
    n_slices = draw(st.integers(1, 16))
    d = draw(st.integers(1, 4))
    row_entries = 2 * n_slices * d * d
    entries = draw(
        st.sampled_from([1, 48, 2**16]) | st.integers(1, 3 * row_entries)
    )
    tile_rows = draw(st.integers(1, 8))
    slab = draw(st.sampled_from([1, 2**14]) | st.integers(2, 2 * row_entries))
    damp = draw(st.sampled_from([1.0, 1e-3]))
    size = 2 * n_slices
    row = draw(st.integers(0, n_slices - 1) | st.integers(0, size - 1))
    partner = (size - 2 - row) % size
    col = draw(st.sampled_from([row, partner]) | st.integers(0, size - 1))
    a, b = (draw(st.integers(0, d - 1)) for _ in range(2))
    finite = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2 * np.pi))
    value = draw(st.sampled_from(NONFINITE) | finite)
    sizes = (entries, tile_rows, slab)
    return n_slices, d, sizes, damp, row * d + a, col * d + b, value


def plain_max(difference):
    return np.abs(difference).max()


@seed(31)
@settings(max_examples=160, deadline=None)
@given(case=planted_entries())
# The maximum planted in the backward columns of the first backward row,
# the last backward tile to stream, in tiles of whole rows and in tiles
# of 6 columns, one of which straddles the turn, through an uneven slab.
@example(case=(8, 2, (2**16, 1, 2**14), 1.0, 16, 31, (2.0, 0.5)))
@example(case=(8, 2, (48, 2, 40), 1.0, 16, 19, (2.0, 2.5)))
def test_grid_error_is_the_plain_max(case):
    # The error is the plain max of |G - C| over every entry, equal times
    # included, bit for bit, though parts of tiles that cannot hold the
    # maximum skip their magnitudes and the rest reach it through the
    # slab; a NaN or an infinity anywhere reaches it.
    n_slices, dimension, sizes, damp, row, column, value = case
    rng = np.random.default_rng(dimension)
    system = random_system(rng, Statistics.BOSON, dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    with pytest.MonkeyPatch.context() as patch:
        names = ("ORACLE_BLOCK_ENTRIES", "TILE_ROWS", "MAGNITUDE_SLAB")
        for name, size in zip(names, sizes):
            patch.setattr(discrete, name, size)
        workspace = discrete._workspace([n_slices], dimension)
        # The tiles fit the buffer unless one d x d block does not.
        entries, _, slab = sizes
        assert workspace[0].size <= max(entries, dimension**2)
        assert workspace[1].size <= slab
        difference, difference_rows = dense_difference_rows(system, grid)
        difference[: n_slices * dimension] *= damp
        largest = plain_max(difference)
        error = discrete._grid_error(n_slices, dimension, difference_rows, workspace)
        assert error == largest
        if isinstance(value, tuple):
            scale, phase = value
            value = scale * largest * cmath.exp(1j * phase)
        difference[row, column] = value
        error = discrete._grid_error(n_slices, dimension, difference_rows, workspace)
    want = plain_max(difference)
    assert error == want or np.isnan(error) and np.isnan(want)


def test_grid_error_skips_the_forward_blocks_below_the_max(monkeypatch):
    # Tiles of one whole row at d = 1, latest row first; ``taken`` counts
    # per row the entries whose magnitudes were taken.  With the forward
    # rows damped, each backward row's forward columns hold its largest
    # entries and its backward columns at most half of them: every
    # forward tile and every backward row's backward columns are
    # skipped.  With the first row's largest entry planted past the
    # others, that row's tile takes its magnitudes.
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", 16)
    monkeypatch.setattr(discrete, "TILE_ROWS", 1)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    difference, difference_rows = dense_difference_rows(system, grid)
    difference[:8] *= 1e-3
    workspace = discrete._workspace([8], 1)
    taken, tile = {}, []
    absolute = np.abs

    def rows(start, stop, out, span):
        tile[:] = [start]
        return difference_rows(start, stop, out, span)

    def counted(part, out):
        taken[tile[0]] = taken.get(tile[0], 0) + part.size
        return absolute(part, out=out)

    for planted in ({}, {0: 16}):
        taken.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "abs", counted)
            error = discrete._grid_error(8, 1, rows, workspace)
        assert error == plain_max(difference)
        assert taken == {**{row: 8 for row in range(8, 16)}, **planted}
        difference[0, 5] = 2 * error


@pytest.mark.parametrize("entries", [1, 48, 2**16])
def test_fused_rows_keep_nan(monkeypatch, entries):
    # A NaN in any factor of G reaches the error through the real
    # products, and one in the lag-0 block of the Toeplitz term, on the
    # same-index diagonal, as one in the lag-1 block does; an infinity
    # makes the error NaN or infinite.
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", entries)
    system = LevelSystem(1.0, 0.3, Statistics.BOSON)
    grid = TimeGrid(0.0, 1.0, 8)
    fac = _factor(system, [grid])[0]
    d = system.dimension
    room = (d, 0, d)
    clean = verify._green_operands(fac, room)
    green_operands = verify._green_operands

    def error_with(**changes):
        # C is placed into G's set, so each call gets a fresh set; the
        # room for C's factors is filled after the changes.
        monkeypatch.setattr(
            verify,
            "_green_operands",
            lambda fac, room: dataclasses.replace(green_operands(fac, room), **changes),
        )
        # An infinity times a zero is NaN in the products, quietly.
        with np.errstate(invalid="ignore"):
            return oracle_grid_error(system, grid, fac)

    def reaches(error, value):
        return np.isnan(error) if np.isnan(value) else not np.isfinite(error)

    assert np.isfinite(error_with())
    half = len(clean.cross_rows[0])
    for value in (np.nan, np.inf, complex(0.0, -np.inf)):
        for row in (0, 15):
            left = clean.rows[0].copy()
            left[row] = value
            # The forward rows' first cross factor is the same left factor.
            cross = (left[:half], *clean.cross_rows[1:])
            assert reaches(error_with(rows=(left,), cross_rows=cross), value)
        # A value in a cross factor alone reaches the error through the
        # forward rows' backward columns.
        for factor in range(len(clean.cross_rows)):
            cross = list(clean.cross_rows)
            cross[factor] = cross[factor].copy()
            cross[factor][0] = value
            assert reaches(error_with(cross_rows=tuple(cross)), value)
        # In G's column factors, forward and backward, and in its extra
        # column factors, which only the forward rows' backward columns
        # read.
        for column, factor in ((0, 0), (15, 0), (8, -d)):
            columns = clean.columns.copy()
            columns[column, factor] = value
            assert reaches(error_with(columns=columns), value)
        extra = (clean.extra_rows[0].copy(),)
        extra[0][0] = value
        assert reaches(error_with(extra_rows=extra), value)
        left, powers, right = clean.lags
        for lag in (0, 1):
            with_value = powers.copy()
            with_value[:, lag] = value
            assert reaches(error_with(lags=(left, with_value, right)), value)


def test_oracle_suite_rejects_a_nan_error(monkeypatch):
    errors = iter([1e-3, np.nan])
    monkeypatch.setattr(verify, "_largest_entry", lambda *args: next(errors))
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


def difference_rows_build_peak(dimension):
    """``tracemalloc`` peak of building the kernel of G - C at N = 256."""
    system = random_system(np.random.default_rng(41), Statistics.BOSON, dimension)
    grid = TimeGrid(0.0, 1.0, 256)
    fac = _factor(system, [grid])[0]
    difference_kernel(system, grid, fac)
    tracemalloc.start()
    try:
        difference_kernel(system, grid, fac)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_difference_rows_build_peak():
    # Building the kernel of G - C at N = 256, d = 2 keeps the row,
    # column and lag factors of both terms and the lag tables of a
    # block's own square; its buffer for the factors past a block is
    # made by the first block that needs it.  C's lag factors, then its
    # other factors, are placed into G's set, each copied into place
    # once, and no column factor is held twice: the build peaks at
    # 303 KB, against 315 KB for a subtraction that joined two whole
    # sets.  The bound is the peak of the layout that added the continuum
    # jump into the discrete lag tables in place: 346,480 B (numpy 2.4).
    assert difference_rows_build_peak(2) <= 346_480


def test_difference_rows_build_peak_one_level():
    # At d = 1 the lag powers are as large as a column factor.  A
    # subtraction that joined G's and C's whole sets peaked at about
    # 90 KB there; placing C into G's set peaks at about 82 KB (numpy
    # 2.4), within 88,800 B, the peak of the layout before the lag
    # powers were joined.
    assert difference_rows_build_peak(1) <= 88_800


def test_oracle_suite_frees_each_kernel_before_the_next_build(monkeypatch):
    # A grid's kernel and its operand set hold its factors (about 141 KiB
    # at N = 128, d = 2); both must be gone before the next grid's kernel
    # is built.
    kernels = []
    row_kernel = discrete._row_kernel

    def tracked(operands, block):
        assert all(kernel() is None for kernel in kernels)
        rows = row_kernel(operands, block)
        kernels.extend([weakref.ref(rows), weakref.ref(operands)])
        return rows

    monkeypatch.setattr(discrete, "_row_kernel", tracked)
    system = random_system(np.random.default_rng(41), Statistics.BOSON, 2)
    run_oracle_suite(system, [TimeGrid(0.0, 1.0, n) for n in (32, 64, 128)])
    assert len(kernels) == 6


def test_verify_reads_the_discrete_route_through_its_operands():
    # The operand layout of G and its stream have one owner: verify
    # places C into G's set and reads back the largest entry.
    tree = ast.parse(inspect.getsource(verify))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "discrete"
        for alias in node.names
    }
    assert imported == {
        "_factor",
        "_green_operands",
        "_largest_entry",
        "_workspace",
        "contour_times",
    }


def test_grid_error_allocates_no_block():
    # With the caller's workspace, one grid allocates the kernel's buffer
    # for the factors past a tile (59 KiB, kept) and the per-tile real
    # operands of the row factors: 74 KiB at the peak, not a tile
    # (768 KiB).  With numpy's default ufunc buffers the Toeplitz add on
    # a tile's own square took 96 KiB more.
    system = random_system(np.random.default_rng(41), Statistics.BOSON, 2)
    grid = TimeGrid(0.0, 1.0, 256)
    rows = difference_kernel(system, grid, _factor(system, [grid])[0])
    workspace = discrete._workspace([256], 2)
    assert workspace[0].size == discrete.ORACLE_BLOCK_ENTRIES
    tracemalloc.start()
    try:
        error = discrete._grid_error(256, 2, rows, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(error)
    assert peak < discrete.ORACLE_BLOCK_ENTRIES * np.dtype(complex).itemsize / 2


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
    # W -> 1 on the continuum side only: the discrete route reads nbar.
    monkeypatch.setattr(
        LevelSystem, "keldysh_weight", property(lambda system: np.eye(system.dimension))
    )
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_toeplitz_lag_off_by_one(monkeypatch):
    # Every lag of the discrete Toeplitz term moved one block later.  The
    # moved powers are not geometric (zero at lag 1), so the kernel reads
    # them as written only on the columns within a block's height of its
    # first row: one block per grid puts every lag there.
    green_operands = verify._green_operands

    def later(fac, room):
        operands = green_operands(fac, room)
        left, powers, right = operands.lags
        moved = np.zeros_like(powers)
        moved[:, 1:] = powers[:, :-1]
        return dataclasses.replace(operands, lags=(left, moved, right))

    monkeypatch.setattr(verify, "_green_operands", later)
    monkeypatch.setattr(discrete, "ORACLE_BLOCK_ENTRIES", (2 * 128 * 2) ** 2)
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_symmetric_step_in_g(monkeypatch):
    # G's lag-0 powers 1/2: its same-index diagonal blocks take the mean
    # of the greater and the lesser weight, the symmetric step, and are
    # off by i/2 from the contour-ordered prediction.
    green_operands = verify._green_operands

    def symmetric(fac, room):
        operands = green_operands(fac, room)
        left, powers, right = operands.lags
        powers = powers.copy()
        powers[:, 0] = 0.5
        return dataclasses.replace(operands, lags=(left, powers, right))

    monkeypatch.setattr(verify, "_green_operands", symmetric)
    assert not all(c.passed for c in oracle_mutant_checks())


def test_oracle_fails_with_flipped_cross_branch_term(monkeypatch):
    green_operands = verify._green_operands

    def flipped(fac, room):
        # G's extra factors carry its cross-branch term alone.
        operands = green_operands(fac, room)
        extra = tuple(-rows for rows in operands.extra_rows)
        return dataclasses.replace(operands, extra_rows=extra)

    monkeypatch.setattr(verify, "_green_operands", flipped)
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
