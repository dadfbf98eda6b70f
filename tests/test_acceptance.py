"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the printed
PASS/FAIL lines while the assertions enforce them.
"""

import cmath
import json
import time

import numpy as np

from contourgf import (
    ContourComponent,
    KeldyshComponent,
    LevelSystem,
    Statistics,
    TimeGrid,
    component_table,
    run_oracle_suite,
    run_structure_suite,
)
from contourgf.cli import build_run_config, main
from contourgf.continuum import thermal_nbar
from contourgf.discrete import _factor

from conftest import random_system, taylor_propagator
from gf_reference import iter_samples

STRUCTURE_THRESHOLD = 1e-12


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    return ok


def test_acceptance_1_structure_suite():
    start = time.perf_counter()
    failures = []
    for statistics in Statistics:
        for dimension in (1, 2, 3):
            for draw in range(5):
                rng = np.random.default_rng(1000 + draw)
                system = random_system(rng, statistics, dimension)
                checks = run_structure_suite(
                    system, seed=draw, threshold=STRUCTURE_THRESHOLD
                )
                for check in checks:
                    if not check.passed:
                        failures.append(
                            f"{statistics.value} d={dimension} draw={draw} "
                            f"{check.name}={check.observed:.3e}"
                        )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    detail = "; ".join(failures[:3]) if failures else f"runtime {elapsed:.1f}s"
    assert _report(1, "closed-form structure suite", ok, detail)


def test_acceptance_2_oracle_equivalence():
    start = time.perf_counter()
    grids = [TimeGrid(0.0, 1.0, n) for n in (32, 64, 128)]
    problems = []
    for statistics in Statistics:
        for dimension in (1, 2):
            rng = np.random.default_rng(77)
            system = random_system(rng, statistics, dimension)
            report = run_oracle_suite(system, grids)
            label = f"{statistics.value} d={dimension}"
            for size, err, bound in zip(
                report.grid_sizes, report.errors, report.error_bounds
            ):
                if err > bound:
                    problems.append(f"{label} N={size}: {err:.3e} > {bound:.3e}")
            if not 0.8 <= report.fitted_order <= 1.2:
                problems.append(f"{label} order {report.fitted_order:.3f}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    assert _report(
        2, "discrete oracle equivalence", ok, "; ".join(problems[:3])
    )


def partition_function(system, n_slices):
    """Z on ``n_slices`` slices of [0, 1], as ``z`` computes it."""
    (fac,) = _factor(system, [TimeGrid(0.0, 1.0, n_slices)])
    return fac.partition_function


def test_acceptance_3_partition_function():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(55)
    cases = [
        LevelSystem(1.0, 1.0, Statistics.BOSON),
        LevelSystem(1.0, 0.4, Statistics.FERMION),
        random_system(rng, Statistics.BOSON, 2),
        random_system(rng, Statistics.FERMION, 2),
    ]
    for system in cases:
        label = f"{system.statistics.value} d={system.dimension}"
        anchor = abs(partition_function(system, 32) - 1.0)
        # The constant in the O(1/N) envelope, estimated at N = 32 with
        # a 10% margin for the approach to the asymptote.
        constant = 1.1 * 32 * anchor
        previous = anchor
        for n in (64, 128, 256):
            deviation = abs(partition_function(system, n) - 1.0)
            if deviation > constant / n:
                problems.append(
                    f"{label} N={n}: {deviation:.3e} > {constant / n:.3e}"
                )
            if deviation >= previous:
                problems.append(f"{label} N={n}: deviation not decreasing")
            previous = deviation
    for system in (
        LevelSystem(0.0, 1.5, Statistics.BOSON),
        LevelSystem(0.0, 0.6, Statistics.FERMION),
        LevelSystem(1.3, 0.0, Statistics.BOSON),
        LevelSystem(1.3, 0.0, Statistics.FERMION),
    ):
        deviation = abs(partition_function(system, 64) - 1.0)
        if deviation > 1e-13:
            problems.append(
                f"exact case {system.statistics.value}: {deviation:.3e}"
            )
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    assert _report(3, "partition function identity", ok, "; ".join(problems[:3]))


def test_acceptance_4_thermal_consistency():
    problems = []
    if abs(thermal_nbar(0.7, 0.7, 0.3, Statistics.FERMION) - 0.5) > 1e-15:
        problems.append("fermion at eps = mu")
    if abs(thermal_nbar(np.log(2.0), 0.0, 1.0, Statistics.BOSON) - 1.0) > 1e-14:
        problems.append("boson at log-2 gap")
    # The Keldysh component built from a thermal occupation matches the
    # closed form with the same weight.
    for statistics, mu in ((Statistics.BOSON, -0.5), (Statistics.FERMION, 0.2)):
        levels = np.array([0.6, 1.4])
        occ = np.array(
            [thermal_nbar(float(e), mu, 0.8, statistics) for e in levels]
        )
        system = LevelSystem(np.diag(levels), np.diag(occ), statistics)
        t, t_prime = 0.9, 0.3
        kel = component_table(
            system, [t], [t_prime], KeldyshComponent.KELDYSH, 0.0
        )[0, 0]
        zeta = statistics.zeta
        expected = np.diag(
            [
                -1j * (1 + 2 * zeta * n) * cmath.exp(-1j * e * (t - t_prime))
                for e, n in zip(levels, occ)
            ]
        )
        if np.abs(kel - expected).max() > 1e-13:
            problems.append(f"thermal Keldysh {statistics.value}")
    ok = not problems
    assert _report(4, "thermal consistency", ok, "; ".join(problems))


def classicality_ratio(nbar):
    """The quantum-to-classical weight ``1/W`` of a boson level's
    initial boundary condition, ``W = 1 + 2 nbar`` as the boundary
    condition takes it."""
    weight = LevelSystem(1.0, nbar, Statistics.BOSON).keldysh_weight
    return 1.0 / weight[0, 0].real


def test_acceptance_5_classicality_ratio():
    problems = []
    if classicality_ratio(0.0) != 1.0:
        problems.append("ratio at zero occupation")
    if classicality_ratio(49.5) > 0.01:
        problems.append("ratio at occupation 49.5")
    grid = np.logspace(-3.0, 3.0, 100)
    values = [classicality_ratio(v) for v in grid]
    if not all(a > b for a, b in zip(values, values[1:])):
        problems.append("not strictly decreasing")
    ok = not problems
    assert _report(5, "classicality ratio limits", ok, "; ".join(problems))


def test_acceptance_6_many_level_reduction():
    problems = []
    components = [
        KeldyshComponent.RETARDED,
        KeldyshComponent.ADVANCED,
        KeldyshComponent.KELDYSH,
        *ContourComponent,
    ]
    pairs = ((0.8, 0.2), (0.2, 0.8), (0.5, 0.5))
    for statistics in Statistics:
        levels = np.array([0.4, -1.1, 2.3])
        occupations = np.array([0.15, 0.6, 0.9])
        many = LevelSystem(np.diag(levels), np.diag(occupations), statistics)
        singles = [
            LevelSystem(float(e), float(n), statistics)
            for e, n in zip(levels, occupations)
        ]
        for component in components:
            for t, t_prime in pairs:
                block = component_table(
                    many, [t], [t_prime], component, 0.0
                )[0, 0]
                expected = np.diag(
                    [
                        component_table(
                            single, [t], [t_prime], component, 0.0
                        )[0, 0, 0, 0]
                        for single in singles
                    ]
                )
                if np.abs(block - expected).max() > 1e-13:
                    problems.append(
                        f"diagonal {statistics.value} {component.value}"
                    )
    # Non-commuting case against the series-propagator oracle.
    for statistics in Statistics:
        rng = np.random.default_rng(91)
        system = random_system(rng, statistics, 2)
        weight = np.eye(2) + 2 * statistics.zeta * system.nbar.T
        for t, t_prime in pairs:
            kel = component_table(
                system, [t], [t_prime], KeldyshComponent.KELDYSH, 0.0
            )[0, 0]
            left = taylor_propagator(system.epsilon, t)
            right = taylor_propagator(system.epsilon, t_prime)
            oracle = -1j * left @ weight @ right.conj().T
            if np.abs(kel - oracle).max() > 1e-12:
                problems.append(f"non-commuting {statistics.value}")
    ok = not problems
    assert _report(6, "many-level reduction", ok, "; ".join(problems[:3]))


def test_acceptance_7_cli_round_trip(tmp_path):
    problems = []
    raw = {
        "statistics": "fermion",
        "epsilon": 0.9,
        "nbar": 0.35,
        "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": 5},
        "output": {
            "format": "csv",
            "components": ["R", "A", "K", "+-"],
            "path": str(tmp_path / "table.csv"),
        },
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(raw))
    if main(["gf", "--config", str(config_path)]) != 0:
        problems.append("gf exit code")
    samples = list(iter_samples(build_run_config(raw)))
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()[1:]
    if len(lines) != len(samples):
        problems.append("row count")
    else:
        for line, sample in zip(lines, samples):
            t, t_prime, comp, row, col, re, im = line.split(",")
            if (
                float(t) != sample.t
                or float(t_prime) != sample.t_prime
                or comp != sample.component
                or int(row) != sample.row
                or int(col) != sample.col
                or float(re) != sample.value.real
                or float(im) != sample.value.imag
            ):
                problems.append(f"round trip mismatch at {line}")
                break
    verify_raw = {
        "statistics": "boson",
        "epsilon": 1.0,
        "nbar": 0.7,
        "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": [16, 32]},
        "output": {"format": "json", "path": str(tmp_path / "report.json")},
    }
    verify_path = tmp_path / "verify.json"
    verify_path.write_text(json.dumps(verify_raw))
    if main(["verify", "--config", str(verify_path)]) != 0:
        problems.append("verify exit code on passing fixture")
    if main(["verify", "--config", str(verify_path), "--corrupt-keldysh"]) != 1:
        problems.append("verify exit code on corrupted fixture")
    ok = not problems
    assert _report(7, "CLI round trip", ok, "; ".join(problems[:3]))
