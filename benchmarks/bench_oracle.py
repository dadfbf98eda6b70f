"""Cost curves of the oracle suite over N and d.

``run_oracle_suite`` is timed on the grid pair (N / 2, N) for N in
{64, 128, ..., 4096} and d in {1, 2, 4}, up to 2 N d = 8192, the
default cap, which each d reaches.  The cases come from ``cases.py``, so
``ab_inprocess.py OLD_SRC NEW_SRC --oracle-suite`` runs the same suite
cases on two trees in interleaved pairs, the comparison to decide the
curve by: separate pytest-benchmark passes of two trees are not
interleaved.  Each case also records, in ``extra_info``, the
``tracemalloc`` peak of one untimed call and the size a dense discrete
inverse of the finer grid would have, which the streamed suite never
allocates.  ``test_grid_error`` times the per-grid layer on the same
N and d: the comparison of one grid, the continuum prediction placed
into the discrete inverse's operands and ``discrete._largest_entry`` of
them, from a factorization and a workspace made before the timing, as
the suite makes its workspace once for all grids; its peak is that of
one untimed call.  Cases are timed by ``benchmark(...)``, so the warm-up and
``--benchmark-max-time`` flags below set how long each case warms up
and runs (at least five rounds).  The file sits outside the test paths;
run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_oracle.py --benchmark-warmup=on \\
        --benchmark-max-time=1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and ``bench_discrete.py``.
"""

import pytest

from contourgf import LevelSystem, Statistics, TimeGrid, run_oracle_suite, verify
from contourgf.discrete import _factor, _green_operands, _largest_entry, _workspace

from cases import ORACLE_DIMENSION_LIMIT as DIMENSION_LIMIT
from cases import ORACLE_DIMENSIONS as DIMENSIONS
from cases import ORACLE_SLICES as SLICES
from cases import oracle_matrices, peak_mib


def _system(dimension):
    """Boson levels with eps in [-1, 1] and nbar in [0.2, 1.5], in
    independent random eigenbases so the two do not commute."""
    return LevelSystem(*oracle_matrices(dimension), Statistics.BOSON)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", SLICES)
def test_oracle_suite(benchmark, dimension, n_slices):
    total = 2 * n_slices * dimension
    if total > DIMENSION_LIMIT:
        pytest.skip("contour dimension above the benchmarked size")
    system = _system(dimension)
    grids = [TimeGrid(0.0, 1.0, n_slices // 2), TimeGrid(0.0, 1.0, n_slices)]
    benchmark.extra_info["peak_mib"] = peak_mib(run_oracle_suite, system, grids)
    benchmark.extra_info["inverse_mib"] = total**2 * 16 / 2**20
    report = benchmark(run_oracle_suite, system, grids)
    assert all(e < b for e, b in zip(report.errors, report.error_bounds))


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", SLICES)
def test_grid_error(benchmark, dimension, n_slices):
    if 2 * n_slices * dimension > DIMENSION_LIMIT:
        pytest.skip("contour dimension above the benchmarked size")
    system = _system(dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    fac = _factor(system, [grid])[0]
    workspace = _workspace([n_slices], dimension)

    def grid_error():
        operands = _green_operands(fac, (dimension, 0, dimension))
        verify._continuum_operands(system, grid, operands)
        return _largest_entry(operands, workspace)

    benchmark.extra_info["peak_mib"] = peak_mib(grid_error)
    error = benchmark(grid_error)
    assert error < verify.oracle_error_bound(system, grid)
