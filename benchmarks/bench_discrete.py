"""Cost curves of the discrete route over N and d.

``discrete_partition_function`` is timed at N in {64, 1024, 16384,
262144} and ``discrete_green`` at N up to 2 N d = 4096, half the
default contour-matrix cap (the cap itself means a 1 GiB result), for
d in {1, 2, 4}.  The factorizations of one run are timed over its
number of grids G in {1, 3, 8} (N = 192, 384, ..., as perfbench's
``partition`` workload), as the one stacked ``_factor`` call (the
layer) and as a ``z`` command through ``cli.main`` (the command that
contains it).  Each case also records, in ``extra_info``, the
``tracemalloc`` peak of one untimed call.  The file sits outside the
test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_discrete.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench``, so that the curves do not
depend on the thread count of the machine.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from contourgf import (
    LevelSystem,
    Statistics,
    TimeGrid,
    discrete_green,
    discrete_partition_function,
)
from contourgf.cli import main
from contourgf.discrete import _factor

DIMENSIONS = [1, 2, 4]
PARTITION_SLICES = [64, 1024, 16384, 262144]
GREEN_DIMENSION_LIMIT = 4096
GREEN_SLICES = [64, 256, 1024, 2048]
RUN_GRIDS = [1, 3, 8]


def _system(dimension):
    """Fermion levels with eps in [-1, 1] and nbar in [0.2, 0.8], in
    independent random eigenbases so the two do not commute."""
    rng = np.random.default_rng(dimension)

    def hermitian(spectrum):
        gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        basis, _ = np.linalg.qr(gauss)
        return (basis * spectrum) @ basis.conj().T

    epsilon = hermitian(rng.uniform(-1.0, 1.0, size=dimension))
    nbar = hermitian(np.linspace(0.2, 0.8, dimension))
    return LevelSystem(epsilon, nbar, Statistics.FERMION)


def _record_peak(benchmark, func, *args):
    tracemalloc.start()
    try:
        func(*args)
        benchmark.extra_info["peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", PARTITION_SLICES)
def test_partition_function(benchmark, dimension, n_slices):
    system = _system(dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    _record_peak(benchmark, discrete_partition_function, system, grid)
    z = benchmark(discrete_partition_function, system, grid)
    assert np.isfinite(z)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", GREEN_SLICES)
def test_green(benchmark, dimension, n_slices):
    if 2 * n_slices * dimension > GREEN_DIMENSION_LIMIT:
        pytest.skip("result above the benchmarked size")
    system = _system(dimension)
    grid = TimeGrid(0.0, 1.0, n_slices)
    _record_peak(benchmark, discrete_green, system, grid)
    gf = benchmark.pedantic(discrete_green, args=(system, grid), rounds=5, iterations=1)
    assert np.isfinite(gf.partition_function)


def _run_slices(grid_count):
    return [192 * 2**i for i in range(grid_count)]


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("grid_count", RUN_GRIDS)
def test_run_factorization(benchmark, dimension, grid_count):
    system = _system(dimension)
    grids = [TimeGrid(0.0, 1.0, n) for n in _run_slices(grid_count)]
    _record_peak(benchmark, _factor, system, grids)
    factorizations = benchmark(_factor, system, grids)
    assert all(np.isfinite(fac.partition_function) for fac in factorizations)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("grid_count", RUN_GRIDS)
def test_z_command(benchmark, tmp_path, dimension, grid_count):
    system = _system(dimension)
    config = tmp_path / "z.json"
    matrices = {
        name: {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}
        for name, matrix in (("epsilon", system.epsilon), ("nbar", system.nbar))
    }
    grid = {"t_initial": 0.0, "t_final": 1.0, "n_slices": _run_slices(grid_count)}
    config.write_text(
        json.dumps(
            {"statistics": "fermion", **matrices, "grid": grid, "output": {"format": "json"}}
        )
    )

    def z_command():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["z", "--config", str(config)])
        return code, out.getvalue()

    _record_peak(benchmark, z_command)
    code, text = benchmark(z_command)
    assert code == 0
    assert len(json.loads(text)) == grid_count
