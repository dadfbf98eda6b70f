"""Cost curves of the discrete route over N and d.

``discrete_partition_function`` is timed at N in {64, 1024, 16384,
262144} and ``discrete_green`` at N up to 2 N d = 4096, half the
default contour-matrix cap (the cap itself means a 1 GiB result), for
d in {1, 2, 4}.  Each case also records, in ``extra_info``, the
``tracemalloc`` peak of one untimed call.  The file sits outside the
test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_discrete.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench``: numpy and scipy each bring an
OpenBLAS thread pool, and on a two-core machine a threaded product in
some processes waits ~15 ms for the other pool's threads.
"""

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

DIMENSIONS = [1, 2, 4]
PARTITION_SLICES = [64, 1024, 16384, 262144]
GREEN_DIMENSION_LIMIT = 4096
GREEN_SLICES = [64, 256, 1024, 2048]


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
