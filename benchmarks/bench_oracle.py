"""Cost curves of the oracle suite over N and d.

``run_oracle_suite`` is timed on the grid pair (N / 2, N) for N in
{64, 128, 256, 512, 1024} and d in {1, 2, 4}, up to 2 N d = 2048: there
a comparison that builds the dense continuum matrix peaks near 0.5 GiB.
Each case also records, in ``extra_info``, the ``tracemalloc`` peak of
one untimed call and the bytes of the discrete inverse on the finer
grid.  The file sits outside the test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_oracle.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and ``bench_discrete.py``.
"""

import tracemalloc

import numpy as np
import pytest

from contourgf import LevelSystem, Statistics, TimeGrid, run_oracle_suite

DIMENSIONS = [1, 2, 4]
SLICES = [64, 128, 256, 512, 1024]
DIMENSION_LIMIT = 2048


def _system(dimension):
    """Boson levels with eps in [-1, 1] and nbar in [0.2, 1.5], in
    independent random eigenbases so the two do not commute."""
    rng = np.random.default_rng(dimension)

    def hermitian(spectrum):
        gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        basis, _ = np.linalg.qr(gauss)
        return (basis * spectrum) @ basis.conj().T

    epsilon = hermitian(rng.uniform(-1.0, 1.0, size=dimension))
    nbar = hermitian(np.linspace(0.2, 1.5, dimension))
    return LevelSystem(epsilon, nbar, Statistics.BOSON)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", SLICES)
def test_oracle_suite(benchmark, dimension, n_slices):
    total = 2 * n_slices * dimension
    if total > DIMENSION_LIMIT:
        pytest.skip("contour dimension above the benchmarked size")
    system = _system(dimension)
    grids = [TimeGrid(0.0, 1.0, n_slices // 2), TimeGrid(0.0, 1.0, n_slices)]
    tracemalloc.start()
    try:
        run_oracle_suite(system, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_mib"] = peak / 2**20
    benchmark.extra_info["inverse_mib"] = total**2 * 16 / 2**20
    report = benchmark.pedantic(
        run_oracle_suite, args=(system, grids), rounds=5, iterations=1
    )
    assert all(e < b for e, b in zip(report.errors, report.error_bounds))
