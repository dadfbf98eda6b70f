"""Cost curves of the continuum layer over d.

``fix_constants`` and ``run_structure_suite`` are timed for d in
{1, 2, 4, 8, 16}, both statistics, with energy and occupation matrices
in independent random eigenbases so the two do not commute.  Each case
also records, in ``extra_info``, the ``tracemalloc`` peak of one untimed
call.  The file sits outside the test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_continuum.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and the other benchmark files.
"""

import tracemalloc

import numpy as np
import pytest

from contourgf import LevelSystem, Statistics, fix_constants, run_structure_suite

DIMENSIONS = [1, 2, 4, 8, 16]
OCCUPATIONS = {Statistics.BOSON: (0.0, 3.0), Statistics.FERMION: (0.05, 0.95)}


def _system(statistics, dimension):
    """eps in [-1, 1] and nbar evenly spread over the statistics' range."""
    rng = np.random.default_rng(dimension)

    def hermitian(spectrum):
        gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        basis, _ = np.linalg.qr(gauss)
        return (basis * spectrum) @ basis.conj().T

    low, high = OCCUPATIONS[statistics]
    epsilon = hermitian(rng.uniform(-1.0, 1.0, size=dimension))
    nbar = hermitian(low + (high - low) * (np.arange(dimension) + 0.5) / dimension)
    return LevelSystem(epsilon, nbar, statistics)


def _peak_mib(func, *args, **kwargs):
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_fix_constants(benchmark, dimension, statistics):
    system = _system(statistics, dimension)
    benchmark.extra_info["peak_mib"] = _peak_mib(fix_constants, system)
    benchmark(fix_constants, system)


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_structure_suite(benchmark, dimension, statistics):
    system = _system(statistics, dimension)
    benchmark.extra_info["peak_mib"] = _peak_mib(run_structure_suite, system)
    checks = benchmark(run_structure_suite, system)
    assert all(c.passed for c in checks)
