"""Cost curves of the continuum layer over d.

``fix_constants`` and ``run_structure_suite`` are timed for d in
{1, 2, 4, 8, 16}, both statistics, with energy and occupation matrices
in independent random eigenbases so the two do not commute.  Each case
also records, in ``extra_info``, the ``tracemalloc`` peak of one untimed
call, and a suite case the numbers of ``propagator_stack`` and
``np.einsum`` calls it makes.  The systems come from ``cases.py``, so
``ab_inprocess.py OLD_SRC NEW_SRC --structure-suite`` runs the same
suite cases on two trees in interleaved pairs.  The file sits outside
the test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_continuum.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and the other benchmark files.
"""

import numpy as np
import pytest

from contourgf import LevelSystem, Statistics, fix_constants, run_structure_suite
from contourgf import continuum, core, verify

from cases import CONTINUUM_DIMENSIONS as DIMENSIONS
from cases import continuum_matrices, peak_mib


def _system(statistics, dimension):
    """eps in [-1, 1] and nbar evenly spread over the statistics' range."""
    return LevelSystem(*continuum_matrices(statistics.value, dimension), statistics)


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_fix_constants(benchmark, dimension, statistics):
    system = _system(statistics, dimension)
    benchmark.extra_info["peak_mib"] = peak_mib(fix_constants, system)
    benchmark(fix_constants, system)


@pytest.mark.parametrize("statistics", list(Statistics), ids=lambda s: s.value)
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_structure_suite(benchmark, monkeypatch, dimension, statistics):
    system = _system(statistics, dimension)
    benchmark.extra_info["peak_mib"] = peak_mib(run_structure_suite, system)
    calls, einsums = [], []
    einsum = np.einsum

    def counted(*args):
        calls.append(None)
        return core.propagator_stack(*args)

    def counted_einsum(*args, **kwargs):
        einsums.append(None)
        return einsum(*args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (continuum, verify):
            patch.setattr(module, "propagator_stack", counted)
        patch.setattr(np, "einsum", counted_einsum)
        run_structure_suite(system)
    benchmark.extra_info["propagator_stack_calls"] = len(calls)
    benchmark.extra_info["einsum_calls"] = len(einsums)
    checks = benchmark(run_structure_suite, system)
    assert all(c.passed for c in checks)
