"""Cost curves of the discrete route over N and d.

The partition function is timed at N in {64, 1024, 16384, 262144} for
d in {1, 2, 4}, as ``z`` computes it: one grid of ``_factor``.  No
command builds a dense G; ``bench_oracle.py`` times the streamed rows
that ``verify`` builds.  The factorizations of one run are timed over its
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

import numpy as np
import pytest

from contourgf import LevelSystem, Statistics, TimeGrid
from contourgf.cli import main
from contourgf.discrete import _factor

from cases import peak_mib, random_matrices

DIMENSIONS = [1, 2, 4]
PARTITION_SLICES = [64, 1024, 16384, 262144]
RUN_GRIDS = [1, 3, 8]


def _system(dimension):
    """Fermion levels with eps in [-1, 1] and nbar in [0.2, 0.8], in
    independent random eigenbases so the two do not commute."""
    matrices = random_matrices(dimension, np.linspace(0.2, 0.8, dimension))
    return LevelSystem(*matrices, Statistics.FERMION)


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", PARTITION_SLICES)
def test_partition_function(benchmark, dimension, n_slices):
    system = _system(dimension)
    grids = [TimeGrid(0.0, 1.0, n_slices)]
    benchmark.extra_info["peak_mib"] = peak_mib(_factor, system, grids)
    (fac,) = benchmark(_factor, system, grids)
    assert np.isfinite(fac.partition_function)


def _run_slices(grid_count):
    return [192 * 2**i for i in range(grid_count)]


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("grid_count", RUN_GRIDS)
def test_run_factorization(benchmark, dimension, grid_count):
    system = _system(dimension)
    grids = [TimeGrid(0.0, 1.0, n) for n in _run_slices(grid_count)]
    benchmark.extra_info["peak_mib"] = peak_mib(_factor, system, grids)
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

    benchmark.extra_info["peak_mib"] = peak_mib(z_command)
    code, text = benchmark(z_command)
    assert code == 0
    assert len(json.loads(text)) == grid_count
