"""Cost curve of the ``gf`` command over N and d, for both formats.

Each case runs ``cli.main(["gf", ...])`` end to end, config loading and
component evaluation included, with standard output replaced by a sink
that counts and discards what is written.  The components are R and K
of one boson system whose energy and occupation do not commute.  Each
case records, in ``extra_info``, the rows written, the rows per second
at the median time, and the ``tracemalloc`` peak of one untimed call.
``test_formatter`` times the formatter of gf's doubles alone, on the
doubles of one of those tables, at kernel blocks of 512 to 8,192
doubles, beside CPython's ``%`` of the same doubles.
The file sits outside the test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_gf_writer.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-min-rounds=3 \\
        --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and the other benchmark files.
``benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --gf-writer`` runs the same
cases on two trees in interleaved pairs.
"""

import contextlib
import json
import statistics
import time

import numpy as np
import pytest

from cases import peak_mib, random_matrices

SLICES = [30, 120, 480]
DIMENSIONS = [1, 2]
COMPONENTS = ["R", "K"]


class _Sink:
    """A text stream that keeps only the count of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def gf_config(dimension, n_slices, output_format) -> dict:
    """The config of one case, as its JSON object."""
    epsilon, nbar = (
        {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}
        for matrix in random_matrices(dimension, np.linspace(0.2, 1.2, dimension))
    )
    return {
        "statistics": "boson",
        "epsilon": epsilon,
        "nbar": nbar,
        "grid": {"t_initial": 0.0, "t_final": 2.0, "n_slices": n_slices},
        "output": {"format": output_format, "components": COMPONENTS, "path": None},
    }


def _config(tmp_path, dimension, n_slices, output_format):
    path = tmp_path / "gf.json"
    path.write_text(json.dumps(gf_config(dimension, n_slices, output_format)))
    return str(path)


def _gf(config):
    # Imported here, so that benchmarks/ab_inprocess.py can take the cases
    # of this file beside two trees of its own.
    from contourgf import cli

    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["gf", "--config", config])
    assert code == 0
    return sink.chars


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", SLICES)
def test_gf_writer(benchmark, tmp_path, n_slices, dimension, output_format):
    config = _config(tmp_path, dimension, n_slices, output_format)
    rows = len(COMPONENTS) * (n_slices + 1) ** 2 * dimension**2
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["peak_mib"] = peak_mib(_gf, config)
    chars = benchmark(_gf, config)
    benchmark.extra_info["chars"] = chars
    benchmark.extra_info["rows_per_s"] = rows / benchmark.stats.stats.median


# Block sizes of the formatter's kernel timed by test_formatter.
FORMAT_BLOCKS = [512, 1024, 2048, 4096, 8192]
# Doubles formatted per timed call: the first of the K table below.
FORMAT_DOUBLES = 16_384


def _table_doubles():
    """The doubles of the K table of the d = 2 case at N = 120, in
    table order: what gf formats in place."""
    from contourgf import cli

    config = cli.build_run_config(gf_config(2, 120, "json"))
    (grid,) = config.grids
    table = cli.component_table(
        config.system, grid.times, grid.times, cli.COMPONENT_NAMES["K"], grid.t_initial
    )
    return table.reshape(-1).view(np.float64)[:FORMAT_DOUBLES].copy()


@pytest.mark.parametrize("spec", ["%r", "%.17g"])
@pytest.mark.parametrize("block", FORMAT_BLOCKS)
def test_formatter(benchmark, monkeypatch, block, spec):
    """Doubles per second of ``_doubles.format_doubles`` with its kernel
    on blocks of ``block`` doubles, against CPython's ``%`` of the same
    doubles one at a time (``cpython_doubles_per_s``, the median of five
    passes), and the ``tracemalloc`` peak of one call per double."""
    from contourgf import _doubles

    monkeypatch.setattr(_doubles, "BLOCK", block)
    values = _table_doubles()
    words = values.tolist()
    expected = [(spec % x).encode() for x in words]
    assert _doubles.format_doubles(values, spec).tolist() == expected
    peak = peak_mib(_doubles.format_doubles, values, spec) * 2**20
    cpython = []
    for _ in range(5):
        start = time.perf_counter()
        [spec % x for x in words]
        cpython.append(time.perf_counter() - start)
    benchmark(_doubles.format_doubles, values, spec)
    median = benchmark.stats.stats.median
    benchmark.extra_info["doubles"] = values.size
    benchmark.extra_info["doubles_per_s"] = values.size / median
    benchmark.extra_info["cpython_doubles_per_s"] = values.size / statistics.median(cpython)
    benchmark.extra_info["peak_bytes_per_double"] = peak / values.size
