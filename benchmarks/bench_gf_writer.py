"""Cost curve of the ``gf`` command over N and d, for both formats.

Each case runs ``cli.main(["gf", ...])`` end to end, config loading and
component evaluation included, with standard output replaced by a sink
that counts and discards what is written.  The components are R and K
of one boson system whose energy and occupation do not commute.  Each
case records, in ``extra_info``, the rows written, the rows per second
at the median time, and the ``tracemalloc`` peak of one untimed call.
The file sits outside the test paths; run it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_gf_writer.py --benchmark-warmup=on \\
        --benchmark-max-time=0.1 --benchmark-min-rounds=3 \\
        --benchmark-json=BENCH.json

One BLAS thread, as in ``perfbench`` and the other benchmark files.
"""

import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from contourgf import cli

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


def _config(tmp_path, dimension, n_slices, output_format):
    rng = np.random.default_rng(dimension)

    def hermitian(spectrum):
        gauss = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
            size=(dimension, dimension)
        )
        basis, _ = np.linalg.qr(gauss)
        matrix = (basis * spectrum) @ basis.conj().T
        return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}

    raw = {
        "statistics": "boson",
        "epsilon": hermitian(rng.uniform(-1.0, 1.0, size=dimension)),
        "nbar": hermitian(np.linspace(0.2, 1.2, dimension)),
        "grid": {"t_initial": 0.0, "t_final": 2.0, "n_slices": n_slices},
        "output": {"format": output_format, "components": COMPONENTS, "path": None},
    }
    path = tmp_path / "gf.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _gf(config):
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["gf", "--config", config])
    assert code == 0
    return sink.chars


def _peak_mib(config):
    tracemalloc.start()
    try:
        _gf(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("n_slices", SLICES)
def test_gf_writer(benchmark, tmp_path, n_slices, dimension, output_format):
    config = _config(tmp_path, dimension, n_slices, output_format)
    rows = len(COMPONENTS) * (n_slices + 1) ** 2 * dimension**2
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["peak_mib"] = _peak_mib(config)
    chars = benchmark(_gf, config)
    benchmark.extra_info["chars"] = chars
    benchmark.extra_info["rows_per_s"] = rows / benchmark.stats.stats.median
