"""Tests for the command-line interface."""

import errno
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from contourgf import _doubles, cli
from contourgf.cli import (
    COMPONENT_NAMES,
    GF_ROW_CHUNK,
    ConfigError,
    apply_overrides,
    build_run_config,
    load_config,
    main,
)
from contourgf.core import IllConditionedWarning, LevelSystem, Statistics, TimeGrid
from contourgf.discrete import _factor

from conftest import random_hermitian, random_unitary
from gf_reference import gf_text, iter_samples

SRC = str(Path(__file__).resolve().parents[1] / "src")

BASE_CONFIG = {
    "statistics": "boson",
    "epsilon": 1.0,
    "nbar": 0.0,
    "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": 4},
    "output": {"format": "csv", "components": ["R"], "path": None},
}


def write_config(tmp_path, overrides=None, name="run.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_gf_csv_grid(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["gf", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,t_prime,component,row,col,re,im"
    assert len(lines) == 1 + 25
    # |G_R|^2 is 1 below the diagonal, 1/4 on it, 0 above.
    counts = {0.0: 0, 0.25: 0, 1.0: 0}
    for line in lines[1:]:
        t, t_prime, comp, row, col, re, im = line.split(",")
        assert comp == "R"
        mag = float(re) ** 2 + float(im) ** 2
        counts[round(mag, 12)] += 1
    assert counts == {0.0: 10, 0.25: 5, 1.0: 10}


def test_gf_zero_component(tmp_path, capsys):
    config = write_config(tmp_path, {"output.components": ["qq"]})
    assert main(["gf", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert line.endswith(",0,0")


def test_gf_csv_reparse_bit_exact(tmp_path):
    out = tmp_path / "table.csv"
    config = write_config(
        tmp_path,
        {
            "statistics": "fermion",
            "epsilon": 0.7,
            "nbar": 0.3,
            "output.components": ["R", "K", "+-"],
            "output.path": str(out),
        },
    )
    assert main(["gf", "--config", config]) == 0
    samples = list(
        iter_samples(build_run_config(json.loads((tmp_path / "run.json").read_text())))
    )
    lines = out.read_text().strip().splitlines()[1:]
    assert len(lines) == len(samples)
    for line, sample in zip(lines, samples):
        t, t_prime, comp, row, col, re, im = line.split(",")
        assert float(t) == sample.t
        assert float(t_prime) == sample.t_prime
        assert comp == sample.component
        assert (int(row), int(col)) == (sample.row, sample.col)
        assert float(re) == sample.value.real
        assert float(im) == sample.value.imag


def test_gf_csv_bit_stable_across_runs(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    config = write_config(tmp_path, {"epsilon": 1.3, "nbar": 0.9})
    assert main(["gf", "--config", config, "--output.path", str(first)]) == 0
    assert main(["gf", "--config", config, "--output.path", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gf_json_matches_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    config = write_config(tmp_path, {"nbar": 0.4, "output.components": ["K", "A"]})
    assert main(["gf", "--config", config, "--output.path", str(csv_path)]) == 0
    assert (
        main(
            [
                "gf",
                "--config",
                config,
                "--output.format",
                "json",
                "--output.path",
                str(json_path),
            ]
        )
        == 0
    )
    records = json.loads(json_path.read_text())
    lines = csv_path.read_text().strip().splitlines()[1:]
    assert len(records) == len(lines)
    for record, line in zip(records, lines):
        t, t_prime, comp, row, col, re, im = line.split(",")
        assert record["t"] == float(t)
        assert record["t_prime"] == float(t_prime)
        assert record["component"] == comp
        assert record["row"] == int(row)
        assert record["col"] == int(col)
        assert record["re"] == float(re)
        assert record["im"] == float(im)


def test_gf_matrix_epsilon_via_nested_lists(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "epsilon": [[1.0, 0.2], [0.2, -0.4]],
            "nbar": [[0.5, 0.0], [0.0, 0.1]],
        },
    )
    assert main(["gf", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 25 * 4


# Both parts given with different shapes: broadcasting them would make a
# matrix the config does not write.
@pytest.mark.parametrize(
    "parts, shapes",
    [
        ({"re": 1, "im": [[0, 0.5], [-0.5, 0]]}, ("()", "(2, 2)")),
        ({"re": [[1, 1]], "im": [[0], [0]]}, ("(1, 2)", "(2, 1)")),
    ],
)
@pytest.mark.parametrize("field", ["epsilon", "nbar"])
def test_re_im_parts_of_different_shapes_are_config_error(
    tmp_path, capsys, field, parts, shapes
):
    other = "nbar" if field == "epsilon" else "epsilon"
    config = write_config(tmp_path, {field: parts, other: [[1.0, 0.0], [0.0, 0.5]]})
    assert main(["z", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{field}.re has shape {shapes[0]} but {field}.im has shape {shapes[1]}" in err


# Components for the byte-identity tests: both bases, two aliases
# ("11" is R, "qq" the zero block) and the Keldysh weight.
REFERENCE_COMPONENTS = ["R", "11", "qq", "-+", "K"]


def _matrix_config(tmp_path, dimension, overrides):
    """Config of a random boson system with non-commuting eps and nbar."""
    rng = np.random.default_rng(dimension)

    def parts(matrix):
        return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}

    return write_config(
        tmp_path,
        {
            "epsilon": parts(random_hermitian(rng, dimension, -1.5, 1.5)),
            "nbar": parts(random_hermitian(rng, dimension, 0.2, 1.2)),
            "grid.t_initial": 0.25,
            "grid.t_final": 1.5,
            **overrides,
        },
    )


def _gf_output(config, capsys, sink, tmp_path):
    """Bytes ``gf`` writes to stdout or to ``output.path``."""
    if sink == "stdout":
        assert main(["gf", "--config", config]) == 0
        return capsys.readouterr().out
    out = tmp_path / "table.out"
    assert main(["gf", "--config", config, "--output.path", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("sink", ["stdout", "path"])
@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
# N + 1 rows below, at and one above a chunk of 8 rows, and three chunks.
@pytest.mark.parametrize("n_slices", [4, 7, 8, 20])
def test_gf_matches_per_entry_reference(
    tmp_path, capsys, monkeypatch, sink, output_format, dimension, n_slices
):
    monkeypatch.setattr(cli, "GF_ROW_CHUNK", 8)
    config = _matrix_config(
        tmp_path,
        dimension,
        {
            "grid.n_slices": n_slices,
            "output.format": output_format,
            "output.components": REFERENCE_COMPONENTS,
        },
    )
    expected = gf_text(load_config(config, []))
    assert _gf_output(config, capsys, sink, tmp_path) == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize(
    "n_slices", [30, GF_ROW_CHUNK - 1, GF_ROW_CHUNK, GF_ROW_CHUNK + 44]
)
def test_gf_matches_per_entry_reference_at_the_row_chunk(
    tmp_path, capsys, output_format, n_slices
):
    config = _matrix_config(
        tmp_path,
        1,
        {
            "grid.n_slices": n_slices,
            "output.format": output_format,
            "output.components": ["11", "K"] if n_slices == 30 else ["+-"],
        },
    )
    expected = gf_text(load_config(config, []))
    assert _gf_output(config, capsys, "path", tmp_path) == expected


# Doubles whose %.17g and repr forms differ in kind: -0 against -0.0,
# 2 against 2.0, the least subnormal, the largest finite double and an
# exponent form.  0.0 equals -0.0 as a float, so a writer that looks up
# a double's text by its value, not its bits, prints one for the other.
# An odd count puts each in both the real and the imaginary slot.
EDGE_DOUBLES = [
    -0.0, 0.0, 5e-324, 1.7976931348623157e308, 2.0, 0.1, 1.0 / 3.0, -2.0, 1e-05,
]


def _edge_table(system, t_values, t_prime_values, component, t_ref):
    d = system.dimension
    shape = (len(t_values), len(t_prime_values), d, d, 2)
    return np.resize(np.array(EDGE_DOUBLES), shape).view(complex)[..., 0]


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_gf_edge_doubles_match_reference(
    tmp_path, capsys, monkeypatch, output_format, dimension
):
    monkeypatch.setattr(cli, "component_table", _edge_table)
    deduplicated = _distinct_bits_spy(monkeypatch)
    # Four rows are formatted in place; twelve from their distinct doubles.
    for n_slices, from_distinct in ((3, []), (11, [True, True])):
        config = _matrix_config(
            tmp_path,
            dimension,
            {
                "grid.n_slices": n_slices,
                "output.format": output_format,
                "output.components": ["R", "A"],
            },
        )
        expected = gf_text(load_config(config, []))
        deduplicated.clear()
        out = _gf_output(config, capsys, "stdout", tmp_path)
        assert deduplicated == from_distinct
        assert out == expected
        if output_format == "csv":
            assert ",-0," in out and ",2," in out and ",4.9406564584124654e-324" in out
            assert ",-0\n" in out and ",0\n" in out
        else:
            assert '"re": -0.0' in out and ": 2.0," in out
            assert "1.7976931348623157e+308" in out
            assert '"im": -0.0}' in out and '"im": 0.0}' in out


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_gf_with_every_word_from_cpython_matches_reference(
    tmp_path, capsys, monkeypatch, output_format
):
    """The formatter's CPython fallback alone, for every lane of both row
    assemblies, times included, prints the reference bytes."""
    kernel = _doubles._kernel

    def nothing_certain(x, spec, out):
        kernel(x, spec, out)
        out[:] = ord("?")
        return np.ones(len(x), dtype=bool)

    monkeypatch.setattr(_doubles, "_kernel", nothing_certain)
    for n_slices in (3, 11):
        config = _matrix_config(
            tmp_path,
            2,
            {
                "grid.n_slices": n_slices,
                "output.format": output_format,
                "output.components": REFERENCE_COMPONENTS,
            },
        )
        expected = gf_text(load_config(config, []))
        assert _gf_output(config, capsys, "stdout", tmp_path) == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_gf_text_is_the_same_through_any_text_stream(tmp_path, output_format):
    """Rows written as bytes to a stream's buffer, after text already in
    it, or decoded where the stream has no buffer or an encoding that
    changes ASCII, give the same text."""
    config = _matrix_config(
        tmp_path, 2, {"grid.n_slices": 11, "output.format": output_format}
    )
    run = load_config(config, [])
    (grid,) = run.grids
    expected = gf_text(run)
    streams = [io.StringIO()] + [
        io.TextIOWrapper(io.BytesIO(), encoding=encoding, newline="")
        for encoding in ("utf-8", "utf-16")
    ]
    for stream in streams:
        stream.write("kept\n")
        cli._write_gf(run, grid, stream)
        stream.flush()
        raw = getattr(stream, "buffer", None)
        text = stream.getvalue() if raw is None else raw.getvalue().decode(stream.encoding)
        assert text == "kept\n" + expected, stream


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gf_non_finite_table_is_numerical_error(
    tmp_path, capsys, monkeypatch, output_format, bad
):
    # json.dumps would print NaN or Infinity, %.17g and repr nan or inf:
    # neither is a Green's function.
    def table(system, t_values, t_prime_values, component, t_ref):
        out = np.zeros((len(t_values), len(t_prime_values), 1, 1), dtype=complex)
        out[-1, 0] = complex(0.0, bad)
        return out

    monkeypatch.setattr(cli, "component_table", table)
    config = write_config(tmp_path, {"output.format": output_format})
    assert main(["gf", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FloatingPointError")
    assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gf_overflowing_phase_is_numerical_error(tmp_path, capsys):
    # eps t = 1e310 overflows, so the propagator phase is NaN.
    config = write_config(tmp_path, {"epsilon": 1e300, "grid.t_final": 1e10})
    assert main(["gf", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: FloatingPointError: component R")
    assert "nan" not in captured.out.lower()


def test_gf_writer_peak_is_one_table(tmp_path, monkeypatch):
    """The writer holds one chunk's table and one row of text.

    Component evaluation is replaced by a stub that allocates exactly
    one table per call, so the peak is the writer's own: a writer that
    joins a chunk's text, or keeps a table while the next one is
    evaluated, goes past twice the table.
    """
    n_slices = 120
    table_bytes = min(GF_ROW_CHUNK, n_slices + 1) * (n_slices + 1) * 16

    def table(system, t_values, t_prime_values, component, t_ref):
        return np.full((len(t_values), len(t_prime_values), 1, 1), 0.25 - 0.5j)

    monkeypatch.setattr(cli, "component_table", table)
    config = write_config(
        tmp_path,
        {
            "grid.n_slices": n_slices,
            "output.components": ["R", "A", "K"],
            "output.path": str(tmp_path / "table.csv"),
        },
    )
    for output_format in ("csv", "json"):
        argv = ["gf", "--config", config, "--output.format", output_format]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table_bytes, (output_format, peak, table_bytes)


def _distinct_bits_spy(monkeypatch):
    """Record, per chunk, whether the writer printed it from its distinct
    doubles."""
    deduplicated = []
    distinct_bits = cli._distinct_bits

    def spy(bits, limit):
        distinct = distinct_bits(bits, limit)
        deduplicated.append(distinct is not None)
        return distinct

    monkeypatch.setattr(cli, "_distinct_bits", spy)
    return deduplicated


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_gf_writer_peak_at_the_distinct_limit(tmp_path, monkeypatch, output_format):
    """A table with one distinct double in ``GF_DISTINCT_RATIO`` is
    printed from its distinct doubles, and the writer holds that table,
    the words and about six rows of text, nothing more.

    A word is a str of 17 to 19 characters (66 to 68 B), its reference
    and its 8 B key, less than the 96 B of the 12 doubles it stands for,
    so the words take less than a second table.  The text is the times
    and the record tails, about a row each, and one row's template, text,
    encoded text and values.  A writer that held a chunk-sized array
    beside the words goes past this.
    """
    n_slices = 120
    entries = 2 * (n_slices + 1) ** 2
    table_bytes = entries * 8
    distinct = entries // cli.GF_DISTINCT_RATIO

    def table(system, t_values, t_prime_values, component, t_ref):
        # One table and nothing more: the values repeat in place.
        values = 1.0 / 3.0 + np.arange(distinct) / 7.0
        out = np.empty((len(t_values), len(t_prime_values), 1, 1, 2))
        flat = out.reshape(-1)
        for start in range(0, flat.size, distinct):
            piece = flat[start : start + distinct]
            piece[:] = values[: piece.size]
        return out.view(complex)[..., 0]

    monkeypatch.setattr(cli, "component_table", table)
    config = write_config(
        tmp_path,
        {
            "grid.n_slices": n_slices,
            "output.format": output_format,
            "output.path": str(tmp_path / "table.out"),
        },
    )
    assert main(["gf", "--config", config]) == 0
    deduplicated = _distinct_bits_spy(monkeypatch)
    tracemalloc.start()
    try:
        assert main(["gf", "--config", config]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deduplicated == [True]
    out = (tmp_path / "table.out").read_text(encoding="utf-8")
    assert out == gf_text(load_config(config, []))
    row_bytes = len(out) // (n_slices + 1)
    assert peak < 2 * table_bytes + 6 * row_bytes, (peak, table_bytes, row_bytes)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_gf_chunks_switch_between_distinct_and_in_place(
    tmp_path, capsys, monkeypatch, output_format, dimension
):
    """The grid's 41 times from 0.25 to 1.5 in chunks of twelve rows: the
    rows before t = 0.6 and after t = 0.98 hold five doubles, -0.0 and 0.0
    among them, the rows between a distinct double in every entry.  So
    the first chunk is printed from its distinct doubles, the second in
    place, the third from its distinct doubles again, and the last, of
    five rows, in place without the test; the output matches the
    per-entry reference."""
    monkeypatch.setattr(cli, "GF_ROW_CHUNK", 12)

    def table(system, t_values, t_prime_values, component, t_ref):
        shape = (len(t_values), len(t_prime_values), dimension, dimension, 2)
        few = np.resize(np.array([-0.0, 0.0, 0.5, -1.25, 0.0]), shape)
        many = np.arange(np.prod(shape)).reshape(shape) / 7.0 + 1e-3
        t = np.asarray(t_values)[:, None, None, None, None]
        parts = np.where((t < 0.6) | (t > 0.98), few, many)
        return parts.view(complex)[..., 0]

    monkeypatch.setattr(cli, "component_table", table)
    config = _matrix_config(
        tmp_path,
        dimension,
        {
            "grid.n_slices": 40,
            "output.format": output_format,
            "output.components": ["R", "K"],
        },
    )
    deduplicated = _distinct_bits_spy(monkeypatch)
    expected = gf_text(load_config(config, []))
    out = _gf_output(config, capsys, "stdout", tmp_path)
    assert deduplicated == [True, False, True] * 2
    assert out == expected


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_gf_distinct_pieces_refused_by_their_union(
    tmp_path, capsys, monkeypatch, output_format
):
    """The 41 rows of one chunk, in the pieces the distinct test sorts:
    its sample of every eighth row holds 194 distinct doubles, in rows
    24, 32 and 40 (rows 0, 8 and 16 are zeros); the first 21 rows hold
    200 others and the zero; the other 20 rows the sample's doubles
    and zeros.  Each piece is under the limit of 280, the union of the
    first two is not.  So the merge refuses the chunk, which is printed
    in place and matches the reference."""
    rows = cols = 41
    half = (rows + 1) // 2
    limit = 2 * rows * cols // cli.GF_DISTINCT_RATIO
    assert 201 <= limit < 394

    def table(system, t_values, t_prime_values, component, t_ref):
        parts = np.arange(len(t_values) * 2 * len(t_prime_values)) % 200 / 7.0
        parts = parts.reshape(len(t_values), -1)
        unsampled = np.arange(len(t_values)) % 8 != 0
        parts[unsampled] += 1000.0
        parts[half:][unsampled[half:]] = 0.0
        parts[[0, 8, 16]] = 0.0
        return parts.reshape(len(t_values), -1, 1, 1, 2).view(complex)[..., 0]

    monkeypatch.setattr(cli, "component_table", table)
    parts = table(None, np.zeros(rows), np.zeros(cols), None, 0.0).view(float)
    pieces = (parts[::8], parts[:half], parts[half:])
    assert [np.unique(piece).size for piece in pieces] == [194, 201, 194]
    assert np.unique(np.concatenate(pieces[:2], axis=None)).size == 394
    config = write_config(
        tmp_path, {"grid.n_slices": rows - 1, "output.format": output_format}
    )
    deduplicated = _distinct_bits_spy(monkeypatch)
    expected = gf_text(load_config(config, []))
    out = _gf_output(config, capsys, "stdout", tmp_path)
    assert deduplicated == [False]
    assert out == expected


# Doubles for the row assembly test: both zeros, the least subnormal,
# two doubles whose %.17g and repr differ in form, and three whose repr
# needs all 17 digits.
ASSEMBLY_DOUBLES = [
    0.0, -0.0, 5e-324, 1e-05, 1e16,
    0.30000000000000004, -1.2345678901234567, 2.2250738585072014e-308,
]
ASSEMBLY_COMPONENTS = ["R", "K"]


@seed(23)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dimension=st.sampled_from([1, 2, 3]),
    n_slices=st.integers(1, 40),
    row_chunk=st.sampled_from([5, 12, 256]),
    block_rows=st.integers(0, 5),
    output_format=st.sampled_from(["csv", "json"]),
    first_distinct=st.booleans(),
    data=st.data(),
)
def test_gf_row_assemblies_match_reference(
    dimension, n_slices, row_chunk, block_rows, output_format, first_distinct, data
):
    """Both row assemblies, a row joined from the words of its distinct
    doubles and a row filled in place, against the per-entry reference.

    Each chunk of the stub table draws its doubles from
    ``ASSEMBLY_DOUBLES`` alone, so that a chunk of at least
    ``GF_DISTINCT_RATIO`` rows is printed from its distinct doubles, or
    with a third of them distinct, so that it is printed in place; the
    first chunk of the output is either.  The words are looked up in
    blocks of no more than one row, of several rows, or of several rows
    and a ragged last block.
    """
    config = build_run_config(
        {
            **BASE_CONFIG,
            "epsilon": np.eye(dimension).tolist(),
            "nbar": (0.5 * np.eye(dimension)).tolist(),
            "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": n_slices},
            "output": {"format": output_format, "components": ASSEMBLY_COMPONENTS},
        }
    )
    (grid,) = config.grids
    starts = range(0, n_slices + 1, row_chunk)
    distinct_chunks = [first_distinct] + data.draw(
        st.lists(st.booleans(), min_size=len(starts) - 1, max_size=len(starts) - 1)
    )
    chunk_of = {grid.times[start]: index for index, start in enumerate(starts)}
    components = [COMPONENT_NAMES[name] for name in ASSEMBLY_COMPONENTS]
    width = 2 * (n_slices + 1) * dimension**2
    table_seed = data.draw(st.integers(0, 2**32 - 1))

    def table(system, t_values, t_prime_values, component, t_ref):
        chunk = chunk_of[t_values[0]]
        rng = np.random.default_rng([table_seed, chunk, components.index(component)])
        shape = (len(t_values), len(t_prime_values), dimension, dimension, 2)
        parts = rng.choice(ASSEMBLY_DOUBLES, size=shape)
        if not distinct_chunks[chunk]:
            every_third = parts.reshape(-1)[::3]
            every_third[:] = 0.1 + np.arange(every_third.size) / 7.0
        return parts.view(complex)[..., 0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "component_table", table)
        patch.setattr(cli, "GF_ROW_CHUNK", row_chunk)
        patch.setattr(
            cli,
            "GF_LOOKUP_KEYS",
            block_rows * width + data.draw(st.integers(0, width - 1)),
        )
        deduplicated = _distinct_bits_spy(patch)
        out = io.StringIO()
        cli._write_gf(config, grid, out)
        expected = gf_text(config)
    tested = [
        distinct
        for start, distinct in zip(starts, distinct_chunks)
        if min(row_chunk, n_slices + 1 - start) >= cli.GF_DISTINCT_RATIO
    ]
    assert deduplicated == tested * len(components)
    # Compared as lines with their ends, so a failure names the first
    # line that differs without a diff of the whole output.
    assert out.getvalue().splitlines(True) == expected.splitlines(True)


@pytest.mark.parametrize(
    "overrides, error",
    [
        pytest.param({"grid.n_slices": [8, 16]}, "ConfigError", id="two-sizes"),
        pytest.param({"max_dimension": 4}, "GridTooLargeError", id="over-cap"),
        # Beyond what linspace can allocate.
        pytest.param({"grid.n_slices": 10**23}, "GridTooLargeError", id="huge"),
    ],
)
@pytest.mark.parametrize("sink", ["stdout", "path"])
def test_refused_gf_writes_nothing(tmp_path, capsys, overrides, error, sink):
    out = tmp_path / "table.out"
    out.write_bytes(b"kept\n")
    if sink == "path":
        overrides = {**overrides, "output.path": str(out)}
    assert main(["gf", "--config", write_config(tmp_path, overrides)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")
    assert out.read_bytes() == b"kept\n"


def test_refused_gf_formats_no_times(tmp_path, capsys):
    argv = ["gf", "--config", write_config(tmp_path, {"grid.n_slices": 100_000})]
    assert main(argv) == 2
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == ""
    assert peak < 2**20, peak


def test_integral_float_slice_counts(tmp_path, capsys):
    # 8.0 is the integer 8 and [8] is a single size, as with seed.
    config = write_config(tmp_path, {"nbar": 0.7})
    outputs = {}
    for command, text in [
        ("gf", "8"), ("gf", "8.0"), ("gf", "[8]"), ("z", "[4, 8]"), ("z", "[4.0, 8]")
    ]:
        assert main([command, "--config", config, "--grid.n_slices", text]) == 0
        outputs.setdefault(command, set()).add(capsys.readouterr().out)
    assert len(outputs["gf"]) == len(outputs["z"]) == 1


def test_override_scalar_and_nested(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["gf", "--config", config, "--grid.n_slices", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 9


def test_override_parsing_rules():
    raw = {"grid": {"n_slices": 4}}
    apply_overrides(raw, ["--grid.n_slices", "64", "--statistics", "fermion"])
    assert raw["grid"]["n_slices"] == 64
    assert raw["statistics"] == "fermion"
    apply_overrides(raw, ["--nbar", '{"mu": 0.1, "T": 2.0}'])
    assert raw["nbar"] == {"mu": 0.1, "T": 2.0}
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["--grid.n_slices"])
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["oops", "1"])


def test_component_name_table():
    assert set(COMPONENT_NAMES) == {
        "R", "A", "K", "qq", "++", "+-", "-+", "--", "11", "12", "21", "22",
    }
    assert COMPONENT_NAMES["11"] is COMPONENT_NAMES["R"]
    assert COMPONENT_NAMES["12"] is COMPONENT_NAMES["K"]
    assert COMPONENT_NAMES["21"] is COMPONENT_NAMES["qq"]
    assert COMPONENT_NAMES["22"] is COMPONENT_NAMES["A"]


def test_thermal_config(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "statistics": "fermion",
            "epsilon": 0.5,
            "nbar": {"mu": 0.5, "T": 1.0},
            "output.components": ["K"],
        },
    )
    # At eps = mu the occupation is 1/2, so 1 - 2 nbar = 0 and K = 0.
    assert main(["gf", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[5]) == 0.0
        assert float(parts[6]) == 0.0


def test_thermal_config_errors(tmp_path, capsys):
    config = write_config(tmp_path, {"nbar": {"mu": 0.0, "T": -1.0}})
    assert main(["gf", "--config", config]) == 2
    assert "temperature" in capsys.readouterr().err
    config = write_config(
        tmp_path,
        {
            "epsilon": [[1.0, 0.3], [0.3, 2.0]],
            "nbar": {"mu": 0.0, "T": 1.0},
        },
    )
    assert main(["gf", "--config", config]) == 2
    assert "diagonal" in capsys.readouterr().err
    # Bosonic occupation diverges at eps <= mu.
    config = write_config(tmp_path, {"nbar": {"mu": 2.0, "T": 1.0}})
    assert main(["gf", "--config", config]) == 2


@pytest.mark.parametrize("epsilon", ["[1, 2]", "[[[1]]]", "[[1, 2, 3]]"])
def test_thermal_nbar_with_non_square_epsilon_is_config_error(
    tmp_path, capsys, epsilon
):
    config = write_config(tmp_path, {"nbar": {"mu": 0.0, "T": 1.0}})
    assert main(["z", "--config", config, "--epsilon", epsilon]) == 2
    _assert_config_error(capsys.readouterr(), "epsilon")


def test_config_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gf", "--config", str(bad)]) == 2

    config = write_config(tmp_path, {"statistics": "anyon"})
    assert main(["gf", "--config", config]) == 2

    config = write_config(tmp_path, {"output.components": ["X"]})
    assert main(["gf", "--config", config]) == 2

    config = write_config(tmp_path, {"output.format": "yaml"})
    assert main(["gf", "--config", config]) == 2

    config = write_config(tmp_path, {"grid.n_slices": [16, 32]})
    assert main(["gf", "--config", config]) == 2

    config = write_config(tmp_path, {"grid.t_final": -1.0})
    assert main(["gf", "--config", config]) == 2

    capsys.readouterr()


def test_nonhermitian_config_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {"epsilon": [[0.0, 1.0], [0.0, 0.0]], "nbar": [[0.1, 0.0], [0.0, 0.1]]})
    assert main(["gf", "--config", config]) == 2
    capsys.readouterr()


def test_z_exact_cases(tmp_path, capsys):
    config = write_config(tmp_path, {"epsilon": 0.0, "nbar": 1.0})
    assert main(["z", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n_slices,z_re,z_im,abs_deviation"
    n, z_re, z_im, dev = lines[1].split(",")
    assert int(n) == 4
    assert float(z_re) == pytest.approx(1.0, abs=1e-13)
    assert float(z_im) == pytest.approx(0.0, abs=1e-13)
    assert float(dev) < 1e-13


def test_z_deviation_quarters(tmp_path, capsys):
    config = write_config(
        tmp_path, {"nbar": 1.0, "grid.n_slices": [64, 256]}
    )
    assert main(["z", "--config", config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    dev64 = float(lines[1].split(",")[3])
    dev256 = float(lines[2].split(",")[3])
    assert dev64 < 0.05
    assert dev64 / dev256 == pytest.approx(4.0, rel=0.05)


def test_z_json_format(tmp_path, capsys):
    config = write_config(
        tmp_path, {"output.format": "json", "grid.n_slices": [8, 16]}
    )
    assert main(["z", "--config", config]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [r["n_slices"] for r in records] == [8, 16]
    for r in records:
        assert abs(complex(r["z_re"], r["z_im"]) - 1.0) == pytest.approx(
            r["abs_deviation"], abs=1e-15
        )


def test_verify_passes_and_writes_report(tmp_path):
    report_path = tmp_path / "report.json"
    config = write_config(
        tmp_path,
        {
            "nbar": 0.7,
            "grid.n_slices": [16, 32],
            "output.path": str(report_path),
        },
    )
    assert main(["verify", "--config", config]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["schema"] == 1
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "keldysh_antihermiticity" in names
    assert "oracle_order" in names
    assert doc["convergence"]["grid_sizes"] == [16, 32]


def test_verify_structure_only_with_scalar_grid(tmp_path):
    report_path = tmp_path / "report.json"
    config = write_config(
        tmp_path, {"nbar": 0.7, "output.path": str(report_path)}
    )
    assert main(["verify", "--config", config]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["convergence"] is None


def test_verify_corruption_flag_fails(tmp_path):
    report_path = tmp_path / "report.json"
    config = write_config(
        tmp_path, {"nbar": 0.7, "output.path": str(report_path)}
    )
    assert main(["verify", "--config", config, "--corrupt-keldysh"]) == 1
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is False
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert "keldysh_antihermiticity" in failing


def test_verify_grid_above_cap(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"nbar": 0.7, "grid.n_slices": [16, 8192], "output.path": None},
    )
    assert main(["verify", "--config", config]) == 2
    assert "GridTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "verify"])
def test_oracle_commands_honour_max_dimension(tmp_path, capsys, command):
    # 2 N d = 16 on the finer grid exceeds the configured cap of 8.
    config = write_config(
        tmp_path, {"nbar": 0.7, "grid.n_slices": [4, 8], "max_dimension": 8}
    )
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GridTooLargeError" in captured.err


@pytest.mark.parametrize("command", ["converge", "verify"])
def test_over_cap_grid_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    import contourgf.cli
    import contourgf.verify

    calls = {"_factor": 0, "run_structure_suite": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(contourgf.verify, "_factor")
    counted(contourgf.cli, "run_structure_suite")
    # The coarser grid (2 N d = 8) fits the cap, the finer one does not.
    config = write_config(
        tmp_path, {"nbar": 0.7, "grid.n_slices": [4, 8], "max_dimension": 8}
    )
    assert main([command, "--config", config]) == 2
    assert "GridTooLargeError" in capsys.readouterr().err
    assert calls == {"_factor": 0, "run_structure_suite": 0}
    # The counters see the work once the cap admits both grids.
    config = write_config(
        tmp_path, {"nbar": 0.7, "grid.n_slices": [4, 8], "max_dimension": 16}
    )
    assert main([command, "--config", config]) in (0, 1)
    # One stacked factorization serves both grids.
    assert calls == {"_factor": 1, "run_structure_suite": int(command == "verify")}


def test_removed_tolerance_key_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"tolerances": {"unitarity": 1e-10}})
    assert main(["z", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unitarity" in captured.err


def _classical_limit_z(nbar, n_slices):
    """``(1 + nbar)^-1 / (1 - rho l)`` for eps = 1 on [0, 1], 50 digits.

    ``l = (1 + dt^2)^(N - 1)`` is the loop product of one level.
    """
    import mpmath

    with mpmath.workdps(50):
        occ = mpmath.mpf(nbar)
        rho = occ / (1 + occ)
        loop = (1 + mpmath.mpf(1) / n_slices**2) ** (n_slices - 1)
        return float(1 / ((1 + occ) * (1 - rho * loop)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nbar", [1e8, 1e15, 1e300])
def test_z_classical_limit(tmp_path, capsys, nbar):
    # rho rounds to 1 here; the prefactor 1/(1 + nbar) must not.
    config = write_config(
        tmp_path, {"nbar": nbar, "grid.n_slices": [4, 8], "output.format": "json"}
    )
    assert main(["z", "--config", config]) == 0
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        expected = _classical_limit_z(nbar, row["n_slices"])
        z = complex(row["z_re"], row["z_im"])
        assert abs(z - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize(
    "text, n_slices",
    [(str(2**63 + 5), 2**63 + 5), (str(2**64 - 1), 2**64 - 1), ("1e20", 10**20)],
)
def test_z_slice_counts_past_int64(tmp_path, capsys, text, n_slices):
    # Counts past 2^63 once wrapped (uint64) or ended in a TypeError
    # (object array); the condition estimate must not fall with N.
    config = write_config(tmp_path, {"output.format": "json"})
    with pytest.warns(IllConditionedWarning):
        assert main(["z", "--config", config, "--grid.n_slices", text]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (record,) = json.loads(captured.out)
    assert record["n_slices"] == n_slices
    assert math.isfinite(record["z_re"]) and math.isfinite(record["z_im"])
    system = LevelSystem(1.0, 0.0, Statistics.BOSON)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        below = _factor(system, [TimeGrid(0.0, 1.0, 2**63 - 1)])[0].condition
        condition = _factor(system, [TimeGrid(0.0, 1.0, n_slices)])[0].condition
    assert condition >= below > 1e19


def test_z_beyond_input_resolution_is_numerical_error(tmp_path, capsys):
    # Two boson levels, nbar with eigenvalues 1e15 and 0.5 rotated by 0.7
    # rad: the entries of size 1e15, rounded to doubles, fix the small
    # eigenvalue only to about 0.1, so Z cannot be recovered.
    c, s = math.cos(0.7), math.sin(0.7)
    rotation = np.array([[c, -s], [s, c]])
    nbar = rotation @ np.diag([1e15, 0.5]) @ rotation.T
    config = write_config(
        tmp_path,
        {
            "epsilon": [[1.0, 0.2], [0.2, -0.5]],
            "nbar": nbar.tolist(),
            "output.format": "json",
        },
    )
    assert main(["z", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SingularMatrixError" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("ignore::contourgf.core.IllConditionedWarning")
def test_z_of_a_huge_boson_occupation_without_motion_is_one(tmp_path, capsys):
    # At eps = 0 the loop factor l is 1, so A' is the identity and Z = 1
    # for any nbar, however far its entries are from resolving 1 + nbar.
    config = write_config(
        tmp_path, {"epsilon": 0.0, "nbar": 1e15, "grid.n_slices": [16, 32]}
    )
    assert main(["z", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["16,1,0,0", "32,1,0,0"]


@pytest.mark.parametrize(
    "command, output_format",
    [("gf", "csv"), ("gf", "json"), ("converge", "json"), ("verify", "json")],
)
def test_overflowing_keldysh_weight_is_numerical_error(
    tmp_path, capsys, command, output_format
):
    # W = 1 + 2 nbar overflows at boson nbar = 1e308; D' does not.
    config = write_config(
        tmp_path,
        {
            "nbar": 1e308,
            "grid.n_slices": 4 if command == "gf" else [4, 8],
            "output.format": output_format,
            "output.components": ["R", "A", "K"],
        },
    )
    assert main([command, "--config", config]) == 3
    captured = capsys.readouterr()
    assert "Keldysh weight" in captured.err
    assert "nan" not in captured.out.lower()
    if command != "gf":
        return
    # gf refuses W before it opens its output: no R row reaches stdout,
    # and an existing output.path keeps its bytes.
    assert captured.out == ""
    out = tmp_path / "table.out"
    out.write_bytes(b"earlier bytes\n")
    assert main(["gf", "--config", config, "--output.path", str(out)]) == 3
    assert "Keldysh weight" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier bytes\n"
    # R and A do not read W.
    components = ["--output.components", '["R", "A"]']
    assert main(["gf", "--config", config, *components]) == 0
    assert "nan" not in capsys.readouterr().out.lower()


@pytest.mark.filterwarnings("error")
def test_z_at_overflowing_keldysh_weight(tmp_path, capsys):
    config = write_config(
        tmp_path, {"nbar": 1e308, "grid.n_slices": [4, 8], "output.format": "json"}
    )
    assert main(["z", "--config", config]) == 0
    for row in json.loads(capsys.readouterr().out):
        assert math.isfinite(row["z_re"]) and math.isfinite(row["z_im"])


def _fermion_z(nbar, n_slices):
    """``1 + nbar (l - 1)`` for one fermion level, eps = 1 on [0, 1], 50 digits.

    ``l = (1 + dt^2)^(N - 1)`` is the loop product of one level.
    """
    import mpmath

    with mpmath.workdps(50):
        loop = (1 + mpmath.mpf(1) / n_slices**2) ** (n_slices - 1)
        return float(1 + mpmath.mpf(nbar) * (loop - 1))


@pytest.mark.parametrize("nbar", [1.0 - 1e-6, 1.0 - 1e-11, 1.0])
def test_z_fermion_up_to_full_occupation(tmp_path, capsys, nbar):
    # The first block row [1 - nbar, -nbar] of D' stays finite at nbar = 1.
    config = write_config(
        tmp_path,
        {
            "statistics": "fermion",
            "nbar": nbar,
            "grid.n_slices": [4, 8],
            "output.format": "json",
        },
    )
    assert main(["z", "--config", config]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n_slices"] for row in rows] == [4, 8]
    for row in rows:
        expected = _fermion_z(nbar, row["n_slices"])
        z = complex(row["z_re"], row["z_im"])
        assert abs(z - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize("command", ["converge", "verify"])
def test_oracle_commands_pass_at_full_fermion_occupation(tmp_path, capsys, command):
    config = write_config(
        tmp_path,
        {
            "statistics": "fermion",
            "nbar": 1.0,
            "grid.n_slices": [16, 32, 64],
            "output.format": "json",
        },
    )
    assert main([command, "--config", config]) == 0
    doc = json.loads(capsys.readouterr().out)
    convergence = doc if command == "converge" else doc["convergence"]
    assert 0.8 <= convergence["fitted_order"] <= 1.2


def test_converge_json(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "nbar": 1.0,
            "grid.n_slices": [16, 32, 64],
            "output.format": "json",
        },
    )
    assert main(["converge", "--config", config]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["grid_sizes"] == [16, 32, 64]
    assert 0.8 <= doc["fitted_order"] <= 1.2


def test_report_key_order(tmp_path, capsys):
    convergence_keys = [
        "grid_sizes",
        "errors",
        "error_bounds",
        "partition_deviations",
        "fitted_order",
        "details",
    ]
    config = write_config(
        tmp_path, {"nbar": 0.7, "grid.n_slices": [16, 32], "output.format": "json"}
    )
    assert main(["verify", "--config", config]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["schema", "checks", "convergence", "passed"]
    for check in doc["checks"]:
        assert list(check) == ["name", "passed", "observed", "threshold", "details"]
    assert list(doc["convergence"]) == convergence_keys
    assert main(["converge", "--config", config]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["schema", *convergence_keys]


# Doubles and strings the report writer must print as json.dumps does:
# both zeros, the first doubles repr writes with an exponent, the least
# subnormal, the three doubles without a JSON number, and strings with
# quotes, backslashes, control characters and non-ASCII text.
WRITER_DOUBLES = [0.0, -0.0, 1e16, 1e-05, 5e-324, 1e308, math.nan, math.inf, -math.inf]
WRITER_STRINGS = ["", '"\\/', "\x00\x1f\x7f\n\t", "\u00e9\u2028\ud800", "\U0001f600"]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | st.sampled_from(WRITER_DOUBLES)
    | st.text()
    | st.sampled_from(WRITER_STRINGS),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.sampled_from(WRITER_STRINGS), children, max_size=4),
    max_leaves=24,
)


@seed(28)
@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
def test_report_writer_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_report_writer_edge_values():
    values = [*WRITER_DOUBLES, *WRITER_STRINGS, None, True, False, 2**64, -(2**63) - 1]
    nested = {"a": values, "b": tuple(values), "": [[], {}, ()], "c": {"d": [{}]}}
    for value in [*values, values, nested, [], {}, ()]:
        assert cli._json_text(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._json_text({1j})


@pytest.mark.parametrize("sink", ["stdout", "path"])
@pytest.mark.parametrize(
    "command, n_slices",
    [("verify", 4), ("verify", [4, 8]), ("z", [4, 8]), ("converge", [4, 8])],
    ids=["verify", "verify-grids", "z", "converge"],
)
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, command, n_slices, sink):
    """A call of a command that writes JSON leaves nothing for the cycle
    collector: the standard encoder with an indent left its closures,
    which refer to each other, 33 objects a call."""
    path = str(tmp_path / "out.json") if sink == "path" else None
    overrides = {"nbar": 0.7, "grid.n_slices": n_slices, "output.format": "json"}
    config = write_config(tmp_path, {**overrides, "output.path": path})
    argv = [command, "--config", config]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


@seed(28)
@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 6),
    spread=st.integers(1, 60),
    limit=st.integers(0, 200),
    sort_keys=st.sampled_from([1, 7, 64, cli.GF_SORT_KEYS]),
    table_seed=st.integers(0, 2**32 - 1),
)
def test_distinct_bits_are_the_unique_words_within_the_limit(
    rows, cols, spread, limit, sort_keys, table_seed
):
    """The sample, the blocks after it (one row each, a few rows, or
    half the rows, as ``GF_SORT_KEYS`` allows) and their merges give the
    sorted distinct entries, or None past the limit, and leave the table
    as it was: a piece of one row is a contiguous view, which must be
    copied before it is sorted."""
    bits = np.random.default_rng(table_seed).integers(-spread, spread, size=(rows, cols))
    kept = bits.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "GF_SORT_KEYS", sort_keys)
        distinct = cli._distinct_bits(bits, limit)
    unique = np.unique(bits)
    if unique.size <= limit:
        np.testing.assert_array_equal(distinct, unique)
    else:
        assert distinct is None
    np.testing.assert_array_equal(bits, kept)


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_z_and_converge_csv_cells_are_the_json_numbers(tmp_path, capsys, epsilon):
    config = write_config(
        tmp_path, {"epsilon": epsilon, "nbar": 0.7, "grid.n_slices": [4, 8, 16]}
    )

    def run(command, output_format):
        argv = [command, "--config", config, "--output.format", output_format]
        assert main(argv) == 0
        return capsys.readouterr().out

    def cell(x):
        return "" if x is None else str(x) if isinstance(x, int) else f"{x:.17g}"

    rows = json.loads(run("z", "json"))
    header, *lines = run("z", "csv").splitlines()
    assert header == "n_slices,z_re,z_im,abs_deviation"
    assert lines == [",".join(cell(x) for x in row.values()) for row in rows]
    if epsilon:
        # Z is real here; its imaginary part is a negative zero.
        assert {line.split(",")[2] for line in lines} == {"-0"}

    doc = json.loads(run("converge", "json"))
    header, *lines = run("converge", "csv").splitlines()
    assert header == "n_slices,error,error_bound,partition_deviation,fitted_order"
    columns = zip(
        doc["grid_sizes"], doc["errors"], doc["error_bounds"], doc["partition_deviations"]
    )
    assert lines == [
        ",".join(cell(x) for x in (*row, doc["fitted_order"])) for row in columns
    ]
    assert lines[0].split(",")[0] == "4"
    # At eps = 0 the discrete inverse is exact and no order is fitted.
    assert (doc["fitted_order"] is None) == (epsilon == 0.0)
    assert lines[0].endswith(",") == (epsilon == 0.0)


def test_converge_requires_grid_list(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["converge", "--config", config]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["z", "converge", "verify"])
@pytest.mark.parametrize("sizes", [[4, 4], [8, 4]])
def test_oracle_grid_list_must_increase(tmp_path, capsys, command, sizes):
    config = write_config(tmp_path, {"grid.n_slices": sizes})
    assert main([command, "--config", config]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_seventeen_digit_round_trip(tmp_path, capsys):
    config = write_config(tmp_path, {"epsilon": math.pi, "nbar": 1.0 / 3.0})
    assert main(["gf", "--config", config, "--output.components", '["K"]']) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = np.array(
        [[float(line.split(",")[5]), float(line.split(",")[6])] for line in lines[1:]]
    )
    reparsed = values[:, 0] + 1j * values[:, 1]
    samples = iter_samples(
        build_run_config(
            json.loads((tmp_path / "run.json").read_text())
            | {"output": {"components": ["K"], "format": "csv", "path": None}}
        )
    )
    direct = np.array([s.value for s in samples])
    assert np.array_equal(reparsed, direct)


@pytest.mark.filterwarnings("ignore::contourgf.IllConditionedWarning")
@pytest.mark.parametrize("command", ["z", "converge"])
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_huge_epsilon_finite_or_numerical_error(
    tmp_path, capsys, command, statistics, nbar
):
    config = write_config(
        tmp_path,
        {"statistics": statistics, "nbar": nbar, "grid.n_slices": [4, 8]},
    )
    code = main([command, "--config", config, "--epsilon", "1e200"])
    captured = capsys.readouterr()
    assert code in (0, 3)
    assert "inf" not in captured.out.lower()
    assert "nan" not in captured.out.lower()
    if code == 0:
        assert captured.out.strip()
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_converge_warns_once_per_ill_conditioned_grid(tmp_path, capsys, statistics):
    # Two empty levels and |eps| = 50: condition estimates about 3e12 on
    # eight slices and 1e14 on ten.  The warning names the caller of the
    # oracle suite, in cli.
    rng = np.random.default_rng(11)
    basis = random_unitary(rng, 3)
    nbar = (basis * np.array([0.0, 0.0, 0.5])) @ basis.conj().T
    basis = random_unitary(rng, 3)
    epsilon = (basis * np.array([-50.0, 50.0, 50.0])) @ basis.conj().T
    config = write_config(
        tmp_path,
        {
            "statistics": statistics,
            "epsilon": {"re": epsilon.real.tolist(), "im": epsilon.imag.tolist()},
            "nbar": {"re": nbar.real.tolist(), "im": nbar.imag.tolist()},
            "grid.n_slices": [8, 10],
        },
    )
    with pytest.warns(IllConditionedWarning) as record:
        assert main(["converge", "--config", config]) in (0, 1)
    warned = [w for w in record if issubclass(w.category, IllConditionedWarning)]
    assert len(warned) == 2
    assert all(Path(w.filename).name == "cli.py" for w in warned)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["8", "10"]


def test_z_warns_once_per_ill_conditioned_grid(tmp_path, capsys):
    # The system of the converge test above: both grids of one stacked
    # factorization are ill-conditioned, and each warns.
    rng = np.random.default_rng(11)
    basis = random_unitary(rng, 3)
    nbar = (basis * np.array([0.0, 0.0, 0.5])) @ basis.conj().T
    basis = random_unitary(rng, 3)
    epsilon = (basis * np.array([-50.0, 50.0, 50.0])) @ basis.conj().T
    config = write_config(
        tmp_path,
        {
            "epsilon": {"re": epsilon.real.tolist(), "im": epsilon.imag.tolist()},
            "nbar": {"re": nbar.real.tolist(), "im": nbar.imag.tolist()},
            "grid.n_slices": [8, 10],
        },
    )
    with pytest.warns(IllConditionedWarning) as record:
        assert main(["z", "--config", config]) == 0
    warned = [w for w in record if issubclass(w.category, IllConditionedWarning)]
    assert len(warned) == 2
    assert all(Path(w.filename).name == "cli.py" for w in warned)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["8", "10"]


def test_z_singular_middle_grid_is_numerical_error(tmp_path, capsys):
    # One boson level with rho l = 1 on eight slices, l = (1 + (eps dt)^2)^(N - 1)
    # the loop product: A' is singular on the middle grid of three only.
    eps, n = 1.0, 8
    rho = 1.0 / (1.0 + (eps / n) ** 2) ** (n - 1)
    config = write_config(
        tmp_path,
        {"epsilon": eps, "nbar": rho / (1.0 - rho), "grid.n_slices": [4, n, 16]},
    )
    assert main(["z", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SingularMatrixError: ")
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
def test_z_coarsest_grid_epsilon_dt_overflow_is_numerical_error(tmp_path, capsys):
    # eps dt = 2.5e309 on four slices only; on 1e10 slices it is 1e300.
    config = write_config(
        tmp_path,
        {
            "epsilon": 1e300,
            "nbar": 0.3,
            "grid.t_final": 1e10,
            "grid.n_slices": [4, 10**10],
        },
    )
    assert main(["z", "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FloatingPointError: transfer blocks")
    assert "dt = 2.5e+09" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["z", "converge", "verify"])
def test_overflowing_epsilon_dt_is_numerical_error(tmp_path, capsys, command):
    # eps dt = 2.5e309 is not a double: the transfer blocks are refused
    # before anything is computed from them, with no numpy warning.
    config = write_config(
        tmp_path,
        {"epsilon": 1e300, "nbar": 0.3, "grid.t_final": 1e10, "grid.n_slices": [4, 8]},
    )
    assert main([command, "--config", config]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FloatingPointError: transfer blocks")


@pytest.mark.filterwarnings("ignore::contourgf.IllConditionedWarning")
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
@pytest.mark.parametrize("epsilon", ["2000", "1e200"])
def test_empty_level_partition_function_is_one_at_any_epsilon(
    tmp_path, capsys, statistics, epsilon
):
    # nbar = 0 leaves D unit lower triangular however large 1/l is.
    config = write_config(
        tmp_path,
        {"statistics": statistics, "grid.n_slices": 200, "output.format": "json"},
    )
    assert main(["z", "--config", config, "--epsilon", epsilon]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["z_re"], row["z_im"], row["abs_deviation"]) == (1.0, 0.0, 0.0)


def test_infinite_grid_endpoint_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["z", "--config", config, "--grid.t_final", "Infinity"]) == 2
    assert "grid.t_final" in capsys.readouterr().err


def test_infinite_grid_span_is_config_error(tmp_path, capsys):
    # Both endpoints are finite, their difference is not.
    config = write_config(tmp_path)
    code = main(
        ["z", "--config", config, "--grid.t_initial", "-1e308", "--grid.t_final", "1e308"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "span" in captured.err


def test_cli_import_leaves_out_scipy():
    # The package runs on numpy alone; scipy is a test dependency.
    script = "import sys, contourgf.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_out_the_formatter(tmp_path):
    # Only gf prints doubles: z, verify and converge do not load the
    # formatter, nor does the set-up that imports the CLI.
    script = (
        "import sys, contourgf.cli as cli; "
        f"cli.main(['z', '--config', {write_config(tmp_path)!r}]); "
        "print('contourgf._doubles' in sys.modules, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.stderr.strip() == "False"


def test_boolean_epsilon_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["z", "--config", config, "--epsilon", "true"]) == 2
    assert "epsilon" in capsys.readouterr().err
    flagged = "[[1.0, false], [false, 2.0]]"
    assert main(["z", "--config", config, "--epsilon", flagged]) == 2
    assert main(["z", "--config", config, "--nbar", '{"mu": true, "T": 1.0}']) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", ["epsilon", "nbar"])
@pytest.mark.parametrize(
    "text",
    [
        "[true]",
        "[[0.5, false], [0.0, 0.5]]",
        "[[[0.5]], [[true]]]",
        '{"re": [false]}',
        '{"re": [[0.5]], "im": [[true]]}',
        '{"im": [[[0.0], [false]]]}',
    ],
    ids=["depth1", "depth2", "depth3", "re-depth1", "im-depth2", "im-depth3"],
)
def test_nested_boolean_matrix_is_config_error(tmp_path, capsys, field, text):
    # Every value would parse as a complex array; only the boolean check
    # names the fault, at whatever depth the boolean sits.
    config = write_config(tmp_path)
    assert main(["z", "--config", config, f"--{field}", text]) == 2
    _assert_config_error(capsys.readouterr(), f"{field} must be numeric, got a boolean")


@pytest.mark.parametrize(
    "path, text",
    [
        ("seed", "1e400"),
        ("max_dimension", "1e400"),
        ("threshold", "true"),
        ("seed", "1.7"),
        ("seed", "-1"),
        ("max_dimension", "12.9"),
        ("max_dimension", "0"),
        ("threshold", "0"),
        ("threshold", "-1e-12"),
        ("grid.n_slices", "true"),
        ("grid.n_slices", "1.5"),
        ("grid.n_slices", "0"),
        ("grid.n_slices", "[4, true]"),
        ("grid.n_slices", "[8, 4]"),
        pytest.param("epsilon", "1" + "0" * 400, id="epsilon-401-digit-integer"),
        pytest.param("nbar", "1" + "0" * 400, id="nbar-401-digit-integer"),
    ],
)
def test_bad_scalar_field_is_config_error(tmp_path, capsys, path, text):
    config = write_config(tmp_path, {"nbar": 0.7})
    assert main(["verify", "--config", config, f"--{path}", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigError: ")
    assert path in captured.err


@pytest.mark.parametrize("command", ["gf", "z", "verify", "converge"])
@pytest.mark.parametrize(
    "overrides, path, quoted",
    [
        pytest.param({"max_dimensoin": 8}, "max_dimensoin", "8", id="root"),
        pytest.param({"grid.nslices": 99}, "grid.nslices", "99", id="grid"),
        pytest.param({"output.formt": "csv"}, "output.formt", '"csv"', id="output"),
        pytest.param(
            {"tolerances.eigenvalue": 1e-5},
            "tolerances",
            '{"eigenvalue": 1e-05}',
            id="tolerances",
        ),
    ],
)
def test_unknown_config_key_is_config_error(
    tmp_path, capsys, command, overrides, path, quoted
):
    # A misspelled key would otherwise be ignored, and the run would go
    # on with the default it meant to replace.
    config = write_config(tmp_path, {"nbar": 0.7, "grid.n_slices": [4, 8]})
    argv = [command, "--config", config]
    if command == "gf":
        argv += ["--grid.n_slices", "4"]
    for key, value in overrides.items():
        argv += [f"--{key}", json.dumps(value)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ConfigError: unknown config key {path!r} = {quoted}\n"


def _assert_config_error(captured, *needles):
    assert captured.out == ""
    assert captured.err.startswith("error: ConfigError: ")
    assert "Traceback" not in captured.err
    for needle in needles:
        assert needle in captured.err


# Marks a root key that the config leaves out.
DROP = object()


@pytest.mark.parametrize(
    "command, fields, argv, message",
    [
        pytest.param(
            "z", {"statistics": DROP}, [], "missing field: statistics", id="statistics"
        ),
        pytest.param(
            "z", {"epsilon": DROP}, [], "missing field: epsilon", id="epsilon"
        ),
        pytest.param("z", {"nbar": DROP}, [], "missing field: nbar", id="nbar"),
        pytest.param(
            "z",
            {"nbar": {"mu": 0.0, "T": 1.0, "n": 1.0}},
            [],
            "thermal nbar must be exactly {mu, T}",
            id="thermal-keys",
        ),
        pytest.param(
            "z", [BASE_CONFIG], [], "config root must be a JSON object", id="root"
        ),
        pytest.param("z", {"grid": 4}, [], "grid must be an object", id="grid"),
        pytest.param(
            "z",
            {"grid": {"t_final": 1.0}},
            [],
            "grid.n_slices is required when grid is present",
            id="no-n-slices",
        ),
        pytest.param(
            "z",
            {"grid": {"n_slices": []}},
            [],
            "grid.n_slices must not be an empty list",
            id="empty-n-slices",
        ),
        pytest.param(
            "gf", {"output": "csv"}, [], "output must be an object", id="output"
        ),
        pytest.param(
            "gf",
            {"output": {"path": 4}},
            [],
            "output.path must be a string or null",
            id="output-path",
        ),
        pytest.param(
            "z", {}, ["--grid..n_slices", "4"], "bad override path", id="override-path"
        ),
        pytest.param(
            "z",
            {},
            ["--epsilon.re", "1"],
            "cannot override through non-object at 'epsilon'",
            id="override-through",
        ),
        pytest.param("z", None, [], "cannot read config", id="unreadable"),
        pytest.param(
            "z", {"grid": DROP}, [], "z requires grid.n_slices", id="z-without-grid"
        ),
        pytest.param(
            "z",
            {"epsilon": {"re": "one"}},
            [],
            "epsilon is not a numeric matrix",
            id="re-im-not-numeric",
        ),
        # An object with neither part is no matrix, not a zero one.
        pytest.param(
            "z",
            {"epsilon": {}},
            [],
            "epsilon must be a number, a nested list, or re/im parts",
            id="epsilon-no-parts",
        ),
        pytest.param(
            "z",
            {"nbar": {}},
            [],
            "nbar must be a number, a nested list, or re/im parts",
            id="nbar-no-parts",
        ),
    ],
)
def test_config_refusals(tmp_path, capsys, command, fields, argv, message):
    # Each refusal exits 2, names itself on stderr and writes nothing.
    path = tmp_path / "run.json"
    if isinstance(fields, dict):
        raw = {**BASE_CONFIG, **fields}
        path.write_text(json.dumps({k: v for k, v in raw.items() if v is not DROP}))
    elif fields is not None:
        path.write_text(json.dumps(fields))
    assert main([command, "--config", str(path), *argv]) == 2
    _assert_config_error(capsys.readouterr(), message)


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"statistics": "boson\xff"}')
    assert main(["z", "--config", str(path)]) == 2
    _assert_config_error(capsys.readouterr(), "UTF-8")


NESTED = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "text, overrides",
    [
        pytest.param(NESTED, [], id="file"),
        # Deep enough for the validation, not for the JSON parser.
        pytest.param(None, ["--nbar", "[" * 900 + "0.3" + "]" * 900], id="nbar"),
        pytest.param(None, ["--nbar", NESTED], id="override"),
    ],
)
def test_deeply_nested_config_is_config_error(tmp_path, capsys, text, overrides):
    if text is None:
        config = write_config(tmp_path)
    else:
        config = tmp_path / "nested.json"
        config.write_text(text)
    assert main(["z", "--config", str(config), *overrides]) == 2
    _assert_config_error(capsys.readouterr(), "nested too deeply")


@pytest.mark.parametrize("levels", [64, 65])
def test_matrix_nesting_limit(tmp_path, capsys, levels):
    # numpy builds arrays of up to 64 dimensions; one level more is
    # refused by the boolean check before numpy sees it.
    config = write_config(tmp_path)
    nested = "[" * levels + "0.3" + "]" * levels
    assert main(["z", "--config", config, "--nbar", nested]) == 2
    captured = capsys.readouterr()
    _assert_config_error(captured)
    assert ("nested too deeply" in captured.err) == (levels > 64)


@pytest.mark.parametrize("command", ["gf", "z", "verify", "converge"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, monkeypatch, command):
    import contourgf.verify

    factored = []
    original = contourgf.verify._factor
    monkeypatch.setattr(
        contourgf.verify, "_factor", lambda *a: factored.append(1) or original(*a)
    )
    argv = [command, "--config", write_config(tmp_path, {"grid.n_slices": [4, 8]})]
    if command == "gf":
        argv += ["--grid.n_slices", "4"]
    missing = str(tmp_path / "missing" / "out.txt")
    assert main([*argv, "--output.path", missing]) == 2
    _assert_config_error(capsys.readouterr(), repr(missing))
    # Refused before the oracle suite runs.
    assert factored == []
    # A directory exists but cannot be opened as a file.
    assert main([*argv, "--output.path", str(tmp_path)]) == 2
    _assert_config_error(capsys.readouterr(), repr(str(tmp_path)))


class _ClosedPipe:
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["gf", "z", "verify", "converge"])
def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch, command):
    argv = [command, "--config", write_config(tmp_path, {"grid.n_slices": [4, 8]})]
    if command == "gf":
        argv += ["--grid.n_slices", "4"]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, n_slices",
    # gf writes more than a pipe holds; converge writes once, at the end.
    [("gf", 200), ("converge", [4, 8])],
)
def test_closed_pipe_process_has_no_traceback(tmp_path, command, n_slices):
    config = write_config(tmp_path, {"grid.n_slices": n_slices, "nbar": 0.7})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "contourgf.cli", command, "--config", config],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
            env={
                **os.environ,
                "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""


NO_SPACE = os.strerror(errno.ENOSPC)


class _FullDevice:
    """A standard output on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, NO_SPACE)

    def flush(self):
        raise OSError(errno.ENOSPC, NO_SPACE)


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)


@pytest.mark.parametrize("to_path", [False, pytest.param(True, marks=needs_dev_full)])
@pytest.mark.parametrize("command", ["gf", "z", "verify", "converge"])
def test_full_output_is_config_error(tmp_path, capsys, monkeypatch, command, to_path):
    argv = [command, "--config", write_config(tmp_path, {"grid.n_slices": [4, 8]})]
    if command == "gf":
        argv += ["--grid.n_slices", "4"]
    if to_path:
        argv += ["--output.path", "/dev/full"]
    else:
        monkeypatch.setattr(sys, "stdout", _FullDevice())
    assert main(argv) == 2
    captured = capsys.readouterr()
    target = "output.path '/dev/full'" if to_path else "standard output"
    _assert_config_error(captured, target, NO_SPACE)
    assert captured.err.count("\n") == 1


@needs_dev_full
@pytest.mark.parametrize(
    "command, n_slices",
    # gf writes more than a buffer holds; z writes once, at the end.
    [("gf", 200), ("z", [4, 8])],
)
@pytest.mark.parametrize("to_path", [False, True])
def test_full_device_process_has_no_traceback(tmp_path, command, n_slices, to_path):
    config = write_config(tmp_path, {"grid.n_slices": n_slices, "nbar": 0.7})
    argv = [sys.executable, "-m", "contourgf.cli", command, "--config", config]
    if to_path:
        argv += ["--output.path", "/dev/full"]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            argv,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
            env={
                **os.environ,
                "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
        )
    assert result.returncode == 2
    target = "output.path '/dev/full'" if to_path else "standard output"
    assert result.stderr == f"error: ConfigError: cannot write {target}: {NO_SPACE}\n"


@seed(53)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_failed_gf_leaves_the_output_path_as_it_was(data):
    # A table that is not finite at a drawn chunk (exit 3), or a write
    # that fails at a drawn call for lack of space (exit 2), leaves an
    # existing output.path with its bytes, creates none where there was
    # none, and leaves no temporary file beside it.
    n_slices = data.draw(st.integers(1, 24))
    components = data.draw(
        st.lists(st.sampled_from(["R", "K", "+-", "qq"]), min_size=1, max_size=3)
    )
    row_chunk = data.draw(st.integers(1, 8))
    prior = data.draw(st.none() | st.binary(max_size=64))
    fault = data.draw(st.sampled_from(["table", "write"]))
    overrides = {
        "nbar": 0.4,
        "grid.n_slices": n_slices,
        "output.format": data.draw(st.sampled_from(["csv", "json"])),
        "output.components": components,
    }
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        folder = Path(folder)
        out = folder / "table.out"
        argv = ["gf", "--config", write_config(folder, overrides)]
        patch.setattr(cli, "GF_ROW_CHUNK", row_chunk)
        byte_writer = cli._byte_writer
        writes = []

        def counted(handle):
            write = byte_writer(handle)
            return lambda data: writes.append(len(data)) or write(data)

        with pytest.MonkeyPatch.context() as dry:
            dry.setattr(cli, "_byte_writer", counted)
            assert main([*argv, "--output.path", str(folder / "dry.out")]) == 0
        (folder / "dry.out").unlink()
        if prior is not None:
            out.write_bytes(prior)
        listing = sorted(os.listdir(folder))
        if fault == "table":
            chunks = len(components) * -(-(n_slices + 1) // row_chunk)
            failing = data.draw(st.integers(0, chunks - 1))
            value = data.draw(st.sampled_from([np.nan, np.inf]))
            calls = iter(range(chunks))
            component_table = cli.component_table

            def stub(*args):
                table = component_table(*args)
                if next(calls) == failing:
                    table[-1, -1, 0, 0] = value
                return table

            patch.setattr(cli, "component_table", stub)
            code = 3
        else:
            failing = data.draw(st.integers(0, len(writes) - 1))
            calls = iter(range(len(writes)))

            def full(handle):
                write = byte_writer(handle)

                def failing_write(data):
                    if next(calls) == failing:
                        raise OSError(errno.ENOSPC, NO_SPACE)
                    return write(data)

                return failing_write

            patch.setattr(cli, "_byte_writer", full)
            code = 2
        assert main([*argv, "--output.path", str(out)]) == code
        assert sorted(os.listdir(folder)) == listing
        if prior is not None:
            assert out.read_bytes() == prior


def test_gf_output_path_file_modes(tmp_path, capsys):
    # A new file takes 0o666 less the umask, as open(path, "w") gives
    # it; a file that is replaced keeps its own permission bits; a
    # symbolic link is written through, to the file it names.
    config = write_config(tmp_path)
    assert main(["gf", "--config", config]) == 0
    expected = capsys.readouterr().out.encode()
    umask = os.umask(0o022)
    os.umask(umask)
    new = tmp_path / "new.out"
    assert main(["gf", "--config", config, "--output.path", str(new)]) == 0
    assert new.read_bytes() == expected
    assert new.stat().st_mode & 0o777 == 0o666 & ~umask
    kept = tmp_path / "kept.out"
    kept.write_bytes(b"earlier bytes\n")
    kept.chmod(0o640)
    link = tmp_path / "link.out"
    link.symlink_to(kept)
    assert main(["gf", "--config", config, "--output.path", str(link)]) == 0
    assert link.is_symlink() and kept.read_bytes() == expected
    assert kept.stat().st_mode & 0o777 == 0o640
    listing = ["kept.out", "link.out", "new.out", "run.json"]
    assert sorted(os.listdir(tmp_path)) == listing


def test_occupation_slack_is_fixed(tmp_path, capsys):
    # 1e-6 below zero is far outside the slack of 1e-10, and no config
    # key widens it.
    config = write_config(tmp_path, {"nbar": -1e-6, "grid.n_slices": [4, 8]})
    assert main(["z", "--config", config]) == 2
    assert "below 0" in capsys.readouterr().err


def _rotated(rng, spectrum):
    """Config ``{re, im}`` form of a Hermitian matrix with this spectrum
    in a random eigenbasis."""
    gauss = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis, _ = np.linalg.qr(gauss)
    matrix = (basis * np.asarray(spectrum, dtype=float)) @ basis.conj().T
    return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}


@pytest.mark.parametrize(
    "spectrum", [[1e5, 5e5, 1e6], [0.0, 0.0, 1e6]], ids=["occupied", "zeros"]
)
@pytest.mark.parametrize("draw", range(3))
def test_verify_large_boson_occupation_passes(tmp_path, capsys, spectrum, draw):
    # The structure thresholds scale with max|1 + 2 nbar^T| (about 2e6
    # here), and the occupation range with max|nbar|.
    rng = np.random.default_rng([draw, len(spectrum)])
    nbar = _rotated(rng, spectrum)
    config = write_config(
        tmp_path, {"epsilon": _rotated(rng, rng.uniform(-1.0, 1.0, 3)), "nbar": nbar}
    )
    assert main(["verify", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    weight = np.eye(3) + 2 * (np.array(nbar["re"]) + 1j * np.array(nbar["im"])).T
    thresholds = {c["threshold"] for c in report["checks"]}
    assert thresholds == {1e-12 * np.abs(weight).max()}
    assert main(["verify", "--config", config, "--corrupt-keldysh"]) == 1
    capsys.readouterr()


FUZZ_PATHS = [
    "seed",
    "threshold",
    "max_dimension",
    "tolerances.hermitian",
    "tolerances.eigenvalue",
    "tolerances.condition_warn",
    "grid.t_initial",
    "grid.t_final",
    "grid.n_slices",
    "epsilon",
    "nbar",
    "statistics",
    "output.format",
    "output.components",
]

# Override texts of each kind: booleans, null, out-of-range numbers,
# negatives, fractions, strings and lists.
FUZZ_TEXTS = st.one_of(
    st.sampled_from(["true", "false", "null", "1e400", "-1e400", "1" + "0" * 400]),
    st.integers(-10**6, -1).map(str),
    st.floats(-1e6, 0.0).map(repr),
    st.floats(0.0, 20.0).filter(lambda x: not x.is_integer()).map(repr),
    st.text("abcnf019.e ", max_size=6),
    st.lists(st.integers(-2, 6), max_size=3).map(json.dumps),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), max_size=2).map(json.dumps),
)


@pytest.mark.filterwarnings("ignore::contourgf.IllConditionedWarning")
@seed(5)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["gf", "z", "verify", "converge"]),
    overrides=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), FUZZ_TEXTS), max_size=3),
)
def test_config_fuzz_exit_codes(tmp_path, capsys, command, overrides):
    config = write_config(
        tmp_path, {"nbar": 0.7, "grid.n_slices": [2, 4], "output.format": "json"}
    )
    argv = [command, "--config", config]
    for path, text in overrides:
        argv += [f"--{path}", text]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 1:
        report = json.loads(captured.out)
        assert command == "verify"
        assert not report["passed"]
        assert any(not check["passed"] for check in report["checks"])
    if code in (2, 3):
        assert captured.err.startswith("error: ")
