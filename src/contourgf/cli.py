"""Command-line interface.

Subcommands
-----------
``gf``        tabulate components over the time grid (CSV or JSON)
``verify``    run the structure suite and, when a list of slice counts
              is configured, the discrete-oracle convergence suite;
              always writes a JSON report, exits 0 only if every check
              passed
``z``         print the discrete partition function per slice count
``converge``  run the convergence suite and emit its report

Configuration is a JSON file passed with ``--config``.  Any scalar
field can be overridden on the command line by its dotted path, for
example ``--grid.n_slices 64`` or ``--statistics fermion``.  A key
outside the documented set is a configuration error.

``grid.n_slices`` is a positive integer (an integral float such as
``64.0`` counts) or a list of them, strictly increasing; ``gf`` takes
exactly one.  A run is checked before it writes: a configuration error,
:class:`~contourgf.core.GridTooLargeError` included, writes nothing to
standard output or to ``output.path``.  An output that cannot be
opened, or that fails while it is written (a full device), is a
configuration error too, named on stderr.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical error, 141 (128 + SIGPIPE) when standard output is closed
before the output is written, as by ``contourgf gf ... | head``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .continuum import KeldyshComponent, component_table, thermal_nbar
from .core import (
    DEFAULT_MAX_DIMENSION,
    ContourComponent,
    GridTooLargeError,
    LevelSystem,
    NonHermitianError,
    OccupationOutOfRangeError,
    SingularMatrixError,
    Statistics,
    ThermalDivergenceError,
    TimeGrid,
    as_complex_matrix,
    max_abs,
)
from .discrete import _factor
from .verify import (
    DEFAULT_THRESHOLD,
    _as_dict,
    assemble_report,
    run_oracle_suite,
    run_structure_suite,
)

__all__ = ["ConfigError", "entry_point", "main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# What a shell reports for a command that a closed pipe stopped.
EXIT_BROKEN_PIPE = 128 + 13

COMPONENT_NAMES = {
    "R": KeldyshComponent.RETARDED,
    "A": KeldyshComponent.ADVANCED,
    "K": KeldyshComponent.KELDYSH,
    "qq": KeldyshComponent.ZERO,
    "++": ContourComponent.PLUS_PLUS,
    "+-": ContourComponent.PLUS_MINUS,
    "-+": ContourComponent.MINUS_PLUS,
    "--": ContourComponent.MINUS_MINUS,
    # Aliases by position in the fermionic rotated-block layout.
    "11": KeldyshComponent.RETARDED,
    "12": KeldyshComponent.KELDYSH,
    "21": KeldyshComponent.ZERO,
    "22": KeldyshComponent.ADVANCED,
}

CSV_HEADER = "t,t_prime,component,row,col,re,im"

# The documented keys of the config root and of its grid and output
# objects; any other key is a configuration error.
CONFIG_KEYS = {
    "": {
        "statistics", "epsilon", "nbar", "grid", "output",
        "threshold", "seed", "max_dimension",
    },
    "grid": {"t_initial", "t_final", "n_slices"},
    "output": {"format", "components", "path"},
}


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Validated run configuration."""

    system: LevelSystem
    t_initial: float
    t_final: float
    n_slices: tuple[int, ...]
    output_format: str
    components: list[str]
    output_path: str | None
    seed: int
    threshold: float
    max_dimension: int

    def grids(self) -> list[TimeGrid]:
        return [TimeGrid(self.t_initial, self.t_final, n) for n in self.n_slices]


# Nesting levels a matrix value may have: numpy builds no array of more
# than 64 dimensions.
MAX_NESTING = 64


def _cell(x) -> str:
    """A CSV cell: an integer as it is, None empty, another number %.17g."""
    return "" if x is None else str(x) if isinstance(x, int) else f"{x:.17g}"


def _contains_bool(value, depth: int = 0) -> bool:
    """Whether a boolean sits anywhere in nested lists and dicts.  Only
    containers recurse, so a row of numbers is one loop, not one call per
    number.  Raises :class:`ConfigError` for more than ``MAX_NESTING``
    levels of lists and dicts."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return type(value) is bool
    if depth >= MAX_NESTING:
        raise ConfigError("config is nested too deeply to validate")
    for item in value:
        if type(item) is bool:
            return True
        if isinstance(item, (list, dict)) and _contains_bool(item, depth + 1):
            return True
    return False


def _real(value, name: str) -> float:
    """A finite real config number; ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _integer(value, name: str, minimum: int) -> int:
    """A config integer of at least ``minimum``; an integral float such
    as ``1e3`` counts, a fraction does not."""
    if isinstance(value, bool) or not isinstance(value, int):
        number = _real(value, name)
        if not number.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = int(number)
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return value


def _parse_matrix(value, name: str) -> np.ndarray:
    if _contains_bool(value):
        raise ConfigError(f"{name} must be numeric, got a boolean")
    if isinstance(value, (int, float)):
        value = [[value]]
    if isinstance(value, list):
        try:
            return np.array(value, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} is not a numeric matrix: {exc}") from exc
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        try:
            real = np.array(value.get("re", 0), dtype=float)
            imag = np.array(value.get("im", 0), dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} is not a numeric matrix: {exc}") from exc
        # A lone part means the other is zero; two parts must not broadcast.
        if "re" in value and "im" in value and real.shape != imag.shape:
            raise ConfigError(
                f"{name}.re has shape {real.shape} but {name}.im has shape {imag.shape}"
            )
        return real + 1j * imag
    raise ConfigError(f"{name} must be a number, a nested list, or re/im parts")


def _check_keys(raw: dict, section: str) -> None:
    """Reject the first key of ``raw`` outside ``CONFIG_KEYS[section]``,
    naming its dotted path and quoting its value."""
    for key, value in raw.items():
        if key not in CONFIG_KEYS[section]:
            path = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key {path!r} = {json.dumps(value)}")


def _build_system(raw: dict) -> LevelSystem:
    try:
        statistics = Statistics(str(raw["statistics"]).lower())
    except KeyError as exc:
        raise ConfigError("missing field: statistics") from exc
    except ValueError as exc:
        raise ConfigError(f"unknown statistics {raw['statistics']!r}") from exc
    if "epsilon" not in raw:
        raise ConfigError("missing field: epsilon")
    if "nbar" not in raw:
        raise ConfigError("missing field: nbar")
    epsilon = _parse_matrix(raw["epsilon"], "epsilon")
    occ_raw = raw["nbar"]
    thermal = isinstance(occ_raw, dict) and "mu" in occ_raw
    if thermal:
        if set(occ_raw) != {"mu", "T"}:
            raise ConfigError("thermal nbar must be exactly {mu, T}")
        mu = _real(occ_raw["mu"], "nbar.mu")
        temperature = _real(occ_raw["T"], "nbar.T")
    else:
        occ = _parse_matrix(occ_raw, "nbar")
    try:
        if thermal:
            # Square first: np.diag of any other shape is not the levels.
            levels = np.diag(as_complex_matrix(epsilon, "epsilon")).tolist()
            if max_abs(epsilon - np.diag(levels)) > 0:
                raise ConfigError(
                    "thermal nbar requires a diagonal epsilon (one energy per level)"
                )
            occ = np.diag(
                [thermal_nbar(e.real, mu, temperature, statistics) for e in levels]
            )
        return LevelSystem(epsilon, occ, statistics)
    except (ValueError, NonHermitianError, OccupationOutOfRangeError) as exc:
        raise ConfigError(str(exc)) from exc


def build_run_config(raw: dict) -> RunConfig:
    """Validate the raw config dict into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, "")
    system = _build_system(raw)

    t_initial, t_final, n_slices = 0.0, 1.0, ()
    grid_raw = raw.get("grid")
    if grid_raw is not None:
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object")
        _check_keys(grid_raw, "grid")
        t_initial = _real(grid_raw.get("t_initial", 0.0), "grid.t_initial")
        t_final = _real(grid_raw.get("t_final", 1.0), "grid.t_final")
        try:
            TimeGrid(t_initial, t_final, 1)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        slices = grid_raw.get("n_slices")
        if slices is None:
            raise ConfigError("grid.n_slices is required when grid is present")
        if slices == []:
            raise ConfigError("grid.n_slices must not be an empty list")
        n_slices = tuple(
            _integer(n, "grid.n_slices", 1)
            for n in (slices if isinstance(slices, list) else [slices])
        )
        if any(b <= a for a, b in zip(n_slices, n_slices[1:])):
            raise ConfigError(
                f"grid.n_slices must be strictly increasing, got {list(n_slices)}"
            )

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output must be an object")
    _check_keys(out_raw, "output")
    output_format = out_raw.get("format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {output_format!r}")
    components = out_raw.get("components", ["R", "A", "K"])
    if not isinstance(components, list) or not components:
        raise ConfigError("output.components must be a nonempty list")
    for name in components:
        if not isinstance(name, str) or name not in COMPONENT_NAMES:
            raise ConfigError(
                f"unknown component {name!r}; valid: {sorted(COMPONENT_NAMES)}"
            )
    output_path = out_raw.get("path")
    if output_path is not None:
        if not isinstance(output_path, str):
            raise ConfigError("output.path must be a string or null")
        # Checked here, so verify and converge refuse it before any work.
        folder = os.path.dirname(output_path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(
                f"output.path {output_path!r}: no directory {folder!r}"
            )

    threshold = _real(raw.get("threshold", DEFAULT_THRESHOLD), "threshold")
    if not threshold > 0:
        raise ConfigError(f"threshold must be positive, got {threshold!r}")

    return RunConfig(
        system=system,
        t_initial=t_initial,
        t_final=t_final,
        n_slices=n_slices,
        output_format=output_format,
        components=list(components),
        output_path=output_path,
        seed=_integer(raw.get("seed", 0), "seed", 0),
        threshold=threshold,
        max_dimension=_integer(
            raw.get("max_dimension", DEFAULT_MAX_DIMENSION), "max_dimension", 1
        ),
    )


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``--dotted.path value`` pairs onto the config dict."""
    if len(overrides) % 2 != 0:
        raise ConfigError(f"dangling override {overrides[-1]!r} (expected a value)")
    for flag, text in zip(overrides[::2], overrides[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected --path value pairs, got {flag!r}")
        path = flag[2:].split(".")
        if not all(path):
            raise ConfigError(f"bad override path {flag!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object at {key!r}")
        node[path[-1]] = value
    return raw


def load_config(path: str, overrides: list[str]) -> RunConfig:
    """The validated config of the JSON file at ``path`` with the
    overrides applied.  A file that cannot be read, is not UTF-8 or is
    not JSON, and a config nested too deeply to parse or validate,
    raise :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    try:
        apply_overrides(raw, overrides)
        return build_run_config(raw)
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to validate") from exc


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or ``path`` opened for writing, flushed at the
    end.  A path that cannot be opened, or an output that cannot be
    written (a full device, say), is a config error naming it; a closed
    standard output raises ``BrokenPipeError``."""
    name = "standard output" if path is None else f"output.path {path!r}"
    try:
        with (
            contextlib.nullcontext(sys.stdout)
            if path is None
            else open(path, "w", encoding="utf-8")
        ) as handle:
            yield handle
            handle.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot write {name}: {exc.strerror or exc}") from exc


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])


# Rows of a component table evaluated at once.  A chunk holds
# GF_ROW_CHUNK * (N + 1) * d^2 complex entries, and (N + 1) d is capped
# at max_dimension, so a chunk stays below GF_ROW_CHUNK * max_dimension
# * d * 16 B: about 32 MiB * d at the default cap of 8192.  The cap is
# what bounds the memory of gf; the chunking alone would not.  Beside
# the table of its E doubles, the writer holds a buffer that sorts half
# of the chunk's rows, and at most E / GF_DISTINCT_RATIO words.
GF_ROW_CHUNK = 256
# A chunk is printed from its distinct doubles, each formatted once,
# when at most one double in GF_DISTINCT_RATIO is distinct.  At that
# limit the words (about 83 B each: the string, its reference and its
# key) still take less than the table's 8 B per double.
GF_DISTINCT_RATIO = 12


@dataclass(frozen=True)
class _GfFormat:
    """Text of a ``gf`` output format around its records.

    A record is ``lead + time + tail``.  Times and values are printed
    with the ``%`` format ``number``; ``tail`` is a ``str.format``
    template of t', name, row, col and ``value``, the ``%`` slot of the
    real and of the imaginary part.
    """

    header: str
    separator: str
    lead: str
    number: str
    tail: str
    footer: str


# CSV prints a double with %.17g.  JSON prints it with %r, the repr
# that json.dumps uses for a finite double; a component name is plain
# ASCII (it is a key of COMPONENT_NAMES), so quoting it is its JSON form.
_GF_FORMATS = {
    "csv": _GfFormat(
        header=CSV_HEADER + "\n",
        separator="",
        lead="",
        number="%.17g",
        tail=",{t_prime},{name},{row},{col},{value},{value}\n",
        footer="",
    ),
    "json": _GfFormat(
        header="[\n",
        separator=",\n",
        lead='  {"t": ',
        number="%r",
        tail=(
            ', "t_prime": {t_prime}, "component": "{name}", "row": {row}, '
            '"col": {col}, "re": {value}, "im": {value}}}'
        ),
        footer="\n]\n",
    ),
}


def _sorted_distinct(values: np.ndarray, limit: int) -> np.ndarray | None:
    """The distinct entries of the sorted 1-d array ``values``, or None
    when there are more than ``limit`` of them."""
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep] if np.count_nonzero(keep) <= limit else None


def _distinct_bits(bits: np.ndarray, limit: int) -> np.ndarray | None:
    """The distinct entries of the 2-d array ``bits``, sorted, or None
    when there are more than ``limit`` of them.  Its rows are sorted in
    three pieces, the first eighth, the rest of the first half and the
    second half, so the sort buffer holds at most half of its rows,
    rounded up, and
    a table with most entries distinct is refused after an eighth; the
    distinct entries of the pieces are merged by sorting them again."""
    distinct = np.empty(0, dtype=bits.dtype)
    eighth, half = -(-len(bits) // 8), (len(bits) + 1) // 2
    for rows in (bits[:eighth], bits[eighth:half], bits[half:]):
        found = _sorted_distinct(np.sort(rows, axis=None), limit)
        if found is None:
            return None
        distinct = _sorted_distinct(np.sort(np.concatenate((distinct, found))), limit)
        if distinct is None:
            return None
    return distinct


def _write_chunk(handle, fmt: _GfFormat, table, stamps, tails, separator) -> None:
    """Write the records of one chunk's ``table``, one string per table
    row, after ``separator``; ``stamps`` are the row times as printed.

    The tails of a row's records are fixed; per row they are joined with
    the row's time into one template, filled by one ``%`` from the row's
    interleaved real and imaginary parts.  ``tails(fmt.number)`` are
    those tails, and ``tails("%s")`` the same with string slots.  When at
    most one double in ``GF_DISTINCT_RATIO`` of a chunk of at least as
    many rows is distinct, each distinct
    double is formatted once, and a row is filled from those words,
    looked up by the bits of its doubles: -0.0 and 0.0 stay apart, so
    the bytes are those of formatting in place, as is done otherwise.
    What this holds is freed when it returns.
    """
    parts = table.reshape(len(table), -1).view(np.float64)
    bits = parts.view(np.int64)
    # A chunk of fewer than GF_DISTINCT_RATIO rows is formatted in place
    # without the test: its limit is less than one row's doubles, and no
    # component stays under that (a table of t - t' alone holds a value
    # for each difference of a row and a column, a step's zeros aside).
    # That is a grid of N < 11, or the last few rows of a grid.
    distinct = (
        _distinct_bits(bits, parts.size // GF_DISTINCT_RATIO)
        if len(parts) >= GF_DISTINCT_RATIO
        else None
    )
    if distinct is None:
        row_tails = tails(fmt.number)
        rows = map(np.ndarray.tolist, parts)
    else:
        row_tails = tails("%s")
        # One double at a time: a list of them would cost 32 B each.
        words = np.fromiter(
            (fmt.number % x for x in map(float, distinct.view(np.float64))),
            dtype=object,
            count=distinct.size,
        )
        rows = (words.take(distinct.searchsorted(row)).tolist() for row in bits)
    for stamp, values in zip(stamps, rows):
        head = fmt.lead + stamp
        template = separator + head + (fmt.separator + head).join(row_tails)
        handle.write(template % tuple(values))
        separator = fmt.separator


def _write_gf(config: RunConfig, grid: TimeGrid, handle) -> None:
    """Write the tables of ``grid`` one table row at a time.

    Components come in config order, each evaluated in chunks of at
    most ``GF_ROW_CHUNK`` rows of the time grid against all of its
    times; a chunk's table has shape ``(rows, N + 1, d, d)`` and is
    written by :func:`_write_chunk`, which frees all it holds, and the
    table is freed before the next is evaluated.  Each time is printed
    once per grid.  A whole chunk is never joined, so memory stays at one
    table of E doubles, a sort buffer of half its rows, at most
    ``E / GF_DISTINCT_RATIO`` words and one row of text.  Raises
    ``FloatingPointError`` when a table is not finite, after the rows
    before it.
    """
    fmt = _GF_FORMATS[config.output_format]
    times = grid.times
    stamps = [fmt.number % t for t in times.tolist()]
    d = config.system.dimension
    handle.write(fmt.header)
    separator = ""
    for name in config.components:
        built = {}

        def tails(value, name=name, built=built):
            """The record tails of a table row with ``value`` slots, built
            when a chunk of this component first needs them."""
            if value not in built:
                tail = fmt.tail.replace("{value}", value)
                built[value] = [
                    tail.format(t_prime=t_prime, name=name, row=r, col=c)
                    for t_prime in stamps
                    for r in range(d)
                    for c in range(d)
                ]
            return built[value]

        for start in range(0, times.size, GF_ROW_CHUNK):
            table = component_table(
                config.system,
                times[start : start + GF_ROW_CHUNK],
                times,
                COMPONENT_NAMES[name],
                grid.t_initial,
            )
            if not np.isfinite(table).all():
                raise FloatingPointError(
                    f"component {name} is not finite on rows from t = {times[start]:.17g}"
                )
            _write_chunk(
                handle, fmt, table, stamps[start : start + len(table)], tails, separator
            )
            # Not kept into the evaluation of the next chunk.
            del table
            separator = fmt.separator
    handle.write(fmt.footer)


def _write_text(path: str | None, text: str) -> None:
    """``text`` and a newline to :func:`_output` of ``path``."""
    with _output(path) as handle:
        handle.write(text)
        handle.write("\n")


def cmd_gf(config: RunConfig) -> int:
    # Refused before the output is opened, so a refused run writes nothing.
    if len(config.n_slices) != 1:
        raise ConfigError("gf requires grid.n_slices as a single integer")
    (grid,) = config.grids()
    dimension = (grid.n_slices + 1) * config.system.dimension
    if dimension > config.max_dimension:
        raise GridTooLargeError(
            f"component table dimension {dimension} exceeds cap {config.max_dimension}"
        )
    with _output(config.output_path) as handle:
        _write_gf(config, grid, handle)
    return EXIT_OK


def cmd_z(config: RunConfig) -> int:
    if not config.n_slices:
        raise ConfigError("z requires grid.n_slices (integer or list)")
    rows = []
    for fac in _factor(config.system, config.grids()):
        z = fac.partition_function
        rows.append(
            {
                "n_slices": fac.n_slices,
                "z_re": z.real,
                "z_im": z.imag,
                "abs_deviation": abs(z - 1.0),
            }
        )
    if config.output_format == "csv":
        text = _csv("n_slices,z_re,z_im,abs_deviation", (r.values() for r in rows))
    else:
        text = json.dumps(rows, indent=2)
    _write_text(config.output_path, text)
    return EXIT_OK


def cmd_converge(config: RunConfig) -> int:
    if len(config.n_slices) < 2:
        raise ConfigError("converge requires grid.n_slices as a list of >= 2 sizes")
    report = run_oracle_suite(config.system, config.grids(), config.max_dimension)
    if config.output_format == "csv":
        text = _csv(
            "n_slices,error,error_bound,partition_deviation,fitted_order",
            (
                (*row, report.fitted_order)
                for row in zip(
                    report.grid_sizes,
                    report.errors,
                    report.error_bounds,
                    report.partition_deviations,
                )
            ),
        )
    else:
        text = json.dumps({"schema": 1, **_as_dict(report)}, indent=2)
    _write_text(config.output_path, text)
    return EXIT_OK


def cmd_verify(config: RunConfig, corrupt_keldysh: bool) -> int:
    # The oracle suite runs first, so that a grid over the cap is refused
    # before any other work; the report order does not depend on it.
    convergence = None
    if len(config.n_slices) >= 2:
        convergence = run_oracle_suite(
            config.system, config.grids(), config.max_dimension
        )
    structure = run_structure_suite(
        config.system,
        t_initial=config.t_initial,
        t_final=config.t_final,
        seed=config.seed,
        threshold=config.threshold,
        corrupt_keldysh=corrupt_keldysh,
    )
    report = assemble_report(structure, convergence)
    _write_text(config.output_path, json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contourgf",
        description="Closed-time-contour Green's functions with a discrete cross-check",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gf", "tabulate components over the time grid"),
        ("verify", "run structure (and optionally convergence) checks"),
        ("z", "discrete partition function per slice count"),
        ("converge", "convergence of the discrete inverse to the closed forms"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        if name == "verify":
            cmd.add_argument(
                "--corrupt-keldysh",
                action="store_true",
                help=argparse.SUPPRESS,
            )
    return parser


# Built once: a parser holds reference cycles, and one left behind per
# call stays in memory until the cycle collector happens to run.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args, overrides = _PARSER.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        config = load_config(args.config, overrides)
        # Looked up per call, so that a rebinding of a command is seen.
        return {
            "gf": cmd_gf,
            "z": cmd_z,
            "converge": cmd_converge,
            "verify": partial(
                cmd_verify, corrupt_keldysh=getattr(args, "corrupt_keldysh", False)
            ),
        }[args.command](config)
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (ConfigError, GridTooLargeError, ThermalDivergenceError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        SingularMatrixError,
        NonHermitianError,
        OccupationOutOfRangeError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # Standard output takes nothing more (its reader is gone, or its
        # device is full): what is still buffered goes to the null device,
        # so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
