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
import stat
import sys
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii

import numpy as np

from .continuum import (
    KeldyshComponent,
    component_table,
    keldysh_weight,
    thermal_nbar,
)
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
    grids: tuple[TimeGrid, ...]
    output_format: str
    components: list[str]
    output_path: str | None
    seed: int
    threshold: float
    max_dimension: int


# Nesting levels a matrix value may have: numpy builds no array of more
# than 64 dimensions.
MAX_NESTING = 64


def _cell(x) -> str:
    """A CSV cell: an integer as it is, None empty, another number %.17g."""
    return "" if x is None else str(x) if isinstance(x, int) else f"{x:.17g}"


# Types of config values that hold no other value.
_SCALAR_TYPES = {int, float, bool, str, type(None)}


def _contains_bool(value, depth: int = 0) -> bool:
    """Whether a boolean sits anywhere in nested lists and dicts.  The
    types of a list's items are collected in one pass, so a row of
    numbers costs no Python loop; a list or dict that holds anything
    else walks its items in order, and the first of a boolean or a
    container holding one decides.  Raises :class:`ConfigError` for
    more than ``MAX_NESTING`` levels of lists and dicts."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return type(value) is bool
    if depth >= MAX_NESTING:
        raise ConfigError("config is nested too deeply to validate")
    kinds = set(map(type, value))
    if kinds <= _SCALAR_TYPES:
        return bool in kinds
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
    # An object names at least one part: {} is no matrix.
    if isinstance(value, dict) and value and set(value) <= {"re", "im"}:
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

    t_initial, t_final, grids = 0.0, 1.0, ()
    grid_raw = raw.get("grid")
    if grid_raw is not None:
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object")
        _check_keys(grid_raw, "grid")
        t_initial = _real(grid_raw.get("t_initial", 0.0), "grid.t_initial")
        t_final = _real(grid_raw.get("t_final", 1.0), "grid.t_final")
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
        try:
            grids = tuple(TimeGrid(t_initial, t_final, n) for n in n_slices)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

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
        grids=grids,
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
    """Standard output, or ``path`` opened by :func:`_opened`, flushed
    at the end.  A path that cannot be opened (a directory, say), or an
    output that cannot be written (a full device), is a config error
    naming it; a closed standard output raises ``BrokenPipeError``."""
    name = "standard output" if path is None else f"output.path {path!r}"
    try:
        with _opened(path) as handle:
            yield handle
            handle.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot write {name}: {exc.strerror or exc}") from exc


def _opened(path: str | None):
    """Standard output, or a writer of ``path``: a regular file there,
    or none, is written through :func:`_replacing`, so a block that
    raises leaves an existing file as it was and creates none; a device
    or a pipe takes the bytes as they are written, as standard output
    does.  A symbolic link is followed to the file it names, as
    ``open`` follows it."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        return _replacing(target, mode)
    return open(path, "w", encoding="utf-8")


@contextlib.contextmanager
def _replacing(path: str, mode: int | None):
    """A new text file in the directory of ``path`` that replaces
    ``path`` when the block completes and is removed when it raises.
    It takes the permission bits of the file it replaces (``mode``, its
    ``st_mode``), or, for a new file, those ``open(path, "w")`` gives."""
    folder, base = os.path.split(path)
    temporary = os.path.join(folder, f".{base[:64]}.{os.urandom(8).hex()}.tmp")
    # 0o666 less the umask, and never a file that is there already.
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(descriptor, stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])


# Rows of a component table evaluated at once.  A chunk holds
# GF_ROW_CHUNK * (N + 1) * d^2 complex entries, and (N + 1) d is capped
# at max_dimension, so a chunk stays below GF_ROW_CHUNK * max_dimension
# * d * 16 B: about 32 MiB * d at the default cap of 8192.  The cap is
# what bounds the memory of gf; the chunking alone would not.  Beside
# the table of its E doubles, the writer holds a buffer that sorts an
# eighth of the chunk's rows during the distinct test (and then at most
# GF_SORT_KEYS entries with the distinct entries so far), at most
# E / GF_DISTINCT_RATIO words, the arrays of one pass of the formatter
# (about 80 B per double of its BLOCK) and the words of one block of
# rows formatted in place, one lookup block's index arrays (about 32 B
# per key), and one row's pieces and text.
GF_ROW_CHUNK = 256
# A chunk is printed from its distinct doubles, each formatted once,
# when at most one double in GF_DISTINCT_RATIO is distinct: the test
# and the lookups cost less than formatting every double.  At that
# limit the words (about 64 B each: the bytes and its reference) and
# their keys still take less than the table's 8 B per double.
GF_DISTINCT_RATIO = 12
# Entries the distinct test holds at once after its sample of every
# eighth row, in a block of rows and the distinct entries so far, where
# an eighth of the chunk is less (1 MiB): about what the sample of the
# largest chunks takes (0.94 MiB for 32 rows at d = 2, N = 480), while
# a chunk of at most GF_SORT_KEYS entries is sorted in the sample and
# two halves.
GF_SORT_KEYS = 2**17
# Doubles whose words are looked up with one sort: the rows of a chunk
# printed from its distinct doubles go in blocks of as many rows as
# hold at most this many doubles, or of one row.
GF_LOOKUP_KEYS = 1024


@dataclass(frozen=True)
class _GfFormat:
    """Text of a ``gf`` output format around its records.

    A record is ``lead + time + tail + re + middle + im + end``, and
    records are joined by ``separator``, all ASCII bytes.  Times and
    values are printed by :func:`format_doubles` with the ``%`` format
    ``number``; ``tail`` is a bytes ``%`` template of t', name, row and
    col.
    """

    header: bytes
    separator: bytes
    lead: bytes
    number: str
    tail: bytes
    middle: bytes
    end: bytes
    footer: bytes


# CSV prints a double with %.17g.  JSON prints it with %r, the repr
# that json.dumps uses for a finite double; a component name is plain
# ASCII (it is a key of COMPONENT_NAMES), so quoting it is its JSON form.
_GF_FORMATS = {
    "csv": _GfFormat(
        header=CSV_HEADER.encode() + b"\n",
        separator=b"",
        lead=b"",
        number="%.17g",
        tail=b",%s,%s,%d,%d,",
        middle=b",",
        end=b"\n",
        footer=b"",
    ),
    "json": _GfFormat(
        header=b"[\n",
        separator=b",\n",
        lead=b'  {"t": ',
        number="%r",
        tail=b', "t_prime": %s, "component": "%s", "row": %d, "col": %d, "re": ',
        middle=b', "im": ',
        end=b"}",
        footer=b"\n]\n",
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
    when there are more than ``limit`` of them.

    Its rows are sorted in pieces, each copied once: first a sample of
    every eighth row, then all rows in order, in blocks of at most half
    the rows, or of one row, that hold with the distinct entries so far
    no more entries than an eighth of the table or ``GF_SORT_KEYS``,
    whichever is more.  With the writer's limit, a twelfth of the chunk,
    a block holds at least a twenty-fourth of it.  A
    table with most entries distinct is refused after the sample, which
    spans the table, even when its first rows repeat few doubles, as R's
    zeros before the step do; the sampled rows are sorted again in their
    block, which costs less than picking the others out.  The distinct
    entries of each piece are merged into those so far by a stable sort,
    which merges the two sorted runs in one pass."""
    width, half = bits.shape[1], (len(bits) + 1) // 2
    budget = max(bits.size // 8, GF_SORT_KEYS)
    distinct, rows, start = np.empty(0, dtype=bits.dtype), bits[::8], 0
    while rows.size:
        found = _sorted_distinct(np.sort(rows, axis=None), limit)
        if found is None:
            return None
        merged = np.concatenate((distinct, found))
        del distinct, found
        merged.sort(kind="stable")
        distinct = _sorted_distinct(merged, limit)
        del merged
        if distinct is None:
            return None
        step = max(1, min(half, (budget - distinct.size) // width))
        rows, start = bits[start : start + step], start + step
    return distinct


def _word_rows(bits: np.ndarray, distinct: np.ndarray):
    """Per row of ``bits``, the index in ``distinct`` (sorted, holding
    every entry of ``bits``) of each of its entries.  The rows are looked
    up in blocks of at most ``GF_LOOKUP_KEYS`` entries, or of one row,
    each sorted first, so the search walks ``distinct`` once per block."""
    step = max(1, GF_LOOKUP_KEYS // bits.shape[1])
    for start in range(0, len(bits), step):
        keys = bits[start : start + step].reshape(-1)
        order = keys.argsort()
        index = np.empty_like(order)
        index[order] = distinct.searchsorted(keys[order])
        # Not held while the block's rows are written.
        del order
        yield from index.reshape(-1, bits.shape[1])


def _formatted_rows(parts: np.ndarray, spec: str):
    """The words of each row of the 2-d array ``parts``, formatted in
    place by :func:`format_doubles`, one block of as many rows as hold
    at most ``BLOCK`` doubles, or of one row, at a time."""
    from ._doubles import BLOCK, format_doubles

    step = max(1, BLOCK // parts.shape[1])
    for start in range(0, len(parts), step):
        block = parts[start : start + step]
        yield from format_doubles(block.reshape(-1), spec).reshape(block.shape)


def _write_chunk(write, fmt: _GfFormat, table, stamps, tails, separator) -> None:
    """Write the records of one chunk's ``table`` by ``write``, one bytes
    object per table row, after ``separator``; ``stamps`` are the row
    times as printed and ``tails`` the printed tails of a row's records,
    both as bytes.

    Every word comes from :func:`format_doubles`.  When at most one
    double in ``GF_DISTINCT_RATIO`` of a chunk of at least as many rows
    is distinct, each distinct double is formatted once, and a row's
    words are looked up by the bits of its doubles: -0.0 and 0.0 stay
    apart, so the bytes are those of formatting in place.  Otherwise
    the chunk's doubles are formatted in place, in table order.  A row
    is then one ``bytes.join`` of its record pieces: the
    lead and the stamp, carrying the previous record's end and
    separator, the tail, the real part's word, the middle and the
    imaginary part's word, and the last record's end.  What this holds
    is freed when it returns.
    """
    from ._doubles import format_doubles

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
        rows = _formatted_rows(parts, fmt.number)
    else:
        # As bytes objects: a row takes them by reference, where the
        # words of an S24 array would each be a new object per row.
        words = format_doubles(distinct.view(np.float64), fmt.number).astype(object)
        rows = map(words.take, _word_rows(bits, distinct))
    records = len(tails)
    pieces = [None] * (5 * records + 1)
    pieces[1::5] = tails
    pieces[3::5] = [fmt.middle] * records
    pieces[-1] = fmt.end
    carry = fmt.end + fmt.separator + fmt.lead
    for stamp, row in zip(stamps, rows):
        pieces[0:-1:5] = [carry + stamp] * records
        pieces[0] = separator + fmt.lead + stamp
        row = row.tolist()
        pieces[2::5] = row[0::2]
        pieces[4::5] = row[1::2]
        write(b"".join(pieces))
        separator = fmt.separator


def _byte_writer(handle):
    """A function that writes ASCII bytes to the text stream ``handle``:
    to its binary buffer, after the text it holds, when it has one whose
    encoding and line ends leave ASCII as it is, so a row is neither
    decoded nor encoded again; otherwise decoded, as text."""
    buffer, encoding = getattr(handle, "buffer", None), getattr(handle, "encoding", None)
    if buffer is None or not encoding or os.linesep != "\n" or "\n0".encode(encoding) != b"\n0":
        return lambda data: handle.write(data.decode())
    handle.flush()
    return buffer.write


def _write_gf(config: RunConfig, grid: TimeGrid, handle) -> None:
    """Write the tables of ``grid`` one table row at a time.

    Components come in config order, each evaluated in chunks of at
    most ``GF_ROW_CHUNK`` rows of the time grid against all of its
    times; a chunk's table has shape ``(rows, N + 1, d, d)`` and is
    written by :func:`_write_chunk`, which frees all it holds, and the
    table is freed before the next is evaluated.  Each time is printed
    once per grid.  A whole chunk is never joined, so memory stays at
    one table of E doubles; a sort buffer of an eighth of its rows, or
    of ``GF_SORT_KEYS`` entries, during the distinct test only; at most ``E / GF_DISTINCT_RATIO`` words; one
    pass of the formatter (``BLOCK`` doubles) and the words of one block
    of rows formatted in place (``BLOCK`` doubles, or one row);
    one lookup block's index arrays; and one row's pieces and text.
    Raises ``FloatingPointError`` when a table is not finite, after the
    rows before it.
    """
    # Imported by the one command that prints doubles, not with the CLI.
    from ._doubles import format_doubles

    fmt = _GF_FORMATS[config.output_format]
    times = grid.times
    stamps = format_doubles(times, fmt.number).tolist()
    d = config.system.dimension
    write = _byte_writer(handle)
    write(fmt.header)
    separator = b""
    for name in config.components:
        # Built after the component's first table, not beside it.
        tails = None
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
            if tails is None:
                tails = [
                    fmt.tail % (t_prime, name.encode(), r, c)
                    for t_prime in stamps
                    for r in range(d)
                    for c in range(d)
                ]
            _write_chunk(
                write, fmt, table, stamps[start : start + len(table)], tails, separator
            )
            # Not kept into the evaluation of the next chunk.
            del table
            separator = fmt.separator
    write(fmt.footer)


# The words json.dumps writes for the doubles that have no repr in JSON.
_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, to the
    byte: strings with ASCII escapes, None, booleans, ints and floats by
    their ``repr`` (``NaN``, ``Infinity`` and ``-Infinity`` for the
    doubles without one), lists and tuples as arrays and dicts with
    string keys as objects, each item on a line of its own, ``indent``
    (a newline and the spaces of the enclosing level) and two spaces
    more.  Unlike the standard encoder with an indent, it makes no
    closures, so it leaves no reference cycles behind."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_TOKENS.get(text, text)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_text(path: str | None, text: str) -> None:
    """``text`` and a newline to :func:`_output` of ``path``."""
    with _output(path) as handle:
        handle.write(text)
        handle.write("\n")


def cmd_gf(config: RunConfig) -> int:
    # Refused before the output is opened, so a refused run writes nothing.
    if len(config.grids) != 1:
        raise ConfigError("gf requires grid.n_slices as a single integer")
    (grid,) = config.grids
    dimension = (grid.n_slices + 1) * config.system.dimension
    if dimension > config.max_dimension:
        raise GridTooLargeError(
            f"component table dimension {dimension} exceeds cap {config.max_dimension}"
        )
    # K and the branch components read W, which overflows for a boson
    # occupation near the largest double.
    ret, adv, _, zero = KeldyshComponent  # in definition order
    if {COMPONENT_NAMES[name] for name in config.components} - {ret, adv, zero}:
        keldysh_weight(config.system)
    with _output(config.output_path) as handle:
        _write_gf(config, grid, handle)
    return EXIT_OK


def cmd_z(config: RunConfig) -> int:
    if not config.grids:
        raise ConfigError("z requires grid.n_slices (integer or list)")
    rows = []
    for fac in _factor(config.system, config.grids):
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
        text = _json_text(rows)
    _write_text(config.output_path, text)
    return EXIT_OK


def cmd_converge(config: RunConfig) -> int:
    if len(config.grids) < 2:
        raise ConfigError("converge requires grid.n_slices as a list of >= 2 sizes")
    report = run_oracle_suite(config.system, config.grids, config.max_dimension)
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
        text = _json_text({"schema": 1, **_as_dict(report)})
    _write_text(config.output_path, text)
    return EXIT_OK


def cmd_verify(config: RunConfig, corrupt_keldysh: bool) -> int:
    # The oracle suite runs first, so that a grid over the cap is refused
    # before any other work; the report order does not depend on it.
    convergence = None
    if len(config.grids) >= 2:
        convergence = run_oracle_suite(
            config.system, config.grids, config.max_dimension
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
    _write_text(config.output_path, _json_text(report))
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
