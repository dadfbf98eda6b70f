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

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical error, 141 (128 + SIGPIPE) when standard output is closed
before the output is written, as by ``contourgf gf ... | head``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

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
    max_abs,
)
from .discrete import discrete_partition_function
from .verify import (
    DEFAULT_THRESHOLD,
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
    n_slices: int | None
    n_slices_list: list[int]
    output_format: str
    components: list[str]
    output_path: str | None
    seed: int
    threshold: float
    max_dimension: int

    def grid(self) -> TimeGrid:
        if self.n_slices is None:
            raise ConfigError("grid.n_slices must be a single integer here")
        return TimeGrid(self.t_initial, self.t_final, self.n_slices)

    def grids(self) -> list[TimeGrid]:
        sizes = self.n_slices_list
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"grid.n_slices must be strictly increasing, got {sizes}")
        return [TimeGrid(self.t_initial, self.t_final, n) for n in sizes]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _contains_bool(value) -> bool:
    if isinstance(value, dict):
        return any(map(_contains_bool, value.values()))
    if isinstance(value, list):
        return any(map(_contains_bool, value))
    return isinstance(value, bool)


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
    if isinstance(occ_raw, dict) and "mu" in occ_raw:
        extra = set(occ_raw) - {"mu", "T"}
        if extra or "T" not in occ_raw:
            raise ConfigError("thermal nbar must be exactly {mu, T}")
        mu = _real(occ_raw["mu"], "nbar.mu")
        temperature = _real(occ_raw["T"], "nbar.T")
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        diag = np.diag(np.diag(epsilon))
        if max_abs(epsilon - diag) > 0:
            raise ConfigError(
                "thermal nbar requires a diagonal epsilon (one energy per level)"
            )
        levels = np.diag(epsilon).real
        occ = np.diag(
            [thermal_nbar(float(e), mu, temperature, statistics) for e in levels]
        )
    else:
        occ = _parse_matrix(occ_raw, "nbar")
    try:
        system = LevelSystem(epsilon, occ, statistics)
    except (ValueError, NonHermitianError, OccupationOutOfRangeError) as exc:
        raise ConfigError(str(exc)) from exc
    return system


def build_run_config(raw: dict) -> RunConfig:
    """Validate the raw config dict into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, "")
    system = _build_system(raw)

    t_initial, t_final = 0.0, 1.0
    n_single: int | None = None
    n_list: list[int] = []
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
        if isinstance(slices, list):
            if not slices or not all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 1
                for n in slices
            ):
                raise ConfigError("grid.n_slices list must hold positive integers")
            n_list = list(slices)
        elif isinstance(slices, int) and not isinstance(slices, bool) and slices >= 1:
            n_single = slices
            n_list = [slices]
        else:
            raise ConfigError(f"bad grid.n_slices: {slices!r}")

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
        n_slices=n_single,
        n_slices_list=n_list,
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


def _open_output(path: str):
    """``path`` opened for writing; one that cannot be is a config error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output.path {path!r}: {exc.strerror}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with _open_output(path) as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


# Rows of a component table evaluated at once.  A chunk holds
# GF_ROW_CHUNK * (N + 1) * d^2 complex entries, and (N + 1) d is capped
# at max_dimension, so a chunk stays below GF_ROW_CHUNK * max_dimension
# * d * 16 B: about 32 MiB * d at the default cap of 8192.  The cap is
# what bounds the memory of gf; the chunking alone would not.
GF_ROW_CHUNK = 256


def _component_chunks(config: RunConfig):
    """Yield ``(name, first row, table)`` per component and row chunk.

    Components come in config order, each as consecutive chunks of at
    most ``GF_ROW_CHUNK`` rows of the time grid against all of its
    times; a table has shape ``(rows, N + 1, d, d)``.  Raises
    :class:`~contourgf.core.GridTooLargeError` before any evaluation
    when ``(N + 1) d`` exceeds ``max_dimension``, and
    ``FloatingPointError`` when a table is not finite.
    """
    grid = config.grid()
    times = grid.times
    d = config.system.dimension
    if (grid.n_slices + 1) * d > config.max_dimension:
        raise GridTooLargeError(
            f"component table dimension {(grid.n_slices + 1) * d} "
            f"exceeds cap {config.max_dimension}"
        )
    for name in config.components:
        component = COMPONENT_NAMES[name]
        for start in range(0, times.size, GF_ROW_CHUNK):
            table = component_table(
                config.system,
                times[start : start + GF_ROW_CHUNK],
                times,
                component,
                grid.t_initial,
            )
            if not np.isfinite(table).all():
                raise FloatingPointError(
                    f"component {name} is not finite on rows from t = {times[start]:.17g}"
                )
            yield name, start, table
            # Freed before the next chunk is evaluated.
            del table


@dataclass(frozen=True)
class _GfFormat:
    """Text of a ``gf`` output format around its records.

    A record is ``lead + time + tail``; ``tail`` is a ``str.format``
    template of t', name, row and col whose result holds two ``%``
    slots, for the real and the imaginary part.
    """

    header: str
    separator: str
    lead: str
    time: str
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
        time="%.17g",
        tail=",{t_prime},{name},{row},{col},%.17g,%.17g\n",
        footer="",
    ),
    "json": _GfFormat(
        header="[\n",
        separator=",\n",
        lead='  {"t": ',
        time="%r",
        tail=(
            ', "t_prime": {t_prime}, "component": "{name}", "row": {row}, '
            '"col": {col}, "re": %r, "im": %r}}'
        ),
        footer="\n]\n",
    ),
}


def _write_gf(config: RunConfig, handle) -> None:
    """Write the tables one table row at a time.

    Each time is printed once per grid.  Per component, the record
    tails of one table row are fixed; per table row, they are joined
    with the row's time into one template, filled by one ``%`` from the
    row's interleaved real and imaginary parts, and written as one
    string.  A whole chunk is never joined, so memory stays at one
    table plus one row of text.
    """
    fmt = _GF_FORMATS[config.output_format]
    times = config.grid().times.tolist()
    stamps = [fmt.time % t for t in times]
    d = config.system.dimension
    handle.write(fmt.header)
    separator = ""
    for name, start, table in _component_chunks(config):
        if start == 0:
            tails = [
                fmt.tail.format(t_prime=t_prime, name=name, row=r, col=c)
                for t_prime in stamps
                for r in range(d)
                for c in range(d)
            ]
        # One row of interleaved real and imaginary parts per table row.
        # Neither the table nor this view of it may live on into the
        # evaluation of the next chunk.
        parts = table.reshape(len(table), -1).view(np.float64)
        del table
        for n, stamp in enumerate(stamps[start : start + len(parts)]):
            head = fmt.lead + stamp
            template = head + (fmt.separator + head).join(tails)
            handle.write(separator + template % tuple(parts[n].tolist()))
            separator = fmt.separator
        del parts
    handle.write(fmt.footer)


def cmd_gf(config: RunConfig) -> int:
    if config.output_path is None:
        _write_gf(config, sys.stdout)
    else:
        with _open_output(config.output_path) as handle:
            _write_gf(config, handle)
    return EXIT_OK


def cmd_z(config: RunConfig) -> int:
    if not config.n_slices_list:
        raise ConfigError("z requires grid.n_slices (integer or list)")
    rows = []
    for n in config.n_slices_list:
        grid = TimeGrid(config.t_initial, config.t_final, n)
        z = discrete_partition_function(config.system, grid)
        rows.append(
            {
                "n_slices": n,
                "z_re": z.real,
                "z_im": z.imag,
                "abs_deviation": abs(z - 1.0),
            }
        )
    if config.output_format == "csv":
        lines = ["n_slices,z_re,z_im,abs_deviation"]
        for row in rows:
            lines.append(
                f"{row['n_slices']},{_fmt(row['z_re'])},{_fmt(row['z_im'])},"
                f"{_fmt(row['abs_deviation'])}"
            )
        text = "\n".join(lines)
    else:
        text = json.dumps(rows, indent=2)
    _write_output(text, config.output_path)
    return EXIT_OK


def cmd_converge(config: RunConfig) -> int:
    if len(config.n_slices_list) < 2:
        raise ConfigError("converge requires grid.n_slices as a list of >= 2 sizes")
    report = run_oracle_suite(config.system, config.grids(), config.max_dimension)
    if config.output_format == "csv":
        lines = ["n_slices,error,error_bound,partition_deviation,fitted_order"]
        order = "" if report.fitted_order is None else _fmt(report.fitted_order)
        for size, err, bound, dev in zip(
            report.grid_sizes,
            report.errors,
            report.error_bounds,
            report.partition_deviations,
        ):
            lines.append(
                f"{size},{_fmt(err)},{_fmt(bound)},{_fmt(dev)},{order}"
            )
        text = "\n".join(lines)
    else:
        text = json.dumps({"schema": 1, **asdict(report)}, indent=2)
    _write_output(text, config.output_path)
    return EXIT_OK


def cmd_verify(config: RunConfig, corrupt_keldysh: bool) -> int:
    # The oracle suite runs first, so that a grid over the cap is refused
    # before any other work; the report order does not depend on it.
    convergence = None
    if len(config.n_slices_list) >= 2:
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
    _write_output(json.dumps(report, indent=2), config.output_path)
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
        if args.command == "gf":
            code = cmd_gf(config)
        elif args.command == "z":
            code = cmd_z(config)
        elif args.command == "converge":
            code = cmd_converge(config)
        else:
            code = cmd_verify(config, args.corrupt_keldysh)
        # Flushed here, so that a closed stdout is caught here too.
        sys.stdout.flush()
        return code
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
    if code == EXIT_BROKEN_PIPE:
        # The reader is gone: what is still buffered goes to the null
        # device, so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
