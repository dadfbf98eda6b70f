"""Per-entry ``gf`` writer: the reference the table-row writer must match.

One record per matrix entry, each value printed on its own: CSV through
``f"{x:.17g}"`` and JSON through ``json.dumps`` of a dict.  Slow, and
kept only so the tests can compare ``gf`` output byte for byte.
Component tables come from ``contourgf.cli.component_table``, so a test
that replaces that name feeds both writers the same values.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

from contourgf import cli
from contourgf.core import GridTooLargeError


@dataclass(frozen=True)
class GfSample:
    """One tabulated matrix entry of one component."""

    t: float
    t_prime: float
    component: str
    row: int
    col: int
    value: complex

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "t_prime": self.t_prime,
            "component": self.component,
            "row": self.row,
            "col": self.col,
            "re": self.value.real,
            "im": self.value.imag,
        }


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def iter_samples(config):
    """Yield samples of every configured component over the time grid.

    Ordering is fixed: components in config order, then row-major over
    (t, t'), then row-major over matrix indices.
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
        component = cli.COMPONENT_NAMES[name]
        for start in range(0, times.size, cli.GF_ROW_CHUNK):
            chunk = times[start : start + cli.GF_ROW_CHUNK]
            table = cli.component_table(
                config.system, chunk, times, component, grid.t_initial
            )
            for n_idx, t in enumerate(chunk):
                for m_idx, t_prime in enumerate(times):
                    block = table[n_idx, m_idx]
                    for r in range(d):
                        for c in range(d):
                            yield GfSample(
                                float(t), float(t_prime), name, r, c,
                                complex(block[r, c]),
                            )


def write_gf(config, handle) -> None:
    if config.output_format == "csv":
        handle.write(cli.CSV_HEADER + "\n")
        for s in iter_samples(config):
            handle.write(
                f"{_fmt(s.t)},{_fmt(s.t_prime)},{s.component},{s.row},{s.col},"
                f"{_fmt(s.value.real)},{_fmt(s.value.imag)}\n"
            )
    else:
        handle.write("[\n")
        first = True
        for s in iter_samples(config):
            if not first:
                handle.write(",\n")
            handle.write("  " + json.dumps(s.to_dict()))
            first = False
        handle.write("\n]\n")


def gf_text(config) -> str:
    """The whole reference output of ``gf`` for ``config``."""
    buffer = io.StringIO()
    write_gf(config, buffer)
    return buffer.getvalue()
