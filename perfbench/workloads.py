"""Seeded workload generation.

A workload is a fixed list of CLI calls.  Every energy matrix and
occupation matrix is generated from the seed; the program only sees the
resulting config files, passed to ``cli.main`` as ``--config <path>``.

Energy matrices are random Hermitian matrices with a seeded spectrum in
[-1, 1].  Occupation matrices have a fixed spectrum (evenly spaced
centres of the stated range) in an independent random eigenbasis, so
the two do not commute and the many-level code paths run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("oracle", "partition", "tabulate", "structure")

# The reference kernel (see reference.py) whose kind of work dominates
# each workload: the dense LU, the gf writer, or many small numpy calls.
REFERENCE_KIND = {"oracle": "lu", "partition": "lu", "tabulate": "py", "structure": "np"}

# Problem sizes.  "full" is what the benchmark measures; "tiny" is the
# smoke mode, which exercises the same calls in a fraction of a second.
SIZES = {
    "full": {
        "oracle_n": [64, 128, 256],
        "partition_n": [192, 384, 768],
        "csv_n": 120,
        "json_n": 30,
        "structure_d": [1, 2, 3, 4, 5, 6, 8, 10],
    },
    "tiny": {
        "oracle_n": [16, 32, 64],
        "partition_n": [8, 16, 32],
        "csv_n": 12,
        "json_n": 6,
        "structure_d": [1, 2, 3],
    },
}

CSV_COMPONENTS = ["R", "A", "K"]
JSON_COMPONENTS = ["++", "+-", "-+", "--"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``contourgf <command> --config <file> <extra>``."""

    label: str
    command: str
    config: dict
    extra: tuple[str, ...] = field(default=())

    def argv(self, config_path: str) -> list[str]:
        return [self.command, "--config", config_path, *self.extra]


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _hermitian(rng: np.random.Generator, spectrum) -> dict:
    """Hermitian matrix with the given spectrum, as a config ``{re, im}``."""
    v = _haar_unitary(rng, len(spectrum))
    m = (v * np.asarray(spectrum, dtype=float)) @ v.conj().T
    m = (m + m.conj().T) / 2
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _centres(lo: float, hi: float, d: int) -> np.ndarray:
    return lo + (hi - lo) * (np.arange(d) + 0.5) / d


def _config(rng, statistics, d, nbar_range, t_final, n_slices, output=None) -> dict:
    raw = {
        "statistics": statistics,
        "epsilon": _hermitian(rng, rng.uniform(-1.0, 1.0, size=d)),
        "nbar": _hermitian(rng, _centres(*nbar_range, d)),
        "grid": {"t_initial": 0.0, "t_final": t_final, "n_slices": n_slices},
        "output": output or {"format": "json"},
    }
    return raw


def _gf_calls(seed: int, csv_n: int, json_n: int) -> list[Call]:
    """A CSV call for a single fermion level and a JSON call for a
    two-level boson, together covering both output formats."""
    rng = np.random.default_rng([seed, 3])
    csv = {
        "statistics": "fermion",
        "epsilon": 1.0,
        "nbar": 0.3,
        "grid": {"t_initial": 0.0, "t_final": 1.0, "n_slices": csv_n},
        "output": {"format": "csv", "components": CSV_COMPONENTS},
    }
    js = _config(
        rng, "boson", 2, (0.2, 1.5), 1.0, json_n,
        output={"format": "json", "components": JSON_COMPONENTS},
    )
    return [Call("gf-csv", "gf", csv), Call("gf-json", "gf", js)]


def build_calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The calls of one pass over ``workload`` for this seed."""
    s = SIZES[size]
    if workload == "oracle":
        rng = np.random.default_rng([seed, 1])
        return [Call("converge", "converge",
                     _config(rng, "boson", 2, (0.2, 1.5), 1.0, s["oracle_n"]))]
    if workload == "partition":
        rng = np.random.default_rng([seed, 2])
        return [Call("z", "z",
                     _config(rng, "fermion", 2, (0.2, 0.8), 1.0, s["partition_n"]))]
    if workload == "tabulate":
        return _gf_calls(seed, s["csv_n"], s["json_n"])
    if workload == "structure":
        rng = np.random.default_rng([seed, 4])
        calls = []
        for d in s["structure_d"]:
            for statistics, occ in (("boson", (0.0, 3.0)), ("fermion", (0.05, 0.95))):
                raw = _config(rng, statistics, d, occ, 2.0, 1)
                raw["seed"] = seed
                calls.append(Call(f"verify-d{d}-{statistics}", "verify", raw))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def discrete_grids(calls: list[Call]) -> int:
    """Number of contour grids the discrete route processes in one pass."""
    total = 0
    for call in calls:
        slices = call.config.get("grid", {}).get("n_slices")
        count = len(slices) if isinstance(slices, list) else 1
        if call.command in ("z", "converge") or (call.command == "verify" and count >= 2):
            total += count
    return total
