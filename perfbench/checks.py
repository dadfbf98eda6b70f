"""Output checks for every CLI call the benchmark makes.

Each check recomputes what the output must hold from the config alone,
using formulas independent of the package under test:

* ``gf``: exact header or framing, exact row count, and a seeded sample
  of rows re-parsed and compared with closed forms built on
  ``scipy.linalg.expm``.
* ``z`` and the partition deviations of ``converge``: the loop-product
  determinant ``Z = det(1 - zeta rho)^zeta det(1 - zeta rho^T L)^(-zeta)``
  with ``L = hbar^(N-1) h^(N-1)``, which costs O(d^3 log N).
* ``converge``: every error within its bound, errors falling in
  proportion to the grid spacing, fitted order 1 +- 0.2.
* ``verify``: exit code 0 and a report that says ``passed``.

A check returns ``None`` when the output is correct and a one-line
reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm

GF_SAMPLE_ROWS = 256
GF_TOLERANCE = 1e-12
Z_TOLERANCE = 1e-10
ORDER_TOLERANCE = 0.2
RATIO_TOLERANCE = 0.2
CSV_HEADER = "t,t_prime,component,row,col,re,im"
JSON_KEYS = ["t", "t_prime", "component", "row", "col", "re", "im"]

# Documented component names and aliases, resolved to the rotated
# components (R, A, K, zero) or to (row branch sign, column branch sign).
_ROTATED = {"R": "R", "A": "A", "K": "K", "qq": "zero",
            "11": "R", "12": "K", "21": "zero", "22": "A"}
_BRANCH = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


def parse_matrix(value) -> np.ndarray:
    """A config matrix field (number, nested list or ``{re, im}``)."""
    if isinstance(value, dict):
        return (np.array(value.get("re", 0), dtype=float)
                + 1j * np.array(value.get("im", 0), dtype=float))
    return np.atleast_2d(np.array(value, dtype=complex))


def system_of(config: dict) -> tuple[np.ndarray, np.ndarray, int]:
    zeta = 1 if config["statistics"] == "boson" else -1
    return parse_matrix(config["epsilon"]), parse_matrix(config["nbar"]), zeta


def loop_product_z(config: dict, n_slices: int) -> complex:
    """Discrete partition function from the loop product of the transfer
    blocks, without building the contour matrix."""
    eps, nbar, zeta = system_of(config)
    grid = config["grid"]
    dt = (grid["t_final"] - grid["t_initial"]) / n_slices
    eye = np.eye(eps.shape[0])
    rho = nbar @ np.linalg.inv(eye + zeta * nbar)
    h = np.linalg.matrix_power(eye - 1j * dt * eps, n_slices - 1)
    hbar = np.linalg.matrix_power(eye + 1j * dt * eps, n_slices - 1)
    prefactor = np.linalg.det(eye - zeta * rho).real ** zeta
    return complex(prefactor * np.linalg.det(eye - zeta * rho.T @ hbar @ h) ** (-zeta))


class ClosedForm:
    """Continuum components from matrix exponentials of the energy."""

    def __init__(self, config: dict):
        self.eps, nbar, self.zeta = system_of(config)
        self.weight = np.eye(self.eps.shape[0]) + 2 * self.zeta * nbar.T
        self.t_ref = config["grid"]["t_initial"]
        self._props: dict[float, np.ndarray] = {}

    def _u(self, t: float) -> np.ndarray:
        if t not in self._props:
            self._props[t] = expm(-1j * self.eps * (t - self.t_ref))
        return self._props[t]

    def _rotated(self, kind: str, t: float, tp: float) -> np.ndarray:
        u, v = self._u(t), self._u(tp).conj().T
        step = 1.0 if t > tp else 0.0 if t < tp else 0.5
        if kind == "R":
            return -1j * step * (u @ v)
        if kind == "A":
            return 1j * (1.0 - step) * (u @ v)
        if kind == "K":
            return -1j * (u @ self.weight @ v)
        return np.zeros_like(u)

    def value(self, name: str, t: float, tp: float) -> np.ndarray:
        if name in _ROTATED:
            return self._rotated(_ROTATED[name], t, tp)
        s_row, s_col = _BRANCH[name]
        return (self._rotated("K", t, tp) + s_col * self._rotated("R", t, tp)
                + s_row * self._rotated("A", t, tp)) / 2.0


def gf_row_count(config: dict) -> int:
    n = config["grid"]["n_slices"]
    d = parse_matrix(config["epsilon"]).shape[0]
    return len(config["output"]["components"]) * (n + 1) ** 2 * d * d


def _gf_records(config: dict, text: str) -> tuple[list[str], str | None]:
    """Data rows of a ``gf`` output, after checking its framing."""
    if config["output"]["format"] == "csv":
        if not text.startswith(CSV_HEADER + "\n"):
            return [], "csv header missing or wrong"
        lines = text.split("\n")
        if lines[-1] != "":
            return [], "csv output does not end with a newline"
        return lines[1:-1], None
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != "[" or lines[-2:] != ["]", ""]:
        return [], "json output is not framed as '[' ... ']'"
    return lines[1:-2], None


def _parse_record(config: dict, line: str, last: bool):
    if config["output"]["format"] == "csv":
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"expected 7 csv fields, got {len(fields)}")
        t, tp, name, row, col, re, im = fields
        return float(t), float(tp), name, int(row), int(col), complex(float(re), float(im))
    if not line.startswith("  ") or line.endswith(",") == last:
        raise ValueError("json record not indented or separated as documented")
    obj = json.loads(line[2:].rstrip(","))
    if list(obj) != JSON_KEYS:
        raise ValueError(f"json keys {list(obj)}")
    return (obj["t"], obj["t_prime"], obj["component"], obj["row"], obj["col"],
            complex(obj["re"], obj["im"]))


def check_gf(config: dict, text: str, seed: int) -> str | None:
    records, error = _gf_records(config, text)
    if error:
        return error
    expected_rows = gf_row_count(config)
    if len(records) != expected_rows:
        return f"gf wrote {len(records)} rows, expected {expected_rows}"
    grid = config["grid"]
    n = grid["n_slices"]
    times = np.linspace(grid["t_initial"], grid["t_final"], n + 1)
    d = parse_matrix(config["epsilon"]).shape[0]
    names = config["output"]["components"]
    closed = ClosedForm(config)
    rng = np.random.default_rng([seed, expected_rows])
    sample = {0, expected_rows - 1}
    sample.update(rng.choice(expected_rows, size=min(GF_SAMPLE_ROWS, expected_rows),
                             replace=False).tolist())
    per_component = (n + 1) ** 2 * d * d
    for i in sorted(sample):
        comp, rest = divmod(i, per_component)
        n_idx, rest = divmod(rest, (n + 1) * d * d)
        m_idx, rest = divmod(rest, d * d)
        r, c = divmod(rest, d)
        try:
            t, tp, name, row, col, value = _parse_record(
                config, records[i], last=i == expected_rows - 1)
        except (ValueError, KeyError, TypeError) as exc:
            return f"gf row {i} does not parse: {exc}"
        if (t, tp, name, row, col) != (times[n_idx], times[m_idx], names[comp], r, c):
            return f"gf row {i} labels {(t, tp, name, row, col)} out of order"
        want = complex(closed.value(name, t, tp)[r, c])
        if abs(value - want) > GF_TOLERANCE * max(1.0, abs(want)):
            return f"gf row {i} value {value} differs from closed form {want}"
    return None


def _z_mismatch(config: dict, n_slices: int, deviation: float, z=None) -> str | None:
    ref = loop_product_z(config, n_slices)
    scale = Z_TOLERANCE * abs(ref)
    if z is not None and abs(z - ref) > scale:
        return f"Z at N={n_slices} is {z}, loop product gives {ref}"
    if abs(deviation - abs(ref - 1.0)) > scale:
        return f"|Z-1| at N={n_slices} is {deviation}, loop product gives {abs(ref - 1.0)}"
    return None


def check_z(config: dict, text: str) -> str | None:
    rows = json.loads(text)
    sizes = config["grid"]["n_slices"]
    sizes = sizes if isinstance(sizes, list) else [sizes]
    if [row["n_slices"] for row in rows] != sizes:
        return f"z reported sizes {[row['n_slices'] for row in rows]}, expected {sizes}"
    for row in rows:
        z = complex(row["z_re"], row["z_im"])
        reason = _z_mismatch(config, row["n_slices"], row["abs_deviation"], z)
        if reason:
            return reason
    return None


def check_converge(config: dict, text: str) -> str | None:
    report = json.loads(text)
    sizes = report["grid_sizes"]
    errors = report["errors"]
    if sizes != config["grid"]["n_slices"]:
        return f"converge reported sizes {sizes}"
    for size, err, bound in zip(sizes, errors, report["error_bounds"]):
        if not err <= bound:
            return f"oracle error {err} at N={size} exceeds bound {bound}"
    for i in range(len(sizes) - 1):
        ratio = errors[i] / errors[i + 1]
        expected = sizes[i + 1] / sizes[i]
        if abs(ratio / expected - 1.0) > RATIO_TOLERANCE:
            return f"error ratio {ratio:.3f} between N={sizes[i]} and N={sizes[i + 1]}"
    order = report["fitted_order"]
    if order is None or abs(order - 1.0) > ORDER_TOLERANCE:
        return f"fitted order {order} not within 1 +- {ORDER_TOLERANCE}"
    for size, dev in zip(sizes, report["partition_deviations"]):
        reason = _z_mismatch(config, size, dev)
        if reason:
            return reason
    return None


def check_verify(text: str) -> str | None:
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or report["passed"] is not True:
        return f"verify report not passed (failed checks: {failed})"
    return None


def check_output(command: str, config: dict, code: int, text: str, seed: int) -> str | None:
    """``None`` if the call exited 0 and its output is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        if command == "gf":
            return check_gf(config, text, seed)
        if command == "z":
            return check_z(config, text)
        if command == "converge":
            return check_converge(config, text)
        if command == "verify":
            return check_verify(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{command} output unreadable: {type(exc).__name__}: {exc}"
    return f"no check for command {command!r}"
