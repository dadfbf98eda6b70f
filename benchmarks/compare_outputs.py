"""Compare the CLI output of two ``src/`` trees on every perfbench call.

Builds the calls of all four perfbench workloads (oracle, partition,
tabulate, structure) for each seed, plus seven that perfbench does not
make: the oracle config run as ``verify``, whose report then carries
the convergence suite and its checks, the first structure call with
``--corrupt-keldysh``, whose report fails, and the partition config as
``z`` and the oracle config as ``converge``, both with ``--output.format
csv``, so that the CSV writers of both commands are compared too; then,
on the span [0.5, 1.5], the two ``gf`` configs with all eight
components and the oracle config as ``verify``.  Every perfbench config
starts at t_initial = 0, where a table that took ``t`` for
``t - t_initial`` would read the same.  It runs them through
``cli.main`` of each tree, one subprocess per tree, and reports per
call the exit codes and whether the sha256 of standard output is the
same::

    python benchmarks/compare_outputs.py OLD_SRC NEW_SRC --seeds 101-110

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``contourgf``
package, for example ``src`` of a second checkout of the parent commit
and ``src`` of this one.  The calls come from ``perfbench/workloads.py``
of this checkout; generated configs go to a temporary directory, and
nothing is written under ``perfbench/`` or into either tree.  Both
trees run with one BLAS thread, as perfbench does.  When a call's
stdout differs and both outputs parse as JSON, or both as CSV with a
header, its line also gives the largest relative difference over their
numeric fields and the field where it occurs, so a change in the last
bits of a ``converge`` error can be told from a real change; when no
numeric field differs, it names the first field that does, such as
``.checks[9].details`` or ``line 2 error``.
Exits 0 when every call has the same exit code and identical stdout in
both trees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_DIR = ROOT / "perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every component gf tabulates, for the calls on a span off t = 0.
SHIFTED_COMPONENTS = ["R", "A", "K", "qq", "++", "+-", "-+", "--"]


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"1,5,9"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def seed_calls(seed: int) -> list[tuple[str, object]]:
    """``(workload, call)`` of every perfbench call for ``seed``, then the
    oracle config as ``verify``, the first structure call corrupted, the
    partition and oracle calls as CSV, and the shifted-span calls."""
    from workloads import WORKLOADS, build_calls

    calls = [(w, call) for w in WORKLOADS for call in build_calls(w, seed)]
    oracle = build_calls("oracle", seed)[0]
    structure = build_calls("structure", seed)[0]
    partition = build_calls("partition", seed)[0]
    csv = ("--output.format", "csv")
    shifted = ("--grid.t_initial", "0.5", "--grid.t_final", "1.5")
    every = ("--output.components", json.dumps(SHIFTED_COMPONENTS))
    calls += [
        (
            "oracle",
            dataclasses.replace(oracle, label="verify-oracle", command="verify"),
        ),
        (
            "structure",
            dataclasses.replace(
                structure, label="verify-corrupt", extra=("--corrupt-keldysh",)
            ),
        ),
        ("partition", dataclasses.replace(partition, label="z-csv", extra=csv)),
        ("oracle", dataclasses.replace(oracle, label="converge-csv", extra=csv)),
    ]
    calls += [
        (
            "tabulate",
            dataclasses.replace(gf, label=f"{gf.label}-shifted", extra=shifted + every),
        )
        for gf in build_calls("tabulate", seed)
    ]
    verify = dataclasses.replace(
        oracle, label="verify-shifted", command="verify", extra=shifted
    )
    return calls + [("oracle", verify)]


def run_tree(src: str, seeds: list[int]) -> list[dict]:
    """Run every call in this process against the package in ``src``;
    one record per call with its exit code, stdout digest and the file
    that holds its stdout, in a directory the caller removes."""
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(1, str(WORKLOADS_DIR))
    from contourgf import cli

    records = []
    outputs = tempfile.mkdtemp(prefix="compare_outputs_")
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        for seed in seeds:
            for workload, call in seed_calls(seed):
                with open(config_path, "w", encoding="utf-8") as handle:
                    json.dump(call.config, handle)
                buffer = io.BytesIO()
                stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    code = cli.main(call.argv(config_path))
                stdout.flush()
                output = os.path.join(outputs, f"{len(records)}.out")
                with open(output, "wb") as handle:
                    handle.write(buffer.getvalue())
                records.append(
                    {
                        "seed": seed,
                        "workload": workload,
                        "label": call.label,
                        "exit": code,
                        "sha256": hashlib.sha256(buffer.getvalue()).hexdigest(),
                        "output": output,
                    }
                )
    return records


def leaves(doc, path=""):
    """``(path, value)`` of every leaf of a JSON document, in order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from leaves(value, f"{path}[{index}]")
    else:
        yield path, doc


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``; infinite when exactly one is not finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_fields(rows: list[list[str]]):
    """``(field, value)`` of every field of a CSV table with a header,
    ``line <n> <column>``, its value a float where it parses as one."""
    header = rows[0]
    for line, row in enumerate(rows[1:], start=2):
        for name, text in zip(header, row):
            try:
                value = float(text)
            except ValueError:
                value = text
            yield f"line {line} {name}", value


def output_fields(path: str) -> list | None:
    """``(field, value)`` of every leaf of a JSON output or every field of
    a CSV one with a header; None when it is neither."""
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    try:
        return list(leaves(json.loads(text)))
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return list(csv_fields(rows))


def numeric_difference(old_path: str, new_path: str) -> str | None:
    """The largest relative difference over the numeric fields of two
    JSON or two CSV outputs and the field where it occurs or, when no
    numeric field differs, the first field that does; None when they
    are not both JSON or both CSV."""
    old_leaves, new_leaves = output_fields(old_path), output_fields(new_path)
    if old_leaves is None or new_leaves is None:
        return None
    old_fields = [(p, v) for p, v in old_leaves if is_number(v)]
    new_fields = [(p, v) for p, v in new_leaves if is_number(v)]
    if [p for p, _ in old_fields] != [p for p, _ in new_fields]:
        return "numeric fields differ in layout"
    worst, path = max(
        ((relative_difference(a, b), p) for (p, a), (_, b) in zip(old_fields, new_fields)),
        default=(0.0, ""),
    )
    if worst == 0.0:
        first = next(
            (p for (p, a), (q, b) in zip(old_leaves, new_leaves) if (p, a) != (q, b)),
            None,
        )
        if first is None:
            same = len(old_leaves) == len(new_leaves)
            return "every leaf is the same" if same else "leaves differ in layout"
        return f"no numeric field differs; first differing leaf {first or 'the root'}"
    return f"max_rel_diff {worst:.3g} at {path or 'the root'}"


def collect(src: str, seeds: list[int]) -> list[dict]:
    """Records of ``src`` from a fresh interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for key in BLAS_ENV:
        env[key] = "1"
    seed_text = ",".join(map(str, seeds))
    result = subprocess.run(
        [sys.executable, __file__, "--run", src, "--seeds", seed_text],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"error: run against {src} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?", help="src directory of the reference tree")
    parser.add_argument("new", nargs="?", help="src directory of the changed tree")
    parser.add_argument("--seeds", default="101-110", help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.run:
        json.dump(run_tree(args.run, seeds), sys.stdout)
        return 0
    if not (args.old and args.new):
        parser.error("OLD_SRC and NEW_SRC are required")
    old = collect(args.old, seeds)
    try:
        new = collect(args.new, seeds)
        try:
            return report(old, new)
        finally:
            remove_outputs(new)
    finally:
        remove_outputs(old)


def remove_outputs(records: list[dict]) -> None:
    """Delete the directory of stdout files that ``run_tree`` left."""
    if records:
        shutil.rmtree(os.path.dirname(records[0]["output"]), ignore_errors=True)


def report(old: list[dict], new: list[dict]) -> int:
    """Print one line per call and the count of identical calls."""
    if [(r["seed"], r["label"]) for r in old] != [(r["seed"], r["label"]) for r in new]:
        print("error: the trees ran different call lists", file=sys.stderr)
        return 1
    differing = 0
    print("seed workload label exit_old exit_new stdout sha256_old")
    for a, b in zip(old, new):
        same = a["exit"] == b["exit"] and a["sha256"] == b["sha256"]
        differing += not same
        line = (
            f"{a['seed']} {a['workload']} {a['label']} {a['exit']} {b['exit']} "
            f"{'same' if a['sha256'] == b['sha256'] else 'DIFFERS'} {a['sha256'][:16]}"
        )
        if a["sha256"] != b["sha256"]:
            difference = numeric_difference(a["output"], b["output"])
            if difference is not None:
                line += f" {difference}"
        print(line)
    print(f"{len(old) - differing}/{len(old)} calls identical")
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
