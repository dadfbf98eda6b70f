"""Compare the CLI output of two ``src/`` trees on every perfbench call.

Builds the calls of all four perfbench workloads (oracle, partition,
tabulate, structure) for each seed, runs them through ``cli.main`` of
each tree, one subprocess per tree, and reports per call the exit codes
and whether the sha256 of standard output is the same::

    python benchmarks/compare_outputs.py OLD_SRC NEW_SRC --seeds 101-110

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``contourgf``
package, for example ``src`` of a second checkout of the parent commit
and ``src`` of this one.  The calls come from ``perfbench/workloads.py``
of this checkout; generated configs go to a temporary directory, and
nothing is written under ``perfbench/`` or into either tree.  Both
trees run with one BLAS thread, as perfbench does.  Exits 0 when every
call has the same exit code and identical stdout in both trees, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_DIR = ROOT / "perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"1,5,9"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_tree(src: str, seeds: list[int], size: str) -> list[dict]:
    """Run every call in this process against the package in ``src``;
    one record per call with its exit code and stdout digest."""
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(1, str(WORKLOADS_DIR))
    from contourgf import cli
    from workloads import WORKLOADS, build_calls

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        for seed in seeds:
            for workload in WORKLOADS:
                for call in build_calls(workload, seed, size):
                    with open(config_path, "w", encoding="utf-8") as handle:
                        json.dump(call.config, handle)
                    buffer = io.BytesIO()
                    stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                        io.StringIO()
                    ):
                        code = cli.main(call.argv(config_path))
                    stdout.flush()
                    records.append(
                        {
                            "seed": seed,
                            "workload": workload,
                            "label": call.label,
                            "exit": code,
                            "sha256": hashlib.sha256(buffer.getvalue()).hexdigest(),
                        }
                    )
    return records


def collect(src: str, seeds: list[int], size: str) -> list[dict]:
    """Records of ``src`` from a fresh interpreter."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for key in BLAS_ENV:
        env[key] = "1"
    seed_text = ",".join(map(str, seeds))
    result = subprocess.run(
        [sys.executable, __file__, "--run", src, "--seeds", seed_text, "--size", size],
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
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.run:
        json.dump(run_tree(args.run, seeds, args.size), sys.stdout)
        return 0
    if not (args.old and args.new):
        parser.error("OLD_SRC and NEW_SRC are required")
    old = collect(args.old, seeds, args.size)
    new = collect(args.new, seeds, args.size)
    if [(r["seed"], r["label"]) for r in old] != [(r["seed"], r["label"]) for r in new]:
        print("error: the trees ran different call lists", file=sys.stderr)
        return 1
    differing = 0
    print("seed workload label exit_old exit_new stdout sha256_old")
    for a, b in zip(old, new):
        same = a["exit"] == b["exit"] and a["sha256"] == b["sha256"]
        differing += not same
        verdict = "same" if a["sha256"] == b["sha256"] else "DIFFERS"
        print(
            f"{a['seed']} {a['workload']} {a['label']} {a['exit']} {b['exit']} "
            f"{verdict} {a['sha256'][:16]}"
        )
    print(f"{len(old) - differing}/{len(old)} calls identical")
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
