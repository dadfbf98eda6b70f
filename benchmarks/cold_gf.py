"""One-shot ``gf``, ``z`` and ``verify`` runs of two ``contourgf`` trees,
each in a fresh process.

Every run pays what a command-line call pays: the interpreter, the
imports and the first use of every table.  Runs of the two trees
alternate, first side alternating too, and for each case the script
prints per side the median (with quartiles) of the process's wall time
and of ``cli.main`` alone, timed inside the process, with the pairs
each side won on ``main``::

    python benchmarks/cold_gf.py OLD_SRC NEW_SRC --pairs 20

The ``gf`` cases are one- and two-level grids of 8 and 30 slices from
``bench_gf_writer.py`` and the two calls of perfbench's ``tabulate``
workload; then ``z`` on the call of perfbench's ``partition`` workload,
``verify`` on the first call of its ``structure`` workload, and
``verify`` on the system of its ``oracle`` workload with its two
coarsest grids, which runs the oracle suite (all from ``--seed``).
Output goes to the null device.
``--json PATH`` also writes the results to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in the child: times cli.main of the tree on PYTHONPATH.
CHILD = """
import sys, time
from contourgf.cli import main
start = time.perf_counter()
code = main([sys.argv[1], "--config", sys.argv[2]])
sys.stdout.flush()
sys.stderr.write("%r %d\\n" % (time.perf_counter() - start, code))
"""


def run(src: str, command: str, config: str) -> tuple[float, float]:
    """Wall seconds of one fresh process and of its ``cli.main``."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, command, config], env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    seconds, code = done.stderr.split()
    if code != "0":
        raise SystemExit(f"{command} exited {code} on {config} with {src}")
    return wall, float(seconds)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_gf_writer as bench
    from workloads import build_calls

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the changed tree")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    cases = {
        f"{output_format}-d{d}-n{n}": ("gf", bench.gf_config(d, n, output_format))
        for n in (8, 30)
        for d in (1, 2)
        for output_format in ("csv", "json")
    }
    for call in build_calls("tabulate", args.seed, "full"):
        cases[f"tabulate-{call.label}"] = ("gf", call.config)
    (call,) = build_calls("partition", args.seed, "full")
    cases["partition-z"] = ("z", call.config)
    call = build_calls("structure", args.seed, "full")[0]
    cases[f"structure-{call.label}"] = ("verify", call.config)
    (call,) = build_calls("oracle", args.seed, "full")
    two_grids = {**call.config, "grid": dict(call.config["grid"])}
    two_grids["grid"]["n_slices"] = call.config["grid"]["n_slices"][:2]
    cases["oracle-verify-two-grids"] = ("verify", two_grids)
    sides = {"old": args.old, "new": args.new}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, (command, config) in cases.items():
            path = os.path.join(tmp, f"{label}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            times = {side: {"wall": [], "main": []} for side in sides}
            for pair in range(args.pairs):
                for side in ("old", "new") if pair % 2 == 0 else ("new", "old"):
                    wall, seconds = run(sides[side], command, path)
                    times[side]["wall"].append(wall)
                    times[side]["main"].append(seconds)
            wins = sum(n < o for o, n in zip(times["old"]["main"], times["new"]["main"]))
            result = {"case": label, "pairs": args.pairs, "new_wins_main": wins}
            for side in sides:
                result[side] = {key: quartiles(v) for key, v in times[side].items()}
            results.append(result)
            line = [f"{label}:"]
            for side in sides:
                wall, main_s = (result[side][key] for key in ("wall", "main"))
                line.append(
                    f"{side} wall {wall['median'] * 1e3:.1f} "
                    f"({wall['q1'] * 1e3:.1f}-{wall['q3'] * 1e3:.1f}) main "
                    f"{main_s['median'] * 1e3:.2f} "
                    f"({main_s['q1'] * 1e3:.2f}-{main_s['q3'] * 1e3:.2f}) ms;"
                )
            line.append(f"new faster on main in {wins}/{args.pairs}")
            print(" ".join(line), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
