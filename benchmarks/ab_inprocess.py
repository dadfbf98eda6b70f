"""Interleaved A/B timing of two ``contourgf`` trees in one process.

Loads the ``contourgf`` package of ``OLD_SRC`` and of ``NEW_SRC`` side by
side, each under a module name of its own, and runs the perfbench calls
of one workload through each tree's ``cli.main``, in pairs of passes
whose first side alternates.  Both trees then share the interpreter, the
memory allocator and the machine's state from one pass to the next,
which separate processes do not: there, changes of a few per cent drown
in the spread between runs.  For each side it prints the median pass
time with its quartiles, the pairs that side won, and the
``tracemalloc`` peak of one pass::

    python benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --workload oracle \\
        --seed 7 --pairs 200

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``contourgf``
package, for example ``src`` of a second checkout of the parent commit
and ``src`` of this one.  The calls come from ``perfbench/workloads.py``
of this checkout, as in ``compare_outputs.py``; the configs go to a
temporary directory, and nothing is written under ``perfbench/`` or into
either tree.  Output goes to an in-memory buffer per call.  BLAS runs
with one thread unless the environment sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_cli(src: str, name: str):
    """``cli`` of the ``contourgf`` package in ``src``, imported as the
    package ``name``: its modules import each other relatively, so two
    trees load side by side."""
    init = Path(src).resolve() / "contourgf" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, argvs) -> tuple[float, list[int]]:
    """Seconds of one pass over ``argvs`` through ``cli.main``, summed
    over the calls, and the exit codes."""
    seconds, codes = 0.0, []
    for argv in argvs:
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            io.StringIO()
        ):
            start = time.perf_counter()
            codes.append(cli.main(argv))
            seconds += time.perf_counter() - start
    return seconds, codes


def peak_bytes(cli, argvs) -> int:
    """``tracemalloc`` peak of one pass."""
    gc.collect()
    tracemalloc.start()
    try:
        run_pass(cli, argvs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    # Before numpy is first imported, by the workloads.
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, build_calls

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the changed tree")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"old": load_cli(args.old, "contourgf_old"),
             "new": load_cli(args.new, "contourgf_new")}
    calls = build_calls(args.workload, args.seed, "full")
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for index, call in enumerate(calls):
            path = os.path.join(tmp, f"{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(call.config, handle)
            argvs.append(call.argv(path))
        codes = {side: run_pass(cli, argvs)[1] for side, cli in sides.items()}
        peaks = {side: peak_bytes(cli, argvs) for side, cli in sides.items()}
        times = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            for side in order:
                times[side].append(run_pass(sides[side], argvs)[0])
    wins = {"old": 0, "new": 0}
    for old, new in zip(times["old"], times["new"]):
        wins["old" if old < new else "new"] += old != new
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{len(calls)} calls per pass")
    for side in sides:
        s = summary(times[side])
        print(f"{side}: median {s['median'] * 1e3:.3f} ms "
              f"(quartiles {s['q1'] * 1e3:.3f}-{s['q3'] * 1e3:.3f}), "
              f"faster in {wins[side]}/{args.pairs} pairs, "
              f"peak {peaks[side] / 2**20:.4f} MiB, exit codes {codes[side]}")
    ratio = summary(times["new"])["median"] / summary(times["old"])["median"]
    print(f"new/old median: {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
