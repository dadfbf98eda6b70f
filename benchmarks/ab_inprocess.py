"""Interleaved A/B timing of two ``contourgf`` trees in one process.

Loads the ``contourgf`` package of ``OLD_SRC`` and of ``NEW_SRC`` side by
side, each under a module name of its own, and runs the perfbench calls
of one workload through each tree's ``cli.main``, in pairs of passes
whose first side alternates.  Both trees then share the interpreter, the
memory allocator and the machine's state from one pass to the next,
which separate processes do not: there, changes of a few per cent drown
in the spread between runs.  For each side it prints the median pass
time with its quartiles, the pairs that side won, and the
``tracemalloc`` peak of one pass; then whether the two trees wrote the
same bytes on every call of every pass::

    python benchmarks/ab_inprocess.py OLD_SRC NEW_SRC --workload oracle \\
        --seed 7 --pairs 200

With ``--gf-writer`` in place of ``--workload`` it runs the cases of
``bench_gf_writer.py`` instead (N in 30, 120 and 480, d in 1 and 2, CSV
and JSON), each a group of its own with its own pairs, so the writer's
cost curve is measured interleaved.  With ``--structure-suite`` it times
``run_structure_suite`` alone, one call a pass, on the systems of
``bench_continuum.py`` (d in ``cases.CONTINUUM_DIMENSIONS``, both
statistics), each built by each tree from the same matrices and timed
as a group of its own, with the ``tracemalloc`` peak of one call and
whether the two trees returned the same checks.  With ``--oracle-suite``
it times ``run_oracle_suite`` alone in the same way, one call a pass, on
the cases of ``bench_oracle.py`` (the grids (N / 2, N), d in 1, 2 and
4, up to 2 N d = 8192), and says whether the two reports agree: every
field equal but the errors and the fitted order, which may differ by
``ORACLE_TOLERANCE`` in absolute value, the roundoff of a change in how
the products are taken.  ``--json PATH`` also writes the results to
``PATH``.

``OLD_SRC`` and ``NEW_SRC`` are directories holding the ``contourgf``
package, for example ``src`` of a second checkout of the parent commit
and ``src`` of this one.  The calls come from ``perfbench/workloads.py``
of this checkout, as in ``compare_outputs.py``; the configs go to a
temporary directory, and nothing is written under ``perfbench/`` or into
either tree.  Output goes to perfbench's hashing sink, which keeps
only a count and a digest of the bytes, so the peak is the program's
and not an output buffer's.  BLAS runs with one thread unless the
environment sets it.  A ``tracemalloc`` peak moves by about 100 B with
the hash seed, so when ``PYTHONHASHSEED`` is unset the script runs
itself again with ``PYTHONHASHSEED=0``, and its first line of output
names the seed; peaks then compare to the byte from one run to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The largest absolute difference of an oracle error or fitted order by
# which the two trees' reports still agree.
ORACLE_TOLERANCE = 1e-12


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


def run_pass(cli, argvs) -> tuple[float, list[int], list[str]]:
    """Seconds of one pass over ``argvs`` through ``cli.main``, summed
    over the calls, the exit codes and the digests of the outputs."""
    from run import _HashingWriter

    seconds, codes, digests = 0.0, [], []
    for argv in argvs:
        sink = _HashingWriter(keep=False)
        stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            io.StringIO()
        ):
            start = time.perf_counter()
            codes.append(cli.main(argv))
            seconds += time.perf_counter() - start
            stdout.flush()
        digests.append(sink.sha.hexdigest())
    return seconds, codes, digests


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


def interleave(passes, pairs) -> dict:
    """Interleaved A/B of ``passes``, per side a function of no arguments
    that runs one pass and returns its seconds and a list of its outputs:
    after one pass a side, pairs of passes whose first side alternates.
    Per side the pass times and the pairs won, and the positions of the
    outputs that were not the same on every pass of both sides."""
    seen = [set(pair) for pair in zip(*(passes[side]()[1] for side in ("old", "new")))]
    times = {side: [] for side in passes}
    for pair in range(pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for side in order:
            seconds, outputs = passes[side]()
            times[side].append(seconds)
            for outputs_seen, output in zip(seen, outputs):
                outputs_seen.add(output)
    wins = {"old": 0, "new": 0}
    for old, new in zip(times["old"], times["new"]):
        wins["old" if old < new else "new"] += old != new
    return {"times": times, "wins": wins,
            "differ": [index for index, outputs in enumerate(seen) if len(outputs) > 1]}


def summarize(labels, timed, peaks, pairs, **extra) -> dict:
    """The result of :func:`interleave` with the ``labels`` of its
    outputs and the peak of each side."""
    result = {"calls": labels, "pairs": pairs,
              "differ": [labels[index] for index in timed["differ"]]}
    for side in ("old", "new"):
        result[side] = {**summary(timed["times"][side]), "wins": timed["wins"][side],
                        "peak_bytes": peaks[side], **extra.get(side, {})}
    result["new_over_old"] = result["new"]["median"] / result["old"]["median"]
    return result


def compare(sides, labels, argvs, pairs) -> dict:
    """Interleaved A/B of the calls ``argvs``, named by ``labels``: per side
    the pass times, the pairs won and the peak, and the calls whose output
    differed."""
    codes = {side: run_pass(cli, argvs)[1] for side, cli in sides.items()}
    peaks = {side: peak_bytes(cli, argvs) for side, cli in sides.items()}

    def one_pass(cli):
        seconds, _, digests = run_pass(cli, argvs)
        return seconds, digests

    timed = interleave({side: partial(one_pass, cli) for side, cli in sides.items()}, pairs)
    return summarize(labels, timed, peaks, pairs,
                     **{side: {"exit_codes": codes[side]} for side in sides})


def call_peak(function, *args) -> int:
    """``tracemalloc`` peak of one call."""
    gc.collect()
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def timed_call(function, *args) -> tuple[float, object]:
    """Seconds of one call and what it returned."""
    start = time.perf_counter()
    value = function(*args)
    return time.perf_counter() - start, value


def compare_suite(sides, statistics_name: str, dimension: int, pairs) -> dict:
    """Interleaved A/B of ``run_structure_suite`` on the continuum curve's
    system of ``dimension`` levels: per side the call times, the pairs won
    and the ``tracemalloc`` peak of one call, and whether the checks it
    returned differed."""
    from cases import continuum_matrices

    suites = {}
    for side, cli in sides.items():
        package = cli.__package__
        core = importlib.import_module(f"{package}.core")
        verify = importlib.import_module(f"{package}.verify")
        system = core.LevelSystem(
            *continuum_matrices(statistics_name, dimension),
            core.Statistics(statistics_name),
        )
        suites[side] = (verify.run_structure_suite, system)

    def one_call(suite, system):
        seconds, checks = timed_call(suite, system)
        return seconds, [repr([vars(check) for check in checks])]

    peaks = {side: call_peak(*call) for side, call in suites.items()}
    passes = {side: partial(one_call, *call) for side, call in suites.items()}
    label = f"suite-{statistics_name}-d{dimension}"
    return summarize([label], interleave(passes, pairs), peaks, pairs)


def compare_oracle(sides, dimension: int, n_slices: int, pairs) -> dict:
    """Interleaved A/B of ``run_oracle_suite`` on the oracle curve's case
    of ``dimension`` levels and the grids (N / 2, N): per side the call
    times, the pairs won and the ``tracemalloc`` peak of one call, and
    the largest difference between the two reports' errors and fitted
    orders, and whether they agree."""
    from cases import oracle_matrices

    suites = {}
    for side, cli in sides.items():
        package = cli.__package__
        core = importlib.import_module(f"{package}.core")
        verify = importlib.import_module(f"{package}.verify")
        system = core.LevelSystem(*oracle_matrices(dimension), core.Statistics.BOSON)
        grids = [core.TimeGrid(0.0, 1.0, n) for n in (n_slices // 2, n_slices)]
        suites[side] = (verify.run_oracle_suite, system, grids)
    reports = {side: suite(*args) for side, (suite, *args) in suites.items()}
    old, new = reports["old"], reports["new"]
    orders = (old.fitted_order, new.fitted_order)
    differences = [abs(a - b) for a, b in zip(old.errors, new.errors)]
    if None not in orders:
        differences.append(abs(orders[0] - orders[1]))
    largest = max(differences)
    fields = ("grid_sizes", "error_bounds", "partition_deviations", "details")
    agree = (
        all(getattr(old, field) == getattr(new, field) for field in fields)
        and (orders[0] is None) == (orders[1] is None)
        and largest <= ORACLE_TOLERANCE
    )
    peaks = {side: call_peak(*call) for side, call in suites.items()}

    def one_call(suite, *args):
        return timed_call(suite, *args)[0], []

    passes = {side: partial(one_call, *call) for side, call in suites.items()}
    label = f"oracle-d{dimension}-n{n_slices}"
    result = summarize([label], interleave(passes, pairs), peaks, pairs)
    result.update(largest_difference=largest, agree=agree)
    return result


def report(result) -> None:
    for side in ("old", "new"):
        s = result[side]
        codes = f", exit codes {s['exit_codes']}" if "exit_codes" in s else ""
        print(f"{side}: median {s['median'] * 1e3:.3f} ms "
              f"(quartiles {s['q1'] * 1e3:.3f}-{s['q3'] * 1e3:.3f}), "
              f"faster in {s['wins']}/{result['pairs']} pairs, "
              f"peak {s['peak_bytes'] / 2**20:.4f} MiB{codes}")
    print(f"new/old median: {result['new_over_old']:.4f}")
    if "agree" in result:
        print(f"reports {'agree' if result['agree'] else 'DISAGREE'}: largest "
              f"difference {result['largest_difference']:.3g} "
              f"(tolerance {ORACLE_TOLERANCE:g})")
        return
    print("outputs: " + (f"differ on {result['differ']}" if result["differ"] else
                         "identical on every call of every pass"))


def main(argv: list[str] | None = None) -> int:
    # Before numpy is first imported, by the workloads.
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS, build_calls

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="src directory of the reference tree")
    parser.add_argument("new", help="src directory of the changed tree")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument("--gf-writer", action="store_true",
                       help="the cases of bench_gf_writer.py, one at a time")
    group.add_argument("--structure-suite", action="store_true",
                       help="run_structure_suite on the systems of bench_continuum.py")
    group.add_argument("--oracle-suite", action="store_true",
                       help="run_oracle_suite on the cases of bench_oracle.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    print(f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}")
    sides = {"old": load_cli(args.old, "contourgf_old"),
             "new": load_cli(args.new, "contourgf_new")}
    results = []
    with tempfile.TemporaryDirectory() as tmp:

        def argv_of(index, config, call_argv):
            path = os.path.join(tmp, f"{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            return call_argv(path)

        if args.oracle_suite:
            from cases import oracle_cases

            for dimension, n_slices in oracle_cases():
                result = compare_oracle(sides, dimension, n_slices, args.pairs)
                print(f"{result['calls'][0]}, {args.pairs} pairs")
                report(result)
                results.append(result)
        elif args.structure_suite:
            from cases import CONTINUUM_DIMENSIONS

            for dimension in CONTINUUM_DIMENSIONS:
                for statistics_name in ("boson", "fermion"):
                    result = compare_suite(sides, statistics_name, dimension, args.pairs)
                    print(f"{result['calls'][0]}, {args.pairs} pairs")
                    report(result)
                    results.append(result)
        elif args.gf_writer:
            import bench_gf_writer as bench

            for index, (n_slices, dimension, output_format) in enumerate(
                itertools.product(bench.SLICES, bench.DIMENSIONS, ("csv", "json"))
            ):
                label = f"gf-{output_format}-d{dimension}-n{n_slices}"
                config = bench.gf_config(dimension, n_slices, output_format)
                call = argv_of(index, config, lambda path: ["gf", "--config", path])
                result = compare(sides, [label], [call], args.pairs)
                print(f"{label}, {args.pairs} pairs")
                report(result)
                results.append(result)
        else:
            calls = build_calls(args.workload, args.seed, "full")
            argvs = [argv_of(i, call.config, call.argv) for i, call in enumerate(calls)]
            result = compare(sides, [call.label for call in calls], argvs, args.pairs)
            result.update(workload=args.workload, seed=args.seed)
            print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
                  f"{len(calls)} calls per pass")
            report(result)
            results.append(result)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
    return 0


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)
    sys.exit(main())
