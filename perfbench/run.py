"""Benchmark of the contourgf command-line program.

Drives the four CLI commands through ``contourgf.cli.main`` on configs
generated from a seed, checks every output, and prints one metric per
line followed by a final JSON line::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes a
separate traced run that times calls into each module's public
functions from outside the package and reports the per-layer metrics.
``--smoke`` runs every workload at tiny sizes and asserts that each
metric is emitted with its unit, that nothing fails at this commit, and
that a corrupted ``verify`` and a truncated ``gf`` stream are counted as
failures.  ``--list`` prints the per-layer metrics with the end-to-end
metric and workloads each should move.

The package is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits non-zero and prints no result.
End-to-end times are reported at a nominal machine speed, gauged by the
fixed kernels in ``reference.py`` around each sample; raw times are in
the detail line.
All load runs in this process, one call at a time (a closed loop with
one caller), with one BLAS thread: on a small shared machine a
multi-threaded LU stalls whenever any other load touches a second core,
which made run-to-run spreads exceed the benchmark's bounds.  The traced
run repeats its LU calls in a child with one BLAS thread per usable
core.
Generated configs, the result document and the trace spans go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from metrics import RUN_SECONDS, WORKLOAD_WHY

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("cli", "core", "continuum", "discrete", "verify")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
MIN_PASSES = 3
# Timed passes run back to back for this long before each writer sample
# and set-up process, so most of the window holds timed passes.
ROUND_PASS_S = 2.0
# Writer samples per round, on workloads whose own calls write no table.
WRITER_SAMPLES = 2
CHILD_TIMEOUT_S = 120


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def set_blas_threads(env, threads: int) -> None:
    for key in BLAS_ENV:
        env[key] = str(threads)


def import_program() -> dict:
    """Import the package from this checkout's ``src`` directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("contourgf")
        importlib.import_module("contourgf.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import contourgf from {src}: {exc}") from exc
    if Path(package.__file__).resolve().parent != src / "contourgf":
        raise SystemExit(f"error: contourgf imported from {package.__file__}, not {src}")
    modules = {"contourgf": package}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"contourgf.{name}")
        except ImportError:
            pass
    return modules


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class _HashingWriter(io.RawIOBase):
    """Byte sink that counts and hashes what it receives; keeps it on request."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.chunks = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.nbytes += len(data)
        if self.chunks is not None:
            self.chunks.append(bytes(data))
        return len(data)


@dataclasses.dataclass
class Outcome:
    """One CLI call: exit code (or the exception it raised) and output."""

    code: int | str
    seconds: float
    sha256: str
    nbytes: int
    text: str | None


class Harness:
    """Runs calls through ``cli.main`` and counts failed outputs."""

    def __init__(self, modules: dict, seed: int):
        import checks

        self.checks = checks
        self.cli = modules["cli"]
        self.seed = seed
        self.paths: dict[str, str] = {}
        self.reference: dict[str, tuple[str, str | None]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def write_configs(self, calls, directory: Path) -> None:
        """Write each call's config; the program only sees these files."""
        directory.mkdir(parents=True, exist_ok=True)
        for call in calls:
            path = directory / f"{call.label}.json"
            path.write_text(json.dumps(call.config, indent=1))
            self.paths[call.label] = str(path)

    def call(self, call, tracer=None) -> Outcome:
        writer = _HashingWriter(keep=call.label not in self.reference)
        stdout = io.TextIOWrapper(io.BufferedWriter(writer), encoding="utf-8", newline="")
        root = tracer.root() if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                with root:
                    code = self.cli.main(call.argv(self.paths[call.label]))
            except Exception as exc:  # a traceback is a failed call, not a benchmark error
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            stdout.flush()
        text = b"".join(writer.chunks).decode() if writer.chunks is not None else None
        outcome = Outcome(code, seconds, writer.sha.hexdigest(), writer.nbytes, text)
        self.record(call, outcome)
        return outcome

    def record(self, call, outcome: Outcome) -> bool:
        """Check an outcome; the first output of each call is checked in
        full, later ones must repeat it byte for byte."""
        self.attempted += 1
        if isinstance(outcome.code, str):
            reason = outcome.code
        elif call.label not in self.reference:
            reason = self.checks.check_output(
                call.command, call.config, outcome.code, outcome.text or "", self.seed)
            self.reference[call.label] = (outcome.sha256, reason)
        else:
            ref_sha, reason = self.reference[call.label]
            if outcome.code != 0:
                reason = f"exit code {outcome.code}"
            elif outcome.sha256 != ref_sha:
                reason = "output differs from the first, fully checked output"
        if reason:
            self.failures.append(f"{call.label}: {reason}")
        return reason is None

    def run_pass(self, calls, tracer=None) -> list[Outcome]:
        return [self.call(c, tracer) for c in calls]


def pass_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def _child(probe: str, args, threads: int) -> dict:
    """Run this script as a fresh process in probe mode; returns its JSON."""
    env = dict(os.environ)
    set_blas_threads(env, threads)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", probe,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {probe} probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_dir(args) -> Path:
    return OUT_DIR / f"{args.workload}-s{args.seed}-{args.size}"


def probe_setup(args) -> None:
    """Fresh-process set-up: import the CLI and load every workload config."""
    start = time.perf_counter()
    cli = import_program()["cli"]
    load = getattr(cli, "load_config", None)
    paths = sorted((run_dir(args) / "calls").glob("*.json")) if load else []
    for path in paths:
        load(str(path), [])
    print(json.dumps({"setup_s": time.perf_counter() - start, "configs_loaded": len(paths)}))


def probe_lu(args) -> None:
    """LU self time of one traced pass, after a warm-up pass, with the
    BLAS threads the parent set."""
    from tracer import Tracer
    from workloads import build_calls

    modules = import_program()
    calls = build_calls(args.workload, args.seed, args.size)
    harness = Harness(modules, args.seed)
    harness.write_configs(calls, run_dir(args) / "calls")
    harness.run_pass(calls)
    tracer = Tracer(modules)
    tracer.install()
    try:
        harness.run_pass(calls, tracer)
    finally:
        tracer.uninstall()
    lu = tracer.per_pass()[0].get("core.lu_factorization", {"self_s": 0.0})
    print(json.dumps({"self_s": lu["self_s"]}))


def _normalised(samples) -> list[float]:
    """Times of ``(speed, seconds)`` samples at the nominal machine speed."""
    return [speed * seconds for speed, seconds in samples]


def _rows_per_s(calls, timed_passes) -> dict:
    """Rows/s of the CSV and the JSON ``gf`` call at the nominal machine
    speed: the median over the samples, with their quartiles, raw and
    normalised.  Each pass is a list of ``(speed, outcome)``."""
    from checks import gf_row_count

    out = {}
    for fmt in ("csv", "json"):
        index = next(i for i, c in enumerate(calls)
                     if c.command == "gf" and c.config["output"]["format"] == fmt)
        rows = gf_row_count(calls[index].config)
        samples = [(p[index][0], p[index][1].seconds) for p in timed_passes]
        out[fmt] = {**quartiles([rows / s for s in _normalised(samples)]),
                    "raw": quartiles([rows / s for _, s in samples])}
    return out


def measure_end_to_end(args, harness, calls, probes) -> tuple[dict, dict]:
    """Rounds of timed passes, writer samples and one fresh-process
    set-up, repeated for ``args.seconds``.  A reference kernel of the
    sample's kind of work runs right before and after each sample, and
    each sample is reported at the nominal machine speed (see
    ``reference.py``).  Interleaving spreads every metric's samples over
    the same window."""
    from reference import Gauge, Reference
    from workloads import REFERENCE_KIND

    reference = Reference()
    kind = REFERENCE_KIND[args.workload]
    gauge = Gauge(reference, kind)
    harness.run_pass(calls)
    harness.run_pass(probes)
    # The memory pass runs before the timed rounds: the interpreter's free
    # lists then hold the same objects on every run, so the peak repeats.
    tracemalloc.start()
    try:
        harness.run_pass(calls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    round_s = min(ROUND_PASS_S, args.seconds / 10)
    passes, writer_passes, setup = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        round_start = time.perf_counter()
        gauge.reset()
        passes.append(gauge.measure(lambda: harness.run_pass(calls)))
        while time.perf_counter() - round_start < round_s:
            passes.append(gauge.measure(lambda: harness.run_pass(calls)))
        if probes:
            writer = Gauge(reference, REFERENCE_KIND["tabulate"])
            for _ in range(WRITER_SAMPLES):
                writer_passes.append([writer.measure(lambda c=c: harness.call(c)) for c in probes])
        setup_gauge = Gauge(reference, "py")
        setup.append(setup_gauge.measure(lambda: _child("setup", args, BLAS_THREADS)["setup_s"]))
    if not probes:
        writer_passes = [[(speed, o) for o in p] for speed, p in passes]
    rows = _rows_per_s(probes or calls, writer_passes)
    raw_wall = [(speed, pass_seconds(p)) for speed, p in passes]
    wall = quartiles(_normalised(raw_wall))
    metrics = {
        "wall_s": (wall["median"], "s"),
        "setup_s": (statistics.median(_normalised(setup)), "s"),
        "peak_mem_mib": (peak / 2**20, "MiB"),
        "ok_frac": (1.0 - len(harness.failures) / harness.attempted, "ratio"),
        "gf_csv_rows_per_s": (rows["csv"]["median"], "rows/s"),
        "gf_json_rows_per_s": (rows["json"]["median"], "records/s"),
    }
    detail = {"wall_s": wall, "setup_s": quartiles(_normalised(setup)),
              "gf_csv_rows_per_s": rows["csv"], "gf_json_rows_per_s": rows["json"],
              "raw_wall_s": quartiles([s for _, s in raw_wall]),
              "raw_setup_s": quartiles([s for _, s in setup]),
              "speed": {"passes": quartiles([v for v, _ in passes]),
                        "setup": quartiles([v for v, _ in setup])},
              "writer_calls": "tabulate" if probes else "workload"}
    return metrics, detail


def measure_layers(args, harness, calls, modules) -> tuple[dict, dict, list]:
    from checks import gf_row_count
    from metrics import PER_LAYER, WORK_FIELDS
    from tracer import ROOT as ROOT_SPAN, Tracer
    from workloads import discrete_grids

    harness.run_pass(calls)
    tracer = Tracer(modules)
    plain, traced, last = [], [], []
    start = time.perf_counter()
    while min(len(plain), len(traced)) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        plain.append(pass_seconds(harness.run_pass(calls)))
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            last = harness.run_pass(calls, tracer)
        finally:
            tracer.uninstall()
        traced.append(pass_seconds(last))

    aggregated = tracer.per_pass()
    grids = discrete_grids(calls)
    gf_rows = sum(gf_row_count(c.config) for c in calls if c.command == "gf")
    gf_bytes = sum(o.nbytes for c, o in zip(calls, last) if c.command == "gf")
    lu_calls = aggregated[0].get("core.lu_factorization", {}).get("calls", 0)
    lu_nproc = _child("lu", args, nproc())["self_s"] if lu_calls else 0.0

    def value(name: str, spans: dict, wall: float) -> float:
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0.0}
        span, _, field = name.rpartition(".")
        entry = spans.get(span, empty)
        if name == "cli.gf_writer.rows":
            return float(gf_rows)
        if name == "cli.gf_writer.bytes":
            return float(gf_bytes)
        if name == "core.lu_factorization.gflop_per_s":
            return entry["work"] / entry["self_s"] / 1e9 if entry["self_s"] else 0.0
        if name == "core.lu_factorization.self_s_nproc":
            return lu_nproc
        if name == "core.validate_system.calls_per_cli_call":
            return entry["calls"] / spans[ROOT_SPAN]["calls"]
        if name == "discrete.factorizations_per_grid":
            lu = spans.get("core.lu_factorization", empty)["calls"]
            return lu / grids if grids else 0.0
        if name == "trace.coverage_frac":
            return sum(e["self_s"] for n, e in spans.items() if n != ROOT_SPAN) / wall
        if name == "trace.overhead_frac":
            return statistics.median(traced) / statistics.median(plain) - 1.0
        if name == "trace.absent_targets":
            return float(len(tracer.absent))
        return float(entry["work"] if field in WORK_FIELDS else entry[field])

    metrics = {}
    for name, unit, *_ in PER_LAYER:
        samples = [value(name, aggregated[p], traced[p]) for p in range(len(traced))]
        metrics[name] = (statistics.median(samples), unit)
    detail = {"traced_wall_s": quartiles(traced), "untraced_wall_s": quartiles(plain),
              "absent_targets": tracer.absent, "discrete_grids_per_pass": grids}
    return metrics, detail, tracer.dump()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "contourgf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": nproc(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> tuple[dict, dict]:
    """Measure one workload; returns the result line and the detail."""
    from workloads import build_calls

    modules = import_program()
    calls = build_calls(args.workload, args.seed, args.size)
    # Workloads whose own calls write no table sample the writer with
    # the tabulate calls, outside wall_s.
    own_writer = any(c.command == "gf" for c in calls)
    probes = [] if own_writer else build_calls("tabulate", args.seed, args.size)
    out = run_dir(args)
    harness = Harness(modules, args.seed)
    harness.write_configs(calls, out / "calls")
    harness.write_configs(probes, out / "probes")
    spans = None
    if args.trace:
        metrics, detail, spans = measure_layers(args, harness, calls, modules)
    else:
        metrics, detail = measure_end_to_end(args, harness, calls, probes)
    failed = len(harness.failures)
    detail.update({
        "fail_frac": failed / harness.attempted,
        "failures": harness.failures[:20],
        "output_sha256": {label: sha for label, (sha, _) in harness.reference.items()},
        "provenance": provenance(args),
    })
    result = {
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    tag = f"trace{args.trace}"
    (out / f"result-{tag}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    if spans is not None:
        with open(out / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    return result, detail


def smoke(args) -> int:
    """Tiny-size run of every workload, asserting the benchmark's contract."""
    from metrics import END_TO_END, PER_LAYER, benchmark_spec
    from workloads import WORKLOADS, build_calls

    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file() and json.loads(spec_path.read_text()) != benchmark_spec():
        problems.append("BENCHMARK.json differs from metrics.benchmark_spec()")
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            run = argparse.Namespace(workload=workload, seed=args.seed, seconds=0.0,
                                     trace=trace, size="tiny")
            result, _ = run_workload(run)
            units = {name: unit for name, unit, *_ in expected}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(units))} "
                                f"missing or extra, or units differ")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed calls")
            print(f"smoke {workload} trace={trace}: {result['attempted']} calls, "
                  f"{result['failed']} failed")

    # Deliberately broken outputs must be counted as failures.
    modules = import_program()
    out = OUT_DIR / f"smoke-s{args.seed}"
    verify_call = build_calls("structure", args.seed, "tiny")[0]
    corrupt = dataclasses.replace(verify_call, label="verify-corrupt",
                                  extra=("--corrupt-keldysh",))
    gf_call = build_calls("tabulate", args.seed, "tiny")[0]
    harness = Harness(modules, args.seed)
    harness.write_configs([corrupt, gf_call], out)
    harness.call(corrupt)
    if len(harness.failures) != 1:
        problems.append("verify --corrupt-keldysh was not counted as a failure")
    good = harness.call(gf_call)
    half = good.text[: len(good.text) // 2]
    truncated = Outcome(0, good.seconds, hashlib.sha256(half.encode()).hexdigest(),
                        len(half.encode()), half)
    fresh = Harness(modules, args.seed)
    for checker, path in ((harness, "repeated"), (fresh, "first")):
        before = len(checker.failures)
        checker.record(gf_call, truncated)
        if len(checker.failures) != before + 1:
            problems.append(f"a truncated gf stream as the {path} output was not counted as a failure")
    if len(harness.failures) != 2:
        problems.append(f"unexpected failures: {harness.failures}")
    for problem in problems:
        print("FAIL:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true", help="tiny-size self-test")
    parser.add_argument("--list", action="store_true", help="print the per-layer metrics")
    parser.add_argument("--probe", choices=("setup", "lu"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None:
        set_blas_threads(os.environ, BLAS_THREADS)
    if args.list:
        from metrics import layer_table

        print(layer_table())
        return 0
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe == "setup":
        probe_setup(args)
        return 0
    if args.probe == "lu":
        probe_lu(args)
        return 0
    result, detail = run_workload(args)
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:<24.10g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
