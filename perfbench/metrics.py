"""Metric definitions: end-to-end metrics with their regression bounds,
and per-layer metrics with the end-to-end metric and the workloads each
one should move.  ``benchmark_spec`` renders them as BENCHMARK.json.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 20

WORKLOAD_WHY = {
    "oracle": "converge, boson d=2, N 64-256: dense inverse, LU and Z per grid plus the continuum contour matrix",
    "partition": "z, fermion d=2, N 192-768: determinant-only LU at the largest N the dense path runs in seconds",
    "tabulate": "gf as CSV (d=1, N=120) and JSON (d=2, N=30): writer plus a few large component tables, no LU",
    "structure": "16 verify runs, d 1-10, boson and fermion: fix_constants and thousands of tiny layer calls",
}

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_mem_mib", "MiB", "lower", 0.05),
    ("ok_frac", "ratio", "higher", 0.001),
    ("gf_csv_rows_per_s", "rows/s", "higher", 0.25),
    ("gf_json_rows_per_s", "records/s", "higher", 0.25),
]

# name, unit, better, should move, mostly on, should not move on.
# Values are per pass; "(computed)" marks work counted from array shapes.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower", "wall_s", "all", "-"),
    ("cli.load_config.calls", "count", "lower", "setup_s, wall_s", "structure", "-"),
    ("cli.load_config.self_s", "s", "lower", "setup_s, wall_s", "structure", "-"),
    ("cli.gf_writer.self_s", "s", "lower", "gf_*_rows_per_s, wall_s", "tabulate", "oracle, partition, structure"),
    ("cli.gf_writer.rows", "count", "higher", "gf_*_rows_per_s", "tabulate", "oracle, partition, structure"),
    ("cli.gf_writer.bytes", "B", "lower", "gf_*_rows_per_s", "tabulate", "oracle, partition, structure"),
    ("core.validate_system.calls", "count", "lower", "wall_s", "structure", "partition"),
    ("core.validate_system.self_s", "s", "lower", "wall_s", "structure", "partition"),
    ("core.validate_system.calls_per_cli_call", "count", "lower", "wall_s", "structure", "partition"),
    ("core.propagator_stack.calls", "count", "lower", "wall_s", "structure", "tabulate"),
    ("core.propagator_stack.self_s", "s", "lower", "wall_s", "structure", "tabulate"),
    ("core.lu_factorization.calls", "count", "lower", "wall_s, peak_mem_mib", "partition, oracle", "tabulate, structure"),
    ("core.lu_factorization.self_s", "s", "lower", "wall_s", "partition, oracle", "tabulate, structure"),
    ("core.lu_factorization.flops", "flop", "lower", "wall_s (computed)", "partition, oracle", "tabulate, structure"),
    ("core.lu_factorization.gflop_per_s", "Gflop/s", "higher", "wall_s", "partition, oracle", "tabulate, structure"),
    ("core.lu_factorization.self_s_nproc", "s", "lower", "- (one BLAS thread per core)", "partition, oracle", "tabulate, structure"),
    ("core.dense_invert.self_s", "s", "lower", "wall_s, peak_mem_mib", "oracle", "partition"),
    ("discrete.build_contour_matrix.calls", "count", "lower", "peak_mem_mib", "partition, oracle", "tabulate"),
    ("discrete.build_contour_matrix.self_s", "s", "lower", "wall_s", "partition, oracle", "tabulate"),
    ("discrete.build_contour_matrix.bytes", "B", "lower", "peak_mem_mib (computed)", "partition, oracle", "tabulate"),
    ("discrete.discrete_green.total_s", "s", "lower", "wall_s", "oracle", "partition"),
    ("discrete.discrete_partition_function.total_s", "s", "lower", "wall_s", "partition, oracle", "structure"),
    ("discrete.factorizations_per_grid", "ratio", "lower", "wall_s", "oracle", "partition (stays 1.0)"),
    ("continuum.component_table.calls", "count", "lower", "wall_s", "structure", "tabulate"),
    ("continuum.component_table.self_s", "s", "lower", "wall_s", "structure", "tabulate"),
    ("continuum.component_table.entries", "count", "lower", "wall_s (computed)", "structure, tabulate", "-"),
    ("continuum.fix_constants.calls", "count", "lower", "wall_s", "structure", "oracle"),
    ("continuum.fix_constants.self_s", "s", "lower", "wall_s, peak_mem_mib", "structure", "oracle"),
    ("continuum.solution_from_constants.calls", "count", "lower", "wall_s", "structure", "tabulate"),
    ("continuum.solution_from_constants.self_s", "s", "lower", "wall_s", "structure", "tabulate"),
    ("verify.run_structure_suite.self_s", "s", "lower", "wall_s", "structure", "oracle"),
    ("verify.continuum_contour_matrix.self_s", "s", "lower", "wall_s, peak_mem_mib", "oracle", "partition"),
    ("verify.continuum_contour_matrix.bytes", "B", "lower", "peak_mem_mib (computed)", "oracle", "partition"),
    ("verify.run_oracle_suite.self_s", "s", "lower", "wall_s", "oracle", "partition"),
    ("trace.overhead_frac", "ratio", "lower", "-", "all", "-"),
    ("trace.coverage_frac", "ratio", "higher", "-", "all", "-"),
    ("trace.absent_targets", "count", "lower", "-", "all", "-"),
]

WORK_FIELDS = {"flops", "bytes", "entries"}


def benchmark_spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }


def layer_table() -> str:
    """The per-layer metrics as a plain-text table."""
    head = ("metric", "unit", "should move", "mostly on", "should not move on")
    rows = [head] + [(n, u, m, on, off) for n, u, _, m, on, off in PER_LAYER]
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)
