"""Hot-path executor benchmark: batched vs reference wall-clock.

Unlike the figure benchmarks (which report *modeled* seconds), this one
measures real wall-clock time: the batched superstep executor
(aggregated ``SimulatedDisk.charge`` calls, bitset responding flags,
per-destination-worker staging, uniform pushes delivered through the
job's push plan or as fan-out groups) against the faithful
pre-optimization executor kept in ``repro.core.modes.reference``.

Both executors must produce byte-identical ``JobMetrics.to_dict()``
output — asserted here for every measured cell — so the speedup is pure
interpreter-overhead removal, not a change in the modeled experiment.

The guarded cell is disk-resident PageRank in push mode (the paper's
Giraph baseline, also the hottest path: every edge stages a message):
20k vertices / avg degree 18 / 5 workers / 1k message buffer must run
at least 3x faster under the batched executor.  The b-pull and hybrid
rows are informational — their jobs spend a larger share of wall-clock
in one-time setup (VE-block construction), which dilutes the job-level
ratio — and so are LPA push, whose every superstep takes the push plan,
and WCC push, whose shrinking sending sets take the fan-out groups.

Results land in ``benchmarks/results/BENCH_hotpath.json``.
"""

import json
import time

from conftest import QUICK, RESULTS_DIR, emit, once
from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.analysis.reporting import format_table
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import social_graph

#: guarded wall-clock ratio for the push-mode PageRank cell.
MIN_PUSH_SPEEDUP = 3.0

NUM_VERTICES = 6000 if QUICK else 20000
AVG_DEGREE = 18
NUM_WORKERS = 5
BUFFER = 1000
SUPERSTEPS = 10
REPEATS = 2  # best-of, to shave scheduler noise


def _graph():
    return social_graph(NUM_VERTICES, avg_degree=AVG_DEGREE, seed=11)


def _time_job(graph, program_factory, cfg):
    """Best-of-``REPEATS`` wall-clock for one (executor, cell)."""
    best = None
    result = None
    for _ in range(REPEATS):
        program = program_factory()
        start = time.perf_counter()
        result = run_job(graph, program, cfg)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _measure_cell(graph, program_factory, mode):
    base = JobConfig(mode=mode, num_workers=NUM_WORKERS,
                     message_buffer_per_worker=BUFFER,
                     max_supersteps=SUPERSTEPS)
    ref_s, ref = _time_job(graph, program_factory,
                           base.but(executor="reference"))
    new_s, new = _time_job(graph, program_factory,
                           base.but(executor="batched"))
    # the optimization must not change the modeled experiment at all
    assert json.dumps(new.metrics.to_dict(), sort_keys=True) == \
        json.dumps(ref.metrics.to_dict(), sort_keys=True), (
            f"batched executor diverged from reference in mode {mode!r}")
    assert new.values == ref.values
    return {
        "mode": mode,
        "reference_seconds": round(ref_s, 4),
        "batched_seconds": round(new_s, 4),
        "speedup": round(ref_s / new_s, 3),
    }


def run_matrix():
    graph = _graph()
    cells = [
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS), "push"),
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS), "bpull"),
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS), "hybrid"),
        ("sssp", lambda: SSSP(source=0), "push"),
        ("lpa", LPA, "push"),
        ("wcc", WCC, "push"),
    ]
    records = []
    for program_key, factory, mode in cells:
        record = _measure_cell(graph, factory, mode)
        record["program"] = program_key
        records.append(record)
    return records


def test_hotpath_speedup(benchmark, results_dir):
    records = once(benchmark, run_matrix)
    rows = [
        [r["program"], r["mode"], f"{r['reference_seconds']:.2f}",
         f"{r['batched_seconds']:.2f}", f"{r['speedup']:.2f}x"]
        for r in records
    ]
    emit("hotpath", format_table(
        ["program", "mode", "reference (s)", "batched (s)", "speedup"],
        rows,
        title=(f"Hot-path executor wall-clock "
               f"({NUM_VERTICES} vertices, deg {AVG_DEGREE}, "
               f"{NUM_WORKERS} workers, buffer {BUFFER})"),
    ))
    payload = {
        "config": {
            "num_vertices": NUM_VERTICES,
            "avg_degree": AVG_DEGREE,
            "num_workers": NUM_WORKERS,
            "message_buffer_per_worker": BUFFER,
            "max_supersteps": SUPERSTEPS,
            "repeats": REPEATS,
            "quick": QUICK,
        },
        "cells": records,
    }
    (results_dir / "BENCH_hotpath.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    guarded = next(r for r in records
                   if r["program"] == "pagerank" and r["mode"] == "push")
    if not QUICK:
        assert guarded["speedup"] >= MIN_PUSH_SPEEDUP, (
            f"push-mode PageRank speedup {guarded['speedup']}x is below "
            f"the {MIN_PUSH_SPEEDUP}x floor")
    # every cell must at least not regress
    assert all(r["speedup"] > 1.0 for r in records)
