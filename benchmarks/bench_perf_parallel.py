"""Process-pool benchmark: parallelism ∈ {1, 2, 4} wall-clock sweep.

Measures real wall-clock time (not modeled seconds) of the same job
executed in-process (``parallelism=1``) and across a persistent
fork-based worker pool (2 and 4 processes), through both the batched
and vectorized tiers.  Every measured cell asserts byte-identical
``JobMetrics.to_dict()`` output across the sweep, so any speedup is
pure multi-core utilisation, never a change in the modeled experiment.

Two guards, both hardware-gated:

* the 1M-vertex disk-resident push-PageRank cell (vectorized tier, the
  same scale cell ``bench_perf_kernels.py`` runs) must reach >= 2x at
  ``parallelism=4`` — asserted only when the host actually exposes >= 4
  usable CPUs (``os.sched_getaffinity``); on smaller hosts the sweep
  still runs and records ``available_cpus`` so the report is honest
  about what it measured;
* ``parallelism=1`` must not regress the in-process executors: when
  ``BENCH_kernels.json`` exists from the same session, each shared cell
  is compared against it with a 5% (plus small absolute noise) budget.

Results land in ``benchmarks/results/BENCH_parallel.json``.  Skipped
scale cells and unavailable guards are recorded as such — no silent
truncation.
"""

import json
import os
import time

import pytest

from conftest import QUICK, RESULTS_DIR, emit, generated_graph, once
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.analysis.reporting import format_table
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import social_graph

np = pytest.importorskip(
    "numpy", reason="the vectorized sweep cells need NumPy"
)

PARALLELISMS = (1, 2, 4)
#: guarded wall-clock ratio for the 1M push-PageRank cell at p=4.
MIN_SCALE_SPEEDUP = 2.0
#: parallelism=1 regression budget vs BENCH_kernels (fraction + noise).
MAX_P1_REGRESSION = 0.05
P1_NOISE_SECONDS = 0.1

NUM_VERTICES = 30_000 if QUICK else 100_000
AVG_DEGREE = 10
NUM_WORKERS = 5
BUFFER = 1000
SUPERSTEPS = 6
REPEATS = 2  # best-of, to shave scheduler noise

SCALE_VERTICES = 1_000_000
SCALE_DEGREE = 8
SCALE_SUPERSTEPS = 5


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _graph():
    return generated_graph(
        social_graph, NUM_VERTICES, avg_degree=AVG_DEGREE, seed=11
    )


def _dump(result):
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


def _time_job(graph, program_factory, cfg):
    """Best-of-``REPEATS`` wall-clock for one (parallelism, cell)."""
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


def _measure_cell(graph, program_factory, executor, mode):
    base = JobConfig(mode=mode, executor=executor,
                     num_workers=NUM_WORKERS,
                     message_buffer_per_worker=BUFFER,
                     max_supersteps=SUPERSTEPS)
    seconds = {}
    reference = None
    for parallelism in PARALLELISMS:
        elapsed, result = _time_job(
            graph, program_factory, base.but(parallelism=parallelism)
        )
        seconds[parallelism] = round(elapsed, 4)
        if parallelism > 1:
            assert result.runtime.active_parallelism == parallelism, (
                f"pool fell back: {result.runtime.executor_fallback}")
        # the pool must not change the modeled experiment at all
        if reference is None:
            reference = _dump(result)
        else:
            assert _dump(result) == reference, (
                f"parallelism={parallelism} diverged in "
                f"({executor}, {mode})")
    return {
        "executor": executor,
        "mode": mode,
        "seconds": {str(p): s for p, s in seconds.items()},
        "speedup_p4": round(seconds[1] / seconds[4], 3),
    }


def run_matrix():
    graph = _graph()
    cells = [
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS),
         "batched", "push"),
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS),
         "vectorized", "push"),
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS),
         "vectorized", "bpull"),
        ("pagerank", lambda: PageRank(supersteps=SUPERSTEPS),
         "vectorized", "hybrid"),
        ("sssp", lambda: SSSP(source=0), "vectorized", "push"),
    ]
    records = []
    for program_key, factory, executor, mode in cells:
        record = _measure_cell(graph, factory, executor, mode)
        record["program"] = program_key
        records.append(record)
    return records


def run_scale_cell():
    """1M-vertex cell, parallelism 1 vs 4; returns its record (or None).

    The guarded cell of the acceptance gate: disk-resident push
    PageRank through the vectorized tier.  Skipped under QUICK (the
    graph alone takes longer to build than the whole QUICK matrix).
    """
    if QUICK:
        return None
    graph = generated_graph(
        social_graph, SCALE_VERTICES, avg_degree=SCALE_DEGREE, seed=7
    )
    base = JobConfig(
        executor="vectorized", mode="push", num_workers=NUM_WORKERS,
        message_buffer_per_worker=20_000,
        max_supersteps=SCALE_SUPERSTEPS,
    )
    seconds = {}
    reference = None
    for parallelism in (1, 4):
        start = time.perf_counter()
        result = run_job(
            graph, PageRank(supersteps=SCALE_SUPERSTEPS),
            base.but(parallelism=parallelism),
        )
        seconds[parallelism] = round(time.perf_counter() - start, 4)
        if reference is None:
            reference = _dump(result)
        else:
            assert _dump(result) == reference, (
                "1M scale cell diverged under parallelism=4")
    return {
        "program": "pagerank",
        "mode": "push",
        "executor": "vectorized",
        "num_vertices": SCALE_VERTICES,
        "num_edges": graph.num_edges,
        "seconds": {str(p): s for p, s in seconds.items()},
        "speedup_p4": round(seconds[1] / seconds[4], 3),
    }


def _check_p1_regression(records):
    """parallelism=1 vs the in-process kernels bench, when available.

    Only records each cell's verdict; the test asserts on them after
    the results file is written, so a miss never loses the run.
    """
    kernels_path = RESULTS_DIR / "BENCH_kernels.json"
    if not kernels_path.exists():
        return {"checked": False, "reason": "BENCH_kernels.json absent"}
    kernels = json.loads(kernels_path.read_text(encoding="utf-8"))
    if kernels.get("config", {}).get("quick") != QUICK:
        return {"checked": False,
                "reason": "BENCH_kernels ran at a different size"}
    baseline = {
        (cell["program"], cell["mode"]): cell for cell in kernels["cells"]
    }
    key_of = {"batched": "batched_seconds",
              "vectorized": "vectorized_seconds"}
    checked = []
    for record in records:
        cell = baseline.get((record["program"], record["mode"]))
        if cell is None:
            continue
        expected = cell[key_of[record["executor"]]]
        actual = record["seconds"]["1"]
        budget = expected * (1.0 + MAX_P1_REGRESSION) + P1_NOISE_SECONDS
        checked.append({
            "program": record["program"], "mode": record["mode"],
            "executor": record["executor"],
            "kernels_seconds": expected, "p1_seconds": actual,
            "budget_seconds": round(budget, 4),
            "within_budget": actual <= budget,
        })
    return {"checked": True, "cells": checked}


def test_parallel_speedup(benchmark, results_dir):
    cpus = available_cpus()
    records, scale = once(
        benchmark, lambda: (run_matrix(), run_scale_cell())
    )
    regression = _check_p1_regression(records)
    rows = [
        [r["program"], r["executor"], r["mode"],
         f"{r['seconds']['1']:.2f}", f"{r['seconds']['2']:.2f}",
         f"{r['seconds']['4']:.2f}", f"{r['speedup_p4']:.2f}x"]
        for r in records
    ]
    emit("parallel", format_table(
        ["program", "executor", "mode", "p=1 (s)", "p=2 (s)",
         "p=4 (s)", "speedup p=4"],
        rows,
        title=(f"Process-pool wall-clock ({NUM_VERTICES} vertices, "
               f"deg {AVG_DEGREE}, {NUM_WORKERS} workers, "
               f"buffer {BUFFER}, {cpus} cpus)"),
    ))
    payload = {
        "config": {
            "num_vertices": NUM_VERTICES,
            "avg_degree": AVG_DEGREE,
            "num_workers": NUM_WORKERS,
            "message_buffer_per_worker": BUFFER,
            "max_supersteps": SUPERSTEPS,
            "repeats": REPEATS,
            "parallelisms": list(PARALLELISMS),
            "quick": QUICK,
            "available_cpus": cpus,
        },
        "cells": records,
        "scale_cell": scale,
        "p1_regression_check": regression,
        "speedup_guard": {
            "min_scale_speedup": MIN_SCALE_SPEEDUP,
            "enforced": scale is not None and cpus >= 4,
        },
    }
    (results_dir / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    for cell in regression.get("cells", ()):
        assert cell["within_budget"], (
            f"parallelism=1 regressed ({cell['executor']}, "
            f"{cell['mode']}): {cell['p1_seconds']}s vs kernels "
            f"{cell['kernels_seconds']}s "
            f"(budget {cell['budget_seconds']:.4f}s)")

    if scale is not None and cpus >= 4:
        assert scale["speedup_p4"] >= MIN_SCALE_SPEEDUP, (
            f"1M push-PageRank parallelism=4 speedup "
            f"{scale['speedup_p4']}x is below the "
            f"{MIN_SCALE_SPEEDUP}x floor on a {cpus}-cpu host")
