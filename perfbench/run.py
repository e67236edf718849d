"""Wall-clock job benchmark for the HybridGraph simulator.

Run from the repository root::

    python3 perfbench/run.py --workload pagerank-bpull --seed 1 \\
        --seconds 25 --trace 0

One run builds the workload's graph from ``--seed`` (untimed), runs one
warm-up job, then times ``run_job`` calls one after another for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it spends half the time untraced and half with every
layer span wrapped, and reports the per-layer metrics.  Every job is
checked against the reference executor's ``to_dict()`` and final values.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a detailed JSON lands in ``perfbench/out/``.

``--workload all`` runs every workload traced, each in its own process
(so ``peak_rss_mb`` stays per workload), and prints one table of all
metrics: where the wall-clock goes, layer by layer.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _detail_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import harness

    workload = harness.WORKLOADS[name]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why,
        "requested": {"executor": workload.executor,
                      "parallelism": workload.parallelism},
    }
    if workload.parallelism > 1:
        reason = harness.pool_unavailable_reason()
        if reason is not None:
            detail["skipped"] = reason
            return detail

    start = perf_counter()
    graph = workload.make_graph(seed)
    detail["graph"] = {"name": graph.name, "vertices": graph.num_vertices,
                       "edges": graph.num_edges,
                       "generate_s": perf_counter() - start}
    OUT.mkdir(parents=True, exist_ok=True)
    ckpt = OUT / f"ckpt-{name}-seed{seed}-trace{trace}"
    try:
        harness.run_jobs(workload, graph, 0, ckpt, min_jobs=1)  # warm-up
        budget = seconds / 2 if trace else seconds
        untraced = harness.run_jobs(workload, graph, budget, ckpt)
        traced = (harness.run_jobs(workload, graph, budget, ckpt,
                                   traced=True) if trace else [])
        # ru_maxrss is KiB on Linux; read before the reference run
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        start = perf_counter()
        reference = harness.reference_digest(workload, graph, ckpt)
        detail["reference_s"] = perf_counter() - start
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    samples = untraced + traced
    failed = harness.count_failures(samples, reference)
    gap = harness.self_time_gap(traced)
    scale = harness.host_scale(untraced)
    detail.update({
        "active": sorted({(s.executor, s.parallelism) for s in samples
                          if s.executor is not None}),
        "jobs": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": len(samples),
        "failed": failed,
        "errors": sorted({s.error for s in samples if s.error})[:5],
        "self_time_gap": gap,
        "host_scale": scale,
        "end_to_end": harness.end_to_end(untraced, peak_rss_mb, scale),
        "end_to_end_unscaled": harness.end_to_end(untraced, peak_rss_mb),
        "job_walls_s": [s.wall_s for s in untraced],
        "job_probes_s": [s.probe_s for s in untraced],
    })
    if trace:
        detail["per_layer"] = harness.per_layer(untraced, traced, failed)
        detail["traced_walls_s"] = [s.wall_s for s in traced]
    # spans must partition each traced job's wall-clock
    detail["correct"] = failed == 0 and gap < 0.01
    return detail


def print_single(detail: dict) -> None:
    import harness

    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"{detail['why']}")
    if "skipped" in detail:
        print(f"skipped: {detail['skipped']}")
        return
    graph = detail["graph"]
    print(f"graph {graph['name']}: {graph['vertices']} vertices, "
          f"{graph['edges']} edges; active executor/parallelism "
          f"{detail['active']}; jobs {detail['jobs']['untraced']} untraced, "
          f"{detail['jobs']['traced']} traced; failed {detail['failed']}"
          f"/{detail['attempted']}")
    for error in detail["errors"]:
        print(f"  error: {error}")
    print(f"end-to-end (tracing off, median of "
          f"{detail['jobs']['untraced']} jobs; times scaled by host speed "
          f"x{detail['host_scale']:.3f}):")
    for name, unit, _better in harness.END_TO_END:
        print(f"  {name:<14} {_fmt(detail['end_to_end'][name]):>12} {unit}")
    if "per_layer" in detail:
        print(f"per-layer (traced, median of {detail['jobs']['traced']} "
              f"jobs; self seconds per job; spans cover the job wall "
              f"within {detail['self_time_gap']:.2%}):")
        for name, unit, _better, layer in harness.PER_LAYER:
            print(f"  {layer:<26} {name:<26} "
                  f"{_fmt(detail['per_layer'][name]):>12} {unit}")


def result_line(detail: dict, trace: int) -> dict:
    import harness

    if "skipped" in detail:
        return {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if trace:
        names = [(n, u) for n, u, _b, _l in harness.PER_LAYER]
        values = detail["per_layer"]
    else:
        names = [(n, u) for n, u, _b in harness.END_TO_END]
        values = detail["end_to_end"]
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload traced, one process each, then one combined table."""
    import harness

    names = list(harness.WORKLOADS)
    details = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        details.append(
            json.loads(_detail_path(name, seed, 1).read_text())
        )
    width = max(len(n) for n in names) + 2
    header = f"{'metric':<28}{'unit':<10}" + "".join(
        f"{n:>{width}}" for n in names
    )

    def row(name: str, unit: str, section: str) -> str:
        cells = "".join(
            f"{_fmt(d[section][name]) if section in d else '-':>{width}}"
            for d in details
        )
        return f"{name:<28}{unit:<10}{cells}"

    print(f"end-to-end, tracing off (seed {seed}, {seconds}s per workload, "
          f"half untraced)")
    print(header)
    for name, unit, _better in harness.END_TO_END:
        print(row(name, unit, "end_to_end"))
    print("jobs: " + ", ".join(
        f"{d['workload']} {d.get('jobs')} failed {d.get('failed')}"
        for d in details
    ))
    print()
    print("per layer, traced (self seconds per job, median over jobs)")
    print(header)
    for name, unit, _better, _layer in harness.PER_LAYER:
        print(row(name, unit, "per_layer"))
    return 0 if all(d.get("correct", True) for d in details) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    try:
        detail = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    finally:
        harness.stop_helper_processes()
    OUT.mkdir(parents=True, exist_ok=True)
    _detail_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(detail, indent=2, sort_keys=True)
    )
    print_single(detail)
    print(json.dumps(result_line(detail, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
