"""Command-line interface: run a job and print its report.

Examples::

    python -m repro --dataset wiki --algorithm pagerank --mode hybrid
    python -m repro --edge-list my.txt --algorithm sssp --source 3 \\
        --mode bpull --workers 8 --buffer 1000
    python -m repro --dataset twi --algorithm sssp --mode hybrid --trace
    python -m repro --dataset wiki --mode hybrid \\
        --trace-out trace.json --trace-format chrome
"""

from __future__ import annotations

import argparse
import re
from typing import Optional

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.phased_bfs import PhasedBFS
from repro.algorithms.sa import SA
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.analysis.reporting import fmt_bytes, fmt_seconds, print_table
from repro.core.config import (
    AMAZON_CLUSTER,
    FaultPlan,
    FaultSchedule,
    JobConfig,
    LOCAL_CLUSTER,
    MODES,
)
from repro.core.engine import run_job
from repro.datasets.io import read_edge_list
from repro.datasets.registry import DATASETS, dataset_names, get_dataset

__all__ = ["main", "build_parser", "parse_fault_plan"]

ALGORITHMS = ("pagerank", "sssp", "lpa", "sa", "wcc", "phased-bfs")

#: CLI aliases for the fault kinds (``--fault-plan``).
_FAULT_KIND_ALIASES = {
    "crash": "crash",
    "kill": "kill",
    "straggler": "straggler",
    "ckpt-write": "checkpoint_write",
    "ckpt-corrupt": "checkpoint_corrupt",
}

_FAULT_SPEC = re.compile(
    r"^(?P<kind>[a-z-]+)@(?P<superstep>\d+)"
    r"(?::w(?P<worker>\d+))?"
    r"(?:x(?P<factor>\d+(?:\.\d+)?))?"
    r"(?:\*(?P<repeat>\d+))?$"
)


def parse_fault_plan(spec: str) -> tuple:
    """Parse ``--fault-plan``: comma-separated ``kind@superstep`` entries.

    Each entry is ``kind@superstep[:wWORKER][xFACTOR][*REPEAT]`` with
    kind one of ``crash``, ``kill``, ``straggler``, ``ckpt-write``,
    ``ckpt-corrupt``; e.g. ``crash@3:w1,straggler@2:w0x4,kill@5*2``.
    Worker defaults to 0, factor to 4.0 (stragglers), repeat to 1.
    """
    plans = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        match = _FAULT_SPEC.match(entry)
        if match is None:
            raise argparse.ArgumentTypeError(
                f"bad fault spec {entry!r}; expected "
                f"kind@superstep[:wWORKER][xFACTOR][*REPEAT]"
            )
        kind = _FAULT_KIND_ALIASES.get(match.group("kind"))
        if kind is None:
            raise argparse.ArgumentTypeError(
                f"unknown fault kind {match.group('kind')!r}; expected "
                f"one of {sorted(_FAULT_KIND_ALIASES)}"
            )
        try:
            plans.append(FaultPlan(
                worker=int(match.group("worker") or 0),
                superstep=int(match.group("superstep")),
                kind=kind,
                factor=float(match.group("factor") or 4.0),
                repeat=int(match.group("repeat") or 1),
            ))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    if not plans:
        raise argparse.ArgumentTypeError("empty fault plan")
    return tuple(plans)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "HybridGraph reproduction: run an iterative graph algorithm "
            "under one of the five message transports."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=dataset_names(),
                        help="synthetic stand-in from the Table 4 registry")
    source.add_argument("--edge-list", metavar="PATH",
                        help="text edge list: 'src dst [weight]' per line")
    parser.add_argument("--algorithm", choices=ALGORITHMS,
                        default="pagerank")
    parser.add_argument("--mode", choices=MODES, default="hybrid")
    parser.add_argument("--workers", type=int, default=None,
                        help="computational nodes (dataset default: 5/30)")
    parser.add_argument("--buffer", type=int, default=None, metavar="B_I",
                        help="per-worker message buffer; omit = unlimited")
    parser.add_argument("--supersteps", type=int, default=None,
                        help="override the superstep budget")
    parser.add_argument("--source", type=int, default=0,
                        help="source vertex for sssp")
    parser.add_argument("--cluster", choices=("local", "amazon"),
                        default="local",
                        help="hardware profile (Table 3): HDD or SSD")
    parser.add_argument("--executor",
                        choices=("batched", "reference", "vectorized"),
                        default="batched",
                        help="superstep executor tier (all byte-identical)")
    parser.add_argument("--parallelism", type=int, default=1, metavar="N",
                        help="OS processes running the Pull-Respond scans "
                             "of vectorized bpull/hybrid gathers (default "
                             "1 = in-process; other jobs fall back to 1)")
    parser.add_argument("--in-memory", action="store_true",
                        help="sufficient-memory scenario (no disk charges)")
    parser.add_argument("--trace", action="store_true",
                        help="print the per-superstep trace")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="record structured trace events to PATH "
                             "(see --trace-format)")
    parser.add_argument("--trace-format", choices=("jsonl", "chrome"),
                        default="jsonl",
                        help="--trace-out format: one JSON event per "
                             "line, or a Chrome-trace/Perfetto document")
    parser.add_argument("--stats", action="store_true",
                        help="print graph statistics and exit (no job)")
    resilience = parser.add_argument_group(
        "resilience (docs/RESILIENCE.md)"
    )
    resilience.add_argument(
        "--fault-plan", type=parse_fault_plan, default=None,
        metavar="SPEC",
        help="inject planned faults: comma-separated "
             "kind@superstep[:wWORKER][xFACTOR][*REPEAT]; kinds: "
             "crash, kill, straggler, ckpt-write, ckpt-corrupt "
             "(e.g. 'crash@3:w1,straggler@2:w0x4')")
    resilience.add_argument(
        "--chaos-probability", type=float, default=0.0, metavar="P",
        help="seeded chaos mode: per-superstep fault probability")
    resilience.add_argument(
        "--chaos-seed", type=int, default=0,
        help="RNG seed for chaos mode (deterministic per seed)")
    resilience.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N",
        help="snapshot the iteration state every N supersteps")
    resilience.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist snapshots durably under DIR "
             "(versioned, checksummed, atomic)")
    resilience.add_argument(
        "--resume-from", metavar="DIR", default=None,
        help="resume a killed job from the newest valid snapshot in DIR")
    resilience.add_argument(
        "--max-restarts", type=int, default=3,
        help="restarts attempted before giving up (default 3)")
    resilience.add_argument(
        "--restart-backoff", type=float, default=0.0, metavar="S",
        help="modeled exponential-backoff base seconds per restart")
    return parser


def _make_program(args: argparse.Namespace):
    if args.algorithm == "pagerank":
        return PageRank(supersteps=args.supersteps or 10)
    if args.algorithm == "sssp":
        return SSSP(source=args.source)
    if args.algorithm == "lpa":
        return LPA(supersteps=args.supersteps or 5)
    if args.algorithm == "sa":
        return SA()
    if args.algorithm == "phased-bfs":
        return PhasedBFS(sources=(args.source, args.source + 1))
    return WCC()


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.dataset:
        graph = get_dataset(args.dataset)
        spec = DATASETS[args.dataset]
        workers = args.workers or spec.workers
        buffer = args.buffer if args.buffer is not None else (
            None if args.in_memory else spec.buffer_per_worker
        )
        vblocks = spec.vblocks_per_worker
    else:
        graph = read_edge_list(args.edge_list)
        workers = args.workers or 5
        buffer = args.buffer
        vblocks = None

    if args.stats:
        from repro.analysis.graphstats import compute_stats

        print(compute_stats(graph).summary())
        return 0

    trace = None
    if args.trace_out:
        from repro.obs import TraceConfig

        trace = TraceConfig(out=args.trace_out, format=args.trace_format)
    fault = None
    if args.fault_plan or args.chaos_probability > 0.0:
        fault = FaultSchedule(
            faults=args.fault_plan or (),
            chaos_probability=args.chaos_probability,
            chaos_seed=args.chaos_seed,
        )
    config = JobConfig(
        mode=args.mode,
        num_workers=workers,
        message_buffer_per_worker=buffer,
        graph_on_disk=not args.in_memory,
        vblocks_per_worker=vblocks,
        cluster=AMAZON_CLUSTER if args.cluster == "amazon" else LOCAL_CLUSTER,
        max_supersteps=args.supersteps,
        executor=args.executor,
        parallelism=args.parallelism,
        trace=trace,
        fault=fault,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
        resume_from=args.resume_from,
        max_restarts=args.max_restarts,
        restart_backoff_seconds=args.restart_backoff,
    )
    program = _make_program(args)
    result = run_job(graph, program, config)
    metrics = result.metrics

    print(f"graph      : {graph.name} |V|={graph.num_vertices:,} "
          f"|E|={graph.num_edges:,}")
    print(f"program    : {program.name}   mode: {metrics.mode}   "
          f"workers: {workers}   cluster: {config.cluster.name}")
    rt = result.runtime
    if config.executor != "batched" or config.parallelism > 1:
        print(f"executor   : {rt.active_executor}   "
              f"parallelism: {rt.active_parallelism}")
    if metrics.fallback is not None:
        fb = metrics.fallback
        print(f"fallback   : requested {fb['requested_executor']}"
              f"/p={fb['requested_parallelism']}, running "
              f"{fb['active_executor']}/p={fb['active_parallelism']} "
              f"({fb['reason']})")
    print(f"supersteps : {metrics.num_supersteps}")
    print(f"runtime    : {fmt_seconds(metrics.runtime_seconds)} "
          f"(load {fmt_seconds(metrics.load.elapsed_seconds)})")
    print(f"disk I/O   : {fmt_bytes(metrics.compute_io_bytes)}   "
          f"network: {fmt_bytes(metrics.total_net_bytes)}   "
          f"messages: {metrics.total_messages:,}")
    if metrics.resumed_from is not None:
        print(f"resumed    : after superstep {metrics.resumed_from} "
              f"({args.resume_from})")
    if metrics.faults:
        fired = ", ".join(
            f"{f['kind']}@{f['superstep']}/w{f['worker']}"
            for f in metrics.faults
        )
        print(f"faults     : {fired}")
    if metrics.recoveries:
        total = sum(
            r["rework_seconds"] + r["downtime_seconds"]
            for r in metrics.recoveries
        )
        mttr = total / len(metrics.recoveries)
        policies = ", ".join(
            f"{r['policy']}@{r['superstep']}"
            for r in metrics.recoveries
        )
        print(f"recovery   : {metrics.restarts} restarts "
              f"(MTTR {fmt_seconds(mttr)} modeled; {policies})")
    if metrics.checkpoints:
        print(f"checkpoints: {len(metrics.checkpoints)} taken "
              f"({fmt_seconds(metrics.checkpoint_seconds)}; "
              f"{len(metrics.checkpoint_failures)} failed)")
    if args.mode == "hybrid":
        switches = [m for m in metrics.mode_trace if "->" in m]
        print(f"mode trace : {switches or 'no switches'}")
    if args.trace:
        rows = [
            [s.superstep, s.mode, s.updated_vertices, s.raw_messages,
             fmt_bytes(s.io.total), fmt_seconds(s.elapsed_seconds)]
            for s in metrics.supersteps
        ]
        print_table(
            ["t", "mode", "updated", "messages", "disk", "elapsed"],
            rows,
        )
    if args.trace_out:
        print(f"trace      : {args.trace_out} ({args.trace_format})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
