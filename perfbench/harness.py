"""Wall-clock job benchmark machinery: workloads, layer spans, job loop.

Everything here measures ``repro`` from the outside.  Per-layer time
comes from wrapping per-job, per-superstep or per-worker functions of
the library for the length of a traced run (:func:`wrapped`), never
per-vertex or per-message methods, and every wrapped attribute is put
back afterwards.  Spans nest: a span's *self* time is its duration
minus the spans it encloses, so the self times of one job partition
its wall-clock exactly, with the job itself (``engine``) as the root.

One operation is one ``run_job`` call on a fresh program and a fresh
copy of the seeded graph with no cached CSR view; jobs run one at a
time (closed loop, one client).
"""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import importlib
import json
import shutil
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro import JobConfig, PageRank, SSSP, run_job, social_graph

#: Input size.  The ROADMAP profile used 30k vertices; a third of that
#: keeps every job under ~2 s on a 2-core host, so one run holds enough
#: jobs for a steady median, and VE-BLOCK build still dominates b-pull.
NUM_VERTICES = 10_000
AVG_DEGREE = 10
NUM_WORKERS = 5
#: ``B_i`` in messages: far below the ~20k messages a worker receives
#: per PageRank superstep, so push spills most of them.
MESSAGE_BUFFER = 1000
PAGERANK_SUPERSTEPS = 10
#: :func:`probe_s` on the host the bounds were set on (2-vCPU VM,
#: CPython 3.11, NumPy 2.4, no other load).  End-to-end times are
#: reported scaled to that host speed; see :func:`host_scale`.
PROBE_REF_S = 0.015


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One fixed ``run_job`` shape; only the graph depends on the seed."""

    name: str
    why: str
    make_graph: Callable[[int], Any]
    make_program: Callable[[], Any]
    #: ``JobConfig`` fields beyond the shared worker/buffer settings.
    config: Dict[str, Any]
    #: snapshots go to a durable ``checkpoint_dir``, emptied per job.
    durable_checkpoints: bool = False

    @property
    def executor(self) -> str:
        return self.config.get("executor", "batched")

    @property
    def parallelism(self) -> int:
        return self.config.get("parallelism", 1)

    def job_config(self, checkpoint_dir: Optional[Path] = None,
                   **overrides: Any) -> JobConfig:
        fields = dict(
            num_workers=NUM_WORKERS,
            message_buffer_per_worker=MESSAGE_BUFFER,
        )
        fields.update(self.config)
        if self.durable_checkpoints and checkpoint_dir is not None:
            fields["checkpoint_dir"] = str(checkpoint_dir)
        fields.update(overrides)
        return JobConfig(**fields)


def _social(seed: int):
    return social_graph(NUM_VERTICES, AVG_DEGREE, seed=seed, name="social")


def _twi_like(seed: int):
    # the registry's twi shape (skew 1.7, locality 0.1), scaled up
    return social_graph(
        NUM_VERTICES, AVG_DEGREE, seed=seed, skew=1.7, locality=0.1,
        name="twi-like",
    )


def _pagerank():
    return PageRank(supersteps=PAGERANK_SUPERSTEPS)


def _sssp():
    return SSSP(source=0)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pagerank-bpull",
            "vectorized b-pull PageRank: VE-BLOCK build and the dense "
            "gather dominate; no adjacency or message store",
            _social, _pagerank,
            {"mode": "bpull", "executor": "vectorized"},
        ),
        Workload(
            "pagerank-push",
            "default batched push PageRank with a spilling buffer: "
            "adjacency reads and the message store dominate; no VE-BLOCK",
            _social, _pagerank,
            {"mode": "push"},
        ),
        Workload(
            "sssp-hybrid-ckpt",
            "hybrid SSSP on a twi-like graph with durable checkpoints: "
            "sparse frontier, Q_t switching, object-path gathers, file I/O",
            _twi_like, _sssp,
            {"mode": "hybrid", "checkpoint_interval": 2},
            durable_checkpoints=True,
        ),
        Workload(
            "pagerank-bpull-p2",
            "pagerank-bpull on a 2-process pool: isolates fork, shared "
            "memory, IPC and coordinator replay",
            _social, _pagerank,
            {"mode": "bpull", "executor": "vectorized", "parallelism": 2},
        ),
    )
}


def pool_unavailable_reason() -> Optional[str]:
    """Why a 2-process pool cannot run on this host, or None."""
    import multiprocessing
    import os

    if (os.cpu_count() or 1) < 2:
        return "host has fewer than 2 cores"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "platform lacks the fork start method"
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return "multiprocessing.shared_memory is unavailable"
    return None


def stop_helper_processes() -> None:
    """Stop and reap every process the run started.

    The library joins its pool children when a job ends; this reaps any
    left by an error path, then stops the resource tracker that
    ``multiprocessing.shared_memory`` starts on first use.  Left alone
    the tracker would outlive this process and exit only when the
    interpreter does, as an orphan nobody waits for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # closing the tracker's pipe ends it; _stop() then waits for it
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: (name, unit, better) — measured with tracing off.
END_TO_END = (
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("medges_per_s", "Medges/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: (name, unit, better, layer) — measured in the traced run.  Seconds
#: are per-job totals of *self* time (median over jobs) unless noted in
#: :func:`layer_values`; counts repeat exactly from job to job.
PER_LAYER = (
    ("runtime.init_s", "s", "lower", "core.runtime"),
    ("runtime.setup_self_s", "s", "lower", "core.runtime"),
    ("graph.csr_s", "s", "lower", "core.graph"),
    ("veblock.layout_s", "s", "lower", "storage.veblock"),
    ("veblock.build_s", "s", "lower", "storage.veblock"),
    ("veblock.build_calls", "count", "lower", "storage.veblock"),
    ("veblock.collect_s", "s", "lower", "storage.veblock"),
    ("veblock.collect_calls", "count", "lower", "storage.veblock"),
    ("veblock.fragments", "count", "lower", "storage.veblock"),
    ("adjacency.build_s", "s", "lower", "storage.adjacency"),
    ("messages.deposit_s", "s", "lower", "storage.messages"),
    ("messages.deposit_calls", "count", "lower", "storage.messages"),
    ("messages.load_s", "s", "lower", "storage.messages"),
    ("messages.spill_frac", "ratio", "lower", "storage.messages"),
    ("modes.superstep_s", "s", "lower", "core.modes"),
    ("modes.dense_state_s", "s", "lower", "core.modes"),
    ("modes.update_s", "s", "lower", "core.modes"),
    ("modes.gather_s", "s", "lower", "core.modes"),
    ("modes.finalize_s", "s", "lower", "core.modes"),
    ("modes.superstep_self_s", "s", "lower", "core.modes"),
    ("modes.responding_frac", "ratio", "lower", "core.modes"),
    ("pool.fork_s", "s", "lower", "core.modes.parallel"),
    ("pool.round_s", "s", "lower", "core.modes.parallel"),
    ("pool.rounds", "count", "lower", "core.modes.parallel"),
    ("pool.coord_s", "s", "lower", "core.modes.parallel"),
    ("pool.close_s", "s", "lower", "core.modes.parallel"),
    ("switching.observe_s", "s", "lower", "core.switching"),
    ("switching.switches", "count", "lower", "core.switching"),
    ("checkpoint.take_s", "s", "lower", "cluster.checkpoint"),
    ("checkpoint.save_s", "s", "lower", "cluster.checkpoint_store"),
    ("checkpoint.saves", "count", "lower", "cluster.checkpoint_store"),
    ("engine.self_s", "s", "lower", "core.engine"),
    ("engine.job_s_tail", "s", "lower", "core.engine"),
    ("bench.trace_overhead_frac", "ratio", "lower", "benchmark"),
    ("failed_frac", "ratio", "lower", "benchmark"),
)

#: (module, attribute path, span).  An attribute is patched where the
#: caller looks it up: functions imported by name into another module
#: are wrapped in that module's namespace.
WRAP_POINTS = (
    ("repro.core.runtime", "Runtime.__init__", "runtime.init"),
    ("repro.core.runtime", "Runtime.setup", "runtime.setup"),
    ("repro.core.graph", "Graph.csr", "graph.csr"),
    ("repro.core.runtime", "choose_vblocks_per_worker", "veblock.layout"),
    ("repro.storage.veblock", "BlockLayout.build", "veblock.layout"),
    ("repro.storage.veblock", "VEBlockStore.__init__", "veblock.build"),
    ("repro.storage.veblock", "VEBlockStore.collect_for_request",
     "veblock.collect"),
    ("repro.storage.adjacency", "AdjacencyStore.__init__",
     "adjacency.build"),
    ("repro.storage.messages", "SpillingMessageStore.deposit_fanout",
     "messages.deposit"),
    ("repro.storage.messages", "SpillingMessageStore.deposit_many",
     "messages.deposit"),
    ("repro.core.modes.vectorized", "VectorizedMessageStore.deposit_arrays",
     "messages.deposit"),
    ("repro.storage.messages", "SpillingMessageStore.load",
     "messages.load"),
    ("repro.core.modes.vectorized", "VectorizedMessageStore.load",
     "messages.load"),
    ("repro.core.modes.vectorized", "VectorizedMessageStore.load_arrays",
     "messages.load"),
    ("repro.core.engine", "run_superstep", "modes.superstep"),
    ("repro.core.engine", "run_superstep_vectorized", "modes.superstep"),
    ("repro.core.engine", "run_superstep_parallel", "modes.superstep"),
    ("repro.core.modes.vectorized", "_VecState.__init__",
     "modes.dense_state"),
    ("repro.core.modes.vectorized", "_PullState.__init__",
     "modes.dense_state"),
    ("repro.core.modes.common", "phase2_for_worker", "modes.update"),
    ("repro.core.modes.vectorized", "compute_worker_update",
     "modes.update"),
    ("repro.core.modes.common", "bpull_gather", "modes.gather"),
    ("repro.core.modes.vectorized", "_bpull_gather_vectorized",
     "modes.gather"),
    ("repro.core.modes.parallel", "_parallel_gather_batched",
     "modes.gather"),
    ("repro.core.modes.parallel", "_parallel_gather_vectorized",
     "modes.gather"),
    ("repro.core.modes.common", "finalize_superstep_metrics",
     "modes.finalize"),
    ("repro.core.modes.vectorized", "finalize_superstep_metrics",
     "modes.finalize"),
    ("repro.core.modes.parallel", "finalize_superstep_metrics",
     "modes.finalize"),
    ("repro.core.modes.parallel", "ensure_pool", "pool.fork"),
    ("repro.core.modes.parallel", "_ParallelPool.run_round", "pool.round"),
    ("repro.core.modes.parallel", "_ParallelPool.close", "pool.close"),
    ("repro.core.switching", "HybridController.observe",
     "switching.observe"),
    ("repro.core.engine", "take_checkpoint", "checkpoint.take"),
    ("repro.cluster.checkpoint_store", "CheckpointStore.save",
     "checkpoint.save"),
)

#: the two spans that make up ``setup_s``; the only ones wrapped when
#: tracing is off.
SETUP_POINTS = WRAP_POINTS[:2]

#: per-layer metric -> the span whose self time it reports.
_SELF_TIME_OF = {
    "runtime.init_s": "runtime.init",
    "runtime.setup_self_s": "runtime.setup",
    "graph.csr_s": "graph.csr",
    "veblock.layout_s": "veblock.layout",
    "veblock.build_s": "veblock.build",
    "veblock.collect_s": "veblock.collect",
    "adjacency.build_s": "adjacency.build",
    "messages.deposit_s": "messages.deposit",
    "messages.load_s": "messages.load",
    "modes.dense_state_s": "modes.dense_state",
    "modes.update_s": "modes.update",
    "modes.gather_s": "modes.gather",
    "modes.finalize_s": "modes.finalize",
    "modes.superstep_self_s": "modes.superstep",
    "pool.fork_s": "pool.fork",
    "pool.round_s": "pool.round",
    "pool.close_s": "pool.close",
    "switching.observe_s": "switching.observe",
    "checkpoint.take_s": "checkpoint.take",
    "checkpoint.save_s": "checkpoint.save",
    "engine.self_s": "engine",
}

_CALLS_OF = {
    "veblock.build_calls": "veblock.build",
    "veblock.collect_calls": "veblock.collect",
    "messages.deposit_calls": "messages.deposit",
    "pool.rounds": "pool.round",
    "checkpoint.saves": "checkpoint.save",
}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """Wall-clock spans of one job, aggregated per span name."""

    def __init__(self) -> None:
        self._open: List[float] = []  # child time of each open span
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: per-call durations of the superstep span, in call order.
        self.supersteps: List[float] = []

    def reset(self) -> None:
        self._open.clear()
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.supersteps.clear()

    def _close(self, name: str, elapsed: float) -> None:
        children = self._open.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        self.calls[name] += 1
        if name == "modes.superstep":
            self.supersteps.append(elapsed)
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - start)

    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span called *name*."""
        open_spans = self._open
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - start)

        return wrapper


def resolve(module_name: str, path: str) -> tuple:
    """``(owner, attribute)`` of a wrap point: a module or a class."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def wrapped(recorder: SpanRecorder,
            points: Sequence[tuple] = WRAP_POINTS) -> Iterator[None]:
    """Route each wrap point through *recorder*; restore all on exit."""
    saved = []
    try:
        for module_name, path, span in points:
            owner, attr = resolve(module_name, path)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(
                    recorder.timed(span, raw.__func__)
                )
            else:
                patched = recorder.timed(span, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# the job loop
# ----------------------------------------------------------------------
def probe_s() -> float:
    """Wall-clock of a fixed mix of dict/tuple and NumPy work.

    It measures how fast the host runs right now and touches no
    ``repro`` code, so a change to the library cannot move it.  The
    cyclic collector is off while it runs: its allocations would
    otherwise now and then set off a full collection of the whole heap,
    which says nothing about the host.
    """
    import numpy as np

    gc.disable()
    try:
        start = perf_counter()
        buckets: Dict[int, list] = {}
        for i in range(20_000):
            buckets.setdefault((i * 7919) % 20_011, []).append((i, i * 0.5))
        rng = np.random.default_rng(0)
        values = rng.random(100_000)
        np.argsort(values, kind="stable")
        np.bincount(rng.integers(0, 10_000, 100_000), weights=values)
        return perf_counter() - start
    finally:
        gc.enable()


@dataclass
class JobSample:
    """One timed ``run_job`` call."""

    wall_s: float
    #: :func:`probe_s` taken just before the job.
    probe_s: float = 0.0
    setup_s: float = 0.0
    edges_scanned: int = 0
    digest: Optional[str] = None
    error: Optional[str] = None
    executor: Optional[str] = None
    parallelism: Optional[int] = None
    #: per-layer values of this job (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: sum of span self times, to check against ``wall_s``.
    self_sum_s: float = 0.0


def digest(result) -> str:
    """Hash of ``JobMetrics.to_dict()`` plus the final vertex values."""
    payload = json.dumps(
        {"metrics": result.metrics.to_dict(), "values": list(result.values)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _fresh_dir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)


def run_one(workload: Workload, graph, recorder: SpanRecorder,
            checkpoint_dir: Optional[Path] = None,
            traced: bool = False) -> JobSample:
    """Time one job; a raised exception is recorded, not propagated."""
    job_graph = copy.copy(graph)  # shares adjacency, no cached CSR
    program = workload.make_program()
    config = workload.job_config(checkpoint_dir)
    _fresh_dir(checkpoint_dir if workload.durable_checkpoints else None)
    recorder.reset()
    # No gc.collect() here: a forced collection resets the collector's
    # counters, so every job would fork its pool at the same point of the
    # collector's cycle, and on some graphs that point makes a pool child
    # run a full collection over the inherited heap (+0.1 s) on every
    # job.  Jobs see the collector state the previous job left behind,
    # as in a long-running process.
    before = probe_s()
    start = perf_counter()
    try:
        with recorder.span("engine"):
            result = run_job(job_graph, program, config)
    except Exception as exc:  # a failed job is a measurement
        return JobSample(
            wall_s=perf_counter() - start,
            probe_s=before,
            error=f"{type(exc).__name__}: {exc}",
        )
    wall = perf_counter() - start
    rt = result.runtime
    sample = JobSample(
        wall_s=wall,
        probe_s=before,
        setup_s=recorder.total["runtime.init"]
        + recorder.total["runtime.setup"],
        edges_scanned=sum(s.edges_scanned for s in result.metrics.supersteps),
        digest=digest(result),
        executor=rt.active_executor,
        parallelism=rt.active_parallelism,
    )
    if rt.executor_fallback is not None or result.metrics.fallback:
        sample.error = f"executor fallback: {rt.executor_fallback}"
    elif (sample.executor, sample.parallelism) != (
        workload.executor, workload.parallelism
    ):
        sample.error = (
            f"ran {sample.executor} at parallelism {sample.parallelism}"
        )
    if traced:
        sample.layers = layer_values(recorder, result)
        sample.self_sum_s = sum(recorder.self_time.values())
    return sample


def run_jobs(workload: Workload, graph, seconds: float,
             checkpoint_dir: Optional[Path] = None, traced: bool = False,
             min_jobs: int = 3) -> List[JobSample]:
    """Closed loop: start jobs until *seconds* have passed."""
    recorder = SpanRecorder()
    samples: List[JobSample] = []
    with wrapped(recorder, WRAP_POINTS if traced else SETUP_POINTS):
        start = perf_counter()
        while len(samples) < min_jobs or perf_counter() - start < seconds:
            samples.append(
                run_one(workload, graph, recorder, checkpoint_dir, traced)
            )
    return samples


def reference_digest(workload: Workload, graph,
                     checkpoint_dir: Optional[Path] = None) -> Optional[str]:
    """Digest of the fault-free ``executor="reference"`` run, or None."""
    _fresh_dir(checkpoint_dir if workload.durable_checkpoints else None)
    config = workload.job_config(
        checkpoint_dir, executor="reference", parallelism=1
    )
    try:
        result = run_job(copy.copy(graph), workload.make_program(), config)
    except Exception:
        return None
    return digest(result)


def count_failures(samples: Sequence[JobSample],
                   reference: Optional[str]) -> int:
    """Mark digest mismatches as errors; return the failed-job count."""
    for sample in samples:
        if sample.error is None and sample.digest != reference:
            sample.error = "result differs from the reference executor"
    return sum(1 for s in samples if s.error is not None)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def layer_values(recorder: SpanRecorder, result) -> Dict[str, float]:
    """Per-layer values of one traced job.

    ``modes.superstep_s`` is the median superstep call from superstep 2
    on (superstep 1 builds lazy dense state); ``pool.coord_s`` is the
    coordinator's serial share of the parallel supersteps, i.e. their
    total minus pool rounds and pool start-up.
    """
    self_time = recorder.self_time
    out = {m: self_time.get(span, 0.0) for m, span in _SELF_TIME_OF.items()}
    out.update(
        {m: recorder.calls.get(span, 0) for m, span in _CALLS_OF.items()}
    )
    steps = result.metrics.supersteps
    later = recorder.supersteps[1:]
    out["modes.superstep_s"] = statistics.median(later) if later else 0.0
    out["pool.coord_s"] = (
        recorder.total["modes.superstep"] - recorder.total["pool.round"]
        - recorder.total["pool.fork"]
        if recorder.calls["pool.round"] else 0.0
    )
    raw = sum(s.raw_messages for s in steps)
    out["messages.spill_frac"] = (
        sum(s.spilled_messages for s in steps) / raw if raw else 0.0
    )
    num_vertices = len(result.values)
    out["modes.responding_frac"] = (
        sum(s.responding_vertices for s in steps)
        / (len(steps) * num_vertices) if steps and num_vertices else 0.0
    )
    out["veblock.fragments"] = result.runtime.total_fragments()
    out["switching.switches"] = sum(
        1 for label in result.metrics.mode_trace if "->" in label
    )
    return out


def tail(values: Sequence[float], beyond: int = 10) -> float:
    """Highest sample with at least *beyond* samples above it.

    With fewer than ``beyond + 1`` samples no such percentile exists and
    the maximum is returned.
    """
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1]
    return ordered[-beyond - 1]


def host_scale(samples: Sequence[JobSample]) -> float:
    """:data:`PROBE_REF_S` ÷ the run's median :func:`probe_s`."""
    return PROBE_REF_S / statistics.median(s.probe_s for s in samples)


def end_to_end(samples: Sequence[JobSample], peak_rss_mb: float,
               scale: float = 1.0) -> Dict[str, float]:
    """End-to-end metrics; times are multiplied by *scale*."""
    ok = [s for s in samples if s.error is None] or list(samples)
    return {
        "job_s": statistics.median(s.wall_s for s in ok) * scale,
        "setup_s": statistics.median(s.setup_s for s in ok) * scale,
        "medges_per_s": statistics.median(
            s.edges_scanned / 1e6 / (s.wall_s - s.setup_s)
            if s.wall_s > s.setup_s else 0.0
            for s in ok
        ) / scale,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced: Sequence[JobSample], traced: Sequence[JobSample],
              failed: int) -> Dict[str, float]:
    ok = [s for s in traced if s.error is None] or list(traced)
    out = {
        name: statistics.median(s.layers.get(name, 0.0) for s in ok)
        for name, _unit, _better, _layer in PER_LAYER
    }
    # both halves scaled to one host speed, so a slower phase of a
    # shared host is not read as tracing overhead
    base = statistics.median(s.wall_s for s in untraced) * host_scale(untraced)
    out["engine.job_s_tail"] = tail([s.wall_s for s in untraced])
    out["bench.trace_overhead_frac"] = (
        statistics.median(s.wall_s for s in ok) * host_scale(ok) - base
    ) / base
    out["failed_frac"] = failed / (len(untraced) + len(traced))
    return out


def self_time_gap(samples: Sequence[JobSample]) -> float:
    """Largest |Σ span self times − job wall| ÷ job wall over *samples*."""
    return max(
        (abs(s.self_sum_s - s.wall_s) / s.wall_s
         for s in samples if s.error is None and s.wall_s > 0),
        default=0.0,
    )
