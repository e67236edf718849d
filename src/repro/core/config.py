"""Job configuration: execution mode, memory budgets, hardware profiles.

A :class:`JobConfig` fully determines a run (the simulator is
deterministic), so every experiment in ``benchmarks/`` is expressed as a
set of configs over a set of graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from repro.storage.disk import DiskProfile, HDD_PROFILE, SSD_PROFILE
from repro.storage.records import DEFAULT_SIZES, RecordSizes

__all__ = [
    "CpuModel",
    "ClusterProfile",
    "LOCAL_CLUSTER",
    "AMAZON_CLUSTER",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSchedule",
    "JobConfig",
    "MODES",
]

#: Execution modes accepted by :func:`repro.run_job`.
MODES = ("push", "pushm", "pull", "bpull", "hybrid")


@dataclass(frozen=True)
class CpuModel:
    """Per-operation CPU costs in modeled seconds.

    ``sortmerge_per_spilled_message`` models Giraph's sort-merge handling
    of disk-resident messages, which the paper identifies as
    computation-intensive — it is why push does *not* speed up on the
    amazon/SSD cluster (Section 6.1).  ``speed`` scales all CPU costs;
    the amazon cluster's virtual CPUs are slower than the local cluster's
    physical ones.
    """

    update: float = 5e-7
    per_message: float = 2e-7
    per_edge: float = 2e-8
    sortmerge_per_spilled_message: float = 1e-5
    per_lru_miss: float = 1e-7
    load_parse_per_edge: float = 5e-8
    speed: float = 1.0

    def seconds(self, *, updates: int = 0, messages: int = 0, edges: int = 0,
                spilled: int = 0, lru_misses: int = 0) -> float:
        raw = (
            updates * self.update
            + messages * self.per_message
            + edges * self.per_edge
            + spilled * self.sortmerge_per_spilled_message
            + lru_misses * self.per_lru_miss
        )
        return raw / self.speed


@dataclass(frozen=True)
class ClusterProfile:
    """Hardware profile of a cluster: disk/network throughputs + CPU."""

    name: str
    disk: DiskProfile
    cpu: CpuModel

    def with_cpu(self, **kwargs) -> "ClusterProfile":
        return replace(self, cpu=replace(self.cpu, **kwargs))


#: Table 3 "local" cluster: HDDs, physical CPUs.
LOCAL_CLUSTER = ClusterProfile(name="local", disk=HDD_PROFILE, cpu=CpuModel())

#: Table 3 "amazon" cluster: SSDs, weaker virtual CPUs.
AMAZON_CLUSTER = ClusterProfile(
    name="amazon", disk=SSD_PROFILE, cpu=CpuModel(speed=0.6)
)


#: Fault kinds understood by the injector (see ``docs/RESILIENCE.md``):
#:
#: * ``"crash"`` — the worker raises at the superstep barrier
#:   (HybridGraph's baseline failure model, Appendix A);
#: * ``"kill"`` — like crash, but when the job runs a process pool
#:   (``Runtime.active_parallelism > 1``) the engine SIGKILLs the child
#:   process owning the worker first, so recovery is exercised against
#:   genuine OS-level death;
#: * ``"straggler"`` — the worker's modeled seconds for that superstep
#:   are inflated by ``factor`` (no restart; stretches the barrier);
#: * ``"checkpoint_write"`` — the next snapshot attempt fails after
#:   paying its modeled write cost (the snapshot is not retained);
#: * ``"checkpoint_corrupt"`` — the newest retained snapshot (in memory
#:   and on disk) is corrupted, forcing recovery to fall back to the
#:   previous valid one, or to scratch.
FAULT_KINDS = (
    "crash",
    "kill",
    "straggler",
    "checkpoint_write",
    "checkpoint_corrupt",
)


@dataclass(frozen=True)
class FaultPlan:
    """One planned fault: *kind* fires at *superstep*, hitting *worker*.

    ``repeat`` makes the fault fire again on re-execution of the same
    superstep after a restart (up to ``repeat`` times total) — the
    classic "fails again during recovery" scenario.  ``factor`` only
    applies to ``kind="straggler"``.  The default kind reproduces the
    original one-shot worker crash, so ``FaultPlan(worker, superstep)``
    keeps its historical meaning.
    """

    worker: int
    superstep: int
    kind: str = "crash"
    factor: float = 4.0
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not isinstance(self.worker, int) or self.worker < 0:
            raise ValueError(
                f"fault worker must be an integer >= 0, got {self.worker!r}"
            )
        if not isinstance(self.superstep, int) or self.superstep < 1:
            raise ValueError(
                f"fault superstep must be an integer >= 1, got "
                f"{self.superstep!r}"
            )
        if not self.factor > 0:
            raise ValueError(f"straggler factor must be > 0, got {self.factor!r}")
        if not isinstance(self.repeat, int) or self.repeat < 1:
            raise ValueError(
                f"fault repeat must be an integer >= 1, got {self.repeat!r}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """Multiple planned faults plus a seeded probabilistic chaos mode.

    ``faults`` fire deterministically (see :class:`FaultPlan`).  When
    ``chaos_probability`` > 0, each superstep additionally draws from a
    :class:`random.Random` seeded with ``chaos_seed`` — the RNG lives in
    the injector, never in global state, so a given (schedule, job)
    pair always produces the same fault sequence.  Chaos stops after
    ``chaos_max_faults`` injected faults so seeded runs terminate.
    """

    faults: Tuple[FaultPlan, ...] = ()
    chaos_probability: float = 0.0
    chaos_seed: int = 0
    chaos_kinds: Tuple[str, ...] = ("crash",)
    chaos_max_faults: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "chaos_kinds", tuple(self.chaos_kinds))
        for plan in self.faults:
            if not isinstance(plan, FaultPlan):
                raise ValueError(
                    f"FaultSchedule.faults entries must be FaultPlan, "
                    f"got {plan!r}"
                )
        if (
            not isinstance(self.chaos_probability, (int, float))
            or isinstance(self.chaos_probability, bool)
            or not 0.0 <= self.chaos_probability <= 1.0
        ):
            raise ValueError(
                f"chaos_probability must be within [0, 1], got "
                f"{self.chaos_probability!r}"
            )
        if not self.chaos_kinds:
            raise ValueError("chaos_kinds must not be empty")
        for kind in self.chaos_kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown chaos fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )
        if not isinstance(self.chaos_max_faults, int) or self.chaos_max_faults < 0:
            raise ValueError(
                f"chaos_max_faults must be an integer >= 0, got "
                f"{self.chaos_max_faults!r}"
            )

    @property
    def empty(self) -> bool:
        return not self.faults and self.chaos_probability == 0.0


@dataclass(frozen=True)
class JobConfig:
    """Everything that parameterises one job run.

    Parameters mirror the paper's experimental knobs:

    * ``mode`` — push (Giraph), pushm (MOCgraph), pull (GraphLab
      PowerGraph + disk extension), bpull, hybrid.
    * ``message_buffer_per_worker`` — ``B_i``, the number of messages a
      worker may hold in memory before spilling (push family).  ``None``
      means unlimited (the "sufficient memory" scenario).  The pull
      baseline and pushM reuse the same budget to cache vertices.
    * ``graph_on_disk`` — the limited-memory scenario stores vertices and
      edges on (simulated) disk; False keeps everything memory-resident.
    * ``vblocks_per_worker`` — ``V_i``; ``None`` derives it from Eq. 5
      (combinable programs) or Eq. 6 (concatenation only).
    * ``sending_threshold_bytes`` — network package size (Appendix E).
    * ``switching_interval`` — Δt of the hybrid predictor (paper: 2).
    """

    mode: str = "hybrid"
    num_workers: int = 5
    partition: str = "range"  # "range" | "hash"
    message_buffer_per_worker: Optional[int] = None
    graph_on_disk: bool = True
    cluster: ClusterProfile = LOCAL_CLUSTER
    sizes: RecordSizes = DEFAULT_SIZES
    vblocks_per_worker: Optional[int] = None
    sending_threshold_bytes: int = 4096
    max_supersteps: Optional[int] = None
    switching_enabled: bool = True
    switching_interval: int = 2
    #: extension: only change transport when |Q_t| exceeds this fraction
    #: of the superstep's modeled duration.  0.0 reproduces the paper's
    #: pure sign rule; a few percent suppresses flip-flops in the
    #: near-zero early supersteps where the predicted gain cannot repay
    #: the switch overhead.
    switching_deadband: float = 0.0
    receiver_combine: bool = False
    sender_combine: bool = False  # pushM+com variant (Appendix E)
    #: set False to disable the Combiner in b-pull while keeping
    #: concatenation (the Fig. 18 network-traffic comparison does this).
    bpull_combine: bool = True
    prepull: bool = True  # b-pull pre-pulls the next Vblock (Section 4.3)
    #: vertices per physical adjacency block; push reads edges at this
    #: granularity (Section 6.2's block-insensitivity of C_io(push)).
    adjacency_block_vertices: int = 64
    #: asynchronous iteration (push family only): messages produced by a
    #: worker become visible to later workers within the same superstep,
    #: accelerating convergence of monotonic algorithms (those with
    #: ``async_safe = True``, e.g. SSSP/WCC).  The paper runs everything
    #: synchronously and notes async support as an extension.
    asynchronous: bool = False
    lru_capacity_vertices: Optional[int] = None  # pull baseline; None -> B_i
    vertices_on_disk_for_pull: bool = True  # Table 5 ext-edge keeps them in memory
    fragment_clustering: bool = True  # ablation: False = one fragment per edge
    #: fault injection: a single :class:`FaultPlan` (one planned fault)
    #: or a :class:`FaultSchedule` (multiple planned faults + seeded
    #: chaos mode).  None disables injection.
    fault: Optional[Union[FaultPlan, FaultSchedule]] = None
    #: superstep executor implementation.  ``"batched"`` (default) is the
    #: optimized hot path (aggregated disk charges, bitset flags, bucketed
    #: routing); ``"reference"`` is the per-vertex-accounting oracle in
    #: :mod:`repro.core.modes.reference`; ``"vectorized"`` runs dense
    #: NumPy kernels over a CSR view (:mod:`repro.core.modes.vectorized`)
    #: and transparently falls back to ``"batched"`` when NumPy is
    #: missing or the job shape has no vectorized path.  All tiers
    #: produce byte-identical :class:`JobMetrics` — the equivalence
    #: tests run every job through all of them.
    executor: str = "batched"
    #: number of OS processes running the Pull-Respond scans of
    #: the vectorized tier's b-pull gathers (:mod:`repro.core.modes.parallel`)
    #: on a persistent process pool; the coordinator accounts for the
    #: results as the in-process gather does, so metrics stay
    #: byte-identical to ``parallelism=1``.  Values above
    #: ``num_workers`` are clamped;
    #: every other job shape (batched/reference executor, pure push,
    #: a vectorized request that fell back, platforms without
    #: ``fork``/``shared_memory``) runs in process with the reason
    #: recorded in ``Runtime.executor_fallback``.
    parallelism: int = 1
    #: snapshot the iteration state every N supersteps and recover from
    #: the latest snapshot instead of recomputing from scratch — the
    #: lightweight fault tolerance the paper leaves as future work
    #: (Appendix A).  None keeps the paper's recompute-from-scratch.
    checkpoint_interval: Optional[int] = None
    #: restarts the recovery engine will attempt before re-raising the
    #: :class:`~repro.cluster.fault.WorkerFailure` to the caller.
    max_restarts: int = 3
    #: modeled seconds charged to the clock before restart *n* as
    #: ``backoff * 2**(n-1)`` (exponential backoff).  0.0 — the default —
    #: restarts immediately, preserving historical runtimes.
    restart_backoff_seconds: float = 0.0
    #: directory for durable checkpoint files
    #: (:mod:`repro.cluster.checkpoint_store`).  None keeps snapshots
    #: in the coordinator's memory only.  The modeled write cost is
    #: identical either way.
    checkpoint_dir: Optional[str] = None
    #: resume a previously killed job from the newest valid snapshot in
    #: this directory (implies durable checkpointing into it unless
    #: ``checkpoint_dir`` points elsewhere).
    resume_from: Optional[str] = None
    #: observability (``repro.obs``): ``None``/``False`` — tracing off
    #: (the job shares the zero-overhead null tracer); ``True`` — record
    #: to an in-memory ring buffer, readable via ``JobResult.trace``; a
    #: path string — additionally stream JSONL events to that file; a
    #: :class:`repro.obs.TraceConfig` or a ready
    #: :class:`repro.obs.Tracer` — full control over sinks.  Tracing
    #: never perturbs the model: metrics are byte-identical either way.
    trace: Any = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.max_supersteps is not None and self.max_supersteps < 1:
            raise ValueError(
                f"max_supersteps must be >= 1, got {self.max_supersteps!r}"
            )
        if self.adjacency_block_vertices < 1:
            raise ValueError(
                f"adjacency_block_vertices must be >= 1, got "
                f"{self.adjacency_block_vertices!r}"
            )
        if self.switching_deadband < 0:
            raise ValueError(
                f"switching_deadband must be >= 0, got "
                f"{self.switching_deadband!r}"
            )
        if self.partition not in ("range", "hash"):
            raise ValueError("partition must be 'range' or 'hash'")
        for name in ("message_buffer_per_worker", "lru_capacity_vertices"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.sending_threshold_bytes < 1:
            raise ValueError(
                f"sending_threshold_bytes must be >= 1, got "
                f"{self.sending_threshold_bytes!r}"
            )
        vblocks = self.vblocks_per_worker
        if vblocks is not None and vblocks < 1:
            raise ValueError(f"vblocks_per_worker must be >= 1, got {vblocks!r}")
        if self.switching_interval < 1:
            raise ValueError("switching_interval must be >= 1")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.asynchronous and self.mode not in ("push", "pushm"):
            raise ValueError(
                "asynchronous iteration is only supported by the push "
                "family (push/pushm)"
            )
        if self.executor not in ("batched", "reference", "vectorized"):
            raise ValueError(
                f"unknown executor {self.executor!r}; expected "
                "'batched', 'reference', or 'vectorized'"
            )
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ValueError(
                f"parallelism must be an integer >= 1, got "
                f"{self.parallelism!r}"
            )
        if self.fault is not None and not isinstance(
            self.fault, (FaultPlan, FaultSchedule)
        ):
            raise ValueError(
                f"fault must be a FaultPlan or FaultSchedule, got "
                f"{self.fault!r}"
            )
        if not isinstance(self.max_restarts, int) or self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be an integer >= 0, got "
                f"{self.max_restarts!r}"
            )
        if self.restart_backoff_seconds < 0:
            raise ValueError(
                f"restart_backoff_seconds must be >= 0, got "
                f"{self.restart_backoff_seconds!r}"
            )

    # Convenience -------------------------------------------------------
    @property
    def total_message_buffer(self) -> Optional[int]:
        """Cluster-wide ``B`` = Σ B_i (None when unlimited)."""
        if self.message_buffer_per_worker is None:
            return None
        return self.message_buffer_per_worker * self.num_workers

    @property
    def memory_sufficient(self) -> bool:
        return self.message_buffer_per_worker is None and not self.graph_on_disk

    def lru_capacity(self) -> Optional[int]:
        if self.lru_capacity_vertices is not None:
            return self.lru_capacity_vertices
        return self.message_buffer_per_worker

    def but(self, **kwargs) -> "JobConfig":
        """A copy with some fields replaced (config sweeps read nicely)."""
        return replace(self, **kwargs)
