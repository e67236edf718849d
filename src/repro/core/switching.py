"""Performance metric ``Q_t``, Theorem 2's bound, and the hybrid switcher.

Section 5.3: at superstep *t* the engine evaluates

.. math::

   Q_t = \\frac{M_{co} \\cdot Byte_m}{s_{net}}
       + \\frac{IO(M_{disk})}{s_{rw}}
       - \\frac{IO(V^t_{rr})}{s_{rr}}
       + \\frac{IO(E_t) + IO(M_{disk}) - IO(\\bar{E}_t) - IO(F_t)}{s_{sr}}

(b-pull is preferable when ``Q_t >= 0``) and uses the Shang & Yu
persistence predictor: the value measured at *t* predicts superstep
*t + Δt* with Δt = 2, because superstep *t+1*'s mode is already
committed when *t* finishes.

The quantities of the side *not* currently running are estimated:

* while running b-pull, push's spill is ``max(0, M - B) * S_m`` and its
  edge reads are the out-edges of the responding vertices;
* while running push, b-pull's scan volume comes from
  :meth:`VEBlockStore.estimate_bpull_scan` over the responding flags,
  and ``M_co`` is extrapolated as ``M * R_co`` with ``R_co`` the
  concatenating/combining ratio observed in the last b-pull superstep.

Theorem 2 provides the initial mode: with every vertex broadcasting,
``B <= B_perp = |E|/2 - f`` implies ``C_io(push) >= C_io(b-pull)``, so
the job starts in b-pull below the bound and in push above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.metrics import SuperstepMetrics
from repro.core.runtime import Runtime
from repro.obs.events import CAT_SWITCH
from repro.storage.disk import DiskProfile

__all__ = [
    "QInputs",
    "q_metric",
    "b_lower_bound",
    "initial_mode",
    "HybridController",
    "FixedController",
    "make_controller",
]

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class QInputs:
    """The six byte/count quantities Eq. 11 consumes (one superstep)."""

    mco: int
    bytem: int
    io_mdisk: int
    io_edges_push: int
    io_edges_bpull: int
    io_fragments: int
    io_vrr: int


def q_metric(inputs: QInputs, profile: DiskProfile) -> float:
    """Evaluate Eq. 11 in modeled seconds; ``>= 0`` favours b-pull."""
    net = inputs.mco * inputs.bytem / (profile.network_mbps * _MB)
    write = inputs.io_mdisk / (profile.random_write_mbps * _MB)
    vrr = inputs.io_vrr / (profile.random_read_mbps * _MB)
    seq = (
        inputs.io_edges_push
        + inputs.io_mdisk
        - inputs.io_edges_bpull
        - inputs.io_fragments
    ) / (profile.seq_read_mbps * _MB)
    return net + write - vrr + seq


def b_lower_bound(num_edges: int, num_fragments: int) -> float:
    """Theorem 2's ``B_perp = |E|/2 - f`` (in messages)."""
    return num_edges / 2.0 - num_fragments


def initial_mode(
    total_buffer: Optional[int], num_edges: int, num_fragments: int
) -> str:
    """Pick the first superstep's mode from Theorem 2.

    ``total_buffer=None`` means unlimited memory, which trivially exceeds
    the bound, so the job starts in push (and the Q-metric — dominated by
    communication gains when no I/O is charged — will switch it to b-pull
    if profitable, matching Section 6.1's sufficient-memory observation).
    """
    if total_buffer is None:
        return "push"
    if total_buffer <= b_lower_bound(num_edges, num_fragments):
        return "bpull"
    return "push"


class FixedController:
    """Runs a single mode forever (push / pushm / bpull / pull)."""

    def __init__(self, mode: str) -> None:
        self._mode = "push" if mode == "pushm" else mode
        self.q_trace: list = []

    def mode_for(self, superstep: int) -> str:
        return self._mode

    def observe(self, rt: Runtime, metrics: SuperstepMetrics) -> None:
        """Fixed modes ignore dynamics."""


class HybridController:
    """Algorithm 3's Switcher: plans each superstep's mode.

    The plan is a mapping superstep -> {"push", "bpull"}.  Supersteps 1
    and 2 come from Theorem 2; thereafter the ``Q_t`` computed at the end
    of superstep *t* fixes the mode of superstep ``t + interval``.
    """

    def __init__(self, rt: Runtime, enabled: bool = True, interval: int = 2,
                 deadband: float = 0.0):
        self._enabled = enabled
        self._interval = max(1, interval)
        self._deadband = deadband
        cfg = rt.config
        init = initial_mode(
            cfg.total_message_buffer,
            rt.graph.num_edges,
            rt.total_fragments(),
        )
        self._plan: Dict[int, str] = {
            t: init for t in range(1, self._interval + 1)
        }
        self._last = init
        # prior for the concatenating/combining ratio before any b-pull
        # superstep has been observed.
        self._rco = 0.5
        self.q_trace: list = []
        #: predicted vs actual inputs per superstep (Figs. 11-13).
        self.prediction_log: list = []

    # ------------------------------------------------------------------
    def mode_for(self, superstep: int) -> str:
        mode = self._plan.get(superstep)
        if mode is None:
            mode = self._last
            self._plan[superstep] = mode
        self._last = mode
        return mode

    # ------------------------------------------------------------------
    def observe(self, rt: Runtime, metrics: SuperstepMetrics) -> None:
        """Digest superstep *t*'s dynamics; plan superstep ``t + Δt``."""
        if metrics.mode == "push->bpull" or (
            metrics.superstep == 1 and metrics.raw_messages == 0
        ):
            # No messages move in a push->b-pull switch superstep (Fig. 6)
            # and none exist before superstep 1's updates, so M — and with
            # it Q_t — is unavailable; the plan carries forward.
            self.q_trace.append((metrics.superstep, None))
            return
        inputs = self._q_inputs(rt, metrics)
        q = q_metric(inputs, rt.config.cluster.disk)
        self.q_trace.append((metrics.superstep, q))
        self.prediction_log.append((metrics.superstep, inputs))
        target = metrics.superstep + self._interval
        planned: Optional[str] = None
        rule = None
        if self._enabled and target not in self._plan:
            if (
                self._deadband > 0.0
                and abs(q) < self._deadband * metrics.elapsed_seconds
            ):
                # predicted gain too small to repay a switch: stay put.
                planned = metrics.mode.split("->")[-1]
                rule = "deadband"
            else:
                planned = "bpull" if q >= 0 else "push"
                rule = "sign"
            self._plan[target] = planned
        tracer = rt.tracer
        if tracer.enabled:
            tracer.instant(
                "switch_decision", cat=CAT_SWITCH,
                superstep=metrics.superstep,
                args={
                    "q": q,
                    "mco": inputs.mco,
                    "bytem": inputs.bytem,
                    "io_mdisk": inputs.io_mdisk,
                    "io_edges_push": inputs.io_edges_push,
                    "io_edges_bpull": inputs.io_edges_bpull,
                    "io_fragments": inputs.io_fragments,
                    "io_vrr": inputs.io_vrr,
                    "mode": metrics.mode,
                    "planned_mode": planned,
                    "target_superstep": target if planned else None,
                    "rule": rule,
                },
            )

    # ------------------------------------------------------------------
    def _q_inputs(self, rt: Runtime, metrics: SuperstepMetrics) -> QInputs:
        cfg = rt.config
        sizes = cfg.sizes
        ran_pull = metrics.pull_requests > 0
        m = metrics.raw_messages
        bytem = sizes.message if rt.program.combinable else sizes.vertex_id
        if ran_pull:
            # measured b-pull side; estimate push's.
            mco = metrics.mco
            if m > 0:
                self._rco = mco / m
            io_mdisk = self._estimate_mdisk(rt, m)
            io_edges_push = sizes.edges(self._responding_out_edges(rt))
            io_edges_bpull = metrics.io_edges_bpull
            io_fragments = metrics.io_fragments
            io_vrr = metrics.io_vrr
        else:
            # measured push side; estimate b-pull's.
            mco = int(m * self._rco)
            io_mdisk = metrics.io_message_spill
            io_edges_push = metrics.io_edges_push
            io_edges_bpull = 0
            io_fragments = 0
            io_vrr = 0
            for worker in rt.workers:
                if worker.veblock is None:
                    continue
                _edges, aux_b, edge_b, vrr_b = (
                    worker.veblock.estimate_bpull_scan(rt.resp_next)
                )
                io_edges_bpull += edge_b
                io_fragments += aux_b
                io_vrr += vrr_b
        if not cfg.graph_on_disk:
            # Sufficient-memory scenario: no graph I/O exists on either
            # side, so Q_t reduces to the communication term and b-pull's
            # concatenating/combining gains dominate (Section 6.1).
            io_edges_push = io_edges_bpull = io_fragments = io_vrr = 0
        return QInputs(
            mco=mco,
            bytem=bytem,
            io_mdisk=io_mdisk,
            io_edges_push=io_edges_push,
            io_edges_bpull=io_edges_bpull,
            io_fragments=io_fragments,
            io_vrr=io_vrr,
        )

    def _estimate_mdisk(self, rt: Runtime, messages: int) -> int:
        buffer_total = rt.config.total_message_buffer
        if buffer_total is None:
            return 0
        spilled = max(0, messages - buffer_total)
        return rt.config.sizes.messages(spilled)

    def _responding_out_edges(self, rt: Runtime) -> int:
        """Edges push would read, in edge units (block-granular).

        Hybrid jobs always build adjacency stores, so every worker has one.
        """
        total_bytes = sum(
            worker.adjacency.estimate_edge_bytes(rt.resp_next)
            for worker in rt.workers
        )
        return total_bytes // rt.config.sizes.edge


def make_controller(rt: Runtime) -> Any:
    """The job's mode controller at superstep 0.

    Job start and recompute-from-scratch both begin here: the Switcher
    for hybrid jobs, a :class:`FixedController` otherwise.
    """
    cfg = rt.config
    if cfg.mode == "hybrid":
        return HybridController(
            rt,
            enabled=cfg.switching_enabled,
            interval=cfg.switching_interval,
            deadband=cfg.switching_deadband,
        )
    return FixedController(cfg.mode)
