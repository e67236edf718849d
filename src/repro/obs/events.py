"""Typed trace events: the vocabulary of the observability subsystem.

Every event carries a *modeled* timestamp (the simulator's clock, in
modeled seconds — the same clock :attr:`JobMetrics.runtime_seconds` is
expressed in), an optional duration (spans), and attribution fields:
which superstep and which worker the event belongs to.  Sinks consume
:class:`TraceEvent` objects; the Chrome exporter maps ``worker`` to a
track and ``ts``/``dur`` to microseconds.

Event taxonomy (``name`` / ``kind`` / ``cat``):

====================  =======  ==========  =================================
name                  kind     cat         meaning
====================  =======  ==========  =================================
``load_graph``        span     engine      graph loading phase (Fig. 16)
``superstep``         span     engine      one BSP superstep, barrier to
                                           barrier; args carry mode/counts
``load``              span     phase       drain the receiver message store
``pullRes``           span     phase       Pull-Request/Pull-Respond gather
``update``            span     phase       the update() sweep (IO(V_t))
``pushRes``           span     phase       pushRes + routing + spill
``worker``            span     worker      one worker's superstep, before
                                           the barrier (cpu+io+net)
``barrier``           span     worker      idle wait for the slowest worker
``disk``              instant  disk        per-worker disk charge, by class
``net``               instant  net         per-worker network transfer
``checkpoint``        span     engine      snapshot write (modeled seconds)
``restore``           instant  engine      checkpoint restored (superstep 0
                                           when recomputing from scratch)
``fault``             instant  engine      injected worker failure
``restart``           instant  engine      recovery started (args: policy,
                                           resume_after)
``switch_decision``   instant  switch      one Q_t evaluation with the
                                           Eq. 11 inputs and the planned
                                           mode
``mode_switch``       instant  engine      a switch superstep (Fig. 6) ran
``process_busy``      span     parallel    one pool process scanning its
                                           shard of a gather (wall clock)
``process_barrier``   span     parallel    that process waiting for the
                                           round's slowest sibling
``merge``             span     parallel    the coordinator accounting for
                                           and folding the gather's
                                           results (wall clock)
====================  =======  ==========  =================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "TraceEvent",
    "SPAN",
    "INSTANT",
    "CAT_ENGINE",
    "CAT_PHASE",
    "CAT_WORKER",
    "CAT_DISK",
    "CAT_NET",
    "CAT_SWITCH",
    "CAT_PARALLEL",
    "PHASE_NAMES",
]

#: event kinds
SPAN = "span"
INSTANT = "instant"

#: event categories
CAT_ENGINE = "engine"
CAT_PHASE = "phase"
CAT_WORKER = "worker"
CAT_DISK = "disk"
CAT_NET = "net"
CAT_SWITCH = "switch"
CAT_PARALLEL = "parallel"

#: the per-superstep phases, in execution order (Section 5.2's
#: decoupling: input mechanism, then update, then output mechanism).
PHASE_NAMES = ("load", "pullRes", "update", "pushRes")


@dataclass
class TraceEvent:
    """One observation: a span (has ``dur``) or an instant.

    ``ts`` and ``dur`` are modeled seconds.  ``worker`` is ``None`` for
    cluster-level events (superstep spans, switch decisions, ...).
    """

    name: str
    kind: str
    cat: str
    ts: float
    dur: float = 0.0
    superstep: Optional[int] = None
    worker: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure dict (the JSONL sink writes one per line)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "cat": self.cat,
            "ts": self.ts,
        }
        if self.kind == SPAN:
            out["dur"] = self.dur
        if self.superstep is not None:
            out["superstep"] = self.superstep
        if self.worker is not None:
            out["worker"] = self.worker
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (reload a JSONL trace)."""
        return cls(
            name=data["name"],
            kind=data["kind"],
            cat=data["cat"],
            ts=data["ts"],
            dur=data.get("dur", 0.0),
            superstep=data.get("superstep"),
            worker=data.get("worker"),
            args=dict(data.get("args", {})),
        )
