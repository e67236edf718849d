"""Vertex-centric programming API with decoupled compute functions.

The paper's key enabler for seamless push/b-pull switching (Section 5.2)
is decoupling Pregel's ``compute()`` into:

* ``load()``   — fetch messages received in the previous superstep (push),
* ``update()`` — consume messages and produce the new vertex value,
* ``pushRes()``/``pullRes()`` — generate outgoing messages from the new /
  stored vertex value.

For that decoupling to be *correct* the outgoing message for an edge must
be a pure function of the source vertex's value and the edge — never of
transient compute() state.  This module encodes exactly that contract:

* :meth:`VertexProgram.update` consumes messages and returns the new value
  plus the *responding* decision (``setResFlag`` in the paper);
* :meth:`VertexProgram.message_value` produces the message for one
  out-edge from ``(value, edge)`` alone.

Every execution mode (push, pushM, pull, b-pull, hybrid) drives the same
program object, which is what makes the cross-mode equivalence tests
meaningful.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "ProgramContext",
    "UpdateResult",
    "VectorizedRules",
    "VertexProgram",
]


@dataclass
class ProgramContext:
    """Read-only facts a program may use during a superstep.

    ``out_degree`` is a callable because PageRank divides its rank by the
    out-degree when emitting messages.  It is backed by the graph; only
    the scalar tiers, which call it per message, build a degree list.
    """

    num_vertices: int
    superstep: int
    out_degree: Callable[[int], int]
    max_supersteps: int
    #: cluster-wide aggregator totals from the *previous* superstep
    #: (Pregel-style aggregators; empty before superstep 2).
    aggregates: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one vertex update.

    Attributes
    ----------
    value:
        The vertex's new value (may equal the old one).
    respond:
        Whether the vertex should send messages to its out-neighbors —
        the paper's ``setResFlag``.  Push-style modes send immediately;
        pull-style modes record the flag and respond on demand in the
        next superstep.
    """

    value: Any
    respond: bool


class VectorizedRules:
    """Optional dense NumPy kernels backing ``executor="vectorized"``.

    A program that wants the vectorized executor returns an instance
    from :meth:`VertexProgram.vectorized`.  The contract is strict: each
    kernel must reproduce the scalar methods **bit-for-bit** — the
    engine's equivalence oracle compares full metric dumps and final
    values byte-identically, so "close enough" floating point is a bug.
    In practice that means:

    * express the update as the *same* sequence of elementwise IEEE-754
      operations the scalar ``update()`` performs (e.g. PageRank's
      ``base + damping * acc``, never an algebraically equal variant);
    * message payloads must have the same dtype as the vertex values
      (the executor's accumulators inherit it);
    * ``combine`` declares the dense reduction: ``"sum"`` folds with
      ``np.bincount``/``np.add.at`` (sequential left folds, matching
      Python's ``sum``), ``"min"`` with ``np.minimum.at``.

    All kernels receive the NumPy module as ``xp`` so this class — and
    the programs defining rules — import cleanly on NumPy-less hosts,
    where the engine transparently falls back to the batched executor.
    """

    #: dense reduction matching :meth:`VertexProgram.combine`:
    #: ``"sum"`` or ``"min"``.
    combine: str = "sum"

    def initially_active_mask(self, ctx: ProgramContext, xp) -> Optional[Any]:
        """Bool mask of vertices active in superstep 1, or None.

        None (the default) makes the executor derive the mask from
        :meth:`VertexProgram.initially_active`.
        """
        return None

    def update_dense(
        self, ctx: ProgramContext, targets, values, acc, has_message, xp
    ):
        """Dense :meth:`VertexProgram.update` over the *targets* vertices.

        ``values`` holds their pre-update values, ``acc`` the combined
        incoming messages (the combiner's identity where ``has_message``
        is False).  Returns ``(new_values, respond)`` where ``respond``
        is a bool array aligned with *targets* or a plain bool scalar.
        """
        raise NotImplementedError

    def aggregate_dense(
        self, ctx: ProgramContext, targets, old_values, new_values, xp
    ) -> Optional[Dict[str, Any]]:
        """Dense :meth:`VertexProgram.aggregate`: key -> contribution array."""
        return None

    def source_payloads(self, ctx: ProgramContext, values, out_degrees, xp):
        """Uniform-message payload per source vertex.

        ``values``/``out_degrees`` are aligned arrays over an arbitrary
        subset of vertices chosen by the executor (the full graph for
        b-pull gathers, each worker's responding vertices for push
        staging — which must see that worker's *post-update* values).
        The kernel must therefore be elementwise.  Returns
        ``(payloads, valid)`` aligned with the input; ``valid`` may be
        None (every payload valid) or a bool mask marking sources whose
        :meth:`VertexProgram.message_value` would return non-None.
        Only consulted when ``uniform_messages`` is set.
        """
        raise NotImplementedError

    def edge_payloads(self, ctx: ProgramContext, values, sources, weights, xp):
        """Per-edge payloads for non-uniform programs.

        ``sources``/``weights`` are aligned per edge.  Returns
        ``(payloads, valid)`` with the same None-semantics as
        :meth:`source_payloads`, aligned with the input edges.
        """
        raise NotImplementedError


class VertexProgram(ABC):
    """Base class for the iterative graph algorithms.

    Subclasses set:

    * ``name`` — report label;
    * ``combinable`` — True iff messages are commutative + associative,
      enabling the Combiner (PageRank, SSSP, WCC); LPA and SA are not;
    * ``all_active`` — True for Always-Active-Style algorithms (PageRank,
      LPA) where every vertex updates every superstep even without
      incoming messages;
    * ``default_max_supersteps`` — fixed round count for non-converging
      algorithms (0 means run until no vertex responds).
    """

    name: str = "program"
    combinable: bool = False
    all_active: bool = False
    default_max_supersteps: int = 0
    #: True iff ``message_value`` ignores the destination and edge weight
    #: — the payload depends only on ``(vid, value, ctx)`` — so one call
    #: per source vertex produces the message for *all* its out-edges
    #: (PageRank's rank share, WCC/LPA's label broadcast).  Executors use
    #: this to hoist the call out of the per-edge loop; the modeled
    #: message counts and bytes are unchanged.
    uniform_messages: bool = False
    #: True iff the algorithm converges to the same fixed point under
    #: asynchronous message delivery (monotonic updates such as SSSP's
    #: min-distance or WCC's min-label).  Required by
    #: ``JobConfig(asynchronous=True)``.
    async_safe: bool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_value(self, vid: int, ctx: ProgramContext) -> Any:
        """Value of vertex *vid* before superstep 1."""

    def initial_values(
        self, num_vertices: int, ctx: ProgramContext
    ) -> List[Any]:
        """Values of every vertex before superstep 1, as a new list.

        The runtime builds its value array from this on every job start
        and every recompute from scratch.  The default calls
        :meth:`initial_value` once per vertex; programs with a constant
        or id-valued start override it with one list operation, which
        must agree with :meth:`initial_value` for every vertex.
        """
        return [self.initial_value(v, ctx) for v in range(num_vertices)]

    def initially_active(self, vid: int, ctx: ProgramContext) -> bool:
        """Whether *vid* runs update() in superstep 1 (default: all do)."""
        return True

    @abstractmethod
    def update(
        self,
        vid: int,
        value: Any,
        messages: Sequence[Any],
        ctx: ProgramContext,
    ) -> UpdateResult:
        """Consume *messages*, return the new value and responding flag."""

    @abstractmethod
    def message_value(
        self,
        vid: int,
        value: Any,
        dst: int,
        weight: float,
        ctx: ProgramContext,
    ) -> Optional[Any]:
        """Message for edge ``(vid, dst, weight)``; None suppresses it.

        Must depend only on the arguments — this is the pullRes contract.
        """

    def vectorized(self) -> Optional[VectorizedRules]:
        """Dense NumPy kernels for ``executor="vectorized"``, or None.

        Returning None (the default) routes the job to the batched
        executor — the correct answer for programs whose update cannot
        be expressed through a sum/min dense combine (e.g. LPA's
        majority vote).
        """
        return None

    # ------------------------------------------------------------------
    # combining
    # ------------------------------------------------------------------
    def converged(self, ctx: ProgramContext) -> Optional[bool]:
        """Master-side convergence override, consulted after a superstep.

        ``ctx.aggregates`` holds the superstep's totals.  Return True to
        stop the job, False to keep iterating even though no vertex
        responded (Multi-Phase-Style algorithms go quiet for one
        superstep between phases), or None (default) to use the engine's
        standard halting rule.
        """
        return None

    # ------------------------------------------------------------------
    # aggregators (Pregel-style, master-side per-superstep reduction)
    # ------------------------------------------------------------------
    def aggregate(
        self, vid: int, old_value: Any, new_value: Any, ctx: ProgramContext
    ) -> Optional[Dict[str, float]]:
        """Per-vertex aggregator contributions after update().

        Returned values are summed cluster-wide by the master; the totals
        of superstep *t* are visible to every vertex in superstep *t+1*
        via ``ctx.aggregates``.  Return None (the default) to contribute
        nothing.  Receiving both the pre- and post-update values makes
        convergence aggregators (max/mean delta) one-liners.
        """
        return None

    def combine(self, a: Any, b: Any) -> Any:
        """Combine two message values (only called when ``combinable``)."""
        raise NotImplementedError(
            f"{self.name} declared combinable but does not implement combine()"
        )

    def combine_all(self, values: List[Any]) -> Any:
        """Fold a non-empty list of message values with :meth:`combine`."""
        acc = values[0]
        for val in values[1:]:
            acc = self.combine(acc, val)
        return acc
