"""PageRank (Fig. 3's running example).

Always-Active-Style: every vertex updates and broadcasts in every
superstep, for a fixed number of supersteps.  Messages are the sender's
rank divided by its out-degree and are commutative/associative, so the
Combiner applies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.api import (
    ProgramContext,
    UpdateResult,
    VectorizedRules,
    VertexProgram,
)

__all__ = ["PageRank"]


class _PageRankRules(VectorizedRules):
    """Dense kernels mirroring :class:`PageRank` bit-for-bit.

    The update is written as ``base + damping * acc`` — the exact
    operation order of the scalar path, where Python's ``sum`` left fold
    is reproduced by the executor's sequential ``bincount`` fold.
    """

    combine = "sum"

    def __init__(self, program: "PageRank") -> None:
        self.program = program

    def update_dense(self, ctx, targets, values, acc, has_message, xp):
        program = self.program
        if ctx.superstep == 1:
            new = xp.full(len(targets), 1.0 / ctx.num_vertices)
        else:
            base = (1.0 - program.damping) / ctx.num_vertices
            new = base + program.damping * acc
        respond = True
        if program.tolerance is not None and ctx.superstep > 2:
            respond = ctx.aggregates.get("delta", float("inf")) >= (
                program.tolerance
            )
        return new, respond

    def aggregate_dense(self, ctx, targets, old_values, new_values, xp):
        if self.program.tolerance is None:
            return None
        return {"delta": xp.abs(new_values - old_values)}

    def source_payloads(self, ctx, values, out_degrees, xp):
        valid = out_degrees > 0
        payloads = xp.divide(
            values, out_degrees, out=xp.zeros_like(values), where=valid
        )
        return payloads, valid


class PageRank(VertexProgram):
    """Classic Pregel PageRank with damping factor ``d``.

    Runs a fixed number of supersteps by default.  With ``tolerance``
    set, a Pregel-style aggregator sums the absolute rank change per
    superstep and every vertex stops responding once the total drops
    below the tolerance — convergence-based termination.
    """

    name = "pagerank"
    combinable = True
    uniform_messages = True
    all_active = True
    default_max_supersteps = 10

    def __init__(
        self,
        damping: float = 0.85,
        supersteps: int = 10,
        tolerance: Optional[float] = None,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tolerance is not None and tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        self.damping = damping
        self.tolerance = tolerance
        self.default_max_supersteps = (
            supersteps if tolerance is None else max(supersteps, 200)
        )

    def update(
        self,
        vid: int,
        value: float,
        messages: Sequence[float],
        ctx: ProgramContext,
    ) -> UpdateResult:
        if ctx.superstep == 1:
            rank = 1.0 / ctx.num_vertices
        else:
            rank = (
                (1.0 - self.damping) / ctx.num_vertices
                + self.damping * sum(messages)
            )
        respond = True
        if self.tolerance is not None and ctx.superstep > 2:
            respond = ctx.aggregates.get("delta", float("inf")) >= (
                self.tolerance
            )
        return UpdateResult(value=rank, respond=respond)

    def initial_value(self, vid: int, ctx: ProgramContext) -> float:
        return 0.0

    def initial_values(
        self, num_vertices: int, ctx: ProgramContext
    ) -> List[float]:
        return [0.0] * num_vertices

    def aggregate(self, vid, old_value, new_value, ctx):
        if self.tolerance is None:
            return None
        return {"delta": abs(new_value - old_value)}

    def message_value(
        self,
        vid: int,
        value: float,
        dst: int,
        weight: float,
        ctx: ProgramContext,
    ) -> Optional[float]:
        degree = ctx.out_degree(vid)
        if degree == 0:
            return None
        return value / degree

    def combine(self, a: float, b: float) -> float:
        return a + b

    def vectorized(self) -> _PageRankRules:
        return _PageRankRules(self)
