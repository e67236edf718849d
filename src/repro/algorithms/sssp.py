"""Single-source shortest paths (Traversal-Style).

Only the source is active in superstep 1; a vertex responds exactly when
its distance improved, so the responding set grows and then shrinks as
the frontier sweeps the graph — the behaviour that gives hybrid its
switching opportunities (Fig. 14).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.api import (
    ProgramContext,
    UpdateResult,
    VectorizedRules,
    VertexProgram,
)

__all__ = ["SSSP"]


class _SSSPRules(VectorizedRules):
    """Dense kernels mirroring :class:`SSSP` bit-for-bit.

    ``min`` is exactly associative/commutative over floats without NaN,
    so the executor's ``minimum.at`` fold equals any scalar fold order.
    """

    combine = "min"

    def __init__(self, program: "SSSP") -> None:
        self.program = program

    def initially_active_mask(self, ctx, xp):
        mask = xp.zeros(ctx.num_vertices, dtype=bool)
        mask[self.program.source] = True
        return mask

    def update_dense(self, ctx, targets, values, acc, has_message, xp):
        improved = acc < values
        new = xp.where(improved, acc, values)
        respond = improved
        if ctx.superstep == 1:
            is_source = targets == self.program.source
            new = xp.where(is_source, 0.0, new)
            respond = respond | is_source
        return new, respond

    def edge_payloads(self, ctx, values, sources, weights, xp):
        svalues = values[sources]
        return svalues + weights, xp.isfinite(svalues)


class SSSP(VertexProgram):
    """Pregel SSSP with min-combinable distance messages."""

    name = "sssp"
    combinable = True
    all_active = False
    default_max_supersteps = 0  # run to convergence
    async_safe = True

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def initial_value(self, vid: int, ctx: ProgramContext) -> float:
        return math.inf

    def initial_values(
        self, num_vertices: int, ctx: ProgramContext
    ) -> List[float]:
        return [math.inf] * num_vertices

    def initially_active(self, vid: int, ctx: ProgramContext) -> bool:
        return vid == self.source

    def update(
        self,
        vid: int,
        value: float,
        messages: Sequence[float],
        ctx: ProgramContext,
    ) -> UpdateResult:
        if ctx.superstep == 1 and vid == self.source:
            return UpdateResult(value=0.0, respond=True)
        best = min(messages) if messages else math.inf
        if best < value:
            return UpdateResult(value=best, respond=True)
        return UpdateResult(value=value, respond=False)

    def message_value(
        self,
        vid: int,
        value: float,
        dst: int,
        weight: float,
        ctx: ProgramContext,
    ) -> Optional[float]:
        if math.isinf(value):
            return None
        return value + weight

    def combine(self, a: float, b: float) -> float:
        return a if a <= b else b

    def vectorized(self) -> _SSSPRules:
        return _SSSPRules(self)
