"""Weakly connected components via min-label propagation (extension).

Not in the paper's evaluated set, but a standard Traversal-Style
workload; it exercises the same code paths as SSSP with a different
activity profile (everybody starts active, activity decays).

Note this propagates along *out*-edges only, so on a directed graph it
computes components of the reachability closure per label direction; run
it on symmetrised graphs for true WCC.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.api import (
    ProgramContext,
    UpdateResult,
    VectorizedRules,
    VertexProgram,
)

__all__ = ["WCC"]


class _WCCRules(VectorizedRules):
    """Dense kernels mirroring :class:`WCC` bit-for-bit (int64 labels)."""

    combine = "min"

    def update_dense(self, ctx, targets, values, acc, has_message, xp):
        best = xp.where(has_message, acc, values)
        if ctx.superstep == 1:
            return xp.minimum(best, values), True
        improved = best < values
        return xp.where(improved, best, values), improved

    def source_payloads(self, ctx, values, out_degrees, xp):
        return values, None


class WCC(VertexProgram):
    """Minimum-label propagation; labels are min-combinable."""

    name = "wcc"
    combinable = True
    uniform_messages = True
    all_active = False
    default_max_supersteps = 0
    async_safe = True

    def initial_value(self, vid: int, ctx: ProgramContext) -> int:
        return vid

    def initial_values(
        self, num_vertices: int, ctx: ProgramContext
    ) -> List[int]:
        return list(range(num_vertices))

    def update(
        self,
        vid: int,
        value: int,
        messages: Sequence[int],
        ctx: ProgramContext,
    ) -> UpdateResult:
        if ctx.superstep == 1:
            # everybody broadcasts its label; under asynchronous delivery
            # messages can already arrive here, so fold them in too.
            best = min(messages) if messages else value
            return UpdateResult(value=min(best, value), respond=True)
        best = min(messages) if messages else value
        if best < value:
            return UpdateResult(value=best, respond=True)
        return UpdateResult(value=value, respond=False)

    def message_value(
        self,
        vid: int,
        value: int,
        dst: int,
        weight: float,
        ctx: ProgramContext,
    ) -> Optional[int]:
        return value

    def combine(self, a: int, b: int) -> int:
        return a if a <= b else b

    def vectorized(self) -> _WCCRules:
        return _WCCRules()
