"""Deterministic synthetic graph generators.

The paper evaluates on six real graphs (Table 4) that we cannot ship;
these generators produce scaled stand-ins that preserve the properties
the experiments actually depend on:

* **social graphs** (livej, orkut, twi, fri) — skewed power-law degree
  distributions via preferential attachment; the skew knob matters
  because a high-out-degree vertex touches many Vblocks and therefore
  owns many fragments (Theorem 1), which is what erodes b-pull's edge on
  the twi-like graph (Section 6.1);
* **web graphs** (wiki, uk) — strong id-locality plus a long effective
  diameter, giving SSSP its drawn-out convergence tail over wiki.

Everything is seeded and wall-clock-free: the same call always returns
the same graph.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.graph import Graph, GraphBuilder

__all__ = ["social_graph", "web_graph", "random_graph", "ring_graph"]


def _edge_weight(rng: random.Random) -> float:
    """Heavy-tailed edge weights in [1, 101).

    The cube keeps most edges cheap with a fat expensive tail, so SSSP
    keeps discovering shorter multi-hop detours for many supersteps —
    the long convergence stage the paper's SSSP traces exhibit (284
    supersteps over wiki; Fig. 14's ~30 over twi).
    """
    return 1.0 + 100.0 * rng.random() ** 3


def social_graph(
    num_vertices: int,
    avg_degree: float,
    seed: int = 7,
    skew: float = 2.2,
    tail_fraction: float = 0.2,
    tail_chain: int = 25,
    locality: float = 0.5,
    name: str = "social",
) -> Graph:
    """Power-law social network via degree sampling + preferential targets.

    Out-degrees of the core are Pareto-distributed with shape *skew*
    (smaller = more skewed), rescaled so the whole graph hits
    *avg_degree*; destinations are drawn from an endpoint pool so
    in-degrees are power-law too.  A *tail_fraction* of the vertices form
    peripheral whisker chains of length *tail_chain* hanging off the
    core — real social graphs have such low-degree peripheries, and they
    are what gives Traversal-Style algorithms their multi-dozen-superstep
    tails (Fig. 14 runs SSSP over twi for ~30 supersteps).

    *locality* is the fraction of edges that land near the source's id
    (crawl-ordered real graphs exhibit strong id-locality).  It controls
    how many distinct Vblocks a vertex's out-edges hit, i.e. its fragment
    count (Theorem 1): the low-locality, highly skewed twi stand-in gets
    fragment counts close to its edge count, which is exactly what erodes
    b-pull there (Section 6.1).
    """
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    if num_vertices <= 1:
        raise ValueError("need at least 2 vertices")
    if not 0.0 <= tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in [0, 1)")
    rng = random.Random(seed)
    num_tail = int(num_vertices * tail_fraction)
    core_n = num_vertices - num_tail
    core_edges = max(core_n, round(num_vertices * avg_degree) - 2 * num_tail)
    raw = [rng.paretovariate(skew) for _ in range(core_n)]
    scale = core_edges / sum(raw)
    cap = max(2, core_n // 4)
    degrees = [min(cap, max(1, round(d * scale))) for d in raw]

    builder = GraphBuilder(num_vertices)
    window = max(2, core_n // 50)
    # endpoint pool: every core vertex once, then grows with chosen targets
    pool: List[int] = list(range(core_n))
    for src in range(core_n):
        seen = set()
        for _ in range(degrees[src]):
            if rng.random() < locality:
                dst = (src + rng.randint(-window, window)) % core_n
            else:
                dst = pool[rng.randrange(len(pool))]
            if dst == src or dst in seen:
                dst = rng.randrange(core_n)
                if dst == src or dst in seen:
                    continue
            seen.add(dst)
            builder.add_edge(src, dst, _edge_weight(rng))
            pool.append(dst)
    # peripheral whisker chains: core -> head -> ... -> tail end, with a
    # cheap back-edge so the periphery also feeds messages inward.
    vid = core_n
    while vid < num_vertices:
        length = min(tail_chain, num_vertices - vid)
        anchor = rng.randrange(core_n)
        builder.add_edge(anchor, vid, 1.0 + rng.random())
        for offset in range(length - 1):
            builder.add_edge(
                vid + offset, vid + offset + 1, 1.0 + rng.random()
            )
            builder.add_edge(
                vid + offset + 1, vid + offset, 1.0 + rng.random()
            )
        vid += length
    return builder.build(name)


def web_graph(
    num_vertices: int,
    avg_degree: float,
    seed: int = 11,
    locality_window: Optional[int] = None,
    local_fraction: float = 0.95,
    name: str = "web",
) -> Graph:
    """Web-like graph: id-local links with a sprinkle of long jumps.

    Local links are cheap and long jumps expensive (think: following
    links within a site vs. across the web), so weighted shortest paths
    prefer long chains of local hops — reproducing the very long SSSP
    convergence stage the paper observes over wiki (284 supersteps) —
    while id-locality keeps Eblocks well clustered.
    """
    if num_vertices <= 1:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    window = locality_window or max(2, num_vertices // 150)
    builder = GraphBuilder(num_vertices)
    jump_weight = 40.0 * window  # dearer than hopping the span locally
    for src in range(num_vertices):
        degree = max(1, round(rng.gauss(avg_degree, avg_degree / 3)))
        seen = set()
        attempts = 0
        while len(seen) < degree and attempts < 4 * degree:
            attempts += 1
            if rng.random() < local_fraction:
                offset = rng.randint(1, window)
                dst = (src + offset) % num_vertices
                if rng.random() < 0.3:
                    dst = (src - offset) % num_vertices
                weight = 1.0 + 4.0 * rng.random()
            else:
                dst = rng.randrange(num_vertices)
                weight = jump_weight * (1.0 + rng.random())
            if dst == src or dst in seen:
                continue
            seen.add(dst)
            builder.add_edge(src, dst, weight)
    return builder.build(name)


def random_graph(
    num_vertices: int,
    avg_degree: float,
    seed: int = 3,
    name: str = "random",
) -> Graph:
    """Erdős–Rényi-style graph; used mostly by tests."""
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices)
    num_edges = int(num_vertices * avg_degree)
    for _ in range(num_edges):
        src = rng.randrange(num_vertices)
        dst = rng.randrange(num_vertices)
        if src != dst:
            builder.add_edge(src, dst, _edge_weight(rng))
    return builder.build(name)


def ring_graph(num_vertices: int, name: str = "ring") -> Graph:
    """Directed cycle — maximal diameter, handy for convergence tests."""
    builder = GraphBuilder(num_vertices)
    for src in range(num_vertices):
        builder.add_edge(src, (src + 1) % num_vertices, 1.0)
    return builder.build(name)
