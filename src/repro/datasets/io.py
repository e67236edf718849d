"""Edge-list file round-trip.

Real deployments feed HybridGraph from a distributed file system; here a
plain text edge-list format (``src dst [weight]`` per line, ``#``
comments allowed) lets users bring their own graphs to the library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.core.graph import Graph, GraphBuilder

__all__ = ["write_edge_list", "read_edge_list"]


def write_edge_list(graph: Graph, path: Union[str, Path]) -> None:
    """Write *graph* as a text edge list with a header comment."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        handle.write(f"# {graph.name} {graph.num_vertices} vertices\n")
        for src, dst, weight in graph.edges():
            if weight == 1.0:
                handle.write(f"{src} {dst}\n")
            else:
                handle.write(f"{src} {dst} {weight!r}\n")


def read_edge_list(
    path: Union[str, Path], num_vertices: int = 0, name: str = ""
) -> Graph:
    """Read a text edge list.

    ``num_vertices`` may be omitted, in which case it is inferred as
    ``max id + 1``.
    """
    path = Path(path)
    builder = GraphBuilder(0)
    max_id = -1
    with path.open("r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            src, dst = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) > 2 else 1.0
            builder.add_edge(src, dst, weight)
            max_id = max(max_id, src, dst)
    builder.num_vertices = num_vertices or (max_id + 1)
    return builder.build(name or path.stem)
