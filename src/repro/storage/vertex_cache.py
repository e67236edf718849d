"""LRU vertex cache — the disk extension of the pull baseline.

The paper modifies GraphLab PowerGraph to keep vertices on disk behind an
LRU cache of ``B_i`` vertices (Section 6, Appendix F).  A cache miss
costs one random read of the vertex record; evicting a dirty entry costs
one random write.  The miss storm this produces when the working set
exceeds the cache is exactly what makes ``pull`` collapse in Fig. 10 and
Table 5's ``ext-edge-v2.5`` row.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.storage.disk import SimulatedDisk
from repro.storage.records import RecordSizes

__all__ = ["LRUVertexCache"]


#: A point lookup cannot read less than a storage block; missing a 16-byte
#: vertex record still transfers (and seeks for) a whole block.  This
#: read amplification is what makes pull's on-demand svertex access so
#: much more expensive than push's message I/O at equal logical bytes
#: (Fig. 10's 4-10x gap).
DEFAULT_BLOCK_BYTES = 512


class LRUVertexCache:
    """Accounting-only LRU over vertex records.

    ``capacity=None`` disables the disk entirely (memory-resident
    vertices: Table 5's ``original`` / ``ext-mem`` / ``ext-edge``
    scenarios).  ``capacity=0`` keeps nothing resident: every access
    misses, and a dirty access writes its record back at once.
    """

    def __init__(
        self,
        capacity: Optional[int],
        sizes: RecordSizes,
        disk: SimulatedDisk,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        self._capacity = capacity
        self._sizes = sizes
        self._disk = disk
        self._block_bytes = max(block_bytes, sizes.vertex_record)
        self._entries: "OrderedDict[int, bool]" = OrderedDict()  # vid -> dirty
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, vid: int, dirty: bool = False) -> bool:
        """Touch vertex *vid*; returns True on a hit.

        Misses charge a random read of the vertex record; a dirty
        eviction charges a random write.
        """
        if self._capacity is None:
            self.hits += 1
            return True
        if vid in self._entries:
            self.hits += 1
            self._entries.move_to_end(vid)
            if dirty:
                self._entries[vid] = True
            return True
        self.misses += 1
        self._disk.read(self._block_bytes, sequential=False)
        if self._capacity == 0:
            if dirty:
                self._disk.write(self._block_bytes, sequential=False)
            return False
        if len(self._entries) >= self._capacity:
            _evicted, was_dirty = self._entries.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self._disk.write(self._block_bytes, sequential=False)
        self._entries[vid] = dirty
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> Optional[int]:
        """Configured capacity in vertices (None = unlimited/no disk)."""
        return self._capacity

    @property
    def resident(self) -> int:
        return len(self._entries)

    @property
    def memory_bytes(self) -> int:
        return self._sizes.vertex_record * len(self._entries)
