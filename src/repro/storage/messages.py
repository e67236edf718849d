"""Receiver-side message stores for the push family.

:class:`SpillingMessageStore` models Giraph: a worker keeps at most
``B_i`` incoming messages in memory and spills the rest to local disk.
Spills are *random* writes (messages arrive in arbitrary destination
order — the poor temporal locality the paper blames), and ``load()``
reads spilled bytes back sequentially after Giraph's sort-merge, which
also costs CPU per spilled message.  Without a receiver combiner the
mem/spill split is positional: a store's first ``B_i`` messages fit and
the rest spill (:func:`spill_count`).  So each vertex's memory messages
followed by its spilled ones are its messages in stream order, and the
vertices come in order of first arrival: the store keeps one dict in
stream order and only counts the split, as the vectorized tier's array
store does.  So an empty store can also take a whole superstep already
grouped by vertex (:meth:`SpillingMessageStore.deposit_grouped`, fed by
the batched executor's push plan), one tuple slice per vertex instead
of one list append per message.  A combiner folds only memory-resident
messages, so that path keeps memory and spill apart.

:class:`OnlineMessageStore` models MOCgraph's message online computing:
the memory budget caches *vertices* (hot = highest in-degree, emulating
MOCgraph's hot-aware re-partitioning); a message to a memory-resident
vertex is folded into an in-memory accumulator immediately (zero disk
bytes), and only messages to disk-resident vertices spill (their random
writes are charged once per deposit call).  Requires a
commutative/associative combiner, which is why MOCgraph is absent from
the LPA and SA experiments.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.storage.disk import SimulatedDisk
from repro.storage.records import RecordSizes

__all__ = [
    "SpillingMessageStore", "OnlineMessageStore", "LoadResult",
    "spill_count",
]


class LoadResult:
    """Outcome of draining a message store at the start of a superstep."""

    __slots__ = ("messages", "spilled_read", "spilled_count")

    def __init__(
        self,
        messages: Dict[int, Sequence[Any]],
        spilled_read: int,
        spilled_count: int,
    ) -> None:
        self.messages = messages          #: dst vertex -> message values
        self.spilled_read = spilled_read  #: bytes read back from disk
        self.spilled_count = spilled_count


def spill_count(pending: int, count: int, capacity: Optional[int]) -> int:
    """How many of *count* messages arriving at a combine-less store
    that holds *pending* spill: the store's first ``capacity`` messages
    fit (``None`` = unlimited), the rest spill."""
    if capacity is None:
        return 0
    return max(0, pending + count - capacity) - max(0, pending - capacity)


class SpillingMessageStore:
    """Giraph-style receiver buffer with disk spill.

    Parameters
    ----------
    capacity:
        ``B_i`` in messages; ``None`` = unlimited (sufficient memory).
    combine:
        Optional receiver-side Combiner.  Giraph's Combiner only works on
        memory-resident messages; combined messages do not consume extra
        buffer slots.  The paper's experiments run push *without* it by
        default (Section 5.1: not cost-effective at the sender, optional
        at the receiver), so the engine passes ``None`` unless
        ``receiver_combine`` is set.

    With a combiner, memory messages (one combined value per vertex) and
    spilled ones go to two dicts whose keys never meet: a vertex spills
    only once the buffer is full, and none enters memory after that.
    """

    def __init__(
        self,
        capacity: Optional[int],
        sizes: RecordSizes,
        disk: SimulatedDisk,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ) -> None:
        self._capacity = capacity
        self._sizes = sizes
        self._disk = disk
        self._combine = combine
        #: dst -> values: every pending message without a combiner, the
        #: memory-resident ones with one.
        self._mem: Dict[int, List[Any]] = {}
        #: dst -> spilled values, with a combiner only.
        self._spill: Dict[int, List[Any]] = {}
        self._mem_count = 0
        self._spill_count = 0
        self.total_deposited = 0
        self.total_spilled = 0

    # ------------------------------------------------------------------
    def deposit(self, dst: int, value: Any) -> None:
        """Receive one message for vertex *dst*."""
        self.deposit_many(((dst, value),))

    def deposit_many(self, messages: List[Any]) -> None:
        """Receive a batch of ``(dst, value)`` pairs, the receiver side
        of the push hot path: the same result as one :meth:`deposit`
        per pair, with the lookups hoisted out of the loop."""
        self.total_deposited += len(messages)
        if self._combine is not None:
            self._deposit_combined(messages)
            return
        mem = self._mem
        for dst, value in messages:
            if dst in mem:
                mem[dst].append(value)
            else:
                mem[dst] = [value]
        self._count(len(messages))

    def deposit_fanout(self, groups: List[Any], count: int) -> None:
        """Receive ``count`` messages given as ``(dsts, value)`` groups.

        Uniform-message programs send one identical value to many
        destinations; the batched executor ships the fan-out groups
        instead of flattened pairs.  The same result as one
        :meth:`deposit` per ``(dst, value)`` pair in nested order.
        """
        self.total_deposited += count
        if self._combine is not None:
            self._deposit_combined(
                (dst, value) for dsts, value in groups for dst in dsts
            )
            return
        mem = self._mem
        for dsts, value in groups:
            for dst in dsts:
                if dst in mem:
                    mem[dst].append(value)
                else:
                    mem[dst] = [value]
        self._count(count)

    @property
    def takes_grouped(self) -> bool:
        """Whether :meth:`deposit_grouped` applies: no combiner and no
        pending message."""
        return self._combine is None and not self.pending_count

    def deposit_grouped(
        self,
        counts: List[int],
        keys: List[int],
        offsets: List[int],
        values: Tuple[Any, ...],
    ) -> None:
        """Receive a whole superstep's messages grouped by vertex.

        ``keys[i]`` gets ``values[offsets[i]:offsets[i + 1]]``, with the
        keys in order of first arrival and each vertex's values in
        stream order; ``counts`` are the messages each source worker
        sent, in source order.  Only for a store that
        :attr:`takes_grouped`: the result is that of one :meth:`deposit`
        per message of the stream, each source's messages split between
        memory and disk as one batch, except that each vertex's values
        are a tuple slice, not a list.  A tuple of payloads stops being
        tracked by the cyclic garbage collector at its first pass, so a
        superstep's thousands of them are never promoted to the old
        generation, whose growth sets off full collections.
        """
        self._mem = dict(zip(keys, map(
            values.__getitem__,
            map(slice, offsets, islice(offsets, 1, None)),
        )))
        for count in counts:
            self.total_deposited += count
            self._count(count)

    def _count(self, count: int) -> None:
        """Split *count* combine-less messages into memory and spill."""
        spilled = spill_count(
            self._mem_count + self._spill_count, count, self._capacity
        )
        self._mem_count += count - spilled
        if spilled:
            self._charge_spill(spilled)

    def _deposit_combined(self, pairs: Iterable[Any]) -> None:
        """Combine each pair into its vertex's memory value, else take a
        free buffer slot, else spill."""
        mem = self._mem
        combine = self._combine
        capacity = self._capacity
        mem_count = self._mem_count
        spilled = 0
        for dst, value in pairs:
            if dst in mem:
                bucket = mem[dst]
                bucket[0] = combine(bucket[0], value)
            elif capacity is None or mem_count < capacity:
                mem[dst] = [value]
                mem_count += 1
            else:
                self._spill.setdefault(dst, []).append(value)
                spilled += 1
        self._mem_count = mem_count
        if spilled:
            self._charge_spill(spilled)

    def _charge_spill(self, spilled: int) -> None:
        # Random writes: incoming messages have no destination locality.
        self._spill_count += spilled
        self.total_spilled += spilled
        self._disk.charge(random_write=spilled * self._sizes.message)

    def load(self) -> LoadResult:
        """Drain the store (the push family's ``load()``).

        Spilled bytes are charged as sequential reads (post sort-merge).
        """
        spilled_count = self._spill_count
        spilled_read = self._sizes.messages(spilled_count)
        if spilled_read:
            self._disk.read(spilled_read, sequential=True)
        messages = self._mem
        messages.update(self._spill)  # a combiner's keys: disjoint
        self._mem = {}
        self._spill = {}
        self._mem_count = 0
        self._spill_count = 0
        return LoadResult(messages, spilled_read, spilled_count)

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return self._mem_count + self._spill_count

    @property
    def memory_bytes(self) -> int:
        """Bytes of buffered in-memory messages (Fig. 14d accounting)."""
        return self._sizes.messages(self._mem_count)

    @property
    def spilled_pending(self) -> int:
        return self._spill_count


class OnlineMessageStore:
    """MOCgraph-style store: online computing for hot vertices."""

    def __init__(
        self,
        hot_vertices: Iterable[int],
        sizes: RecordSizes,
        disk: SimulatedDisk,
        combine: Callable[[Any, Any], Any],
    ) -> None:
        self._hot = frozenset(hot_vertices)
        self._sizes = sizes
        self._disk = disk
        self._combine = combine
        self._acc: Dict[int, Any] = {}
        self._spill: Dict[int, List[Any]] = {}
        self._spill_count = 0
        self.total_deposited = 0
        self.total_spilled = 0

    def deposit(self, dst: int, value: Any) -> None:
        self.deposit_many(((dst, value),))

    def deposit_many(self, messages: List[Any]) -> None:
        """Batched :meth:`deposit` — see ``SpillingMessageStore``."""
        self._deposit(messages, len(messages))

    def deposit_fanout(self, groups: List[Any], count: int) -> None:
        """Nested-form :meth:`deposit` — see ``SpillingMessageStore``."""
        self._deposit(
            ((dst, value) for dsts, value in groups for dst in dsts), count
        )

    def _deposit(self, pairs: Iterable[Any], count: int) -> None:
        """Fold each of *count* pairs into its hot vertex's accumulator,
        else spill it; the spills are one random-write charge."""
        self.total_deposited += count
        hot = self._hot
        acc = self._acc
        spill = self._spill
        combine = self._combine
        spilled = 0
        for dst, value in pairs:
            if dst in hot:
                if dst in acc:
                    acc[dst] = combine(acc[dst], value)
                else:
                    acc[dst] = value
            else:
                if dst in spill:
                    spill[dst].append(value)
                else:
                    spill[dst] = [value]
                spilled += 1
        if spilled:
            self._spill_count += spilled
            self.total_spilled += spilled
            self._disk.charge(random_write=spilled * self._sizes.message)

    def load(self) -> LoadResult:
        spilled_count = self._spill_count
        spilled_read = self._sizes.messages(spilled_count)
        if spilled_read:
            self._disk.read(spilled_read, sequential=True)
        merged: Dict[int, List[Any]] = {
            dst: [value] for dst, value in self._acc.items()
        }
        for dst, values in self._spill.items():
            merged.setdefault(dst, []).extend(values)
        self._acc = {}
        self._spill = {}
        self._spill_count = 0
        return LoadResult(merged, spilled_read, spilled_count)

    @property
    def pending_count(self) -> int:
        return len(self._acc) + self._spill_count

    @property
    def memory_bytes(self) -> int:
        return self._sizes.messages(len(self._acc))

    @property
    def spilled_pending(self) -> int:
        return self._spill_count
