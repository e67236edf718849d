"""Simulated cluster network with packaging and traffic accounting.

Bytes only cross the network between *different* workers; local delivery
is free (as in Pregel).  Senders ship messages in packages of at most
``sending_threshold_bytes`` (Appendix E): each package pays a small
connection-setup cost, and the final partial package of a flow cannot be
overlapped with computation, so large thresholds waste network idle time
— the effect behind Fig. 26a.

``end_superstep`` turns the accumulated flows into per-worker modeled
network seconds (the Fig. 17 "blocking time") and a cluster traffic
sample for the Fig. 18 timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.obs.events import CAT_NET
from repro.obs.tracer import NULL_TRACER
from repro.storage.disk import DiskProfile

__all__ = [
    "NetStats",
    "SimulatedNetwork",
    "PACKAGE_SETUP_SECONDS",
    "TAIL_STALL_FACTOR",
]

#: Modeled cost of building one network package/connection.  Small: the
#: measured Fig. 26(a) shows connection overhead is dwarfed by ...
PACKAGE_SETUP_SECONDS = 1e-6

#: ... the overlap loss of large send buffers: while a buffer fills no
#: bytes move, and the final partial package cannot be hidden behind
#: computation, so the stall grows with the sending threshold.
TAIL_STALL_FACTOR = 2.0


@dataclass
class NetStats:
    """Network activity of one superstep."""

    bytes_out: Dict[int, int] = field(default_factory=dict)
    bytes_in: Dict[int, int] = field(default_factory=dict)
    transfer_units: int = 0
    requests: int = 0
    packages: int = 0
    #: per-worker modeled seconds spent exchanging messages.
    worker_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_out.values())


class SimulatedNetwork:
    """Byte-accurate network shared by all workers of a job."""

    def __init__(
        self,
        num_workers: int,
        profile: DiskProfile,
        sending_threshold_bytes: int,
        request_bytes: int,
    ) -> None:
        if sending_threshold_bytes <= 0:
            raise ValueError("sending threshold must be positive")
        self._num_workers = num_workers
        self._profile = profile
        self._threshold = sending_threshold_bytes
        self._request_bytes = request_bytes
        self._flows: Dict[Tuple[int, int], int] = {}
        self._units = 0
        self._requests = 0
        #: cluster-wide (superstep, bytes) samples for the traffic timeline.
        self.timeline: List[Tuple[int, int]] = []
        self._superstep = 0
        #: observability: the runtime replaces this with the job tracer;
        #: the shared null tracer keeps standalone networks guard-free.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        self._superstep = superstep
        self._flows = {}
        self._units = 0
        self._requests = 0

    def transfer(self, src: int, dst: int, nbytes: int, units: int) -> None:
        """Ship *nbytes* of message payload from *src* to *dst*.

        Local (src == dst) delivery is free and not counted.
        """
        self._units += units
        if src == dst or nbytes <= 0:
            return
        self._flows[(src, dst)] = self._flows.get((src, dst), 0) + nbytes

    def send_request(self, src: int, dst: int) -> None:
        """One block-centric pull request (a Vblock id)."""
        self._requests += 1
        if src == dst:
            return
        self._flows[(src, dst)] = (
            self._flows.get((src, dst), 0) + self._request_bytes
        )

    def add_traffic(
        self,
        requests: int,
        units: int,
        flows: Iterable[Tuple[Tuple[int, int], int]],
    ) -> None:
        """Bulk form of :meth:`send_request` and :meth:`transfer`.

        Adds *requests* pull requests, *units* transfer units and each
        ``((src, dst), nbytes)`` of *flows* (remote flows only).  A flow
        already open this superstep keeps its place; new ones are opened
        in the order given, which must be the order the equivalent
        per-call sequence would first touch them —
        :meth:`end_superstep` folds float seconds in flow order.
        """
        self._requests += requests
        self._units += units
        open_flows = self._flows
        for key, nbytes in flows:
            open_flows[key] = open_flows.get(key, 0) + nbytes

    # ------------------------------------------------------------------
    # recovery support
    # ------------------------------------------------------------------
    def truncate_timeline(self, last_superstep: int) -> None:
        """Drop samples of supersteps after *last_superstep*.

        Called when the engine restores a checkpoint taken at
        ``last_superstep`` (0 to recompute from scratch): the discarded
        supersteps will be re-executed and would otherwise leave
        duplicate (stale) samples polluting the Fig. 18-style traffic
        timeline.
        """
        self.timeline = [
            sample for sample in self.timeline
            if sample[0] <= last_superstep
        ]

    # ------------------------------------------------------------------
    def end_superstep(self) -> NetStats:
        stats = NetStats(transfer_units=self._units, requests=self._requests)
        speed = self._profile.network_mbps * 1024.0 * 1024.0
        out_seconds = {w: 0.0 for w in range(self._num_workers)}
        in_seconds = {w: 0.0 for w in range(self._num_workers)}
        for (src, dst), nbytes in self._flows.items():
            stats.bytes_out[src] = stats.bytes_out.get(src, 0) + nbytes
            stats.bytes_in[dst] = stats.bytes_in.get(dst, 0) + nbytes
            packages = max(1, math.ceil(nbytes / self._threshold))
            stats.packages += packages
            tail = min(self._threshold, nbytes)
            out_seconds[src] += (
                nbytes / speed
                + packages * PACKAGE_SETUP_SECONDS
                + TAIL_STALL_FACTOR * tail / speed
            )
            in_seconds[dst] += nbytes / speed
        for worker in range(self._num_workers):
            stats.worker_seconds[worker] = max(
                out_seconds[worker], in_seconds[worker]
            )
        self.timeline.append((self._superstep, stats.total_bytes))
        tracer = self.tracer
        if tracer.enabled:
            for worker in range(self._num_workers):
                out_bytes = stats.bytes_out.get(worker, 0)
                in_bytes = stats.bytes_in.get(worker, 0)
                if not (out_bytes or in_bytes):
                    continue
                tracer.instant(
                    "net", cat=CAT_NET, superstep=self._superstep,
                    worker=worker,
                    args={
                        "bytes_out": out_bytes,
                        "bytes_in": in_bytes,
                        "seconds": stats.worker_seconds[worker],
                    },
                )
        return stats
