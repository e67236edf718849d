"""Checkpoint store: versioned, checksummed snapshots in memory or on disk.

The engine keeps every :class:`~repro.cluster.checkpoint.Checkpoint`
here as one framed byte string.  With no directory the frames live in a
dict and die with the coordinator.  With a directory they are
``ckpt-<superstep>.bin`` files, optionally bundled with the
:class:`~repro.core.metrics.JobMetrics` accumulated so far, so a killed
driver process can continue with
``run_job(..., JobConfig(resume_from=<dir>))``.  Framing, validation,
retention, ownership and the corruption hook are the same code in both
modes; only where the bytes live differs.

Frame format (a file's content)::

    8 bytes   magic + format version      b"HGCKPT\\x00\\x04"
    4 bytes   section count               big-endian u32
    per section:
        2 bytes   name length             big-endian u16
        n bytes   section name            utf-8
        8 bytes   payload length          big-endian u64
        4 bytes   payload CRC32           big-endian u32
        k bytes   payload

Sections: ``meta`` (JSON: superstep, modeled nbytes), ``checkpoint``
(the pickled Checkpoint, whose state is already one pickle of bytes),
and optionally ``metrics`` (pickled JobMetrics).
Every payload carries its own CRC32, so corruption anywhere in the
frame — header, flipped payload bytes, truncation — is detected on
load and the reader falls back to the previous snapshot rather than
crashing or resuming from bad state; frames of another format version
fail the magic check the same way.

Retention keeps the newest ``keep_last`` snapshots and drops the rest.

The store is an *operational* layer: modeled checkpoint cost is charged
by the engine whether or not a directory is set, and nothing here
touches the cost model, so durable and in-memory runs stay
byte-identical in ``JobMetrics``.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.cluster.checkpoint import Checkpoint

__all__ = ["CheckpointStore", "CorruptSnapshot", "RestoredSnapshot"]

MAGIC = b"HGCKPT\x00\x04"
_PREFIX = "ckpt-"
_SUFFIX = ".bin"


class CorruptSnapshot(Exception):
    """A snapshot failed validation (bad magic, CRC, truncation)."""


@dataclass
class RestoredSnapshot:
    """A successfully validated snapshot, plus how we got to it."""

    checkpoint: Checkpoint
    metrics: Optional[Any]
    #: the snapshot's file, or None for an in-memory store.
    path: Optional[Path]
    #: snapshots that were skipped as corrupt/unreadable before this one.
    skipped: List[str]


def _pack_section(name: str, payload: bytes) -> bytes:
    raw = name.encode("utf-8")
    return b"".join([
        struct.pack(">H", len(raw)), raw,
        struct.pack(">Q", len(payload)),
        struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF),
        payload,
    ])


def _read_exact(buf: io.BufferedIOBase, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise CorruptSnapshot(f"truncated: wanted {n} bytes, got {len(data)}")
    return data


def _superstep_of(name: str) -> Optional[int]:
    try:
        return int(name[len(_PREFIX):-len(_SUFFIX)])
    except ValueError:
        return None


class _Directory:
    """The ``ckpt-*.bin`` files of one directory, as a dict of bytes.

    Writes go to a temp file in the same directory, are fsync'd, then
    atomically renamed over the final name.  A crash mid-write leaves
    either the old file or no file — never a torn one.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        path.mkdir(parents=True, exist_ok=True)

    def __iter__(self) -> Iterator[str]:
        return (
            p.name for p in self.path.glob(f"{_PREFIX}*{_SUFFIX}")
            if p.is_file()
        )

    def __contains__(self, name: str) -> bool:
        return (self.path / name).is_file()

    def __getitem__(self, name: str) -> bytes:
        return (self.path / name).read_bytes()

    def __setitem__(self, name: str, blob: bytes) -> None:
        final = self.path / name
        tmp = final.with_name(final.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)

    def __delitem__(self, name: str) -> None:
        try:
            (self.path / name).unlink()
        except OSError:
            pass


class CheckpointStore:
    """Keep-last-K framed snapshots, in memory or under one directory."""

    def __init__(self, directory: Optional[str] = None,
                 keep_last: int = 2) -> None:
        self.directory = None if directory is None else Path(directory)
        self.keep_last = max(1, keep_last)
        #: snapshot name -> framed bytes: a dict, or the directory's files.
        self._blobs: Any = (
            {} if self.directory is None else _Directory(self.directory)
        )
        #: superstep -> name of each snapshot THIS instance wrote (or
        #: adopted after a resume).  Retention, in-run recovery and chaos
        #: corruption act only on owned snapshots, so stale files a
        #: previous run left in the directory are never deleted,
        #: restored from, or corrupted by the current run.
        self._owned: Dict[int, str] = {}

    def _path(self, name: str) -> Optional[Path]:
        return None if self.directory is None else self.directory / name

    # Writing ----------------------------------------------------------
    def save(self, checkpoint: Checkpoint,
             metrics: Optional[Any] = None) -> Optional[Path]:
        """Persist *checkpoint* (+ metrics) and apply retention.

        Returns the snapshot's file, or None in memory.  Re-saving the
        same superstep (a checkpoint re-taken after a restart rewound
        past it) replaces the old snapshot, which also heals a
        previously corrupted one.
        """
        sections: Dict[str, bytes] = {
            "meta": json.dumps({
                "superstep": checkpoint.superstep,
                "prev_mode": checkpoint.prev_mode,
                "nbytes": checkpoint.nbytes,
            }, sort_keys=True).encode("utf-8"),
            "checkpoint": pickle.dumps(
                checkpoint, protocol=pickle.HIGHEST_PROTOCOL
            ),
        }
        if metrics is not None:
            sections["metrics"] = pickle.dumps(
                metrics, protocol=pickle.HIGHEST_PROTOCOL
            )
        name = f"{_PREFIX}{checkpoint.superstep:08d}{_SUFFIX}"
        self._blobs[name] = MAGIC + struct.pack(">I", len(sections)) + (
            b"".join(_pack_section(key, payload)
                     for key, payload in sections.items())
        )
        self._owned[checkpoint.superstep] = name
        self._apply_retention()
        return self._path(name)

    def adopt(self, path: "Path | str") -> None:
        """Claim a pre-existing snapshot file as this run's own.

        Used after ``resume_from``: the snapshot the run restarted from
        becomes part of its lineage, so a failure before the first new
        save can still fall back to it through the owned-only path.
        """
        name = Path(path).name
        at = _superstep_of(name)
        if at is not None:
            self._owned[at] = name

    def _apply_retention(self) -> None:
        owned = sorted(
            (at, name) for at, name in self._owned.items()
            if name in self._blobs
        )
        for at, stale in owned[:-self.keep_last]:
            del self._blobs[stale]
            self._owned.pop(at, None)

    # Reading ----------------------------------------------------------
    def files(self) -> List[Path]:
        """Snapshot files, oldest first (superstep order); none in memory."""
        if self.directory is None:
            return []
        return [self.directory / name for name in sorted(self._blobs)]

    def _newest_first(self, max_superstep: Optional[int],
                      owned_only: bool) -> Iterator[str]:
        for name in sorted(self._blobs, reverse=True):
            at = _superstep_of(name)
            if max_superstep is not None:
                if at is None or at > max_superstep:
                    continue
            if owned_only and (at is None or self._owned.get(at) != name):
                continue
            yield name

    def _load(self, name: str) -> RestoredSnapshot:
        frame = io.BytesIO(self._blobs[name])
        if _read_exact(frame, len(MAGIC)) != MAGIC:
            raise CorruptSnapshot("bad magic or unsupported version")
        (count,) = struct.unpack(">I", _read_exact(frame, 4))
        if count > 64:
            raise CorruptSnapshot(f"implausible section count {count}")
        sections: Dict[str, bytes] = {}
        for _ in range(count):
            (name_len,) = struct.unpack(">H", _read_exact(frame, 2))
            key = _read_exact(frame, name_len).decode("utf-8")
            (size,) = struct.unpack(">Q", _read_exact(frame, 8))
            (crc,) = struct.unpack(">I", _read_exact(frame, 4))
            payload = _read_exact(frame, size)
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise CorruptSnapshot(f"CRC mismatch in section {key!r}")
            sections[key] = payload
        if "checkpoint" not in sections:
            raise CorruptSnapshot("missing checkpoint section")
        try:
            checkpoint = pickle.loads(sections["checkpoint"])
            metrics = (
                pickle.loads(sections["metrics"])
                if "metrics" in sections else None
            )
        except Exception as exc:  # pickle corruption that passed CRC
            raise CorruptSnapshot(f"unpicklable snapshot: {exc}") from exc
        if not isinstance(checkpoint, Checkpoint):
            raise CorruptSnapshot("checkpoint section is not a Checkpoint")
        return RestoredSnapshot(
            checkpoint=checkpoint, metrics=metrics, path=self._path(name),
            skipped=[],
        )

    def load_latest(
        self,
        max_superstep: Optional[int] = None,
        owned_only: bool = False,
    ) -> Optional[RestoredSnapshot]:
        """Newest snapshot that validates, or None (never raises).

        Walks newest → oldest; every corrupt/truncated/unreadable
        snapshot is skipped (and recorded in ``RestoredSnapshot.skipped``)
        — the recovery policy's final fallback, recompute-from-scratch,
        is signalled by returning None.

        ``max_superstep`` bounds the search: snapshots at a later
        superstep (or files with an unparsable name) are ignored, not
        merely skipped.  ``owned_only`` restricts the walk to snapshots
        this instance wrote or adopted.  In-run recovery uses both, so
        stale files left in the directory by an earlier run can neither
        leap recovery *forward* past the failure point nor shadow the
        current run's own snapshots; ``resume_from`` reads unrestricted.
        """
        skipped: List[str] = []
        for name in self._newest_first(max_superstep, owned_only):
            try:
                snapshot = self._load(name)
            except (CorruptSnapshot, OSError) as exc:
                skipped.append(f"{name}: {exc}")
                continue
            snapshot.skipped = skipped
            return snapshot
        return None

    # Fault-injection hook --------------------------------------------
    def corrupt_latest(self, owned_only: bool = False) -> Optional[int]:
        """Flip payload bytes of the newest *valid* snapshot (chaos testing).

        Returns the superstep it hit, or None.  The engine passes
        ``owned_only`` so a chaos fault corrupts the current run's
        newest snapshot, never a stale bystander file.
        """
        for name in self._newest_first(None, owned_only):
            try:
                self._load(name)
            except (CorruptSnapshot, OSError):
                continue  # already corrupt; hit the previous valid one
            data = bytearray(self._blobs[name])
            # corrupt mid-payload, past the header, so the CRC check —
            # not the frame parser — is what catches it.
            pivot = max(len(MAGIC) + 4, len(data) // 2)
            for offset in range(pivot, min(pivot + 8, len(data))):
                data[offset] ^= 0xFF
            self._blobs[name] = bytes(data)
            return _superstep_of(name)
        return None
