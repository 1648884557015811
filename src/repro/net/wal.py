"""Write-ahead log: the stable storage of the networked deployment.

The simulator fakes durability (``Process.crash`` snapshots
``durable_state()`` in memory); a real node must survive losing its
process, so the TCP runtime writes the same durable facts to disk
*before* any reply leaves the node — the classical Paxos stable-storage
rule, now literal.  Three kinds of fact are logged per SMR slot, and a
fourth once per open:

* ``("acc", slot, (promised, accepted_ballot, accepted_value))`` — the
  acceptor triple of :class:`~repro.mp.paxos.PaxosAcceptor`;
* ``("qs", slot, accepted)`` — the sticky Quorum acceptance of
  :class:`~repro.mp.quorum.QuorumServer` (Quorum's unanimity argument
  assumes servers never forget their first acceptance);
* ``("dec", slot, value)`` — the decided log, so a recovered
  coordinator answers requests instead of re-running Paxos;
* ``("inc", 0, k)`` — the **incarnation marker**: k opens of the
  directory came before the one that wrote it (the slot field is
  unused).  :class:`NodeWAL` appends and fsyncs one before its
  constructor returns, so before the node can bind a listener.  It is
  what lets node 0 skip phase 1 of ballot 0
  (:class:`~repro.mp.paxos.PaxosCoordinator`): a diskless coordinator
  cannot know what an earlier self sent under that ballot, so only an
  incarnation that can prove none existed may claim it unasked.  One
  record per process lifetime, nothing per slot.

The on-disk format is deliberately boring: an append-only file of
``[length u32][crc32 u32][payload]`` records, each payload a binary
body of the tuple-preserving codec (:mod:`repro.net.codec`) behind its
magic byte, fsync'd per append: a fact is on disk before the call
that logged it returns.  Replay decodes a payload as a frame body, by
its first byte, so older JSON records still replay.  All
filesystem access goes through the injectable
:class:`~repro.net.faultfs.FaultFS` seam, so the nemesis can tear
writes, flip bits, exhaust the disk, or lie about fsync.

Replay distinguishes two failure classes, because they demand opposite
responses:

* **torn tail** — the final record is an *incomplete prefix* (short
  header, body shorter than its declared length, or a zero-length
  frame from block zero-fill).  Appends are strictly ordered, so
  everything before the tear is intact: replay truncates the tear and
  carries on.  A bit-flipped *length field* is indistinguishable from
  a tear (both read as "body past EOF") and is tolerated the same way;
  the linearizability canary in the campaign layer is the backstop for
  that ambiguity.
* **corruption** — a *complete* record whose crc32 does not match, or
  whose checksummed payload fails to decode.  No crash can produce
  that (a tear leaves a prefix, never a full frame with wrong bytes),
  so the storage itself is lying and nothing downstream of it can be
  trusted: replay raises :exc:`WALCorruptionError` and the node must
  fail-stop — never serve from a corrupted fold.

Every write of a running node goes through :meth:`NodeWAL.record`, and
one failure rule covers them all.  ``ENOSPC`` from writing a log frame
or the compaction snapshot is survivable: a partial frame is rolled
back to the last durable record, a partial snapshot is removed, and
the typed :exc:`WALFullError` tells the caller to back off and retry.
Any other ``OSError`` (above all a failed fsync, after which
durability is unknowable) closes the log, is logged once at error
level and raises :exc:`WALError`: the caller releases nothing, and the
closed log silences every role that shares it.

Replay cost grows with log length, so :class:`NodeWAL` folds the log
into per-slot maps and periodically **compacts**: the folded state is
written to ``snapshot.json`` (JSON, crc32-wrapped) via an atomic
tmp-file rename and the log is truncated.  Recovery is then snapshot +
tail, equivalent by construction to replaying the full history (each
record overwrites its slot's entry; the snapshot is exactly the fold of
the dropped prefix).
"""

from __future__ import annotations

import asyncio
import errno
import json
import logging
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from .codec import (
    BINARY_CODEC,
    BINARY_MAGIC,
    FrameError,
    JSON_CODEC,
    decode_body,
    decode_payload,
    dump_json,
)
from .faultfs import FaultFS

logger = logging.getLogger(__name__)

#: record header: payload length, crc32 of the payload (big-endian u32s)
_HEADER = struct.Struct(">II")
_MAGIC = bytes([BINARY_MAGIC])  # what every payload this log writes opens with

#: sanity bound on a single record; a length field beyond this can only
#: be garbage (matches the transport's frame guard scale)
MAX_RECORD = 1 << 20

#: default number of appended records that triggers snapshot compaction
DEFAULT_COMPACT_THRESHOLD = 1024


class WALError(Exception):
    """Base class of the WAL's typed failures."""


class WALCorruptionError(WALError):
    """Stable storage returned provably corrupt data (a complete record
    with a checksum mismatch).  The only safe answer is fail-stop."""


class WALFullError(WALError):
    """An append hit ``ENOSPC``.  The log was rolled back to its last
    durable record; the caller should back off and retry."""


class WriteAheadLog:
    """Append-only, checksummed, fsync'd record log with snapshots.

    Opening the log replays it: ``snapshot`` holds the decoded snapshot
    value (or ``None``), ``records`` the decoded log records after it,
    and ``torn_tail`` whether a truncated tail was discarded; a holder
    that has folded the first two may let them go.  The file
    is truncated back to its last valid record, so appends after a torn
    open produce a clean log again.  A complete-but-corrupt record
    raises :exc:`WALCorruptionError` instead — see the module docstring
    for the torn/corrupt distinction.
    """

    def __init__(
        self,
        directory: str,
        fsync: bool = True,
        fs: Optional[FaultFS] = None,
    ) -> None:
        self.directory = directory
        self.fsync = fsync
        self.fs = fs if fs is not None else FaultFS()
        self.fs.makedirs(directory)
        self.log_path = os.path.join(directory, "wal.log")
        self.snapshot_path = os.path.join(directory, "snapshot.json")
        self.snapshot: Optional[Any] = self._load_snapshot()
        self.records, valid_bytes, self.torn_tail = self._replay()
        #: records appended since the last compaction (replayed + new)
        self.record_count = len(self.records)
        #: bytes of the log known to hold only complete records — the
        #: rollback point when an append fails mid-frame
        self._valid_bytes = valid_bytes
        self._handle = self.fs.open_append(self.log_path)
        self.fs.truncate(self._handle, valid_bytes)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def _load_snapshot(self) -> Optional[Any]:
        """Decode ``snapshot.json`` if present and intact.

        Snapshots written by :meth:`compact` are wrapped as
        ``{"crc32": c, "snapshot": payload}``; a wrapper whose checksum
        does not match is provable corruption and raises
        :exc:`WALCorruptionError`.  An unparseable or legacy unwrapped
        file is treated as absent (the atomic rename in :meth:`compact`
        means a torn snapshot can only be a leftover ``.tmp``, ignored,
        or damage outside the checksummed contract).
        """
        try:
            raw = json.loads(self.fs.read_text(self.snapshot_path))
        except (OSError, ValueError):
            return None
        if isinstance(raw, dict) and set(raw) == {"crc32", "snapshot"}:
            # the checksum covers the payload's canonical bytes, which a
            # loads/dumps round trip reproduces (JSON objects keep
            # document key order)
            if zlib.crc32(dump_json(raw["snapshot"])) != raw["crc32"]:
                raise WALCorruptionError(
                    f"snapshot checksum mismatch in {self.snapshot_path}"
                )
            payload = raw["snapshot"]
        else:
            payload = raw  # legacy unwrapped snapshot
        try:
            return decode_payload(payload)
        except (ValueError, TypeError) as exc:
            if isinstance(raw, dict) and set(raw) == {"crc32", "snapshot"}:
                # checksum was fine but the payload will not decode:
                # that is corruption, not a torn write
                raise WALCorruptionError(
                    f"undecodable checksummed snapshot: {exc}"
                ) from exc
            return None

    def _replay(self) -> Tuple[List[Any], int, bool]:
        """Scan the log, returning (records, valid_bytes, torn_tail).

        Raises :exc:`WALCorruptionError` on a complete record whose
        checksum or decode fails; tolerates (and reports) incomplete
        tails.
        """
        try:
            data = self.fs.read_bytes(self.log_path)
        except OSError:
            return [], 0, False
        records: List[Any] = []
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                return records, offset, True  # torn header
            length, checksum = _HEADER.unpack_from(data, offset)
            body_start = offset + _HEADER.size
            if length == 0:
                # no real record is empty; zero-filled tail blocks
                # (crash + ext4 zero-fill) read as length 0, crc 0
                return records, offset, True
            if body_start + length > len(data):
                # body past EOF: a tear — or a flipped length field,
                # which is indistinguishable from one (documented
                # ambiguity; the campaign canary is the backstop)
                return records, offset, True
            if length > MAX_RECORD:
                raise WALCorruptionError(
                    f"record at offset {offset} claims {length} bytes "
                    f"(> MAX_RECORD) yet the bytes are present"
                )
            body = data[body_start : body_start + length]
            if zlib.crc32(body) != checksum:
                raise WALCorruptionError(
                    f"checksum mismatch in complete record at offset "
                    f"{offset} of {self.log_path}"
                )
            try:
                records.append(decode_body(body))
            except FrameError as exc:
                raise WALCorruptionError(
                    f"undecodable record with valid checksum at offset "
                    f"{offset}: {exc}"
                ) from exc
            offset = body_start + length
        return records, offset, False

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(self, value: Any, sync: bool = True) -> None:
        """Durably append one record (returns after flush + fsync).

        On ``ENOSPC`` the partial frame is truncated away (so the log
        stays a clean prefix of complete records) and
        :exc:`WALFullError` is raised for the caller to retry.

        ``sync=False`` leaves the frame unsynced until :meth:`sync`, so
        the two can be timed apart.  Appends are strictly ordered, so a
        crash before the sync loses a *suffix* of the unsynced records,
        never a middle one: the torn-tail contract.
        """
        body = _MAGIC + BINARY_CODEC.encode_body(value)
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        try:
            self.fs.append(self._handle, frame)
        except OSError as exc:
            # roll back whatever prefix of the frame made it to disk
            self.fs.truncate(self._handle, self._valid_bytes)
            if exc.errno == errno.ENOSPC:
                raise WALFullError(
                    f"append of {len(frame)} bytes hit ENOSPC; "
                    f"log rolled back to {self._valid_bytes} bytes"
                ) from exc
            raise
        if self.fsync and sync:
            self.fs.fsync(self._handle)
        self._valid_bytes += len(frame)
        self.record_count += 1

    def sync(self) -> None:
        """Force every appended record to disk (one fsync for the lot)."""
        if self.fsync:
            self.fs.fsync(self._handle)

    def compact(self, snapshot_value: Any) -> None:
        """Atomically install ``snapshot_value`` and truncate the log.

        The snapshot is written crc32-wrapped to a tmp file, fsync'd,
        and renamed over ``snapshot.json`` (atomic on POSIX); only then
        is the log truncated.  A crash between the two leaves snapshot
        + full log, which replays to the same state (slot records are
        idempotent overwrites).  ``ENOSPC`` while writing the snapshot
        removes the tmp file and raises :exc:`WALFullError`; the log is
        left as it was.
        """
        body = JSON_CODEC.encode_body(snapshot_value)
        tmp_path = self.snapshot_path + ".tmp"
        try:
            self.fs.write_text(
                tmp_path,
                '{"crc32":%d,"snapshot":%s}'
                % (zlib.crc32(body), body.decode("ascii")),
                fsync=self.fsync,
            )
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            self.fs.remove(tmp_path)
            raise WALFullError(
                f"snapshot of {len(body)} bytes hit ENOSPC; log kept"
            ) from exc
        self.fs.replace(tmp_path, self.snapshot_path)
        self.fs.fsync_dir(self.directory)
        self.fs.truncate(self._handle, 0)
        if self.fsync:
            self.fs.fsync(self._handle)
        self.record_count = 0
        self._valid_bytes = 0

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def close(self) -> None:
        """Close the log file handle (idempotent)."""
        self.fs.close(self._handle)


@dataclass
class RecoveredState:
    """Per-slot durable facts folded out of a node's WAL."""

    #: slot → (promised, accepted_ballot, accepted_value)
    acceptors: Dict[int, Tuple[int, int, Optional[Hashable]]] = field(
        default_factory=dict
    )
    #: slot → sticky Quorum acceptance
    quorum: Dict[int, Hashable] = field(default_factory=dict)
    #: slot → decided value (the SMR decided log)
    decided: Dict[int, Hashable] = field(default_factory=dict)
    torn_tail: bool = False
    #: slot facts replayed from the log tail (markers not counted)
    records_replayed: int = 0
    #: how many opens of the directory came before this one
    incarnation: int = 0

    def slots(self) -> List[int]:
        """Every slot any recovered fact mentions, ascending."""
        return sorted(
            set(self.acceptors) | set(self.quorum) | set(self.decided)
        )


class NodeWAL:
    """One node's durable state, kept as folded maps over a log.

    ``record(kind, slot, payload)`` durably appends one fact (the kinds
    are the module-level vocabulary: ``"acc"``, ``"qs"``, ``"dec"``) and
    updates the in-memory fold, ``state``: the one copy of the node's
    durable facts, which the open folds the replay into (and lets the
    replay go) and a :class:`~repro.net.node.ReplicaNode` restores its
    roles from.  Once ``compact_threshold`` records have accumulated
    the fold is snapshotted and the log truncated.

    Every open appends its incarnation marker (module docstring).
    ``state.incarnation`` is 0 only for a directory that proves it
    was never opened: no marker, record, snapshot or torn tail — so a
    log from before markers, or one whose only marker tore, counts as
    opened before.  ``ENOSPC`` on the marker is a :exc:`WALFullError`
    out of the constructor: a node that cannot record its incarnation
    must not serve.

    :meth:`record` is the one write path (module docstring).
    """

    def __init__(
        self,
        directory: str,
        fsync: bool = True,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
        fs: Optional[FaultFS] = None,
    ) -> None:
        self.wal = WriteAheadLog(directory, fsync=fsync, fs=fs)
        self.compact_threshold = compact_threshold
        state = RecoveredState(torn_tail=self.wal.torn_tail)
        if self.wal.snapshot is not None:
            self._apply_snapshot(state, self.wal.snapshot)
        for record in self.wal.records:
            self._apply(state, record)
        state.records_replayed = sum(r[0] != "inc" for r in self.wal.records)
        if not state.incarnation and (self.wal.records or state.torn_tail):
            state.incarnation = 1  # pre-marker log, or a torn first marker
        self.state = state
        self.wal.snapshot, self.wal.records = None, []
        try:
            self.wal.append(("inc", 0, state.incarnation))
        except BaseException:
            self.wal.close()  # never opened: the caller gets no handle
            raise

    @property
    def directory(self) -> str:
        return self.wal.directory

    @staticmethod
    def _apply(state: RecoveredState, record: Any) -> None:
        kind, slot, payload = record
        if kind == "acc":
            state.acceptors[slot] = tuple(payload)
        elif kind == "qs":
            state.quorum[slot] = payload
        elif kind == "dec":
            state.decided[slot] = payload
        elif kind == "inc":
            state.incarnation = payload + 1

    @staticmethod
    def _apply_snapshot(state: RecoveredState, snapshot: Any) -> None:
        state.acceptors.update(snapshot.get("acc", {}))
        state.quorum.update(snapshot.get("qs", {}))
        state.decided.update(snapshot.get("dec", {}))
        # any snapshot proves an earlier open, marker field or not
        state.incarnation = snapshot.get("inc", 0) + 1

    def record(self, kind: str, slot: int, payload: Any) -> None:
        """Durably log one fact; returns only after it is on disk.

        Raises :exc:`WALFullError` if the disk is full (the fact is
        *not* durable; retry after backoff).  A full disk during the
        follow-on compaction is swallowed: the fact is durable, and the
        next record retries the compaction.  Any other failed write
        fail-stops the log (:meth:`fail_stop`) and raises
        :exc:`WALError`.
        """
        record = (kind, slot, payload)
        try:
            self.wal.append(record)
            self._apply(self.state, record)
            if self.wal.record_count >= self.compact_threshold:
                try:
                    self.compact()
                except WALFullError:
                    pass  # deferred: next record retries compaction
        except OSError as exc:
            self.fail_stop(f"writing {kind!r} of slot {slot} failed: {exc}")
            raise WALError(f"{self.directory}: {exc}") from exc

    def record_durable(
        self,
        kind: str,
        slot: int,
        payload: Any,
        on_durable: Any,
    ) -> None:
        """:meth:`record` one fact, then hand ``on_durable`` to the loop.

        The fact is on disk when this returns; the callback runs on the
        next tick of the running event loop, or at once when none runs.
        Raises exactly what :meth:`record` raises, and then the callback
        never runs: the caller owns the retry.
        """
        self.record(kind, slot, payload)
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            on_durable()
        else:
            loop.call_soon(on_durable)

    def fail_stop(self, reason: str) -> None:
        """Close the log for good, saying why once at error level."""
        logger.error("WAL %s: %s; failing stop", self.directory, reason)
        self.close()

    def record_acceptor(
        self, slot: int, triple: Tuple[int, int, Optional[Hashable]]
    ) -> None:
        """Log the acceptor triple of ``slot``."""
        self.record("acc", slot, triple)

    def record_decided(self, slot: int, value: Hashable) -> None:
        """Log a decided value (the SMR decided log)."""
        self.record("dec", slot, value)

    def compact(self) -> None:
        """Snapshot the current fold and truncate the log; the fold is
        encoded as it stands, neither copied nor kept."""
        self.wal.compact(
            {
                "acc": self.state.acceptors,
                "qs": self.state.quorum,
                "dec": self.state.decided,
                "inc": self.state.incarnation,
            }
        )

    @property
    def closed(self) -> bool:
        return self.wal.closed

    def close(self) -> None:
        self.wal.close()
