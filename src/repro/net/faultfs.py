"""Injectable filesystem seam under the write-ahead log.

:class:`~repro.net.wal.WriteAheadLog` never touches ``os``/``open``
directly any more: every durability-relevant operation — creating the
directory, reading the log back, appending a frame, fsync, truncate,
the snapshot tmp-write/rename dance — goes through a :class:`FaultFS`.
The default implementation is a transparent passthrough to the real
filesystem; :class:`FaultyFS` is the nemesis-side implementation that
injects the storage gray failures the paper's fail-stop model sweeps
under the rug:

* **torn write** — an append persists only a seeded strict prefix of
  its bytes and the process "dies" at that instant
  (:exc:`TornWriteCrash`; the filesystem stays dead afterwards, so a
  buggy caller cannot ack the lost record);
* **ENOSPC** — a bounded run of appends fails with ``errno.ENOSPC``,
  optionally after a partial write, then space comes back;
* **bit rot** — replay reads come back with one seeded bit flipped
  inside a record *body*, which the WAL must answer by fail-stopping,
  never by serving the corrupted fold;
* **lying fsync** — ``fsync`` returns success without making anything
  durable; :meth:`FaultyFS.drop_unsynced` then simulates the power cut
  that exposes the lie;
* **unsynced rename** — a ``replace`` is directory metadata, durable
  only once ``fsync_dir`` syncs its directory: until then a power cut
  may or may not keep it (:meth:`FaultyFS.drop_unsynced_renames` is the
  cut that loses it), and a whole file written without an fsync may
  come back empty.

The module-level helpers :func:`tear_tail` and :func:`flip_record_body`
mutate a WAL file *at rest* (between a kill and a restart) and are what
the live-cluster nemesis actions in :mod:`repro.faults.netcampaign`
use.
"""

from __future__ import annotations

import errno
import os
import random
import struct
from typing import Any, Dict, List, Optional, Tuple

#: mirror of the WAL's record header (length u32, crc32 u32); kept here
#: so the at-rest mutators can walk frames without importing wal.py
_HEADER = struct.Struct(">II")


class TornWriteCrash(Exception):
    """A write tore mid-frame and the process died with it.

    Deliberately *not* an ``OSError``: the WAL's ENOSPC handling must
    not catch this — a torn write means there is no process left to
    roll back or retry, so the exception unwinds the whole node.
    """


class LogHandle:
    """An open append handle plus the path it belongs to.

    Carrying the path lets a :class:`FaultyFS` key per-file state (the
    durable high-water mark for lying fsync) off the handle alone.
    """

    def __init__(self, file: Any, path: str) -> None:
        self.file = file
        self.path = path

    @property
    def closed(self) -> bool:
        return self.file.closed


class FaultFS:
    """Transparent passthrough filesystem — the production seam.

    Subclasses override individual hooks to inject faults; the base
    class is exactly what ``os``/``open`` would have done.
    """

    # -- directory / whole-file ops ------------------------------------

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def read_bytes(self, path: str) -> bytes:
        """Read a whole file (replay path). Raises OSError if absent."""
        with open(path, "rb") as handle:
            return handle.read()

    def read_text(self, path: str) -> str:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()

    def write_text(self, path: str, text: str, fsync: bool = True) -> None:
        """Write a whole text file, optionally fsync'd (snapshot tmp)."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                self._fsync_file(handle, path)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        """Delete a file, best effort (a snapshot tmp that did not fit)."""
        try:
            os.remove(path)
        except OSError:
            pass

    def fsync_dir(self, path: str) -> None:
        """Persist directory metadata (the rename), best effort."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- append-log handle ops -----------------------------------------

    def open_append(self, path: str) -> LogHandle:
        # unbuffered, created if missing; O_APPEND writes always land at
        # the (possibly just truncated) end of file
        return LogHandle(open(path, "ab", buffering=0), path)

    def append(self, handle: LogHandle, data: bytes) -> None:
        done = handle.file.write(data)  # a raw write may take a prefix
        while done < len(data):
            done += handle.file.write(data[done:])

    def fsync(self, handle: LogHandle) -> None:
        self._fsync_file(handle.file, handle.path)

    def truncate(self, handle: LogHandle, size: int) -> None:
        handle.file.truncate(size)

    def close(self, handle: LogHandle) -> None:
        if not handle.file.closed:
            handle.file.close()

    # -- internals ------------------------------------------------------

    def _fsync_file(self, file: Any, path: str) -> None:
        os.fsync(file.fileno())


class FaultyFS(FaultFS):
    """A :class:`FaultFS` with seeded storage gray-failure modes.

    All fault draws come from ``random.Random(seed)`` so a campaign
    line fully determines what the "disk" did.  Modes are armed
    explicitly (:meth:`fail_appends`, :meth:`tear_next_append`) or via
    constructor flags (``lying_fsync``, ``corrupt_reads``); a plain
    ``FaultyFS(seed)`` with nothing armed behaves exactly like the
    passthrough.
    """

    def __init__(
        self,
        seed: int = 0,
        lying_fsync: bool = False,
        corrupt_reads: bool = False,
    ) -> None:
        self.rng = random.Random(seed)
        self.lying_fsync = lying_fsync
        self.corrupt_reads = corrupt_reads
        self._enospc_left = 0
        self._enospc_partial = False
        self._tear_armed = False
        self._dead = False
        #: path → byte size known durable (advanced only by honest fsync)
        self._durable: Dict[str, int] = {}
        #: directory → its renames no fsync_dir has made durable yet, as
        #: (src, dst, the bytes dst held before or None), oldest first
        self._renames: Dict[str, List[Tuple[str, str, Optional[bytes]]]] = {}
        self.stats: Dict[str, int] = {
            "appends": 0,
            "fsyncs": 0,
            "enospc": 0,
            "torn": 0,
            "flipped_reads": 0,
        }

    # -- arming ---------------------------------------------------------

    def fail_appends(self, count: int, partial: bool = False) -> None:
        """Arm ENOSPC for the next ``count`` appends.

        With ``partial=True`` each failing append first persists a
        seeded strict prefix — the caller must roll the file back or
        the next append buries a torn frame mid-log.
        """
        self._enospc_left = count
        self._enospc_partial = partial

    def tear_next_append(self) -> None:
        """Arm a torn write: the next append persists a seeded strict
        prefix, then the "process" dies (:exc:`TornWriteCrash`)."""
        self._tear_armed = True

    def drop_unsynced(self, path: str) -> None:
        """Simulate the power cut after a lying fsync: truncate ``path``
        back to its last honestly-durable size.  Call with the WAL
        closed (the node killed); the next open replays the loss.  A
        path this filesystem never opened is durable as it stands: an
        earlier process synced it."""
        try:
            os.truncate(path, self._durable[path])
        except (KeyError, OSError):
            pass

    def drop_unsynced_renames(self) -> int:
        """Simulate a power cut that loses every rename no ``fsync_dir``
        has made durable: newest first, the file goes back to its old
        name and the target holds what it held before (or is gone).
        Call with the WAL closed, before :meth:`drop_unsynced`.
        Returns how many renames were lost."""
        lost = 0
        for renames in self._renames.values():
            for src, dst, before in reversed(renames):
                os.replace(dst, src)
                if dst in self._durable:
                    self._durable[src] = self._durable.pop(dst)
                if before is not None:
                    with open(dst, "wb") as handle:
                        handle.write(before)
                lost += 1
        self._renames.clear()
        return lost

    # -- faulted hooks ---------------------------------------------------

    def write_text(self, path: str, text: str, fsync: bool = True) -> None:
        super().write_text(path, text, fsync)
        # ASCII: a character is a byte
        honest = fsync and not self.lying_fsync
        self._durable[path] = len(text) if honest else 0

    def replace(self, src: str, dst: str) -> None:
        try:
            with open(dst, "rb") as handle:
                before: Optional[bytes] = handle.read()
        except OSError:
            before = None
        super().replace(src, dst)
        if src in self._durable:
            self._durable[dst] = self._durable.pop(src)
        else:
            self._durable.pop(dst, None)  # durable as it stands
        directory = os.path.normpath(os.path.dirname(dst))
        self._renames.setdefault(directory, []).append((src, dst, before))

    def fsync_dir(self, path: str) -> None:
        super().fsync_dir(path)
        self._renames.pop(os.path.normpath(path), None)

    def open_append(self, path: str) -> LogHandle:
        self._check_dead()
        handle = super().open_append(path)
        # whatever survived to reopen is durable by definition
        self._durable[path] = os.path.getsize(path)
        return handle

    def append(self, handle: LogHandle, data: bytes) -> None:
        self._check_dead()
        self.stats["appends"] += 1
        if self._tear_armed:
            self._tear_armed = False
            self._dead = True
            self.stats["torn"] += 1
            cut = self.rng.randrange(1, len(data)) if len(data) > 1 else 0
            super().append(handle, data[:cut])
            os.fsync(handle.file.fileno())
            raise TornWriteCrash(f"append tore after {cut}/{len(data)} bytes")
        if self._enospc_left > 0:
            self._enospc_left -= 1
            self.stats["enospc"] += 1
            if self._enospc_partial and len(data) > 1:
                cut = self.rng.randrange(1, len(data))
                super().append(handle, data[:cut])
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        super().append(handle, data)

    def fsync(self, handle: LogHandle) -> None:
        self._check_dead()
        self.stats["fsyncs"] += 1
        if self.lying_fsync:
            return  # "success" — nothing durable happened
        super().fsync(handle)
        try:
            self._durable[handle.path] = os.path.getsize(handle.path)
        except OSError:
            pass

    def truncate(self, handle: LogHandle, size: int) -> None:
        self._check_dead()
        super().truncate(handle, size)
        durable = self._durable.get(handle.path)
        if durable is not None and durable > size:
            self._durable[handle.path] = size

    def read_bytes(self, path: str) -> bytes:
        self._check_dead()
        data = super().read_bytes(path)
        if self.corrupt_reads:
            flipped = _flip_body_bit(data, self.rng)
            if flipped is not None:
                self.stats["flipped_reads"] += 1
                return flipped
        return data

    def _check_dead(self) -> None:
        if self._dead:
            raise TornWriteCrash("filesystem died with the torn write")


# ----------------------------------------------------------------------
# at-rest mutators (between a kill and a restart)
# ----------------------------------------------------------------------


def tear_tail(path: str, cut: int = 3) -> bool:
    """Leave ``path`` as a crash mid-append leaves it: every complete
    record intact, then a copy of the final one short of its last
    ``cut`` bytes.  Returns False if there is no record that long.

    The torn frame stands for a record nobody was answered about.
    Cutting into the final *complete* record would instead lose a
    record that persist-before-reply may already have acknowledged (a
    fast-path log ends with a sticky acceptance, not a Backup promise):
    that is the lying fsync's failure, not the tear's.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return False
    spans = _record_spans(data)
    if not spans:
        return False
    start, length = spans[-1]
    frame = data[start - _HEADER.size : start + length]
    if len(frame) <= cut:
        return False
    with open(path, "ab") as handle:
        handle.write(frame[:-cut])
        handle.flush()
        os.fsync(handle.fileno())
    return True


def flip_record_body(path: str, seed: int = 0) -> bool:
    """Flip one seeded bit inside a complete record's *body* in ``path``.

    Targets bodies, not headers: a flipped length field is provably
    ambiguous with a torn tail (replay sees "body past EOF" either
    way), while a flipped body bit yields a complete frame whose crc32
    cannot match — the unambiguous fail-stop case the acceptance
    criteria demand.  Returns False when no complete record exists.
    """
    try:
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
    except OSError:
        return False
    flipped = _flip_body_bit(bytes(data), random.Random(seed))
    if flipped is None:
        return False
    with open(path, "wb") as handle:
        handle.write(flipped)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def _record_spans(data: bytes) -> List[Tuple[int, int]]:
    """``(body_start, length)`` of every complete, non-empty record."""
    spans = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, _ = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length > (1 << 20) or body_start + length > len(data):
            break
        if length > 0:
            spans.append((body_start, length))
        offset = body_start + length
    return spans


def _flip_body_bit(data: bytes, rng: random.Random) -> Optional[bytes]:
    """Return ``data`` with one bit flipped in a random complete record
    body, or None if no complete record (or empty body) exists."""
    spans = _record_spans(data)
    if not spans:
        return None
    start, length = rng.choice(spans)
    position = start + rng.randrange(length)
    mutated = bytearray(data)
    mutated[position] ^= 1 << rng.randrange(8)
    return bytes(mutated)
