"""Unit tests of the write-ahead log (`repro.net.wal`).

The WAL is the stable storage of the TCP runtime: everything here
exercises the crash cases the runtime's recovery depends on — a clean
replay, torn tails of every flavour (short header, short body, corrupt
checksum), the snapshot-compaction invariant that snapshot + tail
replays to the same fold as the full history, and the write path's
contract: each record is fsync'd before its callback is queued, a
crash loses a suffix — replay always recovers a prefix, never a hole —
and a failed write fail-stops the log without releasing anything.
"""

import asyncio
import errno
import os
import struct
import zlib

import pytest

from repro.net.codec import (
    BINARY_CODEC,
    BINARY_MAGIC,
    JSON_CODEC,
    MAX_FRAME,
    Packed,
    get_codec,
)
from repro.net.faultfs import (
    FaultyFS,
    TornWriteCrash,
    flip_record_body,
    tear_tail,
)
from repro.net.pipeline import SlotPipeline, _DECREE_HEAD
from repro.net.transport import AddressBook, AsyncTransport
from repro.net.wal import (
    DEFAULT_COMPACT_THRESHOLD,
    MAX_RECORD,
    NodeWAL,
    RecoveredState,
    WALCorruptionError,
    WALError,
    WALFullError,
    WriteAheadLog,
)
from repro.smr.universal import make_batch


def log_bytes(wal_dir):
    with open(os.path.join(str(wal_dir), "wal.log"), "rb") as handle:
        return handle.read()


def fill_the_disk_for_snapshots(fs):
    """Make ``fs`` too full for a snapshot: half of it lands in the tmp
    file, then ``ENOSPC``.  ``del fs.write_text`` frees the space."""
    real = fs.write_text

    def full(path, text, fsync=True):
        real(path, text[: len(text) // 2], fsync=False)
        raise OSError(errno.ENOSPC, "no space left on device (injected)")

    fs.write_text = full


class TestWriteAheadLog:
    def test_first_boot_is_empty_and_clean(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.records == []
        assert wal.snapshot is None
        assert not wal.torn_tail
        wal.close()
        assert wal.closed

    def test_append_then_replay_round_trips_tuples(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        values = [
            ("acc", 0, (1, 1, ("put", "x", 5, ("seq", ("c0", 1))))),
            ("qs", 3, ("get", "y", ("seq", ("c1", 2)))),
            ("dec", 0, None),
        ]
        for value in values:
            wal.append(value)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        # Tuples survive the codec trip exactly — the codec's whole point.
        assert reopened.records == values
        assert not reopened.torn_tail
        reopened.close()

    def test_torn_final_record_is_truncated_and_reported(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(("dec", 0, "keep-me"))
        wal.append(("dec", 1, "the-crash-eats-me"))
        wal.close()
        # Tear the last record mid-body, as a crash mid-write would.
        data = log_bytes(tmp_path)
        with open(os.path.join(str(tmp_path), "wal.log"), "wb") as handle:
            handle.write(data[:-4])
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == [("dec", 0, "keep-me")]
        assert reopened.torn_tail
        # The tear was truncated away: appends continue on a clean log.
        reopened.append(("dec", 1, "retried"))
        reopened.close()
        final = WriteAheadLog(str(tmp_path))
        assert final.records == [("dec", 0, "keep-me"), ("dec", 1, "retried")]
        assert not final.torn_tail
        final.close()

    def test_torn_header_is_tolerated(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(("dec", 0, "keep-me"))
        wal.close()
        with open(os.path.join(str(tmp_path), "wal.log"), "ab") as handle:
            handle.write(b"\x00\x00\x00")  # header needs 8 bytes
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == [("dec", 0, "keep-me")]
        assert reopened.torn_tail
        reopened.close()

    def test_corrupt_checksum_fail_stops(self, tmp_path):
        # A *complete* record with a bad crc32 is not a tear (a crash
        # leaves a prefix, never a full frame with wrong bytes): the
        # storage is lying, and replay must refuse to serve from it.
        wal = WriteAheadLog(str(tmp_path))
        wal.append(("dec", 0, "good"))
        wal.append(("dec", 1, "rotten"))
        wal.close()
        data = bytearray(log_bytes(tmp_path))
        data[-1] ^= 0xFF  # flip a bit inside the last record's body
        with open(os.path.join(str(tmp_path), "wal.log"), "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(str(tmp_path))

    def test_garbage_length_field_is_torn_not_fatal(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(("dec", 0, "good"))
        wal.close()
        with open(os.path.join(str(tmp_path), "wal.log"), "ab") as handle:
            handle.write(struct.pack(">II", 0xFFFFFFFF, 0) + b"junk")
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == [("dec", 0, "good")]
        assert reopened.torn_tail
        reopened.close()

    def test_compact_installs_snapshot_and_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(("dec", 0, "a"))
        wal.compact({"state": ("folded",)})
        assert log_bytes(tmp_path) == b""
        wal.append(("dec", 1, "tail"))
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.snapshot == {"state": ("folded",)}
        assert reopened.records == [("dec", 1, "tail")]
        reopened.close()

    def test_corrupt_snapshot_is_treated_as_absent(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.compact({"fine": 1})
        wal.append(("dec", 0, "tail"))
        wal.close()
        with open(os.path.join(str(tmp_path), "snapshot.json"), "w") as handle:
            handle.write("{ not json")
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.snapshot is None
        assert reopened.records == [("dec", 0, "tail")]
        reopened.close()


class TestNodeWAL:
    def test_fold_and_recovery(self, tmp_path):
        wal = NodeWAL(str(tmp_path))
        assert wal.state.slots() == []
        wal.record_acceptor(0, (2, 2, ("put", "x", 1)))
        wal.record("qs", 1, ("get", "x"))
        wal.record_decided(0, ("put", "x", 1))
        wal.record_acceptor(0, (3, 2, ("put", "x", 1)))  # overwrite wins
        wal.close()
        reopened = NodeWAL(str(tmp_path))
        state = reopened.state
        assert state.acceptors == {0: (3, 2, ("put", "x", 1))}
        assert state.quorum == {1: ("get", "x")}
        assert state.decided == {0: ("put", "x", 1)}
        assert state.slots() == [0, 1]
        assert state.records_replayed == 4
        reopened.close()

    def test_snapshot_plus_tail_equals_full_replay(self, tmp_path):
        ref_dir = tmp_path / "ref"
        snap_dir = tmp_path / "snap"
        records = [
            ("acc", s, (s, s, ("put", "k", s))) for s in range(6)
        ] + [("qs", s, ("get", "k")) for s in range(6)] + [
            ("dec", s, ("put", "k", s)) for s in range(3)
        ]
        reference = NodeWAL(str(ref_dir))
        compacted = NodeWAL(str(snap_dir), compact_threshold=5)
        for kind, slot, payload in records:
            reference.record(kind, slot, payload)
            compacted.record(kind, slot, payload)
        reference.close()
        compacted.close()
        # The compacted log really did snapshot (threshold << records).
        assert os.path.exists(os.path.join(str(snap_dir), "snapshot.json"))
        a = NodeWAL(str(ref_dir)).state
        b = NodeWAL(str(snap_dir)).state
        assert a.acceptors == b.acceptors
        assert a.quorum == b.quorum
        assert a.decided == b.decided

    def test_auto_compaction_bounds_log_length(self, tmp_path):
        wal = NodeWAL(str(tmp_path), compact_threshold=10)
        for i in range(35):
            wal.record_decided(i, ("put", "k", i))
        assert wal.wal.record_count < 10
        wal.close()
        reopened = NodeWAL(str(tmp_path))
        assert len(reopened.state.decided) == 35
        reopened.close()

    def test_default_threshold_matches_module_constant(self, tmp_path):
        wal = NodeWAL(str(tmp_path))
        assert wal.compact_threshold == DEFAULT_COMPACT_THRESHOLD
        wal.close()
        assert wal.closed

    def test_the_fold_is_the_one_copy_of_the_replay(self, tmp_path):
        wal = NodeWAL(str(tmp_path), compact_threshold=3)
        for slot in range(4):
            wal.record_decided(slot, f"v{slot}")
        wal.close()
        assert os.path.exists(os.path.join(str(tmp_path), "snapshot.json"))
        # the open folds a snapshot and a tail, and lets both go ...
        reopened = NodeWAL(str(tmp_path), compact_threshold=3)
        assert reopened.state.decided == {s: f"v{s}" for s in range(4)}
        assert reopened.state.records_replayed == 2
        assert reopened.wal.snapshot is None and reopened.wal.records == []
        # ... the fold moves with each record, and a compaction (due at
        # this record) keeps no copy of what it wrote
        reopened.record_decided(4, "v4")
        assert reopened.state.decided[4] == "v4"
        assert reopened.wal.record_count == 0
        assert reopened.wal.snapshot is None and reopened.wal.records == []
        reopened.close()
        again = NodeWAL(str(tmp_path))
        assert again.state.decided == {s: f"v{s}" for s in range(5)}
        again.close()

    def test_torn_tail_surfaces_through_recovered_state(self, tmp_path):
        wal = NodeWAL(str(tmp_path))
        wal.record_decided(0, "keep")
        wal.record_decided(1, "torn")
        wal.close()
        path = os.path.join(str(tmp_path), "wal.log")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-2])
        reopened = NodeWAL(str(tmp_path))
        assert reopened.state.torn_tail
        assert reopened.state.decided == {0: "keep"}
        reopened.close()


def incarnations(directory, opens, **kwargs):
    """Open and close ``directory`` ``opens`` times; what each open was."""
    seen = []
    for _ in range(opens):
        wal = NodeWAL(str(directory), **kwargs)
        seen.append(wal.state.incarnation)
        wal.close()
    return seen


class TestCompactionOnAFullDisk:
    def test_the_snapshot_is_dropped_and_the_log_kept(self, tmp_path):
        fs = FaultyFS(seed=0)
        log = WriteAheadLog(str(tmp_path), fs=fs)
        log.append(("dec", 0, "v"))
        fill_the_disk_for_snapshots(fs)
        with pytest.raises(WALFullError):
            log.compact({"dec": {0: "v"}})
        assert os.listdir(str(tmp_path)) == ["wal.log"]  # no .tmp left
        log.close()
        replay = WriteAheadLog(str(tmp_path))
        assert replay.records == [("dec", 0, "v")]
        replay.close()

    def test_every_record_is_still_answered(self, tmp_path):
        fs = FaultyFS(seed=0)
        wal = NodeWAL(str(tmp_path), fs=fs, compact_threshold=3)
        fill_the_disk_for_snapshots(fs)
        released = []
        for slot in range(5):
            wal.record_durable(
                "dec", slot, f"v{slot}",
                lambda slot=slot: released.append(slot),
            )
        # each record is durable, so each reply leaves; no .tmp is left
        assert released == [0, 1, 2, 3, 4]
        assert os.listdir(str(tmp_path)) == ["wal.log"]
        del fs.write_text  # space comes back: the next record compacts
        wal.record("dec", 5, "v5")
        assert "snapshot.json" in os.listdir(str(tmp_path))
        assert wal.wal.record_count == 0
        wal.close()
        reopened = NodeWAL(str(tmp_path))
        assert reopened.state.decided == {
            s: f"v{s}" for s in range(6)
        }
        reopened.close()


class TestIncarnationMarker:
    """One durable marker per open: only a directory that proves it was
    never opened is incarnation 0 (and may claim ballot 0 unasked)."""

    def test_each_open_is_counted_and_fsynced(self, tmp_path):
        fs = FaultyFS(seed=0)
        wal = NodeWAL(str(tmp_path), fs=fs)
        # durable before the constructor returns: before any listener
        assert fs.stats == {**fs.stats, "appends": 1, "fsyncs": 1}
        assert wal.state.incarnation == 0
        assert wal.state.slots() == []
        wal.close()
        assert incarnations(tmp_path, 3) == [1, 2, 3]
        log = WriteAheadLog(str(tmp_path))
        assert log.records == [("inc", 0, k) for k in range(4)]
        log.close()

    def test_markers_are_not_slot_facts(self, tmp_path):
        assert incarnations(tmp_path, 2) == [0, 1]
        wal = NodeWAL(str(tmp_path))
        assert wal.state.slots() == []
        assert wal.state.records_replayed == 0
        wal.close()

    def test_compaction_carries_the_incarnation(self, tmp_path):
        for expected in range(3):
            wal = NodeWAL(str(tmp_path), compact_threshold=4)
            assert wal.state.incarnation == expected
            for slot in range(3):
                wal.record_decided(slot, expected)
            # marker + 3 facts reached the threshold: the snapshot
            # swallowed the marker with the rest of the log
            assert log_bytes(tmp_path) == b""
            wal.close()
        assert incarnations(tmp_path, 1) == [3]

    def test_a_log_from_before_markers_counts_as_opened_before(self, tmp_path):
        # what the parent commit left on disk: records, no marker
        old = WriteAheadLog(str(tmp_path))
        old.append(("qs", 0, ("put", "x", 1)))
        old.append(("acc", 0, (0, 0, ("put", "x", 1))))
        old.close()
        wal = NodeWAL(str(tmp_path))
        assert wal.state.incarnation == 1
        assert wal.state.quorum == {0: ("put", "x", 1)}
        assert wal.state.acceptors == {0: (0, 0, ("put", "x", 1))}
        assert wal.state.records_replayed == 2
        wal.close()

    def test_a_snapshot_from_before_markers_counts_too(self, tmp_path):
        old = WriteAheadLog(str(tmp_path))
        old.compact({"acc": {}, "qs": {0: "v"}, "dec": {}})
        old.close()
        assert incarnations(tmp_path, 2) == [1, 2]

    def test_enospc_on_the_marker_refuses_the_open(self, tmp_path):
        fs = FaultyFS(seed=0)
        fs.fail_appends(1, partial=True)
        with pytest.raises(WALFullError):
            NodeWAL(str(tmp_path), fs=fs)
        # rolled back, and the refused open was never an incarnation
        assert log_bytes(tmp_path) == b""
        assert incarnations(tmp_path, 2, fs=fs) == [0, 1]

    def test_a_torn_marker_is_a_torn_tail_and_an_earlier_open(self, tmp_path):
        fs = FaultyFS(seed=0)
        fs.tear_next_append()
        with pytest.raises(TornWriteCrash):
            NodeWAL(str(tmp_path), fs=fs)
        whole = len(log_bytes(tmp_path))
        assert whole > 0
        wal = NodeWAL(str(tmp_path))
        # nobody can tell how far that open got: never incarnation 0
        assert wal.state.torn_tail
        assert wal.state.incarnation == 1
        wal.close()
        # the tear was truncated away, the new marker is complete
        log = WriteAheadLog(str(tmp_path))
        assert log.records == [("inc", 0, 1)] and not log.torn_tail
        assert len(log_bytes(tmp_path)) > whole
        log.close()

    def test_a_corrupt_marker_fail_stops_like_any_record(self, tmp_path):
        assert incarnations(tmp_path, 1) == [0]
        assert flip_record_body(os.path.join(str(tmp_path), "wal.log"))
        with pytest.raises(WALCorruptionError):
            NodeWAL(str(tmp_path))


class TestGroupCommit:
    """What group commit promised, held by the one write path: every
    record is fsync'd before ``record_durable`` returns, no callback
    runs before that fsync, a crash leaves a prefix, and a failed fsync
    releases nothing."""

    def test_each_record_is_synced_before_its_callback_is_queued(
        self, tmp_path
    ):
        fs = FaultyFS(seed=0)
        wal = NodeWAL(str(tmp_path), fs=fs)
        released = []

        async def tick():
            for slot in range(3):
                before = fs.stats["fsyncs"]
                wal.record_durable(
                    "dec", slot, f"v{slot}",
                    lambda slot=slot: released.append(slot),
                )
                assert fs.stats["fsyncs"] == before + 1
            # on disk already, released on the loop's next tick
            assert released == []
            await asyncio.sleep(0)
            assert released == [0, 1, 2]

        asyncio.run(tick())
        # no loop running: the callback runs at once
        wal.record_durable("dec", 3, "v3", lambda: released.append(3))
        assert released == [0, 1, 2, 3]
        wal.close()
        reopened = NodeWAL(str(tmp_path))
        assert reopened.state.decided == {
            s: f"v{s}" for s in range(4)
        }
        reopened.close()

    def test_crash_mid_group_replays_to_prefix_never_a_hole(self, tmp_path):
        wal = NodeWAL(str(tmp_path))
        head = len(log_bytes(tmp_path))  # the incarnation marker
        released = []

        async def crash_before_the_release():
            for slot in range(3):
                wal.record_durable(
                    "dec", slot, f"v{slot}",
                    lambda slot=slot: released.append(slot),
                )
            # the process dies before the next tick: no reply was
            # released, so nothing was promised to anyone
            wal.close()
            assert released == []

        asyncio.run(crash_before_the_release())
        # appends are strictly ordered: whatever writeback persisted is
        # a byte prefix — model the worst case, a tear inside record 1
        path = os.path.join(str(tmp_path), "wal.log")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: head + (len(data) - head) * 2 // 5])
        reopened = NodeWAL(str(tmp_path))
        # record 0 survives, records 1 and 2 are gone together — the
        # decided map is a prefix of the group, not {0, 2}
        assert reopened.state.decided == {0: "v0"}
        assert reopened.state.torn_tail
        reopened.close()

    def test_fsync_failure_wedges_without_releasing(self, tmp_path):
        fs = FaultyFS(seed=0)
        wal = NodeWAL(str(tmp_path), fs=fs)
        released = []

        def broken_fsync(handle):
            raise OSError(errno.EIO, "injected fsync failure")

        fs.fsync = broken_fsync

        async def tick():
            with pytest.raises(WALError) as raised:
                wal.record_durable(
                    "dec", 0, "v", lambda: released.append(0)
                )
            assert not isinstance(raised.value, WALFullError)
            await asyncio.sleep(0)

        asyncio.run(tick())
        # durability unknowable: the node fail-stops, the reply is
        # withheld forever rather than released without a real fsync
        assert released == []
        assert wal.closed


class TestRecoveredState:
    def test_slots_union_and_empty(self):
        state = RecoveredState()
        assert state.slots() == []
        state.acceptors[3] = (0, -1, None)
        state.quorum[1] = "q"
        state.decided[2] = "d"
        assert state.slots() == [1, 2, 3]


# ---------------------------------------------------------------------------
# the record format: the binary codec, magic-prefixed; JSON still replays
# ---------------------------------------------------------------------------


def _decree(*ops):
    """A decree as it travels: the binary body of its batch."""
    return Packed(BINARY_CODEC.encode_body(make_batch(ops)))


#: the facts a node journals, a decree among them
FACTS = [
    ("qs", 0, _decree(("put", "x", 1, ("seq", ("c0", 1))))),
    ("acc", 1, (2, 2, _decree(("get", "x", ("seq", ("c1", 1)))))),
    ("dec", 1, _decree(("get", "x", ("seq", ("c1", 1))))),
    ("qs", 2, ("put", "y", 2.5, ("seq", ("c2", 1)))),
]


def _json_record(value):
    """A record as the log wrote it before it journaled binary."""
    body = JSON_CODEC.encode_body(value)
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


class TestBinaryRecords:
    def test_a_record_is_the_magic_and_the_binary_body(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(FACTS[0])
        wal.close()
        body = bytes([BINARY_MAGIC]) + BINARY_CODEC.encode_body(FACTS[0])
        assert log_bytes(tmp_path) == (
            struct.pack(">II", len(body), zlib.crc32(body)) + body
        )
        # the decree's bytes went in as they are: no base64
        assert bytes(FACTS[0][2]) in log_bytes(tmp_path)

    def test_a_json_then_binary_log_replays_to_the_same_fold(self, tmp_path):
        old, new = tmp_path / "old", tmp_path / "new"
        # a log from before the binary format: JSON records, a marker
        os.makedirs(str(old))
        with open(str(old / "wal.log"), "wb") as handle:
            handle.write(_json_record(("inc", 0, 0)))
            for fact in FACTS[:2]:
                handle.write(_json_record(fact))
        # the same history, written binary throughout
        first = NodeWAL(str(new))
        for fact in FACTS[:2]:
            first.record(*fact)
        first.close()
        for directory in (old, new):
            wal = NodeWAL(str(directory))
            for fact in FACTS[2:]:
                wal.record(*fact)
            wal.close()
        mixed, binary = NodeWAL(str(old)), NodeWAL(str(new))
        assert mixed.state == binary.state
        assert mixed.state.records_replayed == len(FACTS)
        assert mixed.state.incarnation == 2
        assert mixed.state.quorum[0] == FACTS[0][2]
        mixed.close()
        binary.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_a_flipped_bit_in_a_binary_body_fail_stops(self, tmp_path, seed):
        wal = WriteAheadLog(str(tmp_path))
        for fact in FACTS:
            wal.append(fact)
        wal.close()
        assert flip_record_body(str(tmp_path / "wal.log"), seed=seed)
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(str(tmp_path))

    def test_an_undecodable_body_under_a_good_checksum_fail_stops(
        self, tmp_path
    ):
        body = bytes([BINARY_MAGIC]) + b"?"  # no value has tag "?"
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(str(tmp_path / "wal.log"), "wb") as handle:
            handle.write(struct.pack(">II", len(body), zlib.crc32(body)))
            handle.write(body)
        with pytest.raises(WALCorruptionError, match="undecodable"):
            WriteAheadLog(str(tmp_path))

    def test_a_torn_binary_tail_is_truncated(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for fact in FACTS:
            wal.append(fact)
        wal.close()
        assert tear_tail(str(tmp_path / "wal.log"), cut=3)
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == FACTS
        assert reopened.torn_tail
        reopened.close()

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_the_largest_decree_a_pipeline_admits_journals(
        self, tmp_path, codec_name
    ):
        async def build():
            transport = AsyncTransport(
                "clients", AddressBook(), codec=get_codec(codec_name)
            )
            return SlotPipeline("main", 3, transport)

        pipeline = asyncio.run(build())
        # the largest op bytes a decree may carry (`_fits` is monotone)
        low, high = 0, MAX_FRAME
        assert pipeline._fits(low) and not pipeline._fits(high)
        while high - low > 1:
            mid = (low + high) // 2
            if pipeline._fits(mid):
                low = mid
            else:
                high = mid
        decree = Packed(bytes(low + _DECREE_HEAD))
        big = 1 << 62  # slots and ballots as wide as an i64 holds
        facts = [
            ("qs", big, decree),
            ("acc", big, (big, big, decree)),
            ("dec", big, decree),
        ]
        wal = WriteAheadLog(str(tmp_path))
        for fact in facts:
            wal.append(fact)
        wal.close()
        data = log_bytes(tmp_path)
        offset = 0
        while offset < len(data):
            (length,) = struct.unpack_from(">I", data, offset)
            assert length <= MAX_RECORD
            offset += 8 + length
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == facts
        reopened.close()
