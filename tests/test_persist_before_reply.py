"""A node's WAL writes, judged by what a power cut leaves.

Every frame a replica's roles send is captured together with the WAL
image a power cut at that instant would leave: the snapshot and the
log's honestly fsync'd prefix (``FaultyFS`` tracks it).  Opening that
image must recover a fold that implies the frame — persist-before-reply
as an observable property, not as a reading of the code.

* Two same-tick shapes: a second proposal answered from the first's
  acceptance, and a late learner's replay of an acceptance.
* The failure rule on each writer: a failed write closes the WAL, no
  reply leaves, and nothing reaches the loop's exception handler.
* Every crash point of one small run: an open, Quorum and Backup
  frames, a decision and a compaction, cut after each filesystem
  operation (power cut, unsynced bytes lost, and a rename not yet
  synced into its directory both kept and lost) and at each append (a
  torn write).  That pins compaction's order: the snapshot's tmp file
  fsync'd, renamed, its directory fsync'd, and only then the log
  truncated.
"""

import asyncio
import errno
import os
import shutil

import pytest

from repro.net.faultfs import (
    FaultFS,
    FaultyFS,
    TornWriteCrash,
    flip_record_body,
)
from repro.net.node import ReplicaNode
from repro.net.transport import AddressBook
from repro.net.wal import NodeWAL, RecoveredState, WALCorruptionError

INDEX = 1  # a replica that does not pre-prepare: no frame of its own
LEARNER = ("bcli", "x")


class Rig:
    """One unstarted replica with a WAL on ``fs``; its sends are
    captured with the power-cut image of the moment they left."""

    def __init__(self, directory, fs, compact_threshold=1024):
        self.directory = directory
        self.fs = fs
        self.wal = NodeWAL(
            directory, fs=fs, compact_threshold=compact_threshold
        )
        self.node = ReplicaNode(INDEX, 3, AddressBook(), wal=self.wal)
        self.node.transport.send = self._capture
        #: (src, dst, message, image) of every frame that left
        self.sent = []
        self.dead = False

    def _capture(self, src, dst, message):
        if not self.dead:  # a dead process sends nothing
            self.sent.append((src, dst, message, self.image()))

    def image(self):
        """What a power cut now leaves: the snapshot, the synced log."""
        log = os.path.join(self.directory, "wal.log")
        snapshot = os.path.join(self.directory, "snapshot.json")
        with open(log, "rb") as handle:
            durable = handle.read()[: self.fs._durable.get(log, 0)]
        if not os.path.exists(snapshot):
            return durable, None
        with open(snapshot, "rb") as handle:
            return durable, handle.read()

    def deliver(self, src, kind, slot, message):
        self.node._role(kind, slot).on_message(src, message)


def recover(image, directory):
    """Open ``image`` written to ``directory``; return the fold."""
    log, snapshot = image
    os.makedirs(directory)
    with open(os.path.join(directory, "wal.log"), "wb") as handle:
        handle.write(log)
    if snapshot is not None:
        with open(os.path.join(directory, "snapshot.json"), "wb") as h:
            h.write(snapshot)
    wal = NodeWAL(directory)
    wal.close()
    return wal.state


def implied(fold, src, message):
    """Whether ``fold`` holds the state the frame ``message`` promises."""
    kind, slot, _ = src
    if kind == "qs":
        return fold.quorum.get(slot) == message[1]
    if kind != "acc":
        return True  # a coordinator promises nothing durable
    promised, ballot, value = fold.acceptors.get(slot, (-1, -1, None))
    if message[0] == "promise":
        return promised >= message[1]
    if message[0] == "accepted":
        return ballot > message[1] or (ballot, value) == message[1:]
    return promised >= message[2]  # a nack names the promise it keeps


def assert_every_reply_left_from_disk(rig, scratch):
    assert rig.sent
    for n, (src, _dst, message, image) in enumerate(rig.sent):
        fold = recover(image, os.path.join(scratch, f"cut{n}"))
        assert implied(fold, src, message), (src, message)


# ----------------------------------------------------------------------
# the two same-tick shapes
# ----------------------------------------------------------------------


class TestSameTick:
    def test_a_second_proposal_is_answered_from_disk(self, tmp_path):
        async def tick():
            rig = Rig(str(tmp_path / "node"), FaultyFS(seed=0))
            rig.deliver(("qcli", "A"), "qs", 0, ("q-propose", "vA"))
            rig.deliver(("qcli", "B"), "qs", 0, ("q-propose", "vB"))
            await asyncio.sleep(0)
            return rig

        rig = asyncio.run(tick())
        assert [m for _, _, m, _ in rig.sent] == [("q-accept", "vA")] * 2
        assert_every_reply_left_from_disk(rig, str(tmp_path))

    def test_a_late_learner_hears_only_a_durable_acceptance(self, tmp_path):
        async def tick():
            rig = Rig(str(tmp_path / "node"), FaultyFS(seed=0))
            rig.deliver(("coord", 0, 0), "acc", 0, ("accept", 0, "w"))
            rig.node.register_learner(0, LEARNER)
            await asyncio.sleep(0)
            return rig

        rig = asyncio.run(tick())
        assert (LEARNER, ("accepted", 0, "w")) in [
            (dst, m) for _, dst, m, _ in rig.sent
        ]
        assert_every_reply_left_from_disk(rig, str(tmp_path))

    def test_a_learner_hears_nothing_while_the_disk_is_full(self, tmp_path):
        fs = FaultyFS(seed=0)

        async def tick():
            rig = Rig(str(tmp_path / "node"), fs)
            fs.fail_appends(1)  # the acceptance parks on a full disk
            rig.deliver(("coord", 0, 0), "acc", 0, ("accept", 0, "w"))
            rig.node.register_learner(0, LEARNER)
            await asyncio.sleep(0)
            return rig

        assert asyncio.run(tick()).sent == []


# ----------------------------------------------------------------------
# the failure rule, on each writer
# ----------------------------------------------------------------------


def eio(*args, **kwargs):
    raise OSError(errno.EIO, "injected I/O error")


def run_failing(directory, fs, scenario, **options):
    """Build a rig on ``fs`` in a running loop, run ``scenario(rig)`` and
    a tick after it; return the rig and what reached the loop's
    exception handler."""
    seen = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: seen.append(context)
        )
        rig = Rig(directory, fs, **options)
        await scenario(rig)
        await asyncio.sleep(0)
        return rig

    return asyncio.run(main()), seen


class TestEveryFailedWriteStopsTheNode:
    @pytest.mark.parametrize("op", ["fsync", "append"])
    def test_a_durable_role(self, tmp_path, op):
        fs = FaultyFS(seed=0)

        async def scenario(rig):
            setattr(fs, op, eio)
            rig.deliver(("qcli", "A"), "qs", 0, ("q-propose", "vA"))

        rig, seen = run_failing(str(tmp_path), fs, scenario)
        assert seen == [] and rig.wal.closed and rig.sent == []

    def test_the_enospc_retry_tick(self, tmp_path):
        fs = FaultyFS(seed=0)

        async def scenario(rig):
            fs.fail_appends(1)
            rig.deliver(("qcli", "A"), "qs", 0, ("q-propose", "vA"))
            assert not rig.wal.closed  # parked on the full disk
            fs.fsync = eio  # and the retry's fsync fails
            await asyncio.sleep(0.3)  # past the first retry (~0.05 s)

        rig, seen = run_failing(str(tmp_path), fs, scenario)
        assert fs.stats["enospc"] == 1
        assert seen == [] and rig.wal.closed and rig.sent == []

    def test_the_coordinators_decided_log(self, tmp_path):
        fs = FaultyFS(seed=0)

        async def scenario(rig):
            fs.fsync = eio
            for j in (0, 2):  # a majority accepted: the slot decides
                rig.deliver(("acc", 3, j), "coord", 3, ("accepted", 0, "w"))
            assert rig.wal.closed
            # a fail-stopped node's coordinator answers no one
            rig.deliver(("pcli", "A"), "coord", 3, ("request", "z"))

        rig, seen = run_failing(str(tmp_path), fs, scenario)
        assert seen == [] and rig.sent == []

    def test_a_fail_stop_silences_the_coordinators_timers(self, tmp_path):
        fs = FaultyFS(seed=0)

        async def scenario(rig):
            # phase 1 starts, and a retry timer with it
            rig.deliver(("pcli", "A"), "coord", 4, ("request", "z"))
            fs.fsync = eio  # a Quorum write fail-stops the node
            rig.deliver(("qcli", "A"), "qs", 0, ("q-propose", "vA"))
            sent = len(rig.sent)
            await asyncio.sleep(0.7)  # past the 0.5 s coordinator retry
            assert rig.wal.closed and len(rig.sent) == sent

        _, seen = run_failing(str(tmp_path), fs, scenario)
        assert seen == []

    def test_compaction(self, tmp_path):
        fs = FaultyFS(seed=0)

        async def scenario(rig):
            fs.write_text = eio
            rig.deliver(("qcli", "A"), "qs", 0, ("q-propose", "vA"))

        # the marker is record 1; the sticky acceptance compacts
        rig, seen = run_failing(
            str(tmp_path), fs, scenario, compact_threshold=2
        )
        assert seen == [] and rig.wal.closed and rig.sent == []


# ----------------------------------------------------------------------
# every crash point of one small run
# ----------------------------------------------------------------------


class Crash(Exception):
    """The process died after a filesystem operation (not an OSError,
    so that nothing in the WAL can mistake it for a failed write)."""


class CrashFS(FaultyFS):
    """Counts filesystem operations; dies after operation ``crash_after``
    or tears append number ``tear_at`` (both 1-based)."""

    def __init__(self, crash_after=None, tear_at=None):
        super().__init__(seed=7)
        self.crash_after = crash_after
        self.tear_at = tear_at
        self.ops = self.appends = 0


def _counted(name):
    def op(self, *args, **kwargs):
        if self.ops == self.crash_after:
            raise Crash(name)  # dead: nothing touches the disk again
        if name == "append":
            self.appends += 1
            if self.appends == self.tear_at:
                self.tear_next_append()
        result = getattr(FaultyFS, name)(self, *args, **kwargs)
        self.ops += 1
        if self.ops == self.crash_after:
            raise Crash(name)
        return result

    return op


for _name in (
    "makedirs", "read_bytes", "read_text", "write_text", "replace",
    "remove", "fsync_dir", "open_append", "append", "fsync", "truncate",
):
    setattr(CrashFS, _name, _counted(_name))

#: the run, tick by tick: (src, role kind, slot, message) frames, and
#: ``("learn", slot)`` for a learner registering on the control role
SCRIPT = (
    # two proposals in one tick, then a second slot
    ((("qcli", "A"), "qs", 0, ("q-propose", "vA")),
     (("qcli", "B"), "qs", 0, ("q-propose", "vB"))),
    ((("qcli", "A"), "qs", 1, ("q-propose", "vC")),),
    # Backup on slot 2: a promise, then an acceptance and a late
    # learner in one tick, then the decision (which compacts)
    ((("coord", 2, 0), "acc", 2, ("prepare", 3)),),
    ((("coord", 2, 0), "acc", 2, ("accept", 3, "w")), ("learn", 2)),
    ((("acc", 2, 0), "coord", 2, ("accepted", 3, "w")),
     (("acc", 2, 2), "coord", 2, ("accepted", 3, "w"))),
    # after the compaction: a stale prepare is nacked, a slot moves on
    ((("coord", 2, 2), "acc", 2, ("prepare", 2)),
     (("qcli", "D"), "qs", 3, ("q-propose", "vD"))),
)
#: the base open's three records, this open's marker, five facts
COMPACT_THRESHOLD = 9


def base(directory):
    """A served incarnation 0 with an acceptor triple and a sticky
    acceptance on disk."""
    wal = NodeWAL(directory, fs=FaultFS())
    wal.record_acceptor(2, (1, -1, None))
    wal.record("qs", 5, "old")
    wal.close()
    return wal.state.incarnation, wal.state


def drive(directory, fs):
    """Run :data:`SCRIPT` until it ends or the disk kills it.  Returns
    the rig (None if the open died), the records whose write returned,
    and the record in flight when it died (None between records)."""
    state = {"rig": None, "returned": [], "in_flight": None}

    async def run():
        rig = state["rig"] = Rig(directory, fs, COMPACT_THRESHOLD)
        real = rig.wal.record

        def record(*fact):
            state["in_flight"] = fact
            real(*fact)
            state["returned"].append(fact)
            state["in_flight"] = None

        rig.wal.record = record
        for frames in SCRIPT:
            for frame in frames:
                if frame[0] == "learn":
                    rig.node.register_learner(frame[1], LEARNER)
                else:
                    rig.deliver(*frame)
            await asyncio.sleep(0)  # the replies' tick

    async def guarded():
        try:
            await run()
        except (Crash, TornWriteCrash):
            if state["rig"] is not None:
                state["rig"].dead = True

    asyncio.run(guarded())
    return state


def fold(state):
    return (dict(state.acceptors), dict(state.quorum), dict(state.decided))


def folded(base_state, records):
    state = RecoveredState(
        acceptors=dict(base_state.acceptors),
        quorum=dict(base_state.quorum),
        decided=dict(base_state.decided),
    )
    for record in records:
        NodeWAL._apply(state, record)
    return fold(state)


def behind(newer, older):
    """Whether any acceptor triple of ``newer`` is behind ``older``'s,
    or a sticky acceptance or decision changed or vanished."""
    for slot, (promised, ballot, _) in older[0].items():
        p, b, _ = newer[0].get(slot, (-1, -1, None))
        if (p, b) < (promised, ballot):
            return True
    return any(
        newer[i].get(slot) != value
        for i in (1, 2)
        for slot, value in older[i].items()
    )


def check_crash_point(
    root, fs, torn, lose_renames, base_incarnation, base_state
):
    """Crash ``fs``'s run and reopen; return the recovered fold and how
    many renames the power cut lost."""
    directory = os.path.join(root, "node")
    run = drive(directory, fs)
    rig = run["rig"]
    if rig is not None:
        rig.wal.close()
    lost = 0
    if not torn:  # a power cut; a torn write kills only the process
        if lose_renames:
            lost = fs.drop_unsynced_renames()
        for name in ("wal.log", "snapshot.json"):
            fs.drop_unsynced(os.path.join(directory, name))
    reopened = NodeWAL(directory)
    reopened.close()
    got = reopened.state
    # every reply that left is implied by the recovered fold
    for src, _dst, message, _image in rig.sent if rig is not None else ():
        assert implied(got, src, message), (src, message)
    # the fold lost at most the record in flight, and only a torn
    # write reads as a torn tail
    durable = folded(base_state, run["returned"])
    in_flight = [run["in_flight"]] if run["in_flight"] else []
    assert fold(got) in (
        durable, folded(base_state, run["returned"] + in_flight)
    )
    assert got.torn_tail == (torn and fs.stats["torn"] == 1)
    if got.torn_tail:
        assert fold(got) == durable
    # the incarnation strictly increases past every served one
    if rig is not None:
        base_incarnation = rig.wal.state.incarnation
    assert got.incarnation > base_incarnation
    # a flipped bit in a complete record fail-stops the next open
    corrupt = os.path.join(root, "corrupt")
    shutil.copytree(directory, corrupt)
    assert flip_record_body(os.path.join(corrupt, "wal.log"), seed=3)
    with pytest.raises(WALCorruptionError):
        NodeWAL(corrupt)
    return fold(got), lost


class TestEveryCrashPoint:
    def test_power_cut_and_torn_write_after_every_operation(self, tmp_path):
        # the run without a crash: how many operations, appends, and
        # that it compacts once and replies at every step
        probe = CrashFS()
        directory = str(tmp_path / "probe" / "node")
        base_incarnation, base_state = base(directory)
        run = drive(directory, probe)
        # it compacted
        assert os.path.exists(os.path.join(directory, "snapshot.json"))
        # four q-accepts, a promise, the vote to the coordinator that
        # asked for it and its replay to the late learner, a nack
        assert len(run["rig"].sent) == 8
        assert_every_reply_left_from_disk(run["rig"], str(tmp_path / "p"))
        # a power cut may or may not keep a rename its directory's
        # fsync has not made durable: every cut point runs both ways
        points = [
            ("cut", k, lose)
            for k in range(1, probe.ops + 1)
            for lose in (False, True)
        ]
        points += [("tear", j, False) for j in range(1, probe.appends + 1)]
        history = {}
        lost = 0
        for model, k, lose in points:
            root = str(tmp_path / f"{model}{k}{'-renamed' * (not lose)}")
            base(os.path.join(root, "node"))
            fs = CrashFS(**{"crash_after" if model == "cut" else "tear_at": k})
            got, renames = check_crash_point(
                root, fs, model == "tear", lose, base_incarnation, base_state
            )
            lost += renames
            # no acceptor triple goes back as the crash comes later
            way = (model, lose)
            assert not behind(got, history.get(way, fold(base_state))), (
                model, k, lose,
            )
            history[way] = got
        # the cut between the snapshot's rename and its directory's
        # fsync lost it: the model reached compaction's window
        assert lost == 1
