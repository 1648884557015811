"""Per-layer numbers: what the traced round says, and isolated timings.

Two sources, kept apart because they answer different questions:

* :func:`traced_metrics` reads the spans of the traced round: how much
  of the loop's time each layer's own code took *in situ* (self time),
  and how many frames, appends and fsyncs one operation cost;
* :func:`isolated_metrics` times the layers' public functions alone, on
  the inputs the traced round captured: the unit cost a change to one
  layer moves, free of everything else on the loop.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.mp.sim import Process
from repro.net.client import HistoryRecorder
from repro.net.codec import BINARY_CODEC, JSON_CODEC, FrameDecoder
from repro.net.transport import AddressBook, AsyncTransport
from repro.net.wal import WriteAheadLog
from repro.smr.sessions import SessionedApplier
from repro.smr.universal import kv_store_adt

from .trace import Tracer, self_time_by

#: layers whose spans fall inside the load window; ``cluster`` spans are
#: boot and teardown and are reported as wall times instead
LOOP_LAYERS = (
    "codec", "transport", "mp", "wal", "pipeline", "sessions", "recorder",
    "monitor",
)


def _per_call_us(
    call: Callable[[Any], Any], inputs: Sequence[Any], seconds: float
) -> float:
    """Mean microseconds of ``call(x)`` over ``inputs``, whole passes
    repeated until ``seconds`` have been timed."""
    if not inputs:
        return 0.0
    elapsed, calls = 0.0, 0
    while elapsed < seconds:
        started = time.perf_counter()
        for item in inputs:
            call(item)
        elapsed += time.perf_counter() - started
        calls += len(inputs)
    return elapsed / calls * 1e6


def _sessions_apply_us(commands: Sequence[Any], seconds: float) -> float:
    """The session fold over the captured decided commands; a fresh
    applier per pass, or every later pass would time the duplicate path."""
    if not commands:
        return 0.0
    adt = kv_store_adt()
    elapsed, calls = 0.0, 0
    while elapsed < seconds:
        applier, state = SessionedApplier(adt), adt.initial_state
        started = time.perf_counter()
        for command in commands:
            state, _reply, _fresh = applier.apply(state, command)
        elapsed += time.perf_counter() - started
        calls += len(commands)
    return elapsed / calls * 1e6


def _recorder_event_us(seconds: float) -> float:
    """One recorded event (half an invoke + respond pair), no tap."""
    command, response = ("put", "key00", 1), ("value", None)
    elapsed, events = 0.0, 0
    while elapsed < seconds:
        recorder = HistoryRecorder(clock=time.perf_counter)
        started = time.perf_counter()
        for _ in range(1000):
            recorder.invoke("c0", command)
            recorder.respond("c0", command, response)
        elapsed += time.perf_counter() - started
        events += 2000
    return elapsed / events * 1e6


def _wal_us(
    records: Sequence[Any], directory: str, seconds: float
) -> Dict[str, float]:
    """Unsynced append and fsync cost on ``directory``'s device."""
    if not records:
        return {"append": 0.0, "fsync": 0.0}
    root = tempfile.mkdtemp(prefix="ledger-iso-wal-", dir=directory)
    try:
        wal = WriteAheadLog(root)
        append_s = fsync_s = 0.0
        calls = 0
        # a slow disk bounds the loop by time, a fast one by the records
        for record in records:
            started = time.perf_counter()
            wal.append(record, sync=False)
            appended = time.perf_counter()
            wal.sync()
            fsync_s += time.perf_counter() - appended
            append_s += appended - started
            calls += 1
            if append_s + fsync_s >= seconds:
                break
        wal.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"append": append_s / calls * 1e6, "fsync": fsync_s / calls * 1e6}


class _Echo(Process):
    def on_message(self, src, message) -> None:
        self.send(src, message)


class _Pinger(Process):
    def __init__(self, pid, peer, round_trips: int, done) -> None:
        super().__init__(pid)
        self.peer, self.left, self.done = peer, round_trips, done

    def on_message(self, src, message) -> None:
        self.left -= 1
        if self.left:
            self.send(self.peer, message)
        else:
            self.done.set_result(None)


async def _hop_us(round_trips: int) -> float:
    """Loopback ping-pong between two transports; one hop = encode,
    socket write, read, decode and dispatch to the addressed role."""
    book = AddressBook()
    server = AsyncTransport("node0", book, codec=BINARY_CODEC)
    client = AsyncTransport("ledger-ping", book, codec=BINARY_CODEC)
    try:
        echo_pid = ("qs", 0, 0)  # server roles resolve to node<i> statically
        server.register(_Echo(echo_pid))
        book.add("node0", *await server.start_server())
        done = asyncio.get_running_loop().create_future()
        pinger = client.register(
            _Pinger(("ping", 0), echo_pid, round_trips, done)
        )
        message = ("q-accept", ("batch", (("put", "key00", 1),)))
        started = time.perf_counter()
        pinger.send(echo_pid, message)
        await asyncio.wait_for(done, 30.0)
        return (time.perf_counter() - started) / (2 * round_trips) * 1e6
    finally:
        await client.close()
        await server.close()


def isolated_metrics(
    tracer: Tracer, tmpfs_dir: str, disk_dir: str, seconds: float
) -> Dict[str, float]:
    """Unit costs of the layers' public functions on captured inputs."""
    frames: List[Any] = tracer.captured["frames"]
    encoded = [BINARY_CODEC.encode_frame(frame) for frame in frames]
    wal_records = tracer.captured["wal_records"]
    tmpfs = _wal_us(wal_records, tmpfs_dir, seconds)
    disk = _wal_us(wal_records, disk_dir, seconds)
    return {
        "codec.encode_us": _per_call_us(
            BINARY_CODEC.encode_frame, frames, seconds
        ),
        "codec.decode_us": _per_call_us(
            lambda data: list(FrameDecoder().feed(data)), encoded, seconds
        ),
        "codec.json_encode_us": _per_call_us(
            JSON_CODEC.encode_frame, wal_records, seconds
        ),
        "transport.hop_us": asyncio.run(
            _hop_us(max(100, int(10_000 * seconds)))
        ),
        "wal.append_us": tmpfs["append"],
        "wal.fsync_tmpfs_us": tmpfs["fsync"],
        "wal.fsync_disk_us": disk["fsync"],
        "sessions.apply_us": _sessions_apply_us(
            tracer.captured["commands"], seconds
        ),
        "recorder.event_us": _recorder_event_us(seconds),
    }


def traced_metrics(
    tracer: Tracer, committed: int, traced_ops_per_s: float,
    untraced_ops_per_s: float,
) -> Dict[str, float]:
    """What the spans of the traced round say, per layer."""
    spans = tracer.spans
    submits = [op for op in tracer.ops if op["name"] == "PipelineClient.submit"]
    # shares are of the load window: first submit to last reply
    window = max(op["end"] for op in submits) - min(
        op["start"] for op in submits
    )
    own = self_time_by(spans, 0)
    by_name = self_time_by(spans, 1)
    counts = tracer.counts()
    wall = {
        op["name"]: op["end"] - op["start"]
        for op in tracer.ops
        if op["name"].startswith("ShardedCluster.")
    }
    feeds = [
        end - start
        for _layer, name, start, end, *_ in spans
        if name == "StreamingMonitor.feed"
    ]

    def share(*names: str) -> float:
        return sum(by_name.get(name, 0.0) for name in names) / window

    return {
        "codec.frames_per_op": tracer.yields["FrameDecoder.feed"] / committed,
        "codec.bytes_per_op": tracer.bytes["FrameDecoder.feed"] / committed,
        "codec.encodes_per_op": (
            counts["BinaryCodec.encode_frame"]
            + counts["JsonCodec.encode_frame"]
        ) / committed,
        "codec.self_share": own.get("codec", 0.0) / window,
        "transport.send_self_share": share("AsyncTransport.send"),
        "mp.handler_self_share": own.get("mp", 0.0) / window,
        "wal.fsyncs_per_op": counts["FaultFS.fsync"] / committed,
        "wal.appends_per_op": counts["WriteAheadLog.append"] / committed,
        "wal.bytes_per_op": tracer.bytes["FaultFS.append"] / committed,
        "wal.self_share": own.get("wal", 0.0) / window,
        "pipeline.submit_self_share": share(
            "SlotPipeline.enqueue", "PipelineClient.submit"
        ),
        "pipeline.pump_self_share": share(
            "SlotPipeline._pump", "SlotPipeline._apply_ready"
        ),
        "sessions.duplicates_per_op": tracer.duplicates / committed,
        "sessions.self_share": own.get("sessions", 0.0) / window,
        "recorder.self_share": own.get("recorder", 0.0) / window,
        "monitor.self_share": own.get("monitor", 0.0) / window,
        "monitor.max_feed_ms": max(feeds, default=0.0) * 1e3,
        "cluster.start_s": wall.get("ShardedCluster.start", 0.0),
        "cluster.stop_s": wall.get("ShardedCluster.stop", 0.0),
        "trace.overhead": untraced_ops_per_s / traced_ops_per_s,
        "trace.accounted_share": sum(
            own.get(layer, 0.0) for layer in LOOP_LAYERS
        ) / window,
        "trace.spans": len(spans),
        "trace.missing_hooks": len(tracer.missing_hooks),
    }
