"""The outside tracer: spans around the layers' own functions.

No file under ``src/`` knows it is measured.  :data:`HOOKS` names the
functions at each layer boundary; :class:`Tracer` swaps a timing wrapper
in at class level for one traced round and restores the originals
afterwards.  Replicas, clients and the load generator share one
single-threaded asyncio loop, so synchronous spans nest on one stack.

A span is ``(layer, name, start, end, parent, slot, op)``: ``parent`` is
the index of the enclosing span (-1 at top level), ``slot`` the SMR slot
of the role that ran it (None where there is none) and ``op`` the index
of the client operation it belongs to (-1 where unknown).  A coroutine
contributes one span per *step* (the synchronous stretch between two
awaits) plus one entry in :attr:`Tracer.ops` for its whole lifetime; a
generator contributes one span per item it produces.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import types
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``"module:Class.method" -> layer``.  A target that no longer exists is
#: reported in :attr:`Tracer.missing_hooks`, never raised: a refactor of
#: ``net/`` may cost the ledger a row, not its end-to-end numbers.
HOOKS: Dict[str, str] = {
    "repro.net.codec:BinaryCodec.encode_frame": "codec",
    "repro.net.codec:JsonCodec.encode_frame": "codec",
    "repro.net.codec:FrameDecoder.feed": "codec",
    "repro.net.transport:AsyncTransport.send": "transport",
    "repro.mp.quorum:QuorumServer.on_message": "mp",
    "repro.mp.quorum:QuorumClient.on_message": "mp",
    "repro.mp.quorum:QuorumClient.propose": "mp",
    "repro.mp.paxos:PaxosAcceptor.on_message": "mp",
    "repro.mp.paxos:PaxosCoordinator.on_message": "mp",
    "repro.mp.backup:BackupClient.switch_to_backup": "mp",
    "repro.net.wal:NodeWAL.record_durable": "wal",
    "repro.net.wal:WriteAheadLog.append": "wal",
    "repro.net.wal:WriteAheadLog.sync": "wal",
    "repro.net.faultfs:FaultFS.append": "wal",
    "repro.net.faultfs:FaultFS.fsync": "wal",
    "repro.net.pipeline:PipelineClient.submit": "pipeline",
    "repro.net.pipeline:SlotPipeline.enqueue": "pipeline",
    # the decide callback runs inside QuorumClient.on_message; without
    # these two the batching and apply work would be billed to ``mp``
    "repro.net.pipeline:SlotPipeline._pump": "pipeline",
    "repro.net.pipeline:SlotPipeline._apply_ready": "pipeline",
    "repro.smr.sessions:SessionedApplier.apply": "sessions",
    "repro.net.client:HistoryRecorder.invoke": "recorder",
    "repro.net.client:HistoryRecorder.respond": "recorder",
    "repro.monitor.streaming:StreamingMonitor.feed": "monitor",
    "repro.net.cluster:ShardedCluster.start": "cluster",
    "repro.net.cluster:ShardedCluster.stop": "cluster",
}

#: hooks that keep their first :data:`CAPTURE_LIMIT` arguments as the
#: inputs of the isolated timings: ``target -> (bucket, argument index)``
CAPTURES: Dict[str, Tuple[str, int]] = {
    "repro.net.codec:BinaryCodec.encode_frame": ("frames", 1),
    "repro.net.wal:WriteAheadLog.append": ("wal_records", 1),
    "repro.smr.sessions:SessionedApplier.apply": ("commands", 2),
}
CAPTURE_LIMIT = 2000

#: hooks whose argument's ``len()`` is summed as bytes: ``target -> index``
SIZES: Dict[str, int] = {
    "repro.net.codec:FrameDecoder.feed": 1,
    "repro.net.faultfs:FaultFS.append": 2,
}

#: the applier answers ``(state, reply, fresh)``; not fresh = a duplicate
_APPLY = "repro.smr.sessions:SessionedApplier.apply"

Span = Tuple[str, str, float, float, int, Optional[int], int]


def _slot_of(owner: Any) -> Optional[int]:
    """The SMR slot in a role's pid: ``("qs", slot, i)`` on a server,
    ``("qcli", (pipeline, slot))`` on a client."""
    pid = getattr(owner, "pid", None)
    if isinstance(pid, tuple) and len(pid) >= 2:
        where = pid[1]
        if isinstance(where, tuple) and where:
            where = where[-1]
        if isinstance(where, int):
            return where
    return None


def self_times(spans: Iterable[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    Children of a synchronous span run inside it one after another, so
    the covered time is the plain sum of their durations.
    """
    spans = list(spans)
    own = [end - start for _layer, _name, start, end, *_ in spans]
    for _layer, _name, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by(spans: Iterable[Span], field: int) -> Dict[str, float]:
    """Total self time grouped by a span field: 0 = layer, 1 = name."""
    spans = list(spans)
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[field]] = totals.get(span[field], 0.0) + own
    return totals


class Tracer:
    """Installs :data:`HOOKS` for a ``with`` block and collects spans."""

    def __init__(self, hooks: Optional[Dict[str, str]] = None) -> None:
        self.hooks = dict(HOOKS if hooks is None else hooks)
        self.spans: List[Span] = []
        #: one entry per traced coroutine call:
        #: ``{"name", "start", "end", ...what the owner identifies it by}``
        self.ops: List[Dict[str, Any]] = []
        self.captured: Dict[str, List[Any]] = {
            bucket: [] for bucket, _index in CAPTURES.values()
        }
        self.bytes: Counter = Counter()
        #: items produced by traced generators, by span name
        self.yields: Counter = Counter()
        self.duplicates = 0
        self.missing_hooks: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, bool, Any]] = []

    # -- installing and restoring --------------------------------------

    def __enter__(self) -> "Tracer":
        for target, layer in self.hooks.items():
            module_name, _, path = target.partition(":")
            class_name, _, attr = path.partition(".")
            try:
                owner = getattr(
                    importlib.import_module(module_name), class_name
                )
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing_hooks.append(target)
                continue
            self._installed.append(
                (owner, attr, attr in vars(owner), vars(owner).get(attr))
            )
            setattr(owner, attr, self._wrap(target, layer, path, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, own, original in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # -- spans ----------------------------------------------------------

    def _begin(self) -> Tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(index)
        return index, time.perf_counter()

    def _end(
        self, index: int, start: float, layer: str, name: str,
        slot: Optional[int], op: int,
    ) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (layer, name, start, end, parent, slot, op)

    def _wrap(
        self, target: str, layer: str, name: str, original: Callable
    ) -> Callable:
        bucket_name, capture_index = CAPTURES.get(target, (None, 0))
        bucket = self.captured.get(bucket_name)
        size_index = SIZES.get(target)

        note = None
        if bucket is not None or size_index is not None:
            def note(args: Tuple) -> None:
                if bucket is not None and len(bucket) < CAPTURE_LIMIT:
                    bucket.append(args[capture_index])
                if size_index is not None:
                    self.bytes[name] += len(args[size_index])

        if inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                return await _steps(
                    self, layer, name, args[0], original(*args, **kwargs)
                )
        elif inspect.isgeneratorfunction(original):
            def traced(*args, **kwargs):
                if note is not None:
                    note(args)
                slot = _slot_of(args[0])
                items = original(*args, **kwargs)
                while True:
                    index, start = self._begin()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._end(index, start, layer, name, slot, -1)
                    self.yields[name] += 1
                    yield item
        else:
            def traced(*args, **kwargs):
                if note is not None:
                    note(args)
                index, start = self._begin()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._end(
                        index, start, layer, name, _slot_of(args[0]), -1
                    )
                if target == _APPLY and not result[2]:
                    self.duplicates += 1
                return result

        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = original.__doc__
        return traced

    # -- results --------------------------------------------------------

    def counts(self) -> Counter:
        """Spans per name."""
        return Counter(span[1] for span in self.spans)

    def write(self, path: str, **header: Any) -> None:
        """Write every span and op of the traced round as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": [
                        "layer", "name", "start", "end", "parent", "slot",
                        "op",
                    ],
                    "missing_hooks": self.missing_hooks,
                    "ops": self.ops,
                    "spans": self.spans,
                },
                handle,
            )


@types.coroutine
def _steps(tracer: Tracer, layer: str, name: str, owner: Any, coro):
    """Drive ``coro`` one step at a time, each step a synchronous span,
    and record the call's whole lifetime as an op."""
    op = len(tracer.ops)
    record: Dict[str, Any] = {
        "name": name, "start": time.perf_counter(), "end": None,
    }
    tracer.ops.append(record)
    value, error, returned = None, None, False
    try:
        while True:
            index, start = tracer._begin()
            try:
                if error is not None:
                    waiting_on = coro.throw(error)
                else:
                    waiting_on = coro.send(value)
            except StopIteration as stop:
                returned = True
                return stop.value
            finally:
                tracer._end(index, start, layer, name, None, op)
            try:
                value, error = (yield waiting_on), None
            except BaseException as raised:
                value, error = None, raised
    finally:
        record["end"] = time.perf_counter()
        # what a PipelineClient knows about the op it just finished: its
        # wire identity and the slot its decree decided in
        results = getattr(owner, "results", None)
        if returned and results:
            last = results[-1]
            record.update(
                client=getattr(owner, "name", None),
                seq=getattr(owner, "_seq", None),
                shard=getattr(getattr(owner, "pipeline", None), "name", None),
                slot=last.slot,
                path=last.path,
            )
