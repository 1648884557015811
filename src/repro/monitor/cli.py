"""Entry points behind ``python -m repro monitor``.

Two modes, both built on the same :class:`StreamingMonitor`:

* **replay** — stream a recorded history artifact (the JSON files
  ``loadgen``/``nemesis`` write) through the monitor event by event,
  exactly as if the run were live.  Sharded artifacts get one monitor
  per shard with the composed verdict, mirroring the pipelined data
  plane.  Exit code 0 = ok, 1 = violation, 2 = unknown.
* **watch** — actively probe a *separately served* cluster (see
  ``python -m repro serve``) on a reserved canary key with a recording
  :func:`~repro.net.pipeline.probing_client` whose history is tapped
  straight into the monitor.  An external watcher can only check what it
  observes, so this is canary monitoring: alternating writes and reads
  whose responses must linearize — exactly the probe discipline the
  chaos campaigns' late readers use to detect forked histories (an
  amnesiac replica that forgot a committed prefix fails the canary's
  next read).  ``--ops N`` sets how many probes it issues.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, List, Optional, Tuple

from ..core.adt import counter_adt
from ..net.client import HistoryRecorder, OperationTimeout
from ..net.loadgen import budgeted_tap
from ..net.pipeline import PipelineClient, probing_client
from ..net.transport import AddressBook, AsyncTransport
from ..smr.universal import kv_store_adt
from .streaming import MonitorReport, compose_verdicts, decide
from .tap import MonitorTap

#: the reserved canary key probes live on, outside the loadgen keyspace
CANARY_KEY = "__monitor__"

#: the objects a run artifact can say it recorded, by ``ADT.name``
REPLAY_ADTS = {"kv_store": kv_store_adt, "counter": counter_adt}


class History(list):
    """One event list per shard, plus the name of the object they are a
    history of: the KV store, unless the artifact says otherwise."""

    def __init__(self, shards=(), adt: str = "kv_store") -> None:
        super().__init__(shards)
        self.adt = adt


def _detuple(value: Any) -> Any:
    """Undo JSON's list-ification of recorded tuples, recursively."""
    if isinstance(value, list):
        return tuple(_detuple(item) for item in value)
    return value


def _event_from_jsonable(entry: dict) -> Tuple:
    return (
        entry["kind"],
        entry["client"],
        _detuple(entry["command"]),
        _detuple(entry["response"]),
        entry.get("at", 0.0),
    )


def load_history(path: str) -> History:
    """Read a history artifact; returns one event list per shard.

    Accepts the ``loadgen`` artifact shape (``{"history": ...}`` with a
    flat event list or a per-shard list of lists), the ``nemesis`` net
    artifact (``{"events": ...}``), or a bare JSON list of events.  An
    artifact's ``"adt"`` names the replicated object; a name that is not
    in :data:`REPLAY_ADTS` is a ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        payload = {"history": payload}
    history = payload.get("history", payload.get("events"))
    adt = payload.get("adt", "kv_store")
    if history is None:
        raise ValueError(f"{path}: no 'history' or 'events' field")
    if adt not in REPLAY_ADTS:
        raise ValueError(
            f"{path}: unknown adt {adt!r} (known: {sorted(REPLAY_ADTS)})"
        )
    if history and isinstance(history[0], list):
        shards = history
    else:
        shards = [history]
    return History(
        ([_event_from_jsonable(entry) for entry in shard] for shard in shards),
        adt,
    )


def replay_history(
    shards: List[List[Tuple]],
) -> Tuple[str, Optional[str], List[MonitorReport]]:
    """Decide each shard's events with its own monitor; compose.

    The object is the one a :class:`History` names; plain lists of
    events are histories of the KV store.  The history is finished, so
    it is its own certificate (:func:`~repro.monitor.streaming.decide`);
    where response order misses, the report says so and the search is
    told each recorded response (ten puts pending on one key: 12.7 s
    untold, 0.2 ms told).  No search budget applies.
    """
    adt = REPLAY_ADTS[getattr(shards, "adt", "kv_store")]
    reports = [decide(events, adt()).report() for events in shards]
    verdict, reason = compose_verdicts(reports)
    return verdict, reason, reports


def exit_code(verdict: str) -> int:
    return {"ok": 0, "violation": 1}.get(verdict, 2)


def make_probe(
    transport: AsyncTransport, replicas: int
) -> Tuple[PipelineClient, MonitorTap]:
    """A recording canary client whose history streams into a live
    monitor: certified while the canary is the cluster's only client (a
    decided command nobody recorded invoking is a miss), budgeted after."""
    recorder = HistoryRecorder(clock=lambda: transport.now)
    tap = budgeted_tap(kv_store_adt(), recorder)
    client = probing_client("monitor-probe", replicas, transport, recorder)
    return client, tap


async def probe_loop(
    client: PipelineClient, tap: MonitorTap, ops: int, interval: float
) -> MonitorReport:
    """Alternate ``ops`` canary writes and reads until done, violated
    or lost."""
    issued = 0
    counter = 0
    while issued < ops:
        if tap.violated:
            break
        command: Tuple
        if issued % 2 == 0:
            counter += 1
            command = ("put", CANARY_KEY, counter)
        else:
            command = ("get", CANARY_KEY)
        try:
            await client.submit(command)
        except OperationTimeout:
            print(
                f"  monitor probe timed out on {command!r}; "
                f"stopping (op left pending)"
            )
            break
        issued += 1
        if interval:
            await asyncio.sleep(interval)
    return await tap.close()


async def watch_cluster(
    host: str,
    port_base: int,
    replicas: int,
    ops: int = 40,
    interval: float = 0.05,
) -> MonitorReport:
    """Probe a separately-served cluster; return the monitor's report."""
    book = AddressBook()
    for index in range(replicas):
        book.add(f"node{index}", host, port_base + index)
    transport = AsyncTransport("monitor-watch", book)
    client, tap = make_probe(transport, replicas)
    try:
        report = await probe_loop(client, tap, ops, interval)
    finally:
        await transport.close()
    return report
