"""The certificate is one loop over a batch of events.

:meth:`StreamingMonitor._fold` is the whole certificate: ``decide``
hands it a finished history (a response linearizes its operation), the
tap hands it each drain batch (a ``lin`` event does).  Pinned here:

* **today's reports** — ``tests/golden/certificate_reports.json`` was
  captured before the loop replaced the per-event methods: for a seeded
  corpus of KV histories, what ``decide`` reported (as actions and as
  recorder events) and what a live monitor reported on a bent
  certificate fed one event at a time, field for field, miss reasons
  included.  A change that legitimately moves a report regenerates it
  and says why::

      PYTHONPATH=src python tests/test_certificate.py

* **the batch boundary** — any chunking of a stream, up to
  :data:`~repro.monitor.tap.DRAIN_BATCH`, reports what one event at a
  time does, a miss in the middle of a chunk included;
* **no memo** — the fold steps each component's plain transition:
  ``ADT.step`` is the search's and stays uncalled until a miss.
"""

import json
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    bent_streams,
    histories,
    honest_stream,
    lin_streams,
    naive_witness,
    operations,
    recorded,
)
from repro.core.actions import Invocation, Response
from repro.core.traces import Trace
from repro.monitor.cli import History, replay_history
from repro.monitor.streaming import StreamingMonitor, decide
from repro.monitor.tap import DRAIN_BATCH
from repro.net.loadgen import run_loadgen
from repro.smr import universal
from repro.smr.universal import kv_store_adt

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "certificate_reports.json"
)
CORPUS = 300
KV = kv_store_adt()
KV_INPUTS = [
    ("put", "a", 1),
    ("put", "a", 2),
    ("get", "a"),
    ("delete", "a"),
    ("put", "b", 1),
    ("get", "b"),
]
VALUES = [("value", v) for v in (None, 1, 2)]


def seeded_history(rng, max_ops=5, clients=3):
    """``oracle.histories`` drawn from ``rng``: each operation takes
    effect on a hidden store between its invocation and its response,
    answered with what the store said or, now and then, a wrong value;
    some stay pending, and now and then an event is ill-formed."""
    names = [f"c{i}" for i in range(clients)]
    state, opened, actions, n_ops = KV.initial_state, {}, [], 0
    for _ in range(rng.randint(0, 3 * max_ops)):
        client = rng.choice(names)
        if rng.random() < 0.03:  # a stray invocation or response
            payload = rng.choice(KV_INPUTS)
            actions.append(rng.choice([
                Invocation(client, 1, payload),
                Response(client, 1, payload, rng.choice(VALUES)),
            ]))
        elif client not in opened:
            if n_ops == max_ops:
                continue
            payload = rng.choice(KV_INPUTS)
            opened[client] = [payload, None]
            actions.append(Invocation(client, 1, payload))
            n_ops += 1
        elif opened[client][1] is None and rng.random() < 0.5:
            state, opened[client][1] = KV.transition(state, opened[client][0])
        else:
            payload, output = opened.pop(client)
            if output is None:
                state, output = KV.transition(state, payload)
            if rng.randint(0, 5) == 0:
                output = rng.choice(VALUES)
            actions.append(Response(client, 1, payload, output))
    return Trace(actions)


def well_formed(trace):
    opened = {}
    for action in trace:
        if isinstance(action, Invocation):
            if action.client in opened:
                return False
            opened[action.client] = action.input
        elif opened.pop(action.client, None) != action.input:
            return False
    return True


def bent_stream(rng, trace):
    """``oracle.bent_streams`` drawn from ``rng``: the reference's
    witness, or operation order, with a few ``lin`` events dropped,
    repeated, swapped or moved, and the slots now and then renumbered
    to hide it; None for an ill-formed history."""
    if not well_formed(trace):
        return None
    order = naive_witness(trace, KV)
    stream = honest_stream(
        trace, operations(trace) if order is None else order
    )
    for _ in range(rng.randint(0, 3)):
        lins = [i for i, item in enumerate(stream) if not isinstance(item, int)]
        if not lins:
            break
        at, how = rng.choice(lins), rng.randint(0, 3)
        if how == 0:
            del stream[at]
        elif how == 1:
            stream.insert(rng.randint(0, len(stream)), stream[at])
        elif how == 2:
            other = rng.choice(lins)
            stream[at], stream[other] = stream[other], stream[at]
        else:
            stream.insert(rng.randint(0, len(stream) - 1), stream.pop(at))
    if rng.random() < 0.5:
        slots = iter(range(len(stream)))
        stream = [
            item if isinstance(item, int) else ("lin", next(slots), item[2])
            for item in stream
        ]
    return stream


def corpus():
    rng = random.Random(34)
    for _ in range(CORPUS):
        trace = seeded_history(rng)
        yield trace, bent_stream(rng, trace)


def described(monitor):
    """Every field of ``monitor``'s report, and its parts, as text."""
    return repr((monitor.report(), monitor.parts()))


def fed(trace, stream, chunks=None):
    """The live monitor on ``stream``, fed as the tap feeds it: each
    chunk's events are recorded first, then the chunk is fed whole.
    ``chunks`` yields chunk sizes; None feeds one event at a time."""
    history = []
    monitor = StreamingMonitor(KV, history=history)
    at = 0
    while at < len(stream):
        size = 1 if chunks is None else next(chunks)
        chunk = []
        for item in stream[at : at + size]:
            if isinstance(item, int):
                item = recorded(trace[item])
                history.append(item)
            chunk.append(item)
        monitor.feed(*chunk)
        at += size
    return monitor


def reports():
    """What the golden file pins, one entry per corpus history."""
    pinned = []
    for trace, stream in corpus():
        events = [recorded(action) for action in trace]
        pinned.append({
            "decide": described(decide(trace, KV)),
            "replay": repr(replay_history(History([events]))[2]),
            "live": None if stream is None else described(fed(trace, stream)),
        })
    return pinned


def test_every_report_is_todays_field_for_field():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert reports() == golden


def test_the_corpus_reaches_every_branch():
    # certified and missed, off-line and live, and the miss reasons
    # of the ill-formed events
    said = json.dumps(reports())
    for text in (
        "certificate_misses=0", "certificate_misses=1", "the log says",
        "never linearized", "is no open operation", "linearized twice",
        "folded before", "has no open", "invokes",
    ):
        assert text in said, text


def test_a_chunked_corpus_reports_as_one_event_at_a_time():
    rng = random.Random(35)
    for trace, stream in corpus():
        if stream is None:
            continue
        sizes = iter(lambda: rng.randint(1, DRAIN_BATCH), None)
        assert described(fed(trace, stream, sizes)) == described(
            fed(trace, stream)
        )


chunk_sizes = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, DRAIN_BATCH)),
    min_size=1,
)


def cycled(sizes):
    while True:
        yield from sizes


@given(
    histories(KV, KV_INPUTS, VALUES, max_ops=5).flatmap(
        lambda trace: st.tuples(
            st.just(trace),
            st.one_of(lin_streams(trace, KV_INPUTS), bent_streams(trace, KV)),
        )
    ),
    chunk_sizes,
)
@settings(max_examples=300, deadline=None)
def test_any_chunking_reports_as_one_event_at_a_time(pair, sizes):
    trace, stream = pair
    one = fed(trace, stream)
    assert described(fed(trace, stream, cycled(sizes))) == described(one)


def test_a_miss_mid_chunk_replays_the_prefix_and_searches_the_rest():
    # seven events certify, then a slot gap misses: the search replays
    # those seven, then reads the rest of the chunk itself
    actions = []
    for i in range(4):
        payload = ("put", "a", i)
        actions += [
            Invocation("c1", 1, payload),
            Response("c1", 1, payload, ("value", i - 1 if i else None)),
        ]
    trace = Trace(actions)
    stream = honest_stream(trace, operations(trace))
    stream.insert(stream.index(6) + 1, ("lin", 7, ()))
    seen, history = [], [recorded(action) for action in trace]
    monitor = StreamingMonitor(KV, history=history)
    observe = monitor.observe
    monitor.observe = lambda action, answer=None: (
        seen.append((action, answer)), observe(action, answer)
    )
    monitor.feed(*(history[i] if isinstance(i, int) else i for i in stream))
    report = monitor.report()
    assert report.certificate_misses == 1 and "slot 7" in report.miss_reason
    assert [action for action, _ in seen] == list(trace)
    assert [answer for _, answer in seen[:7]] == [
        trace[1], None, trace[3], None, trace[5], None, None
    ]
    assert report.verdict == "ok" and report.events == 8
    assert described(monitor) == described(fed(trace, stream))


def recording_components(monkeypatch):
    """Every KV component built from here on, in the order built."""
    made = []
    cell = universal.kv_cell_adt

    def recorded_cell(key):
        made.append(cell(key))
        return made[-1]

    monkeypatch.setattr(universal, "kv_cell_adt", recorded_cell)
    return made


def memo_calls(components):
    return sum(
        part.step.cache_info().hits + part.step.cache_info().misses
        for part in components
    )


def test_the_certificate_never_calls_the_search_memo(monkeypatch, tmp_path):
    made = recording_components(monkeypatch)
    trace = Trace(
        action
        for i in range(20)
        for action in (
            Invocation("c1", 1, ("put", f"k{i % 3}", i)),
            Response("c1", 1, ("put", f"k{i % 3}", i), (
                "value", i - 3 if i >= 3 else None
            )),
            Invocation("c2", 1, ("get", f"k{i % 3}")),
            Response("c2", 1, ("get", f"k{i % 3}"), ("value", i)),
        )
    )
    monitor = decide(trace, kv_store_adt())
    assert monitor.certificate_misses == 0 and monitor.report().ok
    assert len(made) == 3 and memo_calls(made) == 0

    del made[:]
    report = run_loadgen(
        replicas=3, clients=4, ops=200, seed=34, shards=1,
        wal_root=str(tmp_path), monitor=True, check=False,
        emit=lambda line: None,
    )
    assert report.monitor_verdict == "ok" and report.committed == 200
    assert report.monitor_certificate_misses == 0
    assert made and memo_calls(made) == 0

    del made[:]
    swapped = list(trace)
    swapped[2:4], swapped[0:2] = swapped[0:2], swapped[2:4]  # get first
    monitor = decide(Trace(swapped), kv_store_adt())
    assert monitor.certificate_misses == 1
    assert memo_calls(made) > 0


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(reports(), handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
