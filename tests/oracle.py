"""The differential oracle: every decider answers to every other.

The repo's product is a verdict, and eight things produce one:

* ``definition`` — the paper's Defs 5-15 as a search
  (:func:`repro.core.linearizability.linearize`).  Its commit histories
  are sequences of *inputs*, so with repeated inputs it cannot say which
  of two identical invocations fills a slot and is strictly coarser than
  the rest (DESIGN.md, deviation 8: Theorem 1's uniqueness boundary).
  It is held to what the theorem gives: equality on unique inputs, and
  never ``violation`` where the others say ``ok``; on the objects whose
  outputs cannot tell duplicates apart (:data:`DUPLICATE_BLIND`),
  equality always;
* ``classical`` — Appendix A's linearizability*
  (:func:`repro.core.classical.linearize_classical`);
* ``post hoc`` — :func:`repro.core.fastcheck.check_linearizable`:
  response order as a certificate, then the streaming engine told every
  recorded response; its report is the engine's ``MonitorReport``, that
  of the monitor :func:`repro.monitor.streaming.decide` returns;
* ``online`` — :func:`repro.monitor.watch_trace`, the same engine told
  nothing.  Where a response carries an output the partition spec cannot
  project (:func:`unprojectable`: a product's response tagged for
  another object) it may say ``unknown``: online there is no prefix left
  to search again whole.  That typed degradation is all it owes there;
* ``told`` — the engine told the future on *any* ADT, partitioned or
  not, and never certified first (:func:`told`): the search, on every
  history (``check_linearizable`` only searches where the certificate
  misses);
* ``replay`` — :func:`repro.monitor.cli.replay_history`, what ``monitor
  --replay`` and the ledger run on an artifact: the history as recorder
  events, certified or told its own answers, on the objects an artifact
  can name;
* ``certified`` — the live monitor's front end
  (:func:`certified_report`): the history interleaved with ``lin``
  events, checked as a certificate.  Its word binds differently: given
  the reference's own witness it must say ``ok`` without a search, and
  given *any* ``lin`` events at all it must end where the reference
  does or at a typed ``unknown`` (:func:`assert_certificate_sound`);
* ``response order`` — the off-line front end (:func:`response_order`):
  the finished history folded in response order.  It says ``ok`` or
  abstains, and where it says ``ok`` the certificate's verdict, reason,
  ``unknown`` and ``parts()`` must be the search's;

and, at five operations or fewer, ``herlihy-wing`` — a deliberately
naive transcription of the definition as the TLA+ ``IsLinearizable`` of
SNIPPETS.md (Snippets 2-3) states it, run by brute force.  It is too
simple to be wrong, which is the point.

:func:`assert_deciders_agree` runs them all; a disagreement is shrunk
with the repo's one :func:`repro.ddmin.ddmin` over whole operations and
raised as a minimal history.

Two more families check the replica rather than the verdict.  The
*apply* family (:func:`assert_apply_agrees`) holds the pipeline's
per-key fold to one state for the whole object over decided command
streams with replayed session tags; a disagreement is shrunk to a
minimal stream.  The *decoder* family (:func:`assert_decoders_agree`)
holds ``decode_body`` and ``FrameDecoder.feed`` to the recursive binary
decoder they replaced (:func:`recursive_decode`): the same value, or
all :exc:`~repro.net.codec.FrameError`.
"""

import asyncio
import struct
from itertools import chain, combinations, permutations

from hypothesis import strategies as st

from repro.core.actions import Invocation, Response
from repro.core.adt import (
    EMPTY,
    consensus_adt,
    counter_adt,
    counter_read,
    decide as decided_value,
    deq,
    enq,
    inc,
    product_adt,
    propose,
    queue_adt,
    reg_read,
    reg_write,
    register_adt,
    set_add,
    set_adt,
    set_contains,
    tag_object,
)
from repro.core.classical import linearize_classical
from repro.core.linearizability import linearize
from repro.core.pretty import format_trace
from repro.core.traces import Trace
from repro.ddmin import ddmin
from repro.monitor import StreamingMonitor, watch_trace
from repro.monitor.cli import REPLAY_ADTS, History, replay_history
from repro.monitor.streaming import decide
from repro.net.codec import (
    _F64,
    _I64,
    _LEN,
    _U32,
    BINARY_MAGIC,
    MAX_DEPTH,
    FrameDecoder,
    FrameError,
    Packed,
    decode_body,
)
from repro.net.pipeline import SlotPipeline
from repro.net.transport import AddressBook, AsyncTransport
from repro.smr.sessions import SessionedApplier, dedup_commands, untag_command
from repro.smr.universal import kv_store_adt

#: the brute force below is factorial: beyond this it is not asked
NAIVE_MAX_OPS = 5


# ---------------------------------------------------------------------------
# Herlihy-Wing, transcribed
# ---------------------------------------------------------------------------


def operations(trace):
    """``[(invocation index, response index or None)]`` in trace order."""
    opened, pairs = {}, []
    for index, action in enumerate(trace):
        if isinstance(action, Invocation):
            opened[action.client] = len(pairs)
            pairs.append((index, None))
        else:
            slot = opened.pop(action.client)
            pairs[slot] = (pairs[slot][0], index)
    return pairs


def restrict(trace, kept):
    """``trace`` with only the operations in ``kept`` (index pairs)."""
    indices = {i for pair in kept for i in pair if i is not None}
    return Trace(a for i, a in enumerate(trace) if i in indices)


def is_linearizable_naive(trace, adt):
    """H is linearizable iff some extension H' of H (responses appended
    to some pending invocations) and some legal sequential history S
    have complete(H') equivalent to S and <_H contained in <_S.

    ``trace`` must be well-formed.  Every clause is checked as stated:
    nothing is pruned, memoised or ordered cleverly.
    """
    return naive_witness(trace, adt) is not None


def naive_witness(trace, adt):
    """The S that :func:`is_linearizable_naive` found, as the operations
    of ``trace`` in S's order, or None if there is none."""
    ops = operations(trace)
    done = [op for op in ops if op[1] is not None]
    pending = [op for op in ops if op[1] is None]
    # <_H: a precedes b iff a's response is before b's invocation
    before = {
        (a, b) for a in done for b in ops if a != b and a[1] < b[0]
    }
    # H' appends responses to some of the pending invocations;
    # complete(H') then drops the invocations still pending
    extensions = chain.from_iterable(
        combinations(pending, n) for n in range(len(pending) + 1)
    )
    for completed in extensions:
        for order in permutations(done + list(completed)):
            # S is legal: a sequential run of the object gives each
            # operation the response it has in H (an appended response
            # is whatever the object says, so it cannot disagree)
            state, legal = adt.initial_state, True
            for inv_at, res_at in order:
                state, output = adt.transition(state, trace[inv_at].input)
                if res_at is not None and trace[res_at].output != output:
                    legal = False
                    break
            if not legal:
                continue
            # complete(H') is equivalent to S: each process runs the
            # same operations in the same order in both
            position = {op: i for i, op in enumerate(order)}
            same_processes = all(
                position[a] < position[b]
                for a in order
                for b in order
                if trace[a[0]].client == trace[b[0]].client and a[0] < b[0]
            )
            # <_H is contained in <_S
            keeps_order = all(
                position[a] < position[b]
                for a, b in before
                if a in position and b in position
            )
            if same_processes and keeps_order:
                return order
    return None


# ---------------------------------------------------------------------------
# the deciders, and the agreement they owe each other
# ---------------------------------------------------------------------------


def _word(result):
    if result.unknown:
        return "unknown"
    return "ok" if result.ok else "violation"


def told(trace, adt, node_limit=None, state_limit=None):
    """The monitor that searched ``trace`` told every recorded response,
    on any ADT: the search alone, with no certificate before it."""
    monitor = StreamingMonitor(
        adt, node_limit=node_limit, config_limit=state_limit
    )
    monitor.tell(trace)
    return monitor


def told_verdict(monitor, trace):
    """The word of the ``told`` monitor that searched ``trace`` (a test
    may plant a wrong one)."""
    return monitor.report().verdict


def what_it_said(monitor):
    """The verdict, reason, ``unknown`` and partitions of a monitor that
    decided a whole history."""
    report = monitor.report()
    return report.verdict, report.reason, report.unknown, monitor.parts()


def response_order(trace, adt):
    """``ok`` if the off-line front end certifies ``trace`` in response
    order, None where it misses: it abstains."""
    return None if decide(trace, adt).certificate_misses else "ok"


#: objects whose outputs never tell which of two identical invocations
#: fills a history slot: there the definition is held to the others on
#: repeated inputs too.  The queue and the counter are order-sensitive,
#: and on them it is coarser (``test_equivalence``, ``test_fastcheck``).
DUPLICATE_BLIND = ("consensus", "register")


def unprojectable(trace, adt):
    """Whether a response of ``trace`` carries an output the partition
    spec cannot project (a product's response tagged for another
    object): the one history the ``online`` decider may abstain on."""
    spec = adt.partition
    for action in trace:
        if spec is None or not isinstance(action, Response):
            continue
        try:
            key, _ = spec.route(action.input)
            spec.project_output(key, action.output)
        except Exception:
            return True
    return False


def has_unique_inputs(trace):
    invoked = [a.input for a in trace if isinstance(a, Invocation)]
    return len(set(invoked)) == len(invoked)


def verdicts(trace, adt):
    """``{decider: verdict}`` over every decider whose word binds."""
    # check_linearizable(trace, adt) is this monitor's report
    # (test_fastcheck.py::TestReportShape pins it)
    post_hoc, searched = decide(trace, adt), told(trace, adt)
    said = {
        "classical": (
            "ok" if linearize_classical(trace, adt).ok else "violation"
        ),
        "post hoc": post_hoc.report().verdict,
        "told": told_verdict(searched, trace),
    }
    online = watch_trace(trace, adt).verdict
    if online != "unknown" or not unprojectable(trace, adt):
        said["online"] = online
    if not post_hoc.certificate_misses:
        fold, search = what_it_said(post_hoc), what_it_said(searched)
        said["response order"] = (
            "ok" if fold == search else f"ok: {fold} != {search}"
        )
    if adt.name in REPLAY_ADTS:
        events = [recorded(action) for action in trace]
        said["replay"] = replay_history(History([events], adt.name))[0]
    if len(operations(trace)) <= NAIVE_MAX_OPS:
        said["herlihy-wing"] = (
            "ok" if is_linearizable_naive(trace, adt) else "violation"
        )
    definition = _word(linearize(trace, adt))
    if (
        definition == "violation"
        or adt.name in DUPLICATE_BLIND
        or has_unique_inputs(trace)
    ):
        said["definition"] = definition
    return said


def disagree(trace, adt):
    return len(set(verdicts(trace, adt).values())) > 1


def assert_deciders_agree(trace, adt):
    """Every decider's verdict on ``trace``, which must be one verdict.

    ``trace`` must be well-formed (operations are removable from it).
    """
    said = verdicts(trace, adt)
    if len(set(said.values())) == 1:
        return next(iter(said.values()))
    minimal = restrict(
        trace,
        ddmin(
            operations(trace),
            lambda kept: disagree(restrict(trace, kept), adt),
        ),
    )
    raise AssertionError(
        "the deciders disagree; a minimal history on which they do:\n"
        + format_trace(minimal)
        + f"\n{verdicts(minimal, adt)}"
    )


# ---------------------------------------------------------------------------
# the sixth decider: the history with its certificate
# ---------------------------------------------------------------------------
#
# A *stream* is what a live monitor's tap carries: indices into the
# trace (its ``inv`` / ``res`` events, in order) with ``("lin", slot,
# commands)`` events anywhere between them.


def tagged_commands(trace):
    """``{invocation index: its command as a pipeline would tag it}``:
    a client's k-th operation carries ``("seq", (client, k))``."""
    counts, tagged = {}, {}
    for index, action in enumerate(trace):
        if isinstance(action, Invocation):
            counts[action.client] = counts.get(action.client, 0) + 1
            tagged[index] = action.input + (
                ("seq", (action.client, counts[action.client])),
            )
    return tagged


def honest_stream(trace, order):
    """``trace`` with one ``lin`` event per operation of ``order``, in
    that order and each as late as it may be: just before the first
    response that needs it.  ``order`` must be a witness (it respects
    real time, so whatever precedes a responding operation in it has
    been invoked by then)."""
    tagged, stream, upcoming = tagged_commands(trace), [], list(order)
    placed = set()

    def linearize_through(op):
        while op not in placed:
            following = upcoming.pop(0)
            stream.append(("lin", len(placed), (tagged[following[0]],)))
            placed.add(following)

    by_response = {op[1]: op for op in order}
    for index in range(len(trace)):
        if index in by_response:
            linearize_through(by_response[index])
        stream.append(index)
    if upcoming:
        linearize_through(upcoming[-1])
    return stream


def recorded(action):
    """``action`` as the event tuple a recorder appends for it."""
    if isinstance(action, Invocation):
        return ("inv", action.client, action.input, None, 0.0)
    return ("res", action.client, action.input, action.output, 0.0)


def certified_report(trace, adt, stream, **budget):
    """The live monitor's report on ``stream``: fed as a tap feeds it,
    behind a recorder whose history is the fallback's."""
    history = []
    monitor = StreamingMonitor(adt, history=history, **budget)
    for item in stream:
        if isinstance(item, int):
            item = recorded(trace[item])
            history.append(item)
        monitor.feed(item)
    return monitor.report()


def restrict_stream(stream, kept):
    """``stream`` with only the operations in ``kept``, renumbered as
    :func:`restrict` renumbers the trace; every ``lin`` event stays."""
    indices = sorted(i for pair in kept for i in pair if i is not None)
    renumbered = {old: new for new, old in enumerate(indices)}
    return [
        renumbered[item] if isinstance(item, int) else item
        for item in stream
        if not isinstance(item, int) or item in renumbered
    ]


def certificate_unsound(trace, adt, stream):
    """Why the certified verdict on ``stream`` is not one the reference
    allows, or None: it must be the reference's or ``unknown``, and only
    the fallback's search may have said anything but ``ok``."""
    report = certified_report(trace, adt, stream)
    accepted = "ok" if is_linearizable_naive(trace, adt) else "violation"
    if report.verdict not in (accepted, "unknown"):
        return f"certified says {report.verdict!r}, herlihy-wing {accepted!r}"
    if report.verdict != "ok" and not report.certificate_misses:
        return f"{report.verdict!r} without a miss: the front end judged"
    return None


def assert_certificate_sound(trace, adt, stream):
    """Whatever ``lin`` events ``stream`` holds, the live monitor ends
    where the reference does, or abstains.  A counterexample is shrunk
    over whole operations, as :func:`assert_deciders_agree` shrinks."""
    if certificate_unsound(trace, adt, stream) is None:
        return
    kept = ddmin(
        operations(trace),
        lambda kept: certificate_unsound(
            restrict(trace, kept), adt, restrict_stream(stream, kept)
        ) is not None,
    )
    minimal, lesser = restrict(trace, kept), restrict_stream(stream, kept)
    raise AssertionError(
        "the certificate front end is unsound; a minimal history:\n"
        + format_trace(minimal)
        + f"\nstream: {lesser}\n{certificate_unsound(minimal, adt, lesser)}"
    )


@st.composite
def lin_streams(draw, trace, inputs):
    """``trace`` with arbitrary ``lin`` events: the operations' own
    tagged commands shuffled, dropped and duplicated, forged clients,
    wrong commands, untagged ones; slots mostly in order, now and then
    repeated or skipped; placed anywhere, before invocations and after
    responses included."""
    own = list(tagged_commands(trace).values())
    clients = sorted({tag[-1][1][0] for tag in own}) + ["ghost"]
    forged = st.builds(
        lambda payload, client, seq: payload + (("seq", (client, seq)),),
        st.sampled_from(inputs),
        st.sampled_from(clients),
        st.integers(0, 3),
    )
    command = st.one_of(
        *([st.sampled_from(own)] if own else []),
        forged,
        st.sampled_from(inputs),
    )
    decrees = draw(
        st.lists(st.lists(command, max_size=2), max_size=len(own) + 3)
    )
    places = sorted(
        draw(st.integers(0, len(trace))) for _decree in decrees
    )
    stream, slot = list(range(len(trace))), 0
    for place, decree in reversed(list(zip(places, decrees))):
        stream.insert(place, ["lin", None, tuple(decree)])
    for item in stream:
        if not isinstance(item, int):
            item[1] = slot
            slot += draw(st.sampled_from([1, 1, 1, 1, 1, 0, 2]))
    return [item if isinstance(item, int) else tuple(item) for item in stream]


@st.composite
def bent_streams(draw, trace, adt):
    """A certificate that was honest once: the reference's witness (any
    order, where it has none) with a few ``lin`` events dropped,
    repeated, swapped or moved, and the slots now and then renumbered
    to hide it."""
    order = naive_witness(trace, adt)
    stream = honest_stream(trace, operations(trace) if order is None else order)
    for _ in range(draw(st.integers(0, 3))):
        lins = [i for i, item in enumerate(stream) if not isinstance(item, int)]
        if not lins:
            break
        at, how = draw(st.sampled_from(lins)), draw(st.integers(0, 3))
        if how == 0:
            del stream[at]
        elif how == 1:
            stream.insert(draw(st.integers(0, len(stream))), stream[at])
        elif how == 2:
            other = draw(st.sampled_from(lins))
            stream[at], stream[other] = stream[other], stream[at]
        else:
            stream.insert(draw(st.integers(0, len(stream) - 1)), stream.pop(at))
    if draw(st.booleans()):
        slots = iter(range(len(stream)))
        stream = [
            item if isinstance(item, int) else ("lin", next(slots), item[2])
            for item in stream
        ]
    return stream


# ---------------------------------------------------------------------------
# histories worth disagreeing about
# ---------------------------------------------------------------------------


@st.composite
def histories(
    draw, adt, inputs, outputs, max_ops=6, clients=4, unique=False
):
    """Well-formed histories with real concurrency.

    Each operation takes effect on a hidden copy of the object at some
    step between its invocation and its response, and is answered with
    what the object said — or, now and then, with something else from
    ``outputs``.  Operations may stay pending, having taken effect or
    not.  ``inputs`` should be few, so that values repeat; with
    ``unique`` each is invoked once at most, so none does.
    """
    names = [f"c{i}" for i in range(clients)]
    state = adt.initial_state
    opened = {}  # client -> [input, output once taken effect]
    actions, n_ops, unused = [], 0, list(inputs)
    for _ in range(draw(st.integers(0, 3 * max_ops))):
        client = draw(st.sampled_from(names))
        if client not in opened:
            if n_ops == max_ops or not unused:
                continue
            payload = draw(st.sampled_from(unused))
            if unique:
                unused.remove(payload)
            opened[client] = [payload, None]
            actions.append(Invocation(client, 1, payload))
            n_ops += 1
        elif opened[client][1] is None and draw(st.booleans()):
            state, output = adt.transition(state, opened[client][0])
            opened[client][1] = output
        else:
            payload, output = opened.pop(client)
            if output is None:
                state, output = adt.transition(state, payload)
            if draw(st.integers(0, 5)) == 0:
                output = draw(st.sampled_from(outputs))
            actions.append(Response(client, 1, payload, output))
    return Trace(actions)


@st.composite
def sequential_histories(draw, adt, inputs, outputs, max_ops=5, clients=3):
    """Histories in which no two operations overlap: each is answered
    before the next is invoked, but the last may pend.  Answers are the
    object's, or now and then something else from ``outputs``."""
    state, actions = adt.initial_state, []
    for _ in range(draw(st.integers(0, max_ops))):
        client = draw(st.sampled_from([f"c{i}" for i in range(clients)]))
        payload = draw(st.sampled_from(inputs))
        actions.append(Invocation(client, 1, payload))
        if draw(st.integers(0, 5)) == 0:
            break  # the last operation pends
        state, output = adt.transition(state, payload)
        if draw(st.integers(0, 5)) == 0:
            output = draw(st.sampled_from(outputs))
        actions.append(Response(client, 1, payload, output))
    return Trace(actions)


# ---------------------------------------------------------------------------
# the families: objects whose histories every decider is held to
# ---------------------------------------------------------------------------

#: name -> (object, inputs, outputs a wrong answer is drawn from).  The
#: inputs are few, so that values repeat, except in ``counter-unique``,
#: whose histories invoke each input once (``histories(unique=True)``):
#: there Theorem 1 binds the definition on an order-sensitive object.
FAMILIES = {
    "kv": (
        kv_store_adt(),
        [
            ("put", "a", 1),
            ("put", "a", 2),
            ("get", "a"),
            ("delete", "a"),
            ("put", "b", 1),
            ("get", "b"),
        ],
        [("value", v) for v in (None, 1, 2)],
    ),
    "queue": (
        queue_adt(),
        [enq(1), enq(2), deq()],
        [("ok",), EMPTY, ("value", 1), ("value", 2)],
    ),
    "counter": (
        counter_adt(),
        [inc(1), inc(2), counter_read()],
        [("count", n) for n in range(4)],
    ),
    "counter-unique": (
        counter_adt(),
        [inc(1), inc(2), inc(4), inc(8), counter_read()],
        [("count", n) for n in (0, 1, 2, 3, 5, 15)],
    ),
    "consensus": (
        consensus_adt(),
        [propose("a"), propose("b")],
        [decided_value(v) for v in "abc"],
    ),
    "register": (
        register_adt(),
        [reg_write(1), reg_write(2), reg_read()],
        [("ok",)] + [("value", v) for v in (None, 1, 2)],
    ),
    "product": (
        product_adt(
            {"reg": register_adt(), "cnt": counter_adt(), "set": set_adt()}
        ),
        [
            tag_object("reg", reg_write(1)),
            tag_object("reg", reg_read()),
            tag_object("cnt", inc()),
            tag_object("cnt", counter_read()),
            tag_object("set", set_add("x")),
            tag_object("set", set_contains("x")),
        ],
        [
            ("reg", ("ok",)),
            ("reg", ("value", None)),
            ("reg", ("value", 1)),
            ("cnt", ("count", 0)),
            ("cnt", ("count", 1)),
            ("set", ("bool", False)),
            ("set", ("bool", True)),
        ],
    ),
}


def family_histories(name, **shape):
    """:func:`histories` of the family ``name``."""
    adt, inputs, outputs = FAMILIES[name]
    unique = name == "counter-unique"
    return histories(adt, inputs, outputs, unique=unique, **shape)


# ---------------------------------------------------------------------------
# the KV store, rebuilt on every write
# ---------------------------------------------------------------------------


def kv_rebuild_transition(state, input):
    """The KV store's transition as it was before a write became a
    splice: copy the store, apply the command, sort every pair again.
    Linear in the store where :func:`repro.smr.universal.kv_store_adt`
    is logarithmic, and too plain to be wrong: the reference."""
    mapping = dict(state)
    op = input[0]
    if op == "put":
        _, key, value = input
        previous = mapping.get(key)
        mapping[key] = value
        return tuple(sorted(mapping.items(), key=repr)), ("value", previous)
    if op == "get":
        _, key = input
        return state, ("value", mapping.get(key))
    _, key = input
    previous = mapping.pop(key, None)
    return tuple(sorted(mapping.items(), key=repr)), ("value", previous)


def _kv_keys():
    """Keys that stress the splice: strings that share prefixes and hold
    quotes and commas (the order is ``repr``'s), and keys equal across
    types (``1``, ``1.0``, ``True``), which are one key."""
    text = st.text(alphabet="ab',\" ", max_size=3)
    scalar = st.one_of(
        text,
        st.integers(-2, 11),
        st.sampled_from([0.0, 1.0, 1.5, -1.0, 10.0, 1e20]),
        st.booleans(),
        st.none(),
    )
    return st.one_of(scalar, st.tuples(scalar), st.tuples(scalar, scalar))


def kv_command_sequences(max_size=40):
    """Put / get / delete sequences over :func:`_kv_keys`."""
    key, value = _kv_keys(), st.integers(0, 3)
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), key, value),
            st.tuples(st.just("get"), key),
            st.tuples(st.just("delete"), key),
        ),
        max_size=max_size,
    )


# ---------------------------------------------------------------------------
# the replicated apply: one cell per partition key against one whole store
# ---------------------------------------------------------------------------


def whole_store_fold(adt, commands):
    """Each decided command's reply and the final state, folded through
    the session seam into one state for the whole object: the apply as
    it was before the pipeline kept a state per key, and the reference."""
    applier, state, replies = SessionedApplier(adt), adt.initial_state, []
    for command in commands:
        state, reply, _fresh = applier.apply(state, command)
        replies.append(reply)
    return replies, state


def fold_pipeline(adt):
    """A pipeline on an unconnected transport, to fold commands by hand
    (a test may plant a wrong one)."""

    async def build():
        transport = AsyncTransport("fold", AddressBook())
        return SlotPipeline("fold", 3, transport, adt=adt)

    return asyncio.run(build())


def per_key_fold(adt, commands):
    """The replies the pipeline's own fold gives, and its cells."""
    pipeline = fold_pipeline(adt)
    return [pipeline._fold(command) for command in commands], pipeline._state


def sub_histories(adt, commands):
    """Each partition key's first occurrences, untagged, in log order:
    what the key's cell must be the object's own state after."""
    key_of = adt.partition.key_of if adt.partition else lambda _: None
    keyed = {}
    for command in dedup_commands(commands):
        command = untag_command(command)
        keyed.setdefault(key_of(command), []).append(command)
    return keyed


def apply_disagrees(adt, commands):
    """Why the per-key fold and the whole-store fold part on
    ``commands``, or None where they agree."""
    replies, _whole = whole_store_fold(adt, commands)
    folded, cells = per_key_fold(adt, commands)
    if folded != replies:
        return f"replies {folded} against {replies}"
    expected = {
        key: adt.run(history)[0]
        for key, history in sub_histories(adt, commands).items()
    }
    if cells != expected:
        return f"cells {cells} against {expected}"
    return None


def assert_apply_agrees(adt, commands):
    """Per-key apply against whole-store apply on one decided command
    stream: the same reply to every command, and every cell the object's
    own state after its key's sub-history.  A disagreement is shrunk to
    a minimal stream."""
    commands = list(commands)
    if apply_disagrees(adt, commands) is None:
        return
    minimal = ddmin(
        commands, lambda kept: apply_disagrees(adt, kept) is not None
    )
    raise AssertionError(
        "per-key and whole-store apply disagree; a minimal stream on "
        f"which they do:\n{minimal}\n{apply_disagrees(adt, minimal)}"
    )


def counter_command_sequences(max_size=30):
    """Increment / read sequences of the counter, whose one cell is
    key None."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("inc"), st.integers(-3, 3)),
            st.just(("cread",)),
        ),
        max_size=max_size,
    )


@st.composite
def session_streams(draw, commands, clients=3):
    """``commands`` as a decided log carries them: each tagged by one of
    ``clients`` sequential clients, and some decided again later (a
    retried or hedged op whose earlier decree also landed)."""
    stream, seqs = [], {}
    for command in draw(commands):
        client = f"c{draw(st.integers(0, clients - 1))}"
        seqs[client] = seqs.get(client, 0) + 1
        stream.append(command + (("seq", (client, seqs[client])),))
        if draw(st.integers(0, 3)) == 0:
            stream.append(draw(st.sampled_from(stream)))
    return stream


# ---------------------------------------------------------------------------
# the decoder: one loop against the recursion it replaced
# ---------------------------------------------------------------------------


def recursive_decode(body, pos, depth):
    """Decode the value at ``body[pos]``; return it and the offset after
    it: the binary decoder as it was, one call per value.  Running off
    the end raises ``IndexError`` / ``struct.error``."""
    tag = body[pos]
    pos += 1
    if tag == ord("s"):
        (size,) = _U32.unpack_from(body, pos)
        pos += 4
        end = pos + size
        if end > len(body):
            raise IndexError(end)
        return body[pos:end].decode("utf-8"), end
    if tag == ord("t") or tag == ord("l"):
        (count,) = _U32.unpack_from(body, pos)
        pos += 4
        if depth >= MAX_DEPTH:
            raise FrameError("too deep")
        depth += 1
        items = []
        for _ in range(count):
            item, pos = recursive_decode(body, pos, depth)
            items.append(item)
        return (tuple(items) if tag == ord("t") else items), pos
    if tag == ord("i"):
        return _I64.unpack_from(body, pos)[0], pos + 8
    if tag == ord("p"):
        (size,) = _U32.unpack_from(body, pos)
        pos += 4
        end = pos + size
        if end > len(body):
            raise IndexError(end)
        return Packed(body[pos:end]), end
    if tag == ord("N"):
        return None, pos
    if tag == ord("f"):
        return _F64.unpack_from(body, pos)[0], pos + 8
    if tag == ord("T"):
        return True, pos
    if tag == ord("F"):
        return False, pos
    if tag == ord("d"):
        (count,) = _U32.unpack_from(body, pos)
        pos += 4
        if depth >= MAX_DEPTH:
            raise FrameError("too deep")
        depth += 1
        table = {}
        for _ in range(count):
            key, pos = recursive_decode(body, pos, depth)
            table[key], pos = recursive_decode(body, pos, depth)
        return table, pos
    if tag == ord("I"):
        (size,) = _U32.unpack_from(body, pos)
        pos += 4
        end = pos + size
        if end > len(body):
            raise IndexError(end)
        return int(body[pos:end].decode("ascii")), end
    raise FrameError(f"unknown binary tag {bytes([tag])!r}")


def reference_decode(body):
    """A binary frame body (magic byte first) through
    :func:`recursive_decode`, failing as :func:`decode_body` fails:
    :exc:`FrameError` and nothing else."""
    if body[:1] != bytes([BINARY_MAGIC]):
        raise FrameError("not a binary body")
    try:
        value, pos = recursive_decode(body, 1, 0)
    except (IndexError, struct.error, ValueError, TypeError) as exc:
        raise FrameError(str(exc)) from exc
    if pos != len(body):
        raise FrameError("trailing bytes")
    return value


def framed_decode(body, split):
    """``body`` as one wire frame through a fresh :class:`FrameDecoder`,
    fed in two reads cut at ``split``: the one value it decodes."""
    frame = _LEN.pack(len(body)) + body
    decoder = FrameDecoder()
    values = list(decoder.feed(frame[:split])) + list(decoder.feed(frame[split:]))
    (value,) = values
    return value


def decoded(decode, body, *args):
    """What ``decode`` made of ``body``: the value's ``repr`` (``1``,
    ``1.0`` and ``True`` are equal values, not equal decodings), or
    ``FrameError``.  Any other exception escapes."""
    try:
        return repr(decode(body, *args))
    except FrameError:
        return "FrameError"


def decode_disagrees(body, split=0):
    """Why the decoders part on ``body``, or None where they agree."""
    said = {
        "decode_body": decoded(decode_body, body),
        "FrameDecoder.feed": decoded(framed_decode, body, split),
        "recursive": decoded(reference_decode, body),
    }
    if len(set(said.values())) == 1:
        return None
    return f"on {body!r}: {said}"


def assert_decoders_agree(body, split=0):
    """``decode_body`` and ``FrameDecoder.feed`` against the recursive
    reference on one binary body: the same value, or all
    :exc:`FrameError`."""
    why = decode_disagrees(body, split)
    if why is not None:
        raise AssertionError(f"the decoders disagree {why}")
