"""The differential oracle: every decider answers to every other.

The repo's product is a verdict, and five things produce one:

* ``definition`` — the paper's Defs 5-15 as a search
  (:func:`repro.core.linearizability.linearize`).  Its commit histories
  are sequences of *inputs*, so with repeated inputs it cannot say which
  of two identical invocations fills a slot and is strictly coarser than
  the rest (DESIGN.md, deviation 8: Theorem 1's uniqueness boundary).
  It is held to what the theorem gives: equality on unique inputs, and
  never ``violation`` where the others say ``ok``;
* ``classical`` — Appendix A's linearizability*
  (:func:`repro.core.classical.linearize_classical`);
* ``post hoc`` — :func:`repro.core.fastcheck.check_linearizable`, the
  streaming engine told every recorded response;
* ``online`` — :func:`repro.monitor.watch_trace`, the same engine told
  nothing;
* ``told`` — the engine told the future on *any* ADT, partitioned or
  not (``check_linearizable`` only runs it where a partition spec fits);

and, at five operations or fewer, ``herlihy-wing`` — a deliberately
naive transcription of the definition as the TLA+ ``IsLinearizable`` of
SNIPPETS.md (Snippets 2-3) states it, run by brute force.  It is too
simple to be wrong, which is the point.

:func:`assert_deciders_agree` runs them all; a disagreement is shrunk
with the repo's one :func:`repro.ddmin.ddmin` over whole operations and
raised as a minimal history.
"""

from itertools import chain, combinations, permutations

from hypothesis import strategies as st

from repro.core.actions import Invocation, Response
from repro.core.classical import linearize_classical
from repro.core.fastcheck import _stream, check_linearizable
from repro.core.linearizability import linearize
from repro.core.pretty import format_trace
from repro.core.traces import Trace
from repro.ddmin import ddmin
from repro.monitor import watch_trace

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
                return True
    return False


# ---------------------------------------------------------------------------
# the deciders, and the agreement they owe each other
# ---------------------------------------------------------------------------


def _word(result):
    if result.unknown:
        return "unknown"
    return "ok" if result.ok else "violation"


def told_verdict(trace, adt):
    """The streaming engine told every recorded response, on any ADT:
    ``check_linearizable``'s own compositional path, entered without
    asking for a partition spec."""
    return _stream(trace, adt, None, None).verdict


def has_unique_inputs(trace):
    invoked = [a.input for a in trace if isinstance(a, Invocation)]
    return len(set(invoked)) == len(invoked)


def verdicts(trace, adt):
    """``{decider: verdict}`` over every decider whose word binds."""
    said = {
        "classical": (
            "ok" if linearize_classical(trace, adt).ok else "violation"
        ),
        "post hoc": check_linearizable(trace, adt).verdict,
        "online": watch_trace(trace, adt).verdict,
        "told": told_verdict(trace, adt),
    }
    if len(operations(trace)) <= NAIVE_MAX_OPS:
        said["herlihy-wing"] = (
            "ok" if is_linearizable_naive(trace, adt) else "violation"
        )
    definition = _word(linearize(trace, adt))
    if definition == "violation" or has_unique_inputs(trace):
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
# histories worth disagreeing about
# ---------------------------------------------------------------------------


@st.composite
def histories(draw, adt, inputs, outputs, max_ops=6, clients=4):
    """Well-formed histories with real concurrency.

    Each operation takes effect on a hidden copy of the object at some
    step between its invocation and its response, and is answered with
    what the object said — or, now and then, with something else from
    ``outputs``.  Operations may stay pending, having taken effect or
    not.  ``inputs`` should be few, so that values repeat.
    """
    names = [f"c{i}" for i in range(clients)]
    state = adt.initial_state
    opened = {}  # client -> [input, output once taken effect]
    actions, n_ops = [], 0
    for _ in range(draw(st.integers(0, 3 * max_ops))):
        client = draw(st.sampled_from(names))
        if client not in opened:
            if n_ops == max_ops:
                continue
            payload = draw(st.sampled_from(inputs))
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
