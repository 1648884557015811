"""The paper's new definition of linearizability (Section 4, Defs 5-15).

A trace ``t`` is linearizable iff it is well-formed and admits a
*linearization function* ``g`` mapping each response index to a *commit
history* (a sequence of ADT inputs) such that:

* **Explains** (Def. 7):  ``out = f_T(g(i))`` for each response at ``i``;
* **Validity** (Defs 10/11): ``elems(g(i))`` is included in the multiset of
  inputs invoked before ``i``, and ``g(i)`` ends with the responding
  client's input;
* **Commit Order** (Def. 12): commit histories form a chain under the
  *strict* prefix order;
* **Real-Time Order** (repair, see below): if the response at commit
  index ``i`` occurs before the *invocation* answered at commit index
  ``j``, then ``g(i)`` is a strict prefix of ``g(j)``.

The last condition does not appear in the paper's Definition 6, but it is
necessary for Theorem 1 (equivalence with classical linearizability) to
hold: without it, the trace ``[inv(w, write(2)), res(w, ok),
inv(r, read), res(r, value=None)]`` — a read invoked *after* a completed
write returning the pre-write value — admits a linearization function
(commit the read's singleton history first, then embed it under the
write's), yet it is rejected by the classical definition, which preserves
the order of non-overlapping operations (Definition 44).  The appendix's
Lemma 4 proof implicitly uses this property when it claims the
constructed reordering is a classical witness.  The test-suite carries
the counterexample (``test_equivalence.py``) and checks that, with the
repair, the two complete checkers agree over large random trace
families.

Two artifacts live here:

1. :func:`check_linearization_function` — verifies a user-supplied ``g``
   against the definition (the definition made executable);
2. :func:`linearize` / :func:`is_linearizable` — a complete search for a
   witness ``g``.  Commit Order means all commit histories are prefixes of
   a single master history, so the search builds that master history left
   to right: at each step it either *commits* a not-yet-explained response
   (appending its input and checking Explains + Validity) or *interleaves*
   the input of another invocation (e.g. one that remains pending).  The
   search is exponential in the worst case — linearizability checking is
   NP-hard — but two engine-level optimizations keep it fast far beyond
   the trace sizes the tests use:

   * **incremental counters** — Validity is decided in O(1) per candidate
     by tracking, per input, how many copies the master history has
     consumed and the trace position at which the next copy becomes
     available, instead of rebuilding an ``elems`` multiset at every step;
   * **state caching** (Lowe-style) — the memo key is
     ``(ADT state, committed set, consumed-input counts)`` rather than the
     full master history: two masters that are permutations of each other
     reaching the same ADT state are explored once.

   ``node_limit`` caps the nodes expanded, and running out of it (or of
   the interpreter's stack) makes the checker report ``unknown`` (see
   :class:`LinearizationResult`) instead of thrashing: the caller can
   then retry with a bigger budget or treat the run as inconclusive.

   This search is the paper's reference, held to the other deciders by
   ``tests/oracle.py``.  It decides no recorded history: matching
   responses to inputs, it is coarser than Herlihy-Wing when an input
   repeats (DESIGN.md, deviation 8), so those go to
   :func:`~repro.monitor.streaming.decide`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .actions import Input, Invocation, Response, Switch
from .adt import ADT, History
from .multisets import elems
from .sequences import is_strict_prefix
from .traces import Trace, inputs, is_wellformed


@dataclass(frozen=True, slots=True)
class LinearizationResult:
    """Outcome of a linearizability check.

    ``ok`` is the verdict; on success ``witness`` maps each response index
    (0-based position in the trace) to its commit history, and ``master``
    is the longest commit history (the full linearization).  On failure
    ``reason`` holds a human-readable explanation.  ``unknown`` is set
    when the search gave up against a budget (a ``node_limit``,
    :func:`~repro.core.fastcheck.check_linearizable`'s ``state_limit``,
    or the interpreter's recursion limit) rather than proving
    non-linearizability: ``ok`` is False but the verdict is
    *inconclusive*, not a violation.
    """

    ok: bool
    witness: Optional[Mapping[int, History]] = None
    master: Optional[History] = None
    reason: str = ""
    unknown: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _response_positions(trace: Trace) -> List[int]:
    return [
        i for i, a in enumerate(trace.actions) if isinstance(a, Response)
    ]


def invocation_positions(trace: Trace) -> Dict[int, int]:
    """Map each response position to the position where its operation
    *started*.

    An operation starts at its invocation, or — in a phase trace whose
    clients enter via an init switch — at that switch.  Crucially, a
    switch occurring while the client's operation is already open (the
    pass-through of a composed trace) does **not** restart the
    operation: the pending invocation travels across the phase boundary,
    so the operation still spans from the original invocation.  Treating
    the switch as a fresh start would manufacture real-time edges against
    operations that completed mid-flight, wrongly rejecting composed
    traces (caught by the exhaustive sweep in ``test_enumeration.py``).
    """
    start: Dict[object, int] = {}
    open_now: Dict[object, bool] = {}
    pairing: Dict[int, int] = {}
    for i, action in enumerate(trace.actions):
        if isinstance(action, Invocation):
            start[action.client] = i
            open_now[action.client] = True
        elif isinstance(action, Switch):
            if not open_now.get(action.client, False):
                start[action.client] = i
                open_now[action.client] = True
        elif isinstance(action, Response):
            pairing[i] = start.get(action.client, i)
            open_now[action.client] = False
    return pairing


def _realtime_pairs_ok(
    histories: Dict[int, "History"], inv_pos: Dict[int, int]
) -> Optional[Tuple[int, int]]:
    """Return a violating (i, j) pair, or None if Real-Time Order holds."""
    for i in histories:
        for j in histories:
            if i == j:
                continue
            if i < inv_pos[j] and not is_strict_prefix(
                histories[i], histories[j]
            ):
                return (i, j)
    return None


def check_linearization_function(
    trace: Trace,
    g: Mapping[int, Sequence[Input]],
    adt: ADT,
) -> LinearizationResult:
    """Verify that ``g`` is a linearization function for ``trace`` (Def. 6).

    ``g`` maps 0-based response positions to histories; positions that are
    not response indices are ignored (the definition only constrains
    commit indices).
    """
    if not is_wellformed(trace):
        return LinearizationResult(False, reason="trace is not well-formed")

    histories: Dict[int, History] = {}
    for i in _response_positions(trace):
        if i not in g:
            return LinearizationResult(
                False, reason=f"g is undefined at commit index {i}"
            )
        histories[i] = tuple(g[i])

    # Explains (Definition 7) and Validity (Definitions 10-11).
    for i, history in histories.items():
        action = trace[i]
        if not history:
            return LinearizationResult(
                False, reason=f"empty commit history at index {i}"
            )
        if adt.output(history) != action.output:
            return LinearizationResult(
                False,
                reason=(
                    f"g does not explain index {i}: f(g({i})) = "
                    f"{adt.output(history)!r} but output is {action.output!r}"
                ),
            )
        if history[-1] != action.input:
            return LinearizationResult(
                False,
                reason=(
                    f"commit history at {i} does not end with the "
                    f"responding input {action.input!r}"
                ),
            )
        if not elems(history).issubset(elems(inputs(trace, i))):
            return LinearizationResult(
                False,
                reason=(
                    f"commit history at {i} uses inputs not invoked "
                    f"before index {i}"
                ),
            )

    # Commit Order (Definition 12): strict prefix chain over distinct
    # commit indices.
    items = sorted(histories.items(), key=lambda kv: len(kv[1]))
    for (i, h1), (j, h2) in zip(items, items[1:]):
        if not is_strict_prefix(h1, h2):
            return LinearizationResult(
                False,
                reason=(
                    f"commit histories at {i} and {j} violate Commit "
                    f"Order: {h1!r} vs {h2!r}"
                ),
            )

    # Real-Time Order (the repair; see the module docstring).
    violation = _realtime_pairs_ok(histories, invocation_positions(trace))
    if violation is not None:
        i, j = violation
        return LinearizationResult(
            False,
            reason=(
                f"Real-Time Order violated: response at {i} precedes the "
                f"invocation answered at {j} but g({i}) is not a strict "
                f"prefix of g({j})"
            ),
        )

    master = items[-1][1] if items else ()
    return LinearizationResult(True, witness=dict(histories), master=master)


@dataclass
class _SearchContext:
    """Internal state shared across the DFS."""

    trace: Trace
    responses: List[int]
    # Position of the invocation answered by each response position.
    inv_pos: Dict[int, int]
    # Trace positions of the invocations of each input, in trace order:
    # the c-th copy of input e becomes available to a commit history at
    # any response position strictly after ``inv_positions[e][c-1]``.
    inv_positions: Dict[Input, Tuple[int, ...]]
    # One cached ADT step function (unvalidated; inputs are pre-checked).
    step: "Callable"
    visited: Set[Tuple[Hashable, FrozenSet[int], FrozenSet]] = field(
        default_factory=set
    )
    witness: Dict[int, History] = field(default_factory=dict)
    # Number of copies of each input consumed by the current master
    # history, maintained incrementally (no per-step multiset rebuilds).
    used: Dict[Input, int] = field(default_factory=dict)
    nodes: int = 0
    node_limit: Optional[int] = None


class _BudgetExceeded(Exception):
    """Internal: the search outgrew ``node_limit`` (-> an ``unknown``
    result)."""


def _search(
    ctx: _SearchContext,
    master: History,
    state: Hashable,
    committed: FrozenSet[int],
    max_threshold: int,
) -> bool:
    if len(committed) == len(ctx.responses):
        return True
    # Lowe-style state caching: the subtree verdict depends only on the
    # ADT state, the committed set, and the per-input consumption counts
    # (Validity and feasibility are functions of counts via the
    # availability thresholds) — not on the order of the master history.
    key = (state, committed, frozenset(ctx.used.items()))
    if key in ctx.visited:
        return False
    ctx.visited.add(key)
    ctx.nodes += 1
    if ctx.node_limit is not None and ctx.nodes > ctx.node_limit:
        raise _BudgetExceeded(f"the {ctx.node_limit}-node budget")

    min_uncommitted = len(ctx.trace)
    max_uncommitted = -1
    for position in ctx.responses:
        if position not in committed:
            if position < min_uncommitted:
                min_uncommitted = position
            if position > max_uncommitted:
                max_uncommitted = position

    used = ctx.used
    step = ctx.step

    # Option A: commit an uncommitted response next.
    for position in ctx.responses:
        if position in committed:
            continue
        # Real-Time Order: a response that occurred before this
        # operation's invocation must already be committed (it must be a
        # strict prefix in the chain, and the DFS commits in chain order).
        if min_uncommitted < ctx.inv_pos[position]:
            continue
        action = ctx.trace[position]
        payload = action.input
        copies = used.get(payload, 0) + 1
        positions = ctx.inv_positions.get(payload, ())
        if copies > len(positions):
            continue
        # Validity in O(1): the extended history fits the inputs invoked
        # before `position` iff every consumed copy was invoked strictly
        # earlier — i.e. the latest availability threshold is < position.
        threshold = positions[copies - 1]
        if threshold < max_threshold:
            threshold = max_threshold
        if threshold >= position:
            continue
        new_state, output = step(state, payload)
        if output != action.output:
            continue
        extended = master + (payload,)
        ctx.witness[position] = extended
        used[payload] = copies
        if _search(
            ctx, extended, new_state, committed | {position}, threshold
        ):
            return True
        if copies > 1:
            used[payload] = copies - 1
        else:
            del used[payload]
        del ctx.witness[position]

    # Option B: interleave an invocation input without committing (needed
    # for pending invocations whose effect is visible to others, and for
    # commit histories that embed other clients' inputs before their own
    # commit point).  Only inputs with unconsumed copies are candidates,
    # and only while some uncommitted response can still absorb them.
    for payload, positions in ctx.inv_positions.items():
        copies = used.get(payload, 0) + 1
        if copies > len(positions):
            continue
        threshold = positions[copies - 1]
        if threshold < max_threshold:
            threshold = max_threshold
        if threshold >= max_uncommitted:
            continue
        new_state, _ = step(state, payload)
        used[payload] = copies
        if _search(
            ctx, master + (payload,), new_state, committed, threshold
        ):
            return True
        if copies > 1:
            used[payload] = copies - 1
        else:
            del used[payload]

    return False


def linearize(
    trace: Trace, adt: ADT, node_limit: Optional[int] = None
) -> LinearizationResult:
    """Search for a linearization function for ``trace`` (Definition 5).

    Returns a :class:`LinearizationResult`; on success the witness can be
    re-validated with :func:`check_linearization_function`.  ``node_limit``
    optionally bounds the nodes the search expands; running out of it
    returns an ``unknown`` result whose reason names the budget, so
    callers can treat a blown budget as inconclusive without exception
    plumbing.
    A history deeper than the interpreter's recursion limit is the same
    kind of ``unknown``, never a ``RecursionError``.

    All invocation inputs must belong to the ADT's input set: a trace
    containing an invocation outside ``I_T`` is not a trace of ``sigT``
    at all (Section 4.2) and is rejected outright.
    """
    if not is_wellformed(trace):
        return LinearizationResult(False, reason="trace is not well-formed")

    responses = _response_positions(trace)
    inv_positions: Dict[Input, List[int]] = {}
    for index, action in enumerate(trace.actions):
        if isinstance(action, Invocation):
            if not adt.is_input(action.input):
                return LinearizationResult(
                    False, reason=f"invalid ADT input at index {index}"
                )
            inv_positions.setdefault(action.input, []).append(index)
    for position in responses:
        action = trace[position]
        if not adt.is_input(action.input):
            return LinearizationResult(
                False, reason=f"invalid ADT input at index {position}"
            )
    if not responses:
        return LinearizationResult(True, witness={}, master=())

    ctx = _SearchContext(
        trace=trace,
        responses=responses,
        inv_pos=invocation_positions(trace),
        inv_positions={
            payload: tuple(indices)
            for payload, indices in inv_positions.items()
        },
        step=adt.step,
        node_limit=node_limit,
    )
    try:
        found = _search(ctx, (), adt.initial_state, frozenset(), -1)
    except _BudgetExceeded as budget:
        return LinearizationResult(
            False,
            unknown=True,
            reason=(
                f"linearization search exceeded {budget}; verdict unknown"
            ),
        )
    except RecursionError:
        # the DFS recurses once per linearized input, so the
        # interpreter's stack is a budget too: blowing it proves
        # nothing about the trace
        return LinearizationResult(
            False,
            unknown=True,
            reason=(
                f"linearization search of {len(responses)} responses "
                f"exceeded the recursion limit; verdict unknown"
            ),
        )
    if found:
        witness = dict(ctx.witness)
        master = max(witness.values(), key=len) if witness else ()
        return LinearizationResult(True, witness=witness, master=master)
    return LinearizationResult(
        False, reason="no linearization function exists"
    )


# ---------------------------------------------------------------------------
# Incremental (streaming) frontier search
# ---------------------------------------------------------------------------

#: One speculative linearization state of a live stream: the ADT state
#: reached by the operations linearized so far, plus the *promises* —
#: operations linearized ahead of their responses, each carrying the
#: output its eventual response must produce.  A frontier is a set of
#: these; the stream is linearizable so far iff the set is non-empty.
FrontierConfig = Tuple[Hashable, FrozenSet[Tuple[Hashable, Hashable]]]


class FrontierBudgetExceeded(Exception):
    """A single :func:`frontier_step` outgrew its node budget.

    The streaming analogue of ``node_limit``: callers treat it as an
    *unknown* verdict (the monitor degrades instead of thrashing), never
    as a violation.
    """


#: In ``recorded``: the recorded history ends with this operation open.
NEVER_ANSWERED = ("never answered",)


def initial_frontier(adt: ADT) -> FrozenSet[FrontierConfig]:
    """The frontier of the empty stream: initial state, no promises."""
    return frozenset({(adt.initial_state, frozenset())})


def frontier_step(
    step: "Callable",
    configs: FrozenSet[FrontierConfig],
    open_inputs: Mapping[Hashable, Input],
    respond_id: Hashable,
    output: Hashable,
    node_limit: Optional[int] = None,
    recorded: Optional[Mapping[Hashable, Hashable]] = None,
) -> FrozenSet[FrontierConfig]:
    """Advance a linearization frontier past one response event.

    This is the incremental version of :func:`linearize`'s search, in the
    just-in-time style (Lowe): invocations merely open operations; all
    search effort happens at responses.  ``open_inputs`` maps the ids of
    the currently-open operations (invoked, not yet responded) to their
    ADT inputs, including ``respond_id`` — the operation whose response
    carrying ``output`` just arrived.  For each configuration the step
    explores every way to linearize a (possibly empty) sequence of other
    open operations speculatively — recording each one's output as a
    promise to be checked against its own later response — culminating
    in ``respond_id`` itself, whose output must equal ``output`` *now*.
    Configurations in which ``respond_id`` was already speculatively
    linearized survive iff the promised output matches.

    Deferring further linearizations to later response events loses no
    completeness: an open operation stays available for linearization at
    every later event up to its own response, so any witness order can
    be replayed lazily.  Real-time order is inherent — an operation can
    only be linearized between its invocation and its response events.

    Returns the surviving frontier; empty means the stream up to and
    including this response is **not** linearizable.  The decided prefix
    is folded into each configuration's ADT state, which is what lets a
    streaming caller garbage-collect history: memory is the frontier
    plus the open operations, not the trace.

    ``node_limit`` bounds the configurations explored in this one step;
    exceeding it raises :class:`FrontierBudgetExceeded` (verdict
    *unknown*, not a violation).

    ``recorded`` is what only a post-hoc caller has: for open operations
    it maps the id to the output their own response carries later in
    the recorded history (or to :data:`NEVER_ANSWERED`).  A speculative
    linearization whose output contradicts it is cut at creation rather
    than carried to that response and killed there, and the promise of
    an operation that never answers carries no output, because nothing
    will ever check it.  Neither changes which frontiers are empty, so
    verdicts are those of the online step (``recorded=None``); only the
    nodes and configurations spent on what the history already refutes
    are saved.
    """
    respond_input = open_inputs[respond_id]
    survivors: Set[FrontierConfig] = set()
    nodes = 0
    for state, promises in configs:
        already = None
        for op_id, promised in promises:
            if op_id == respond_id:
                already = promised
                break
        if already is not None:
            if already == output:
                survivors.add(
                    (state, promises - {(respond_id, already)})
                )
            # a mismatched promise kills this configuration only; other
            # configurations may still explain the response
            continue
        # DFS over speculative linearizations of other open operations,
        # trying to linearize the responder at every node.
        stack: List[FrontierConfig] = [(state, promises)]
        seen: Set[FrontierConfig] = {(state, promises)}
        while stack:
            base_state, base_promises = stack.pop()
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise FrontierBudgetExceeded(
                    f"frontier step exceeded {node_limit} nodes"
                )
            new_state, produced = step(base_state, respond_input)
            if produced == output:
                survivors.add((new_state, base_promises))
            linearized = {op_id for op_id, _ in base_promises}
            for op_id, payload in open_inputs.items():
                if op_id == respond_id or op_id in linearized:
                    continue
                spec_state, spec_out = step(base_state, payload)
                if recorded:
                    answer = recorded.get(op_id, spec_out)
                    if answer is NEVER_ANSWERED:
                        spec_out = NEVER_ANSWERED
                    elif answer != spec_out:
                        continue
                candidate = (
                    spec_state,
                    base_promises | {(op_id, spec_out)},
                )
                if candidate not in seen:
                    seen.add(candidate)
                    stack.append(candidate)
    return frozenset(survivors)


def is_linearizable(trace: Trace, adt: ADT) -> bool:
    """Boolean convenience wrapper around :func:`linearize`."""
    return linearize(trace, adt).ok


def lin_trace_property_contains(trace: Trace, adt: ADT) -> bool:
    """Membership test for the ``Lin_T`` trace property (Section 4.6).

    ``Traces(Lin_T)`` is the set of all traces in ``sigT`` satisfying
    linearizability; a system ``S`` implements the ADT iff the projection
    of its traces onto ``sigT`` all pass this test.
    """
    for action in trace:
        if isinstance(action, Invocation):
            if not adt.is_input(action.input):
                return False
        elif isinstance(action, Response):
            if not adt.is_input(action.input) or not adt.is_output(
                action.output
            ):
                return False
        else:
            return False  # switch actions are not in sigT
    return is_linearizable(trace, adt)
