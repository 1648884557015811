"""Speculative linearizability (Section 5 of the paper, Defs 16-36).

A speculation phase ``(m, n)`` accepts invocations and *init* switch
actions ``swi(c, m, in, v)`` and produces responses and *abort* switch
actions ``swi(c, n, in, v)``.  Switch values are interpreted through a
relation ``rinit`` mapping each value to a set of "equivalent" input
histories — the possible linearizations of the previous phase's execution.

Definition 19: a trace ``t`` is ``(m, n)``-speculatively linearizable iff
it is ``(m, n)``-well-formed and **for all** interpretations ``finit`` of
the init actions there **exist** an interpretation ``fabort`` of the abort
actions and a speculative linearization function ``g`` satisfying:

* **Explains**       — ``out = f_T(g(i))`` at every response;
* **Validity**       — commit/abort histories draw only on *valid inputs*:
  inputs carried by prior init actions (with the histories they interpret
  to, pointwise-max combined, Def. 25) plus inputs invoked in this phase
  (additively, Def. 26);
* **Commit Order**   — commit histories form a strict prefix chain;
* **Init Order**     — the longest common prefix of the init histories is
  a strict prefix of every commit and every abort history (vacuous when
  the trace has no init actions, in particular when ``m = 1``);
* **Abort Order**    — every commit history is a prefix of every abort
  history.

The universal quantification over ``finit`` ranges over the interpretation
sets supplied by an :class:`RInit`; for infinite ``rinit`` relations (like
the consensus example of Section 2.4) callers provide a finite,
trace-relevant candidate set.

The checker exploits two structural facts: (1) Init Order pins the master
history to start with ``lcp(init histories)``; (2) Abort Order makes every
commit history a prefix of ``lcp(abort histories)`` whenever the trace
aborts, collapsing the commit search to a prefix walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .actions import Input, Invocation, Switch, SwitchValue
from .adt import ADT, History
from .multisets import Multiset, elems, union_all
from .sequences import is_prefix, is_strict_prefix, longest_common_prefix
from .traces import (
    Trace,
    abort_indices,
    commit_indices,
    init_indices,
    inputs,
    is_phase_wellformed,
)


class RInit:
    """The ``rinit`` relation: switch values -> sets of input histories.

    ``interpretations(value)`` returns the (finite, for checking purposes)
    set of histories the value may stand for.  ``value_of(history)``
    implements the requirement that the inverse relation is a total onto
    function: every history is represented by exactly one switch value.

    The optional ``admissible(switch_action, history)`` predicate narrows
    the candidate set per switch *action*.  The paper's formal ``rinit``
    is client-independent, but its worked instantiation for consensus maps
    a switch of client ``c`` to "histories ... containing only invocations
    from clients other than c" (Section 2.4) — i.e. the candidate set
    depends on who switched.  The predicate carries exactly that
    refinement; checkers quantify over the admissible candidates.
    """

    def __init__(
        self,
        interpretations: Callable[[SwitchValue], Sequence[History]],
        value_of: Callable[[History], SwitchValue],
        admissible: Optional[Callable[[Switch, History], bool]] = None,
        abort_interpretations: Optional[
            Callable[[SwitchValue], Sequence[History]]
        ] = None,
        description: str = "",
    ) -> None:
        self._interpretations = interpretations
        self._value_of = value_of
        self._admissible = admissible
        self._abort_interpretations = abort_interpretations
        self.description = description

    def interpretations(self, value: SwitchValue) -> Tuple[History, ...]:
        """Candidate histories the switch value may represent."""
        return tuple(tuple(h) for h in self._interpretations(value))

    def abort_interpretations(self, value: SwitchValue) -> Tuple[History, ...]:
        """Candidate histories for *abort* actions.

        For an infinite ``rinit`` truncated to a finite candidate set,
        the abort side (existentially quantified) needs strictly longer
        candidates than the init side (universally quantified): Init
        Order demands an abort history strictly extending the longest
        common prefix of the chosen init histories, and in the real,
        infinite relation such an extension always exists.  Defaults to
        the plain interpretation set.
        """
        source = self._abort_interpretations or self._interpretations
        return tuple(tuple(h) for h in source(value))

    def interpretations_for(self, action: Switch) -> Tuple[History, ...]:
        """Candidate histories for one concrete (init) switch action."""
        candidates = self.interpretations(action.value)
        if self._admissible is None:
            return candidates
        return tuple(
            h for h in candidates if self._admissible(action, h)
        )

    def abort_interpretations_for(self, action: Switch) -> Tuple[History, ...]:
        """Candidate histories for one concrete abort switch action."""
        candidates = self.abort_interpretations(action.value)
        if self._admissible is None:
            return candidates
        return tuple(
            h for h in candidates if self._admissible(action, h)
        )

    def value_of(self, history: Sequence[Input]) -> SwitchValue:
        """The unique switch value representing ``history`` (``rinit^-1``)."""
        return self._value_of(tuple(history))

    def __repr__(self) -> str:
        return f"RInit({self.description or 'anonymous'})"


def singleton_rinit() -> RInit:
    """The Section-6 relation: each history is its own switch value.

    ``rinit(h) = {h}``; used by the universal-ADT specification automaton.
    """
    return RInit(
        interpretations=lambda value: (tuple(value),),
        value_of=lambda history: history,
        description="singleton (value = history)",
    )





def consensus_rinit(
    values: Iterable[Hashable],
    max_extra: int = 2,
) -> RInit:
    """The rinit of the paper's consensus examples (Sections 2.4 / 2.5).

    A switch value ``v`` stands for every history that starts with
    ``propose(v)``.  All such histories are equivalent for the consensus
    ADT: the first proposal determines every later decision.  The finite
    candidate set contains histories ``[p(v), p(w1), ..., p(wk)]`` with
    ``k <= max_extra`` and ``wi`` drawn from ``values``.
    """
    from .adt import propose

    universe = tuple(values)

    def histories_up_to(value: SwitchValue, extra: int) -> List[History]:
        result: List[History] = [(propose(value),)]
        pool: List[History] = [(propose(value),)]
        for _ in range(extra):
            pool = [
                h + (propose(w),) for h in pool for w in universe
            ]
            result.extend(pool)
        return result

    def histories_for(value: SwitchValue) -> List[History]:
        return histories_up_to(value, max_extra)

    def abort_histories_for(value: SwitchValue) -> List[History]:
        # One extra level so Init Order's strict extension of the longest
        # init candidate is always available (the real rinit is infinite).
        return histories_up_to(value, max_extra + 1)

    def value_of(history: History) -> SwitchValue:
        if not history:
            raise ValueError("the empty history has no representing value")
        tag, value = history[0]
        return value

    return RInit(
        histories_for,
        value_of,
        abort_interpretations=abort_histories_for,
        description="consensus rinit",
    )


# ---------------------------------------------------------------------------
# Interpretations (Definitions 17-18)
# ---------------------------------------------------------------------------


def is_interpretation(
    trace: Trace,
    phase_tag: int,
    f: Mapping[int, History],
    rinit: RInit,
    abort: bool = False,
) -> bool:
    """Check Definitions 17/18: ``f`` interprets the switches tagged
    ``phase_tag`` (``m`` for init actions, ``n`` for abort actions; pass
    ``abort=True`` for the latter so the abort candidate set is used)."""
    for i, action in enumerate(trace):
        if isinstance(action, Switch) and action.phase == phase_tag:
            if i not in f:
                return False
            candidates = (
                rinit.abort_interpretations_for(action)
                if abort
                else rinit.interpretations_for(action)
            )
            if tuple(f[i]) not in set(candidates):
                return False
    return True


def enumerate_interpretations(
    trace: Trace,
    phase_tag: int,
    rinit: RInit,
    max_interpretations: Optional[int] = None,
) -> Iterable[Dict[int, History]]:
    """Interpretations of the switches tagged ``phase_tag``.

    By default, the full product over switch indices of each value's
    candidate histories (a single empty mapping when the trace has no
    such switches).  The product is exponential in the number of init
    actions; ``max_interpretations`` caps it by deterministic sampling
    (with a fixed seed) — the check becomes an approximation of
    the universal quantifier, which callers must surface (see
    ``SpeculativeResult.exhaustive``).
    """
    import random as _random

    indices = [
        i
        for i, action in enumerate(trace)
        if isinstance(action, Switch) and action.phase == phase_tag
    ]
    if not indices:
        yield {}
        return
    candidate_lists = [
        rinit.interpretations_for(trace[i]) for i in indices
    ]
    total = 1
    for candidates in candidate_lists:
        total *= max(1, len(candidates))
    if max_interpretations is None or total <= max_interpretations:
        for combo in itertools.product(*candidate_lists):
            yield dict(zip(indices, combo))
        return
    rng = _random.Random(0)
    seen = set()
    # Always include the "shortest candidates" corner (empirically the
    # most constraining interpretation: the longest lcp per length).
    first = tuple(
        min(candidates, key=len) for candidates in candidate_lists
    )
    seen.add(first)
    yield dict(zip(indices, first))
    attempts = 0
    while len(seen) < max_interpretations and attempts < 20 * max_interpretations:
        attempts += 1
        combo = tuple(
            rng.choice(candidates) for candidates in candidate_lists
        )
        if combo in seen:
            continue
        seen.add(combo)
        yield dict(zip(indices, combo))


def count_interpretations(trace: Trace, phase_tag: int, rinit: RInit) -> int:
    """Size of the full interpretation product (without enumerating it)."""
    total = 1
    for i, action in enumerate(trace):
        if isinstance(action, Switch) and action.phase == phase_tag:
            total *= max(1, len(rinit.interpretations_for(action)))
    return total


# ---------------------------------------------------------------------------
# Valid inputs (Definitions 25-26)
# ---------------------------------------------------------------------------


def initially_valid_inputs(
    trace: Trace,
    m: int,
    finit: Mapping[int, History],
    index: int,
) -> Multiset:
    """``ivi(m, t, finit, i)`` (Definition 25).

    The interpreted histories combine by pointwise max — they all
    approximate the *same* previous-phase linearization, so a shared
    prefix must not be double counted.  The carried pending inputs
    combine *additively*, both with the histories and across switches:
    each is a distinct invocation event (well-formedness gives one init
    switch per client), and in the paper's own proofs the concatenation
    ``th @ t'`` contains the history's invocations and, separately, every
    replaced pending invocation.

    This max-histories / sum-pendings split is a deliberate reading of
    Definition 25 (whose two union symbols are ambiguous between max and
    sum).  All-max starves legitimate executions twice over: a client
    whose switch value can only be interpreted as histories led by its
    *own* pending proposal — e.g. a Quorum client that times out and
    switches with its own value — could never be served by the next
    phase under the strict Init Order; and two clients switching with
    identical pending inputs would get one budget slot for two
    invocations.  All-sum over histories would instead double count the
    shared linearization prefix.
    """
    histories: List[Multiset] = []
    carried: List[Input] = []
    for j in range(index):
        action = trace[j]
        if isinstance(action, Switch) and action.phase == m:
            histories.append(elems(finit[j]))
            carried.append(action.input)
    return union_all(histories).sum(Multiset(carried))


def valid_inputs(
    trace: Trace,
    m: int,
    finit: Mapping[int, History],
    index: int,
) -> Multiset:
    """``vi(m, t, finit, i)`` (Definition 26): ivi ⊎ inputs invoked before i."""
    return initially_valid_inputs(trace, m, finit, index).sum(
        elems(inputs(trace, index))
    )


# ---------------------------------------------------------------------------
# The speculative linearization predicates (Definitions 27-32)
# ---------------------------------------------------------------------------


def commit_index_valid(
    trace: Trace,
    m: int,
    finit: Mapping[int, History],
    index: int,
    history: History,
) -> bool:
    """Definition 27: the commit history at ``index`` draws on valid inputs
    and ends with the responding input."""
    action = trace[index]
    if not history or history[-1] != action.input:
        return False
    return elems(history).issubset(valid_inputs(trace, m, finit, index))


def abort_index_valid(
    trace: Trace,
    m: int,
    finit: Mapping[int, History],
    index: int,
    abort_history: History,
) -> bool:
    """Definition 28: ``elems(fabort(v)) u {in} <= vi(m, t, finit, i)``."""
    action = trace[index]
    required = elems(abort_history).union(Multiset([action.input]))
    return required.issubset(valid_inputs(trace, m, finit, index))


@dataclass(frozen=True)
class SpeculativeWitness:
    """A witness for one interpretation ``finit``.

    ``commit`` maps response positions to commit histories; ``abort`` maps
    abort positions to abort histories; ``init_prefix`` is the longest
    common prefix of the init histories.
    """

    finit: Mapping[int, History]
    fabort: Mapping[int, History]
    commit: Mapping[int, History]
    init_prefix: History


@dataclass(frozen=True)
class SpeculativeResult:
    """Outcome of a speculative linearizability check.

    ``ok`` requires a witness for *every* interpretation of the init
    actions; ``witnesses`` collects one witness per interpretation checked,
    and on failure ``failing_finit`` is an interpretation with no witness.
    ``exhaustive`` is False when the universal quantifier was sampled
    (``max_interpretations``) rather than fully enumerated — a positive
    verdict is then an approximation.
    """

    ok: bool
    witnesses: Tuple[SpeculativeWitness, ...] = ()
    failing_finit: Optional[Mapping[int, History]] = None
    reason: str = ""
    exhaustive: bool = True

    def __bool__(self) -> bool:
        return self.ok


def check_speculative_witness(
    trace: Trace,
    m: int,
    n: int,
    adt: ADT,
    witness: SpeculativeWitness,
    rinit: RInit,
) -> Tuple[bool, str]:
    """Validate a full witness against Definitions 19-32 (the definition
    made executable; used by tests and by the search as a final guard)."""
    if not is_phase_wellformed(trace, m, n):
        return False, "trace is not (m,n)-well-formed"
    if not is_interpretation(trace, m, witness.finit, rinit):
        return False, "finit is not an interpretation of the init actions"
    if not is_interpretation(trace, n, witness.fabort, rinit, abort=True):
        return False, "fabort is not an interpretation of the abort actions"

    commits = commit_indices(trace)
    aborts = abort_indices(trace, n)
    inits = init_indices(trace, m)

    # Explains.
    for i in commits:
        history = witness.commit.get(i)
        if history is None:
            return False, f"no commit history assigned at index {i}"
        if adt.output(history) != trace[i].output:
            return False, f"g does not explain the response at index {i}"

    # Validity (Definition 29).
    for i in commits:
        if not commit_index_valid(trace, m, witness.finit, i, witness.commit[i]):
            return False, f"commit index {i} is not valid"
    for i in aborts:
        if not abort_index_valid(trace, m, witness.finit, i, witness.fabort[i]):
            return False, f"abort index {i} is not valid"

    # Commit Order (Definition 30).
    ordered = sorted(
        (witness.commit[i] for i in commits), key=len
    )
    for h1, h2 in zip(ordered, ordered[1:]):
        if h1 == h2:
            continue  # identical histories may only arise from the same index
        if not is_strict_prefix(h1, h2):
            return False, "Commit Order violated"
    lengths = [len(witness.commit[i]) for i in commits]
    if len(set(lengths)) != len(lengths):
        return (
            False,
            "Commit Order violated (two distinct commit indices share a "
            "history length)",
        )

    # Real-Time Order (the repair documented in linearizability.py).
    from .linearizability import invocation_positions

    inv_pos = invocation_positions(trace)
    for i in commits:
        for j in commits:
            if i != j and i < inv_pos[j]:
                if not is_strict_prefix(witness.commit[i], witness.commit[j]):
                    return False, f"Real-Time Order violated ({i}, {j})"

    # Init Order (Definition 31) — vacuous with no init actions.
    if inits:
        init_prefix = longest_common_prefix(
            [witness.finit[i] for i in inits]
        )
        if tuple(witness.init_prefix) != init_prefix:
            return False, "witness init_prefix mismatch"
        for i in commits:
            if not is_strict_prefix(init_prefix, witness.commit[i]):
                return False, f"Init Order violated at commit index {i}"
        for i in aborts:
            if not is_strict_prefix(init_prefix, witness.fabort[i]):
                return False, f"Init Order violated at abort index {i}"

    # Abort Order (Definition 32).
    for i in commits:
        for j in aborts:
            if not is_prefix(witness.commit[i], witness.fabort[j]):
                return False, (
                    f"Abort Order violated: commit {i} vs abort {j}"
                )
    return True, ""


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _abort_candidates(
    trace: Trace,
    m: int,
    n: int,
    finit: Mapping[int, History],
    rinit: RInit,
    init_prefix: History,
    has_inits: bool,
) -> List[Tuple[int, List[History]]]:
    """Per abort index, the rinit candidates surviving the local checks
    (abort validity and Init Order)."""
    survivors: List[Tuple[int, List[History]]] = []
    for i in abort_indices(trace, n):
        action = trace[i]
        options = []
        for candidate in rinit.abort_interpretations_for(action):
            if not abort_index_valid(trace, m, finit, i, candidate):
                continue
            if has_inits and not is_strict_prefix(init_prefix, candidate):
                continue
            options.append(candidate)
        survivors.append((i, options))
    return survivors


def _search_commits(
    trace: Trace,
    m: int,
    adt: ADT,
    finit: Mapping[int, History],
    init_prefix: History,
    abort_lcp: Optional[History],
    commits: Sequence[int],
) -> Optional[Dict[int, History]]:
    """DFS for the commit assignment given fixed finit/fabort choices.

    The master history starts at ``init_prefix``; each step either commits
    a remaining response (appending its input) or interleaves an available
    input.  When the trace aborts, every commit history must additionally
    be a prefix of ``abort_lcp``.
    """
    if not commits:
        return {}

    before = {i: valid_inputs(trace, m, finit, i) for i in commits}
    from .linearizability import invocation_positions

    inv_pos = invocation_positions(trace)
    available = elems(
        [a.input for a in trace if isinstance(a, Invocation)]
    ).sum(
        elems(
            [
                a.input
                for a in trace
                if isinstance(a, Switch) and a.phase == m
            ]
        )
    )
    for i in init_indices(trace, m):
        available = available.union(elems(finit[i]))

    try:
        state0, _ = adt.run(init_prefix)
    except ValueError:
        state0 = adt.initial_state
    witness: Dict[int, History] = {}
    visited: Set[Tuple[History, FrozenSet[int]]] = set()

    def prefix_of_abort(candidate: History) -> bool:
        return abort_lcp is None or is_prefix(candidate, abort_lcp)

    def dfs(master: History, state, committed: FrozenSet[int]) -> bool:
        if len(committed) == len(commits):
            return True
        key = (master, committed)
        if key in visited:
            return False
        visited.add(key)
        used = elems(master)

        for position in commits:
            if position in committed:
                continue
            # Real-Time Order (same repair as the plain checker): every
            # response preceding this operation's opening action commits
            # first.
            threshold = inv_pos[position]
            if any(
                other < threshold and other not in committed
                for other in commits
            ):
                continue
            action = trace[position]
            extended = master + (action.input,)
            if not prefix_of_abort(extended):
                continue
            if not elems(extended).issubset(before[position]):
                continue
            new_state, output = adt.transition(state, action.input)
            if output != action.output:
                continue
            witness[position] = extended
            if dfs(extended, new_state, committed | {position}):
                return True
            del witness[position]

        for candidate in available:
            if used.count(candidate) >= available.count(candidate):
                continue
            extended = master + (candidate,)
            if not prefix_of_abort(extended):
                continue
            feasible = any(
                position not in committed
                and elems(extended).issubset(before[position])
                for position in commits
            )
            if not feasible:
                continue
            new_state, _ = adt.transition(state, candidate)
            if dfs(extended, new_state, committed):
                return True
        return False

    if dfs(tuple(init_prefix), state0, frozenset()):
        return dict(witness)
    return None


def speculatively_linearize_for(
    trace: Trace,
    m: int,
    n: int,
    adt: ADT,
    rinit: RInit,
    finit: Mapping[int, History],
) -> Optional[SpeculativeWitness]:
    """Find a witness (g, fabort) for one fixed interpretation ``finit``."""
    inits = init_indices(trace, m)
    has_inits = bool(inits)
    init_prefix = longest_common_prefix([finit[i] for i in inits])
    commits = commit_indices(trace)

    per_abort = _abort_candidates(
        trace, m, n, finit, rinit, init_prefix, has_inits
    )
    if any(not options for _, options in per_abort):
        return None

    positions = [i for i, _ in per_abort]
    option_lists = [options for _, options in per_abort]
    for combo in itertools.product(*option_lists) if positions else [()]:
        fabort = dict(zip(positions, combo))
        abort_lcp: Optional[History]
        if fabort:
            abort_lcp = longest_common_prefix(list(fabort.values()))
        else:
            abort_lcp = None
        commit_assignment = _search_commits(
            trace, m, adt, finit, init_prefix, abort_lcp, commits
        )
        if commit_assignment is None:
            continue
        witness = SpeculativeWitness(
            finit=dict(finit),
            fabort=fabort,
            commit=commit_assignment,
            init_prefix=init_prefix,
        )
        ok, _ = check_speculative_witness(trace, m, n, adt, witness, rinit)
        if ok:
            return witness
    return None


def speculatively_linearize(
    trace: Trace,
    m: int,
    n: int,
    adt: ADT,
    rinit: RInit,
    max_interpretations: Optional[int] = None,
) -> SpeculativeResult:
    """Full check of Definition 19 over all init interpretations.

    ``max_interpretations`` caps the universal quantifier by sampling
    (for traces with many init actions); the result then carries
    ``exhaustive=False``.
    """
    if not is_phase_wellformed(trace, m, n):
        return SpeculativeResult(
            False, reason="trace is not (m,n)-well-formed"
        )
    exhaustive = (
        max_interpretations is None
        or count_interpretations(trace, m, rinit) <= max_interpretations
    )
    witnesses: List[SpeculativeWitness] = []
    for finit in enumerate_interpretations(
        trace, m, rinit, max_interpretations
    ):
        witness = speculatively_linearize_for(trace, m, n, adt, rinit, finit)
        if witness is None:
            return SpeculativeResult(
                False,
                failing_finit=finit,
                reason="no witness for some init interpretation",
                exhaustive=exhaustive,
            )
        witnesses.append(witness)
    return SpeculativeResult(
        True, witnesses=tuple(witnesses), exhaustive=exhaustive
    )


def is_speculatively_linearizable(
    trace: Trace, m: int, n: int, adt: ADT, rinit: RInit
) -> bool:
    """Boolean wrapper around :func:`speculatively_linearize`."""
    return speculatively_linearize(trace, m, n, adt, rinit).ok
