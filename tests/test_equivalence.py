"""Theorem 1: the new definition of linearizability vs the classical one.

The paper proves the definitions equivalent, while also noting that other
definitions "assume more or less explicitly that all inputs submitted are
unique" and that the new one "coincides with the other definitions on
traces satisfying the assumption".  The boundary is a clause of the
differential oracle (``tests/oracle.py``), which every sweep below feeds:

* classical  =>  new holds unconditionally (a classical witness induces a
  linearization function): the definition may never say ``violation``
  where the others say ``ok``;
* the converse holds on traces with unique inputs, and on repeated
  inputs of objects whose outputs never tell which duplicate fills a
  history slot (consensus, registers: ``oracle.DUPLICATE_BLIND``); on
  the seeded queue and counter sweeps below it holds empirically, and
  they pin it (``sweep(pinned=True)``);
* with repeated inputs on an *order-sensitive* ADT (the fetch-and-add
  counter, the queue) the new definition is strictly coarser: multiset
  validity cannot attribute which of two identical invocations occupies
  a slot, so a real-time edge can be laundered through a duplicate.  The
  exact counterexample is pinned below.

Each sweep's traces are oracle inputs, so every other decider (the
engine post hoc and online, response order, the brute-force
Herlihy-Wing) answers to them as well.
"""

import random

import pytest
from hypothesis import given, settings

from oracle import assert_deciders_agree, family_histories
from repro.core.adt import (
    consensus_adt,
    counter_adt,
    deq,
    enq,
    inc,
    propose,
    queue_adt,
    reg_read,
    reg_write,
    register_adt,
)
from repro.core.classical import is_linearizable_classical
from repro.core.linearizability import is_linearizable

from helpers import random_wellformed_trace

# The Theorem 1 families, as seeded sweeps.  Seeds are fixed integers:
# the sweeps are fully deterministic.
ADT_CASES = [
    ("consensus", consensus_adt(), [propose("a"), propose("b")], 1001),
    (
        "register",
        register_adt(),
        [reg_read(), reg_write(1), reg_write(2)],
        1002,
    ),
    ("queue", queue_adt(), [enq(1), enq(2), deq()], 1003),
    ("counter-unique", counter_adt(), [inc(1), inc(2), inc(4)], 1004),
]

ALL_CASES = ADT_CASES + [
    ("counter-dup", counter_adt(), [inc(), inc(2)], 1005),
]


def sweep(adt, inputs, rng, runs, n_clients, n_steps, pinned=False):
    """``runs`` random well-formed traces of ``adt``, each an oracle
    input; ``n_steps(rng)`` sizes each.  The verdicts they got.

    ``pinned`` also holds the definition to the classical checker on
    every trace, repeated inputs included, where the oracle holds it
    only on unique inputs outside ``DUPLICATE_BLIND``: on these seeded
    traces the two are known to agree, and a change that parts them is
    a regression.
    """
    verdicts = []
    for _ in range(runs):
        trace = random_wellformed_trace(
            rng, adt, inputs, n_clients=n_clients, n_steps=n_steps(rng)
        )
        verdicts.append(assert_deciders_agree(trace, adt))
        if pinned:
            assert is_linearizable(trace, adt) == is_linearizable_classical(
                trace, adt
            ), trace.actions
    return verdicts


@pytest.mark.parametrize("name,adt,inputs,seed", ADT_CASES)
def test_equivalence_on_random_traces(name, adt, inputs, seed):
    """Every decider agrees on 150 random traces per family, the
    definition with the classical checker on each, and the family holds
    genuine negatives, or the agreement proves little."""
    rng = random.Random(seed)
    verdicts = sweep(
        adt, inputs, rng, 150, 3, lambda r: r.randrange(2, 9), pinned=True
    )
    assert "violation" in verdicts and "ok" in verdicts


@pytest.mark.parametrize("name,adt,inputs,seed", ADT_CASES)
def test_equivalence_with_pending_invocations(name, adt, inputs, seed):
    """Agreement also on traces with pending invocations: four clients
    over seven steps leave most traces with an operation open."""
    rng = random.Random(seed + 7)
    sweep(adt, inputs, rng, 80, 4, lambda r: 7, pinned=True)


@pytest.mark.parametrize("name,adt,inputs,seed", ALL_CASES)
def test_classical_implies_new_unconditionally(name, adt, inputs, seed):
    """One direction of Theorem 1 holds on *every* family, duplicates
    included: a classical witness always yields a linearization
    function, so the oracle lets the definition say ``violation`` only
    where the others do."""
    rng = random.Random(seed + 13)
    sweep(adt, inputs, rng, 120, 3, lambda r: r.randrange(2, 9))


def test_duplicate_inputs_on_order_sensitive_adt_diverge():
    """The boundary of Theorem 1 (anticipated by §4.3's uniqueness
    remark): with two identical fetch-and-add invocations, the new
    definition accepts a trace the classical one rejects — c0's
    increment is invoked *after* c2's response, yet the multiset
    accounting lets an identical earlier increment stand in for it."""
    from repro.core.actions import inv, res
    from repro.core.traces import Trace

    adt = counter_adt()
    t = Trace(
        [
            inv("c2", 1, inc()),
            inv("c1", 1, inc()),
            res("c2", 1, inc(), ("count", 1)),
            inv("c0", 1, inc()),
            res("c1", 1, inc(), ("count", 2)),
        ]
    )
    assert not is_linearizable_classical(t, adt)
    assert is_linearizable(t, adt)  # the documented divergence


@settings(max_examples=60, deadline=None)
@given(family_histories("consensus"))
def test_equivalence_hypothesis_consensus(trace):
    """Hypothesis-driven Theorem 1 check on the consensus family."""
    assert_deciders_agree(trace, consensus_adt())


@settings(max_examples=40, deadline=None)
@given(family_histories("register"))
def test_equivalence_hypothesis_register(trace):
    """Hypothesis-driven Theorem 1 check on the register family."""
    assert_deciders_agree(trace, register_adt())


def test_equivalence_on_repeated_inputs():
    """The new definition handles repeated events; it must still agree
    with every other decider when every client proposes the same
    value."""
    adt = consensus_adt()
    sweep(adt, [propose("same")], random.Random(99), 60, 3, lambda r: 6)


def test_realtime_counterexample_to_unrepaired_definition():
    """The trace that separates the paper's literal Definition 6 from the
    classical definition: a read invoked after a completed write cannot
    return the pre-write value.  Both checkers must reject it (the new
    checker only does so thanks to the Real-Time Order repair)."""
    from repro.core.actions import inv, res
    from repro.core.traces import Trace

    adt = register_adt()
    t = Trace(
        [
            inv("w", 1, reg_write(2)),
            res("w", 1, reg_write(2), ("ok",)),
            inv("r", 1, reg_read()),
            res("r", 1, reg_read(), ("value", None)),
        ]
    )
    assert not is_linearizable_classical(t, adt)
    assert not is_linearizable(t, adt)


def test_realtime_repair_does_not_reject_overlapping_ops():
    """Out-of-order commits of *overlapping* operations stay legal."""
    from repro.core.actions import inv, res
    from repro.core.traces import Trace

    adt = register_adt()
    t = Trace(
        [
            inv("w", 1, reg_write(1)),
            inv("r", 1, reg_read()),
            res("w", 1, reg_write(1), ("ok",)),
            res("r", 1, reg_read(), ("value", None)),
        ]
    )
    assert is_linearizable(t, adt)
    assert is_linearizable_classical(t, adt)
