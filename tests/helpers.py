"""Shared test utilities: trace builders and random trace generators."""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.core.actions import Invocation, Response, Switch
from repro.core.adt import ADT, decide, propose
from repro.core.traces import Trace


def mk_trace(*actions) -> Trace:
    """Build a trace from action objects."""
    return Trace(actions)


def consensus_trace(*events) -> Trace:
    """Compact consensus-trace builder.

    Events are tuples:
      ("p", client, value)            — propose invocation (phase 1)
      ("d", client, value, decided)   — decide response (phase 1)
      ("p2"/"d2", ...)                — the same at phase 2
      ("swi", client, value, sv, tag) — switch carrying propose(value)
    """
    actions = []
    for event in events:
        kind = event[0]
        if kind == "p":
            _, client, value = event
            actions.append(Invocation(client, 1, propose(value)))
        elif kind == "p2":
            _, client, value = event
            actions.append(Invocation(client, 2, propose(value)))
        elif kind == "d":
            _, client, value, decided = event
            actions.append(
                Response(client, 1, propose(value), decide(decided))
            )
        elif kind == "d2":
            _, client, value, decided = event
            actions.append(
                Response(client, 2, propose(value), decide(decided))
            )
        elif kind == "swi":
            _, client, value, sv, tag = event
            actions.append(Switch(client, tag, propose(value), sv))
        else:
            raise ValueError(f"unknown event {event!r}")
    return Trace(actions)


def random_wellformed_trace(
    rng: random.Random,
    adt: ADT,
    inputs: Sequence,
    n_clients: int = 3,
    n_steps: int = 8,
    honest_bias: float = 0.5,
) -> Trace:
    """A random well-formed (phase-1) trace over the given ADT inputs.

    With probability ``honest_bias`` a response carries the output of an
    atomic execution (a random linearization point at response time, i.e.
    the trace is built by running the ADT sequentially at response
    instants — always linearizable); otherwise the output is drawn from
    outputs the ADT could produce on random histories, which usually
    breaks linearizability.  This mix gives the equivalence tests both
    positive and negative instances.
    """
    clients = [f"c{i}" for i in range(n_clients)]
    open_input: Dict[str, Optional[object]] = {c: None for c in clients}
    state = adt.initial_state
    actions = []
    honest = rng.random() < honest_bias
    for _ in range(n_steps):
        client = rng.choice(clients)
        if open_input[client] is None:
            payload = rng.choice(list(inputs))
            actions.append(Invocation(client, 1, payload))
            open_input[client] = payload
        else:
            payload = open_input[client]
            if honest:
                state, output = adt.transition(state, payload)
            else:
                # Arbitrary plausible output: run the ADT on a random
                # history ending with this input.
                history = [
                    rng.choice(list(inputs))
                    for _ in range(rng.randrange(0, 3))
                ] + [payload]
                output = adt.output(tuple(history))
            actions.append(Response(client, 1, payload, output))
            open_input[client] = None
    return Trace(actions)


def random_linearizable_trace(
    rng: random.Random,
    adt: ADT,
    inputs: Sequence,
    n_clients: int = 3,
    n_steps: int = 8,
) -> Trace:
    """A random trace guaranteed linearizable (atomic at response time)."""
    return random_wellformed_trace(
        rng, adt, inputs, n_clients, n_steps, honest_bias=1.1
    )


def run_quiet(scenario):
    """Run ``scenario()`` on a fresh event loop; returns its result and
    every context the loop's exception handler was handed (a stray task
    failure, a callback or a protocol that raised): ``[]`` when quiet."""
    import asyncio

    errors = []
    loop = asyncio.new_event_loop()
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    try:
        return loop.run_until_complete(scenario()), errors
    finally:
        loop.close()


def client_timers(loop):
    """Start recording the wake time of every timer a
    :class:`~repro.net.pipeline.PipelineClient` arms on ``loop`` (its
    watchdog; the per-decree quorum timer is protocol and not meant)."""
    from repro.net.pipeline import PipelineClient

    armed, call_at = [], loop.call_at

    def counting(when, callback, *args, **kwargs):
        if isinstance(getattr(callback, "__self__", None), PipelineClient):
            armed.append(when)
        return call_at(when, callback, *args, **kwargs)

    loop.call_at = counting
    return armed
