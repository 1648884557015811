"""Designing your own speculation phase, the framework way.

The paper's methodology (Section 2): write a simple algorithm optimized
for a favourable case, let it *switch* when the speculation fails, and
prove only the new phase — the composition theorem gives correctness of
the whole protocol for free.

This example builds a new first phase from scratch: **Sequencer**, a
single-server consensus that is even cheaper than Quorum (one server
instead of all), speculating that the sequencer stays up.  The workflow:

1. implement the phase against the message-passing substrate;
2. describe it as one ``Phase`` value: what it hosts on which server,
   and how a client enters it;
3. compose it with Backup (Paxos) by writing the two-element list
   ``[sequencer(), backup(n)]`` — the deployment, the walk from phase to
   phase and the phase-tagged trace recording are the framework's;
4. check the paper's invariants I1-I3 on the traces;
5. check speculative linearizability SLin(1,2) directly;
6. check the composed trace.

The example ships the phase with a deliberately *unsafe* timeout rule
(switch with your own proposal) alongside the fixed one, and shows the
checkers catching the bug on an adversarial schedule — the kind of
subtle speculation error the paper's methodology exists to prevent.

Run with:  python examples/custom_phase.py
"""

from repro.core import (
    consensus_adt,
    consensus_rinit,
    check_composition_theorem,
    is_speculatively_linearizable,
)
from repro.core.invariants import check_first_phase_invariants
from repro.mp import Phase, PhasedConsensus
from repro.mp.phases import backup
from repro.mp.sim import Process

ADT = consensus_adt()


class SequencerServer(Process):
    """Accepts the first proposal; echoes it to everyone."""

    def __init__(self, pid):
        super().__init__(pid)
        self.accepted = None

    def on_message(self, src, message):
        if message[0] == "seq-propose":
            if self.accepted is None:
                self.accepted = message[1]
            self.send(src, ("seq-accept", self.accepted))


class SequencerClient(Process):
    """Proposes to the sequencer; decides on its answer or switches.

    Speculation: the sequencer is alive.  Two timeout rules:

    * ``unsafe=True`` — on timeout, switch with the client's *own*
      proposal.  This looks plausible but is WRONG: the sequencer may
      have echoed (and thereby decided) another client's value before
      dying, and our own-value switch then contradicts that decision.
      The framework catches this below.
    * ``unsafe=False`` (the fix) — on timeout, switch only once an echo
      reveals the sequencer's sticky value (Quorum's own rule: "waits
      for at least one message accept(v')").  Safe, at the cost of
      blocking if the sequencer died silently.
    """

    def __init__(
        self, pid, sequencer, on_decide, on_switch, timeout=4.0, unsafe=False
    ):
        super().__init__(pid)
        self.sequencer = sequencer
        self.on_decide = on_decide
        self.on_switch = on_switch
        self.timeout = timeout
        self.unsafe = unsafe
        self.proposal = None
        self.done = False
        self.timer_expired = False

    def propose(self, value):
        self.proposal = value
        self.send(self.sequencer, ("seq-propose", value))
        self.timer = self.set_timer(self.timeout, self._on_timeout)

    def on_message(self, src, message):
        if self.done or message[0] != "seq-accept":
            return
        self.done = True
        self.timer.cancel()
        if self.timer_expired:
            self.on_switch(message[1])  # late echo: safe switch value
        else:
            self.on_decide(message[1])

    def _on_timeout(self):
        if self.done:
            return
        if self.unsafe:
            self.done = True
            self.on_switch(self.proposal)
        else:
            self.timer_expired = True  # wait for an echo to switch safely


def sequencer(unsafe=False):
    """The Sequencer phase as a value: one role, on server 0, and
    :class:`SequencerClient` as the way in."""

    def hosts(server):
        return (SequencerServer("seq"),) if server == 0 else ()

    def enter(net, pid, value, timeout, backoff, decide, switch, give_up):
        net.register(
            SequencerClient(pid, "seq", decide, switch, timeout, unsafe)
        ).propose(value)

    return Phase("s", hosts, enter, timeout=4.0)


def sequencer_plus_backup(
    n_servers=3, seed=0, crash_sequencer_at=None, unsafe=False
):
    """The composed deployment: Sequencer fast path, Paxos backup."""
    system = PhasedConsensus(
        [sequencer(unsafe), backup(n_servers, client="b")], n_servers, seed
    )
    if crash_sequencer_at is not None:
        system.network.crash_at("seq", crash_sequencer_at)
    return system


def check(system, values, label):
    system.run()
    trace = system.trace()
    rinit = consensus_rinit(values, max_extra=1)
    phase1 = system.first_phase_trace()
    inv_ok = all(r.ok for r in check_first_phase_invariants(phase1, 2))
    slin_ok = is_speculatively_linearizable(phase1, 1, 2, ADT, rinit)
    comp_ok, why = check_composition_theorem(trace, 1, 2, 3, ADT, rinit)
    print(f"--- {label} ---")
    decisions = {
        client: outcome.decided_value
        for client, outcome in system.outcomes.items()
        if outcome.decided_value is not None
    }
    print("  decisions:", decisions)
    print("  invariants I1-I3:", inv_ok)
    print("  Sequencer phase is SLin(1,2):", slin_ok)
    print("  composed trace passes Theorem 5 check:", comp_ok, "-", why)


def adversarial_schedule(unsafe):
    """The killer schedule: echo c1 (it decides), crash, starve c2."""
    system = sequencer_plus_backup(
        seed=0, crash_sequencer_at=2.5, unsafe=unsafe
    )
    system.propose("c1", "v1", at=0.0)   # echo arrives at t=2: decides v1
    system.propose("c2", "v2", at=3.0)   # sequencer already dead
    return system


if __name__ == "__main__":
    # Happy case: the sequencer is up, one message round trip decides.
    system = sequencer_plus_backup(seed=0)
    system.propose("c1", "v1", at=0.0)
    system.propose("c2", "v2", at=0.5)
    check(system, ["v1", "v2"], "sequencer alive (safe rule)")

    # Speculation fails before anyone decided: Backup serves everyone.
    # (With the safe rule a silent sequencer would block, so this demo
    # uses the unsafe rule in a schedule where it happens to be benign.)
    system = sequencer_plus_backup(seed=0, crash_sequencer_at=0.0, unsafe=True)
    system.propose("c1", "v1", at=1.0)
    system.propose("c2", "v2", at=1.5)
    check(system, ["v1", "v2"], "sequencer dead on arrival (benign)")

    # THE POINT OF THE FRAMEWORK: the plausible-looking unsafe timeout
    # rule is caught by the checkers on the adversarial schedule —
    # c1 decided v1 through the sequencer, c2 switches with v2, Backup
    # decides v2 for c2: agreement is broken and every check fails.
    system = adversarial_schedule(unsafe=True)
    check(system, ["v1", "v2"], "UNSAFE rule under the adversarial schedule")

    # The fixed rule never switches blindly: under the same schedule c2
    # blocks (conditional wait-freedom, like Quorum's wait-for-accept),
    # and everything that did happen remains correct.
    system = adversarial_schedule(unsafe=False)
    check(system, ["v1", "v2"], "fixed rule under the adversarial schedule")
