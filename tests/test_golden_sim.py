"""The simulator's outputs, pinned byte for byte.

``tests/golden/sim_campaign.json`` was captured at the parent of the
one-phase-chain refactor (dca06a3): the nemesis campaign's report, and
for each named deployment the recorded trace, the network totals and
every outcome's numbers.  A refactor of the deployments must reproduce
it unmodified; a change that legitimately moves a count (PR 17 moved
``sent=``) regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_sim.py
"""

import json
import os

from repro.faults import run_campaign
from repro.faults.campaign import CAMPAIGN_BACKOFF
from repro.mp import ComposedConsensus, PaxosOnly, QuorumOnly, ThreePhaseConsensus
from repro.smr import ReplicatedKVStore

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "sim_campaign.json"
)
SEEDS = range(5)
CLIENTS = 3


def jitter(rng):
    return rng.uniform(0.5, 1.5)


def totals(network):
    s = network.stats
    return [
        s.sent, s.delivered, s.lost, s.duplicated,
        s.dropped_crashed, s.partitioned,
    ]


def campaign():
    lines = []
    report = run_campaign(
        n_schedules=5, base_seed=0, verbose=True, emit=lines.append
    )
    return {"lines": lines, "summary": report.summary()}


#: name -> (constructor, how an outcome's switch value(s) are read);
#: ``path`` is left out on purpose, its three-phase vocabulary changed
DEPLOYMENTS = {
    "composed": (ComposedConsensus, lambda o: o.switch_value),
    "quorum_only": (QuorumOnly, lambda o: o.switch_value),
    "paxos_only": (PaxosOnly, lambda o: o.switch_value),
    "three_phase": (ThreePhaseConsensus, lambda o: list(o.switch_values)),
}


def deployment(name, seed, crash):
    """Three contending proposers under jittered delays; with ``crash``
    server 0 dies mid-round, so Backup (or the retry) does the work."""
    cls, switch_values = DEPLOYMENTS[name]
    system = cls(seed=seed, delay=jitter)
    if crash:
        system.crash_server(0, at=0.7)
    outcomes = [
        system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(CLIENTS)
    ]
    system.run()
    return {
        "trace": repr(system.trace()),
        "stats": totals(system.network),
        "outcomes": [
            [o.latency, o.decided_value, switch_values(o)] for o in outcomes
        ],
    }


def smr_outcomes(smr):
    return [
        [o.latency, o.slot, o.attempts, o.switched_slots, o.path]
        for o in smr.outcomes
    ]


def smr_submit(seed, crash):
    """``SpeculativeSMR.submit`` through the KV store, which records the
    interface trace; with ``crash`` the campaign's backoff paces Backup."""
    kv = ReplicatedKVStore(
        seed=seed, delay=jitter, backoff=CAMPAIGN_BACKOFF if crash else None
    )
    if crash:
        kv.smr.crash_server(0, at=0.7)
    for i in range(CLIENTS):
        kv.put(f"c{i}", "x", i, at=0.0)
        kv.get(f"c{i}", "x", at=0.1)
    kv.run(until=2000.0)
    return {
        "trace": repr(kv.interface_trace()),
        "log": repr(kv.smr.committed_log()),
        "stats": totals(kv.smr.network),
        "outcomes": smr_outcomes(kv.smr),
    }


def capture():
    golden = {"campaign": campaign()}
    for name in DEPLOYMENTS:
        for crash in (False, True):
            key = name + ("+crash" if crash else "")
            golden[key] = [deployment(name, seed, crash) for seed in SEEDS]
    golden["smr_submit"] = [smr_submit(seed, False) for seed in SEEDS]
    golden["smr_submit+crash"] = [smr_submit(seed, True) for seed in SEEDS]
    return golden


def test_simulator_outputs_match_the_golden_capture():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    captured = json.loads(json.dumps(capture()))
    assert sorted(captured) == sorted(golden)
    for key in golden:
        assert captured[key] == golden[key], key


def _covers_both_paths(golden):
    """The pin is only worth its bytes if fast decisions, switches,
    double switches and crashes all occur in it."""
    def outcomes(key):
        return [o for run in golden[key] for o in run["outcomes"]]

    return (
        len(golden["campaign"]["lines"]) == 15
        and any(o[2] == [] for o in outcomes("three_phase"))
        and any(o[2] is not None for o in outcomes("composed+crash"))
        and any(len(o[2]) == 2 for o in outcomes("three_phase+crash"))
        and any(o[4] == "slow" for o in outcomes("smr_submit+crash"))
    )


if __name__ == "__main__":
    fresh = capture()
    assert _covers_both_paths(fresh), "the scenarios no longer switch"
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
