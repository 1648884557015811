"""The canonical data plane, the four workloads, and one measured round.

Every number the ledger reports comes from a *round*: a fresh cluster
driven by ``run_loadgen`` on :data:`CANONICAL_PLANE`, whose recorded
history is then decided here, by every decider, so that decision time is
measured and stays out of the data-plane numbers.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.actions import Invocation, Response
from repro.core.fastcheck import check_linearizable
from repro.core.traces import Trace
from repro.monitor.cli import load_history, replay_history
from repro.net.loadgen import LoadReport, run_loadgen
from repro.smr.universal import kv_store_adt

#: the one data-plane configuration every workload shares; a workload
#: differs only by its client count, key count and fault/monitor switch
CANONICAL_PLANE: Dict[str, Any] = dict(
    replicas=3,
    shards=2,
    pipeline=True,
    window=8,
    batch=16,
    codec="binary",
    group_commit=True,
    quorum_timeout=0.15,
    op_timeout=5.0,
    check=False,
)

#: a percentile needs this many samples beyond it to be reported
MIN_BEYOND = 10

#: a repeated timing is repeated at least this often, so that its
#: fastest repetition has a chance to miss the machine's slow phases
MIN_REPS = 2

#: memo-table budget per key of the post-hoc decider.  The histories the
#: workloads record need under 1000 states per key, but about one
#: ``monitored`` history in 70 sends the depth-first search past 60 s and
#: 6 GB (README, known limits).  A state costs ~0.5 ms at that depth, so
#: with this budget the search ends as a counted ``unknown`` in ~5 s
STATE_LIMIT = 10_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the delta against the canonical plane."""

    name: str
    clients: int
    keys: int
    #: rounds x ops of a full run; ``min_rounds`` is the floor a time
    #: budget may cut the round count to
    rounds: int
    ops: int
    min_rounds: int
    extra: Mapping[str, Any] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fast_steady", clients=16, keys=64, rounds=7, ops=8000,
                 min_rounds=5),
        Workload("fast_light", clients=2, keys=64, rounds=7, ops=3000,
                 min_rounds=5),
        # one replica per shard dies after the first commit, so every
        # later decree misses Quorum unanimity and decides through Backup
        Workload("backup_degraded", clients=16, keys=64, rounds=3, ops=1000,
                 min_rounds=3, extra={"kill": 2, "kill_after": 0.0}),
        # 12 keys is the narrowest keyspace the live monitor keeps up
        # with (README, known limits) and the deepest per-key history
        Workload("monitored", clients=16, keys=12, rounds=7, ops=6000,
                 min_rounds=5, extra={"monitor": True}),
    )
}


@dataclass(frozen=True)
class Sizing:
    """How much work a run does; ``SMOKE`` only proves the plumbing."""

    ops_divisor: int = 1
    #: rounds per workload; None = the workload's own count
    rounds: Optional[int] = None
    #: ``setup_s`` samples taken before every round, so that they span
    #: the run as the rounds do
    setup_reps: int = 4
    #: every repeated timing (a decision, an isolated layer) repeats
    #: until this much time has been measured
    timed_seconds: float = 0.3
    min_beyond: int = MIN_BEYOND

    def ops(self, workload: Workload) -> int:
        return max(workload.clients, workload.ops // self.ops_divisor)


FULL = Sizing()
SMOKE = Sizing(ops_divisor=10, rounds=2, setup_reps=1, timed_seconds=0.02,
               min_beyond=0)


def nearest_rank(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``.

    Refuses a percentile with fewer than ``min_beyond`` samples beyond
    it: such a tail value is one outlier, not a percentile.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond "
            f"it, fewer than {min_beyond}"
        )
    return ordered[rank - 1]


def tmpfs_root() -> Tuple[str, bool]:
    """Where WAL directories go, and whether that is memory-backed.

    The WAL stays on, but on tmpfs: on the shared disk the same
    configuration swung 2x with fsync latency (README, noise findings).
    """
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm", True
    return tempfile.gettempdir(), False


def _run_loadgen(
    workload: Workload, ops: int, seed: int, artifact: Optional[str]
) -> Tuple[LoadReport, float, List[str]]:
    """One ``run_loadgen`` call over a throw-away tmpfs WAL directory.

    Returns the report, the call's wall time and what loadgen printed.
    """
    lines: List[str] = []
    wal_root = tempfile.mkdtemp(prefix="ledger-wal-", dir=tmpfs_root()[0])
    try:
        started = time.perf_counter()
        report = run_loadgen(
            **CANONICAL_PLANE,
            **workload.extra,
            clients=workload.clients,
            keys=tuple(f"key{i:02d}" for i in range(workload.keys)),
            ops=ops,
            seed=seed,
            wal_root=wal_root,
            artifact=artifact,
            emit=lines.append,
        )
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    return report, wall, lines


#: every set-up sample issues the same one op per client: with two
#: clients, whether the ops land on one shard or on two is a 1.4x
#: difference in a 4 ms measurement, and the run's seed would pick it
SETUP_SEED = 900


def time_setup(workload: Workload) -> Tuple[float, int, int]:
    """One ``setup_s`` sample: boot + first op of every client +
    teardown.  Returns the wall time and the ops attempted and failed."""
    report, wall, _ = _run_loadgen(
        workload, workload.clients, SETUP_SEED, None
    )
    return wall, report.ops_requested, report.ops_requested - report.committed


@dataclass
class Round:
    """What one round measured; ``problems`` non-empty fails the run."""

    workload: str
    seed: int
    ops_requested: int
    committed: int
    artifact: str
    values: Dict[str, float]
    problems: List[str]
    #: budgeted deciders that gave up on this round's history
    degraded: List[str]
    #: latency sample count behind the percentiles
    samples: int = 0


def _history_shape(shards: List[List[Tuple]]) -> Tuple[int, int, int]:
    """(partitions, most ops on one key, widest per-key pending set).

    These drive the deciders' cost, not wall time alone: the search is
    per key, linear in a key's depth and exponential in its window.
    """
    ops_per_key: Dict[Any, int] = {}
    widest = 0
    for events in shards:
        pending: Dict[Any, int] = {}
        for kind, _client, command, _response, _at in events:
            key = command[1]
            if kind == "inv":
                ops_per_key[key] = ops_per_key.get(key, 0) + 1
                pending[key] = pending.get(key, 0) + 1
                widest = max(widest, pending[key])
            else:
                pending[key] -= 1
    return len(ops_per_key), max(ops_per_key.values(), default=0), widest


def decide(
    artifact: str,
    committed: int,
    timed_seconds: float,
    state_limit: int = STATE_LIMIT,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Decide a round's artifact with both off-line deciders.

    Returns the decision metrics and ``{decider: verdict}``; the
    post-hoc decision is repeated until ``timed_seconds`` are timed, at
    least :data:`MIN_REPS` times, and the fastest repetition counts.  A
    post-hoc search that exhausts ``state_limit`` reads ``unknown`` and
    its time to give up is the round's decision time.
    """
    shards = load_history(artifact)
    traces = [
        Trace(
            Invocation(client, 1, command)
            if kind == "inv"
            else Response(client, 1, command, response)
            for kind, client, command, response, _at in events
        )
        for events in shards
    ]
    adt = kv_store_adt()
    timings: List[float] = []
    while sum(timings) < timed_seconds or len(timings) < MIN_REPS:
        started = time.perf_counter()
        checks = [
            check_linearizable(trace, adt, state_limit=state_limit)
            for trace in traces
        ]
        timings.append(time.perf_counter() - started)
        if any(check.unknown for check in checks):
            break  # ~5 s to give up: once is enough
    if any(check.unknown for check in checks):
        post_hoc = "unknown"
    elif all(check.ok for check in checks):
        post_hoc = "linearizable"
    else:
        post_hoc = "violation"

    started = time.perf_counter()
    replay, _reason, _reports = replay_history(shards)
    replay_s = time.perf_counter() - started

    events = sum(len(shard) for shard in shards)
    partitions, deepest, widest = _history_shape(shards)
    # the decision is a pure function of the history, so its fastest
    # repetition is its cost; the others add what else the machine did
    decision_s = min(timings)
    values = {
        "verdict_ops_per_s": committed / decision_s,
        "fastcheck.us_per_op": decision_s / max(committed, 1) * 1e6,
        "fastcheck.budget_hits": int(post_hoc == "unknown"),
        "fastcheck.partitions": partitions,
        "fastcheck.max_ops_per_key": deepest,
        "fastcheck.max_window": widest,
        "monitor.feed_us": replay_s / max(events, 1) * 1e6,
    }
    return values, {"check_linearizable": post_hoc, "replay_history": replay}


#: deciders that search under a budget: the post-hoc one under
#: :data:`STATE_LIMIT`, the live monitor under loadgen's node and
#: configuration limits.  ``replay_history`` runs unbudgeted and is the
#: verdict every round must have.
BUDGETED = ("check_linearizable", "live monitor")


def verdict_problems(verdicts: Mapping[str, str]) -> List[str]:
    """What the deciders' verdicts on one history leave to complain about.

    A budgeted decider giving up (``unknown``) is a degradation, counted
    in ``fastcheck.budget_hits`` / ``monitor.unknown_rounds`` and not a
    verdict: about one ``monitored`` command stream in 100 is that hard
    (README, known limits), and the round then stands on the unbudgeted
    replay of the same history.  A ``violation`` from anyone is fatal.
    """
    return [
        f"{decider} says {verdict!r}"
        for decider, verdict in verdicts.items()
        if verdict not in ("linearizable", "ok")
        and not (decider in BUDGETED and verdict == "unknown")
    ]


def run_round(
    workload: Workload,
    seed: int,
    ops: int,
    sizing: Sizing,
    scratch: str,
    tracer=None,
) -> Round:
    """Run one round and decide its history with every decider.

    With ``tracer`` set the round runs with the hooks installed; its
    end-to-end values are then only good for ``trace.overhead``.
    """
    kind = "round" if tracer is None else "traced"
    artifact = os.path.join(scratch, f"{kind}-{workload.name}-{seed}.json")
    cpu_started = time.process_time()
    if tracer is not None:
        with tracer:
            report, wall, lines = _run_loadgen(workload, ops, seed, artifact)
    else:
        report, wall, lines = _run_loadgen(workload, ops, seed, artifact)
    cpu = time.process_time() - cpu_started

    committed = report.committed
    latencies = report.latencies
    p50 = nearest_rank(latencies, 0.50, sizing.min_beyond)
    values: Dict[str, float] = {
        "ops_per_s": committed / report.duration,
        "latency_p50_ms": p50 * 1e3,
        # a tail is too noisy here to carry a bound (README): per-layer
        "loadgen.latency_p99_ms": nearest_rank(
            latencies, 0.99, sizing.min_beyond
        ) * 1e3,
    }
    decisions, verdicts = decide(artifact, committed, sizing.timed_seconds)
    values.update(decisions)
    if report.monitored:
        verdicts["live monitor"] = report.monitor_verdict or "unknown"

    sent = sum(s["sent"] for s in report.endpoint_stats.values())
    lost = sum(s["lost"] for s in report.endpoint_stats.values())
    decided = report.fast + report.slow
    values.update({
        "transport.msgs_per_op": sent / committed,
        "transport.lost_per_op": lost / committed,
        "mp.fast_share": report.fast / decided if decided else 0.0,
        "mp.timeout_share": CANONICAL_PLANE["quorum_timeout"] / p50,
        "pipeline.ops_per_decree": report.batched_ops / report.decrees,
        "pipeline.decrees_per_s": report.decrees / report.duration,
        "pipeline.retries_per_op": report.retries / committed,
        "pipeline.shed_per_op": report.shed / report.ops_requested,
        "monitor.peak_retained": report.monitor_peak_retained,
        "monitor.unknown_rounds": int(
            verdicts.get("live monitor") == "unknown"
        ),
        "loadgen.cpu_ms_per_op": cpu / committed * 1e3,
        "loadgen.artifact_s": wall - report.duration,
    })

    problems = verdict_problems(verdicts)
    if committed != report.ops_requested:
        problems.append(
            f"{report.ops_requested - committed} of {report.ops_requested} "
            f"ops failed ({report.pending} pending, {report.shed} shed)"
        )
    if problems:
        problems.extend(lines)
    else:
        os.remove(artifact)
    return Round(
        workload=workload.name,
        seed=seed,
        ops_requested=report.ops_requested,
        committed=committed,
        artifact=artifact,
        values=values,
        problems=problems,
        degraded=[
            f"{decider} gave up within its budget"
            for decider in BUDGETED
            if verdicts.get(decider) == "unknown"
        ],
        samples=len(latencies),
    )
