"""Nemesis campaigns: randomized fault schedules, every trace checked.

A *campaign* runs N seeded :class:`~repro.faults.nemesis.FaultSchedule`
instances against real deployments — Quorum+Backup
(:class:`~repro.mp.composed.ComposedConsensus`), the three-phase stack
(:class:`~repro.mp.multiphase.ThreePhaseConsensus`), and the replicated
KV store over speculative SMR
(:class:`~repro.smr.kvstore.ReplicatedKVStore`) — and validates **every
observed trace** with the repository's own linearizability checker, in
the reduction-to-checking spirit of Bouajjani et al.  Alongside the
safety verdicts it aggregates graceful-degradation metrics (commit rate,
switch rate, give-up rate, latency percentiles) per fault class, and on
any violation shrinks the schedule with delta-debugging to a minimal
reproducer printed with its seed.

Everything is deterministic: a run is a pure function of
``(target, schedule)``, and the schedule prints as a single replayable
line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .. import engine
from ..core.adt import consensus_adt
from ..core.fastcheck import check_linearizable
from ..core.traces import strip_phase_tags
from ..mp.backoff import BackoffPolicy
from ..mp.composed import ComposedConsensus, PhasedConsensus
from ..mp.multiphase import ThreePhaseConsensus
from ..mp.paxos import PaxosAcceptor
from ..mp.sim import NetworkStats
from ..smr.kvstore import ReplicatedKVStore
from ..smr.universal import kv_store_adt
from ..stats import percentile
from .mutants import AmnesiacAcceptor
from .nemesis import (
    ACTION_CLASSES,
    BurstLoss,
    CrashServer,
    FaultSchedule,
    PartitionServers,
    RecoverServer,
    random_schedule,
)
from .shrink import Violation, record_violation

CONSENSUS = consensus_adt()
KV = kv_store_adt()

#: the campaign's adaptive-timeout policy: exponential backoff with
#: deterministic jitter and a finite retry budget, so a dead majority
#: surfaces as ``gave_up`` well before the schedule horizon.
CAMPAIGN_BACKOFF = BackoffPolicy(
    base=6.0, factor=2.0, cap=80.0, jitter=0.25, max_retries=5
)

#: the checker's search budget per response (see :func:`_check`)
NODE_LIMIT = 200_000


def _workload_rng(schedule: FaultSchedule) -> random.Random:
    """A workload stream independent of the simulator's own rng."""
    return random.Random(f"workload-{schedule.seed}")


@dataclass
class RunResult:
    """Verdict and degradation metrics of one (target, schedule) run."""

    target: str
    schedule: FaultSchedule
    #: ``ok`` / ``violation`` / ``unknown``, as every run report says it
    verdict: str = "ok"
    reason: Optional[str] = None
    total: int = 0
    committed: int = 0
    switched: int = 0
    gave_up: int = 0
    latencies: List[float] = field(default_factory=list)
    stats: Optional[NetworkStats] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    @property
    def violation(self) -> bool:
        """The checker refuted the trace (not merely ran out of budget)."""
        return self.verdict == "violation"

    #: how many worst-hit links a report line names explicitly
    LINKS_SHOWN = 3

    @staticmethod
    def _pid_label(pid) -> str:
        """Compact link-endpoint label: ('acc', 3, 1) → acc/3/1."""
        if isinstance(pid, tuple):
            return "/".join(str(part) for part in pid)
        return str(pid)

    def stats_line(self) -> str:
        """Network counters as one compact token sequence.

        Aggregate totals first; then, when any link saw a fault, the
        worst-hit links by name — so a report line says not only *how
        much* was lost but *where*, and stays replayable (the per-link
        order is deterministic, see ``NetworkStats.faulty_links``).
        """
        s = self.stats or NetworkStats()
        base = (
            f"sent={s.sent} delivered={s.delivered} lost={s.lost} "
            f"dup={s.duplicated} dropped={s.dropped_crashed} "
            f"cut={s.partitioned}"
        )
        faulty = s.faulty_links()
        if not faulty:
            return base
        shown = " ".join(
            f"{self._pid_label(src)}->{self._pid_label(dst)}"
            f"(lost={ls.lost},dup={ls.duplicated},cut={ls.partitioned})"
            for (src, dst), ls in faulty[: self.LINKS_SHOWN]
        )
        return f"{base} faulty_links={len(faulty)} worst: {shown}"

    def line(self) -> str:
        """One replayable report line: verdict, metrics, NetworkStats,
        and the full schedule (seed included)."""
        verdict = {"ok": "ok", "unknown": "INCONCLUSIVE"}.get(
            self.verdict, "VIOLATION"
        )
        return (
            f"[{self.target}] {verdict} "
            f"commit={self.committed}/{self.total} "
            f"switch={self.switched} gave_up={self.gave_up} | "
            f"{self.stats_line()} | {self.schedule.describe()}"
        )


# ---------------------------------------------------------------------------
# Targets: deployments the nemesis knows how to attack
# ---------------------------------------------------------------------------


class CampaignTarget:
    """One deployment kind: build it, load it, perturb it, check it."""

    name: str = "?"
    n_servers = 3
    n_clients = 4

    def run(self, schedule: FaultSchedule, mutant: bool = False) -> RunResult:
        """Execute one deterministic run and check the observed trace."""
        raise NotImplementedError


class _ConsensusTarget(CampaignTarget):
    """A one-shot consensus deployment under nemesis: every client
    proposes once, the trace is checked against the consensus ADT."""

    def build(
        self, schedule: FaultSchedule, mutant: bool
    ) -> PhasedConsensus:
        """The deployment for one run, seeded from the schedule."""
        raise NotImplementedError

    def run(self, schedule, mutant=False) -> RunResult:
        system = self.build(schedule, mutant)
        schedule.inject(system)
        rng = _workload_rng(schedule)
        # Spread proposals across the fault span so the chaos actually
        # overlaps protocol activity (backoff stretches it further).
        outcomes = [
            system.propose(
                f"c{i}",
                f"v{i}",
                at=round(rng.uniform(0.0, schedule.horizon * 0.4), 1),
            )
            for i in range(self.n_clients)
        ]
        system.run(until=schedule.horizon)
        result = RunResult(
            target=self.name,
            schedule=schedule,
            total=len(outcomes),
            committed=sum(1 for o in outcomes if o.decided_value is not None),
            switched=sum(1 for o in outcomes if o.switched),
            gave_up=sum(1 for o in outcomes if o.gave_up),
            latencies=[o.latency for o in outcomes if o.latency is not None],
            stats=system.network.stats,
        )
        _check(result, strip_phase_tags(system.trace()), CONSENSUS)
        return result


class ComposedTarget(_ConsensusTarget):
    """Quorum+Backup under nemesis: the Section 2 composed consensus."""

    name = "composed"

    def build(self, schedule, mutant):
        return ComposedConsensus(
            n_servers=self.n_servers,
            seed=schedule.seed,
            expected_clients=self.n_clients,
            backoff=CAMPAIGN_BACKOFF,
            acceptor_cls=AmnesiacAcceptor if mutant else PaxosAcceptor,
        )


class MultiphaseTarget(_ConsensusTarget):
    """SubQuorum → Quorum → Backup under nemesis."""

    name = "multiphase"
    n_servers = 4
    sub_servers = 2

    def build(self, schedule, mutant):
        return ThreePhaseConsensus(
            n_servers=self.n_servers,
            sub_servers=self.sub_servers,
            seed=schedule.seed,
            expected_clients=self.n_clients,
            backoff=CAMPAIGN_BACKOFF,
        )


class SMRTarget(CampaignTarget):
    """The replicated KV store over speculative SMR under nemesis."""

    name = "smr"

    def run(self, schedule, mutant=False) -> RunResult:
        kv = ReplicatedKVStore(
            n_servers=self.n_servers,
            seed=schedule.seed,
            backoff=CAMPAIGN_BACKOFF,
        )
        schedule.inject(kv.smr)
        rng = _workload_rng(schedule)
        keys = ["x", "y"]
        for i in range(self.n_clients):
            at = round(rng.uniform(0.0, schedule.horizon * 0.4), 1)
            key = rng.choice(keys)
            op = rng.randrange(3)
            if op == 0:
                kv.put(f"c{i}", key, i, at=at)
            elif op == 1:
                kv.get(f"c{i}", key, at=at)
            else:
                kv.delete(f"c{i}", key, at=at)
        kv.run(until=schedule.horizon)
        outcomes = kv.smr.outcomes
        result = RunResult(
            target=self.name,
            schedule=schedule,
            total=len(outcomes),
            committed=sum(1 for o in outcomes if o.commit_time is not None),
            switched=sum(1 for o in outcomes if o.switched_slots),
            gave_up=sum(1 for o in outcomes if o.gave_up),
            latencies=[o.latency for o in outcomes if o.latency is not None],
            stats=kv.smr.network.stats,
        )
        log = kv.smr.committed_log()
        if len(set(log)) != len(log):
            result.verdict = "violation"
            result.reason = f"duplicate command in committed log: {log!r}"
            return result
        _check(result, kv.interface_trace(), KV)
        return result


def _check(result: RunResult, trace, adt) -> None:
    """Run the linearizability checker and fold its verdict in.

    Uses the P-compositional fast path (:mod:`repro.core.fastcheck`) —
    the KV target decomposes per key, a consensus target is one
    partition, and both run the streaming engine, where
    :data:`NODE_LIMIT` bounds the search at one response, not the whole
    history's.  A blown budget (an ``unknown`` verdict) marks the run
    inconclusive rather than failing it.
    """
    report = check_linearizable(trace, adt, node_limit=NODE_LIMIT)
    result.verdict, result.reason = report.verdict, report.reason


TARGETS: Dict[str, Type[CampaignTarget]] = {
    "composed": ComposedTarget,
    "multiphase": MultiphaseTarget,
    "smr": SMRTarget,
}

#: action mix for mutant hunts: recovery churn and connectivity faults,
#: which is the weather the amnesiac-acceptor bug needs to surface
MUTANT_ACTIONS = (
    CrashServer,
    RecoverServer,
    PartitionServers,
    BurstLoss,
)


@dataclass
class CampaignReport:
    """Aggregated outcome of a whole campaign."""

    results: List[RunResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def inconclusive(self) -> int:
        return sum(1 for r in self.results if r.verdict == "unknown")

    @property
    def all_linearizable(self) -> bool:
        return not self.violations

    def by_fault_class(self) -> Dict[Tuple[str, ...], List[RunResult]]:
        grouped: Dict[Tuple[str, ...], List[RunResult]] = {}
        for result in self.results:
            grouped.setdefault(
                result.schedule.fault_classes(), []
            ).append(result)
        return grouped

    def summary(self) -> str:
        """Per-fault-class graceful-degradation table plus the verdict."""
        lines = [
            f"{'fault classes':<48} {'runs':>4} {'commit':>7} "
            f"{'switch':>7} {'gave_up':>7} {'lat_p50':>8} {'lat_p95':>8} "
            f"{'lat_max':>8}"
        ]
        for classes, results in sorted(self.by_fault_class().items()):
            label = "+".join(classes)
            total = sum(r.total for r in results)
            committed = sum(r.committed for r in results)
            switched = sum(r.switched for r in results)
            gave_up = sum(r.gave_up for r in results)
            latencies = [l for r in results for l in r.latencies]
            p50 = percentile(latencies, 0.50)
            p95 = percentile(latencies, 0.95)
            top = max(latencies) if latencies else None

            def cell(value) -> str:
                return "-" if value is None else f"{value:.1f}"

            lines.append(
                f"{label:<48} {len(results):>4} "
                f"{committed / total if total else 1.0:>7.2f} "
                f"{switched / total if total else 0.0:>7.2f} "
                f"{gave_up / total if total else 0.0:>7.2f} "
                f"{cell(p50):>8} {cell(p95):>8} {cell(top):>8}"
            )
        lines.append(
            f"runs={self.runs} violations={len(self.violations)} "
            f"inconclusive={self.inconclusive}"
        )
        for violation in self.violations:
            lines.append(violation.report())
        return "\n".join(lines)


def _run_campaign_job(job: Tuple[str, bool, FaultSchedule]) -> RunResult:
    """One (target, schedule) run, rebuilt from picklable parameters.

    Module-level so spawn-started pool workers can import it; the target
    object itself never crosses the process boundary.
    """
    name, mutant, schedule = job
    return TARGETS[name]().run(schedule, mutant=mutant)


def run_campaign(
    n_schedules: int = 50,
    base_seed: int = 0,
    targets: Sequence[str] = ("composed", "multiphase", "smr"),
    mutant: bool = False,
    shrink: bool = True,
    verbose: bool = False,
    emit: Callable[[str], None] = print,
    jobs: int = 1,
) -> CampaignReport:
    """Run ``n_schedules`` random nemesis schedules against each target.

    Every observed trace is checked for linearizability.  Violations are
    shrunk (unless ``shrink=False``) to minimal fault schedules via
    delta-debugging and included in the report with their seeds.  With
    ``mutant=True`` the composed target swaps in the amnesiac acceptor
    (the injected safety bug) and the action mix favours recovery churn.

    ``jobs > 1`` fans the (target, schedule) runs out across processes
    via :func:`repro.engine.parallel_map`.  Each run is a pure function
    of its seed, and results are consumed in submission order, so the
    report — every verdict, metric, and emitted line — is byte-identical
    to a ``jobs=1`` run.  Shrinking of any violations happens serially in
    the parent afterwards (violations are rare; shrinking is adaptive and
    inherently sequential).
    """
    report = CampaignReport()
    allow = MUTANT_ACTIONS if mutant else ACTION_CLASSES
    jobs_list = [
        (
            name,
            mutant,
            random_schedule(
                seed=base_seed + k,
                n_servers=TARGETS[name].n_servers,
                allow=allow,
            ),
        )
        for name in targets
        for k in range(n_schedules)
    ]
    results = engine.parallel_map(_run_campaign_job, jobs_list, jobs=jobs)
    for (name, _, _), result in zip(jobs_list, results):
        report.results.append(result)
        if verbose:
            emit(result.line())
        if result.violation:
            target = TARGETS[name]()
            record_violation(
                report,
                result,
                lambda candidate: target.run(candidate, mutant=mutant),
                shrink,
                emit,
            )
    return report
