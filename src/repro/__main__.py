"""Command-line entry point: experiments, the fault campaign, and the
networked runtime.

Usage::

    python -m repro              # list experiments and subcommands
    python -m repro all          # run every experiment harness
    python -m repro e1 e6        # run selected experiments
    python -m repro examples     # run the example scripts
    python -m repro nemesis [N] [BASE_SEED] [--jobs N]  # fault campaign
    python -m repro nemesis 3 0 --net [--amnesiac I]    # live-cluster chaos
    python -m repro nemesis 3 5 --retry-storm           # exactly-once storm
    python -m repro nemesis 2 0 --net --race-mutant     # sanitizer canary
    python -m repro harness [--quick|--full] [...]      # benchmark harness
    python -m repro serve --replicas 3 --port-base 9000 # TCP cluster
    python -m repro loadgen --replicas 3 --clients 8 --ops 200 --seed 0
    python -m repro loadgen --shards 2 --monitor        # checked live
    python -m repro monitor --replay artifact.json      # stream a trace
    python -m repro monitor --watch --port-base 9000    # probe a cluster
    python -m repro lint [--rules IDS] [PATH...]
    python -m repro lint --explain RD08                 # rule doc + examples

Each experiment prints the table/series described in EXPERIMENTS.md.
``nemesis`` prints one line per run — verdict, degradation metrics,
network counters and the full fault schedule with its seed — so any run
can be reproduced from its printed line alone; ``--jobs N`` fans the
runs across N processes without changing a single output line.  It
exits as ``monitor`` does: 0 ok, 1 violation, 2 unknown (a run whose
checker spent its budget).
``nemesis --net`` runs the same discipline against live localhost TCP
clusters (kill/restart churn with WAL recovery, loss bursts,
partitions) with the runtime interleaving sanitizer armed in every
run — an interleaving recorded on honest traffic fails the campaign;
``--amnesiac I`` disables replica I's WAL — the durability canary the
campaign must catch as a linearizability violation.
``nemesis --retry-storm`` runs the exactly-once campaign instead:
duplicate-delivery windows, loss bursts violent enough to force client
retries and hedges, and a kill/restart pair, all on a replicated
counter whose applied state must equal the distinct increments;
``--no-dedup`` disables the session seam and inverts the exit code (the
mutant must be *caught*).
``nemesis --net --race-mutant`` drives traffic through a pipeline whose
slot claims suspend mid-critical-section; the exit code inverts (the
sanitizer must record a catch in every run) — the live cross-check of
the static RD08 rule.
``harness`` runs the benchmark regression harness
(``benchmarks/harness.py``), writing machine-readable ``BENCH_*.json``.
``serve`` hosts a replica cluster on real TCP ports until interrupted;
``loadgen`` drives a closed-loop workload against a fresh cluster and
checks the recorded wire-level history for linearizability.  Both, and
the clusters ``nemesis --net`` attacks, run the plane the benchmark
ledger measures with no flag: binary frames, a WAL fsync per record and
(for ``loadgen``) batching pipelines shared per shard; ``--shards``,
``--window`` and ``--batch`` size it.
``loadgen --monitor`` additionally streams every event through the
online :mod:`repro.monitor` checker *during* the run — fail-fast on the
first violation, bounded memory via GC of decided prefixes — and
``monitor`` runs the same checker standalone: ``--replay FILE`` streams
a recorded artifact, ``--watch`` probes a separately-served cluster
with a recording canary client, ``--ops N`` of them (see
docs/MONITORING.md).
``lint`` runs the protocol-aware static analysis pass
(:mod:`repro.analysis`) — determinism, durability, atomicity,
async-hygiene and IOA well-formedness rules, the interprocedural ones
over the project call graph (RD08 interleaving races, path-sensitive
RD02 durability) and the architecture invariants (RD09) — over
``src/``, exiting nonzero on any finding not suppressed inline;
``--rules``/``--explain`` select and document individual rules (see
docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

EXPERIMENTS = {
    "f1": ("bench_adts", "Figure 1 — consensus specification census"),
    "e1": ("bench_latency", "2 vs 3 message delays"),
    "e2": ("bench_degradation", "contention / crash degradation"),
    "e3": ("bench_checkers", "Theorem 1 agreement census + checker ablation"),
    "e4": ("bench_composition", "Theorems 5 and 2 censuses + switch ablation"),
    "e5": ("bench_invariants", "invariants I1-I5 under adversity"),
    "e6": ("bench_ioa", "model-checked composition theorem"),
    "e7": ("bench_shared_memory", "registers-vs-CAS census (RCons/CASCons)"),
    "e9": ("bench_smr", "speculative SMR / replicated KV store"),
    "e10": ("bench_faults", "nemesis campaigns / resilience under faults"),
    "e11": ("bench_net", "2 vs 3 message delays over real TCP sockets"),
    "e12": ("bench_recovery", "WAL recovery: replay cost + restart dip"),
    "e13": ("bench_grayfaults", "gray failures: fast-path ratio + recovery"),
    "e14": ("bench_sessions", "exactly-once sessions: storm + overhead"),
    "sweep": (
        "bench_enumeration",
        "exhaustive trace-level Theorem-5 sweeps",
    ),
}

EXAMPLES = [
    "quickstart.py",
    "mp_consensus.py",
    "sm_consensus.py",
    "smr_kv_store.py",
    "lock_service.py",
    "custom_phase.py",
]

#: names that dispatch to argparse subparsers; anything else is an
#: experiment key for the implicit ``run`` subcommand
SUBCOMMANDS = (
    "run", "nemesis", "harness", "serve", "loadgen", "monitor", "lint",
)


def run_bench(module_name: str) -> None:
    """Import a benchmark harness by path and run its main()."""
    path = os.path.join(ROOT, "benchmarks", f"{module_name}.py")
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


def run_examples() -> None:
    for script in EXAMPLES:
        print(f"\n{'#' * 70}\n# examples/{script}\n{'#' * 70}")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "examples", script)],
            check=True,
        )


def list_experiments() -> None:
    print(__doc__)
    print("experiments:")
    for key, (module, title) in EXPERIMENTS.items():
        print(f"  {key:<5} {title}  ({module}.py)")
    print("  examples   run the example scripts")


def cmd_run(args: argparse.Namespace) -> int:
    """Run experiment harnesses by key (the historical default)."""
    names = [name.lower() for name in args.experiments]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    for name in names:
        if name == "examples":
            run_examples()
            continue
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; run with no args to list")
            return 1
        module, title = EXPERIMENTS[name]
        print(f"\n{'#' * 70}\n# {name.upper()}: {title}\n{'#' * 70}")
        run_bench(module)
    return 0


def cmd_nemesis(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign, one replayable line per run."""
    if args.retry_storm:
        from repro.faults import run_retry_storm

        results = run_retry_storm(
            n_schedules=args.n_schedules,
            base_seed=args.base_seed,
            dedup=not args.no_dedup,
            artifact_dir=args.artifact_dir,
        )
        ok = all(r.ok for r in results)
        caught = sum(1 for r in results if r.caught)
        print()
        print(
            f"retry-storm: {len(results)} run(s), "
            f"{'all exactly-once' if ok else f'{caught} violation(s) caught'}"
        )
        if args.no_dedup:
            # mutant mode exists to prove the checkers catch the bug
            return 0 if caught else 1
        return 0 if ok else 1

    if args.net:
        from repro.faults import run_net_campaign

        report = run_net_campaign(
            n_schedules=args.n_schedules,
            base_seed=args.base_seed,
            amnesiac=args.amnesiac,
            shrink=not args.no_shrink,
            artifact_dir=args.artifact_dir,
            pipelined=args.pipelined,
            monitor=args.monitor,
            race_mutant=args.race_mutant,
        )
        print()
        print(report.summary())
        caught = sum(1 for r in report.runs if r.sanitizer_caught)
        if args.race_mutant:
            # mutant mode exists to prove the sanitizer catches the race
            print(
                f"race-mutant: sanitizer caught the interleaving in "
                f"{caught}/{len(report.runs)} run(s)"
            )
            return 0 if caught == len(report.runs) and report.runs else 1
        if caught:
            print(f"sanitizer: interleaving recorded in {caught} run(s)")
        return 0 if report.all_linearizable and not caught else 1

    from repro.faults import run_campaign
    from repro.monitor.cli import exit_code
    from repro.monitor.streaming import compose_verdicts

    report = run_campaign(
        n_schedules=args.n_schedules,
        base_seed=args.base_seed,
        verbose=True,
        jobs=args.jobs,
    )
    print()
    print(report.summary())
    return exit_code(compose_verdicts(report.results)[0])


def cmd_harness(args: argparse.Namespace) -> int:
    """Run the benchmark regression harness (benchmarks/harness.py)."""
    path = os.path.join(ROOT, "benchmarks", "harness.py")
    spec = importlib.util.spec_from_file_location("harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(args.args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Host a replica cluster over TCP until interrupted."""
    import asyncio

    from repro.net import ShardedCluster

    async def serve() -> None:
        cluster = ShardedCluster(
            n_servers=args.replicas,
            host=args.host,
            port_base=args.port_base,
            wal_root=args.wal_dir,
        )
        await cluster.start()
        for node in cluster.nodes:
            print(f"  {node.endpoint} listening on {args.host}:{node.port}")
        if args.wal_dir:
            print(f"  WALs under {args.wal_dir}")
        print("serving; interrupt to stop")
        try:
            await asyncio.Event().wait()
        finally:
            await cluster.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a closed-loop load and check the history it recorded."""
    from repro.net import run_loadgen

    report = run_loadgen(
        replicas=args.replicas,
        clients=args.clients,
        ops=args.ops,
        seed=args.seed,
        kill=args.kill,
        kill_after=args.kill_after,
        op_timeout=args.op_timeout,
        quorum_timeout=args.quorum_timeout,
        artifact=args.artifact,
        wal_root=args.wal_dir,
        shards=args.shards,
        window=args.window,
        batch=args.batch,
        check=not args.no_check,
        monitor=args.monitor,
    )
    print(report.summary())
    if args.monitor and report.monitor_verdict == "violation":
        return 1
    if args.no_check:
        return 0
    return 0 if report.linearizable else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run the streaming monitor standalone: replay or live watch."""
    import asyncio

    from repro.monitor.cli import (
        exit_code,
        load_history,
        replay_history,
        watch_cluster,
    )
    from repro.net.loadgen import write_artifact

    def write_witness(witness) -> None:
        if args.witness and witness is not None:
            write_artifact(args.witness, witness)
            print(f"  witness written to {args.witness}")

    if args.replay:
        try:
            shards = load_history(args.replay)
        except ValueError as error:
            print(f"monitor: {error}")
            return 2
        verdict, reason, reports = replay_history(shards)
        for index, item in enumerate(reports):
            label = f"shard{index}: " if len(reports) > 1 else ""
            print(f"  {label}{item.summary()}")
        line = f"monitor replay: {verdict}"
        if reason:
            line += f" -- {reason}"
        print(line)
        write_witness(
            next((r.witness for r in reports if r.witness is not None), None)
        )
        return exit_code(verdict)

    if args.watch:
        report = asyncio.run(
            watch_cluster(
                args.host,
                args.port_base,
                args.replicas,
                ops=args.ops,
                interval=args.interval,
            )
        )
        print(report.summary())
        write_witness(report.witness)
        return exit_code(report.verdict)

    print("monitor: pass --replay FILE or --watch (see --help)")
    return 2


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the protocol-aware static analysis pass (repro.analysis)."""
    from repro.analysis.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="speculative-linearizability experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiment harnesses by key")
    p_run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment keys (e1..e11, f1, sweep), 'all' or 'examples'",
    )
    p_run.set_defaults(func=cmd_run)

    p_nem = sub.add_parser("nemesis", help="run a fault-injection campaign")
    p_nem.add_argument("n_schedules", nargs="?", type=int, default=20)
    p_nem.add_argument("base_seed", nargs="?", type=int, default=0)
    p_nem.add_argument("--jobs", type=int, default=1)
    p_nem.add_argument(
        "--net",
        action="store_true",
        help="attack live TCP clusters (kill/restart, loss, partitions)",
    )
    p_nem.add_argument(
        "--amnesiac",
        type=int,
        default=None,
        metavar="NODE",
        help="disable this replica's WAL (the durability canary)",
    )
    p_nem.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging violating schedules (live re-runs)",
    )
    p_nem.add_argument(
        "--artifact-dir",
        default=None,
        help="write per-run history + verdict JSON artifacts here",
    )
    p_nem.add_argument(
        "--pipelined",
        action="store_true",
        help="with --net: drive main traffic through the batching "
        "SlotPipeline instead of per-op probing clients",
    )
    p_nem.add_argument(
        "--monitor",
        action="store_true",
        help="with --net: stream every run's history through a live "
        "linearizability monitor (fail-fast, mid-run witness)",
    )
    p_nem.add_argument(
        "--race-mutant",
        action="store_true",
        help="with --net: drive traffic through the RacySlotPipeline "
        "whose slot claims suspend mid-critical-section (implies "
        "--pipelined); exit 0 only if the runtime sanitizer, armed in "
        "every --net run, catches the interleaving in every run",
    )
    p_nem.add_argument(
        "--retry-storm",
        action="store_true",
        help="run the exactly-once campaign instead: duplicated frames, "
        "timeout-forced retries, hedges and coordinator failover on a "
        "replicated counter (live clusters)",
    )
    p_nem.add_argument(
        "--no-dedup",
        action="store_true",
        help="with --retry-storm: disable the session seam (the mutant); "
        "exit 0 only if the checkers catch the double-apply",
    )
    p_nem.set_defaults(func=cmd_nemesis)

    p_har = sub.add_parser("harness", help="run the benchmark harness")
    p_har.add_argument("args", nargs=argparse.REMAINDER)
    p_har.set_defaults(func=cmd_harness)

    p_srv = sub.add_parser("serve", help="host a TCP replica cluster")
    p_srv.add_argument("--replicas", type=int, default=3)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port-base", type=int, default=9000)
    p_srv.add_argument(
        "--wal-dir",
        default=None,
        help="persist each replica's WAL under this directory",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="run a checked closed-loop load over TCP"
    )
    p_load.add_argument("--replicas", type=int, default=3)
    p_load.add_argument("--clients", type=int, default=8)
    p_load.add_argument("--ops", type=int, default=200)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--kill",
        type=int,
        default=None,
        metavar="NODE",
        help="kill this replica index mid-run",
    )
    p_load.add_argument(
        "--kill-after",
        type=float,
        default=0.25,
        help="fraction of ops committed before the kill fires",
    )
    p_load.add_argument("--op-timeout", type=float, default=5.0)
    p_load.add_argument("--quorum-timeout", type=float, default=0.15)
    p_load.add_argument(
        "--artifact",
        default=None,
        help="write the history + verdict JSON artifact here",
    )
    p_load.add_argument(
        "--wal-dir",
        default=None,
        help="give each replica a WAL under this directory",
    )
    p_load.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent replica groups routed by key",
    )
    p_load.add_argument(
        "--window",
        type=int,
        default=8,
        help="in-flight decrees per shard",
    )
    p_load.add_argument(
        "--batch",
        type=int,
        default=16,
        help="max ops coalesced into one decree",
    )
    p_load.add_argument(
        "--no-check",
        action="store_true",
        help="skip the linearizability verdict (pure benchmarking)",
    )
    p_load.add_argument(
        "--monitor",
        action="store_true",
        help="check the history online while the run is in flight "
        "(streaming monitor, fail-fast, bounded memory)",
    )
    p_load.set_defaults(func=cmd_loadgen)

    p_mon = sub.add_parser(
        "monitor",
        help="stream a recorded history or watch a live cluster",
    )
    p_mon.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="stream a loadgen/nemesis history artifact through the "
        "monitor (per-shard monitors for sharded artifacts)",
    )
    p_mon.add_argument(
        "--watch",
        action="store_true",
        help="probe a separately-served cluster (see `serve`) with a "
        "recording canary client checked online",
    )
    p_mon.add_argument("--host", default="127.0.0.1")
    p_mon.add_argument(
        "--port-base",
        type=int,
        default=9000,
        help="with --watch: first replica port (node i at port-base+i)",
    )
    p_mon.add_argument("--replicas", type=int, default=3)
    p_mon.add_argument(
        "--ops",
        type=int,
        default=40,
        help="with --watch: number of canary probes to issue",
    )
    p_mon.add_argument(
        "--interval",
        type=float,
        default=0.05,
        help="with --watch: seconds between canary probes",
    )
    p_mon.add_argument(
        "--witness",
        default=None,
        metavar="OUT",
        help="write the shrunken violation witness JSON here",
    )
    p_mon.set_defaults(func=cmd_monitor)

    p_lint = sub.add_parser(
        "lint", help="run the protocol-aware static analysis pass"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv) -> int:
    if not argv:
        list_experiments()
        return 0
    # argparse.REMAINDER inside a subparser cannot capture leading
    # `-`-prefixed tokens, so the harness passthrough dispatches here.
    if argv[0].lower() == "harness":
        return cmd_harness(argparse.Namespace(args=list(argv[1:])))
    # Bare experiment keys keep working: `python -m repro e1 e6` is
    # sugar for `python -m repro run e1 e6`.
    if argv[0].lower() not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["run", *argv]
    elif argv[0].lower() in SUBCOMMANDS:
        argv = [argv[0].lower(), *argv[1:]]
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the consumer (e.g. `| head`) closed the pipe early: not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
