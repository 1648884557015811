"""E13 — fast-path ratio and recovery latency under gray failure.

The paper's speculative protocol assumes replicas are either up or
fail-stopped; gray failures — a slow-but-correct node, drifting timers,
skewed clocks, storage that tears or lies — sit outside that model.
This experiment measures how gracefully the stack degrades when they
happen anyway:

* **simulated degradation matrix** — the SMR target runs the same
  seeded workload healthy and under each directed gray shape
  (:class:`SlowNode`, :class:`TimerDrift`, :class:`ClockSkew`); every
  history must stay linearizable, and the cost shows up as latency and
  Backup switches, not as lost safety;
* **live fast-path ratio** — a real 3-replica TCP cluster runs
  closed-loop clients healthy, then under a gray burst (one slow node
  plus an asymmetric one-way bridge partition).  Quorum's fast path
  needs *unanimity*, so a single slow replica drags the ratio down —
  the gray failure taxes latency where a crash would have switched the
  protocol cleanly;
* **torn-tail recovery latency** — mid-run, one replica is killed, its
  WAL torn mid-record, and the restart timed: replay must tolerate the
  tear (serve the intact prefix) and the whole history must still
  linearize.

Wall-clock seconds are reported but never gated; the regression gates
are the booleans (every verdict linearizable, tear tolerated).

Run standalone:  python benchmarks/bench_grayfaults.py
"""

import asyncio
import os
import statistics
import tempfile
import time

from repro.core.fastcheck import check_linearizable
from repro.faults.campaign import SMRTarget
from repro.faults.nemesis import ClockSkew, FaultSchedule, SlowNode, TimerDrift
from repro.faults.netcampaign import (
    NetSlowNode,
    RestartNode,
    WALTearTail,
    asymmetric_bridge,
    run_net_campaign,
)
from repro.net import ShardedCluster, probing_client
from repro.net.client import HistoryRecorder
from repro.net.faultfs import tear_tail
from repro.smr.universal import kv_store_adt

SILENT = lambda line: None  # noqa: E731

#: one directed schedule per gray shape; the window covers the bulk of
#: the workload (ops are injected in the first 40% of the horizon)
GRAY_SHAPES = {
    "healthy": (),
    "slow_node": (SlowNode(at=5.0, server=1, factor=6.0, duration=150.0),),
    "timer_drift": (
        TimerDrift(at=5.0, server=1, rate=3.0, duration=150.0),
    ),
    "clock_skew": (
        ClockSkew(at=5.0, server=2, offset=40.0, duration=150.0),
    ),
}


def sim_degradation(seeds):
    """Rows of (shape, ok_rate, committed, median_latency, switched)."""
    rows = []
    for shape, actions in GRAY_SHAPES.items():
        target = SMRTarget()
        ok = committed = switched = 0
        latencies = []
        for seed in seeds:
            result = target.run(
                FaultSchedule(seed=seed, actions=actions)
            )
            ok += 1 if result.ok else 0
            committed += result.committed
            switched += result.switched
            latencies.extend(result.latencies)
        rows.append(
            (
                shape,
                ok / len(seeds),
                committed,
                statistics.median(latencies) if latencies else 0.0,
                switched,
            )
        )
    return rows


def _fast_ratio(run):
    total = run.fast + run.slow
    return run.fast / total if total else 0.0


def live_fast_path(ops_per_client=8, clients=3):
    """Fast-path ratio healthy vs under a gray burst, on real sockets."""
    healthy = FaultSchedule(seed=20, actions=(), horizon=3.0)
    gray = FaultSchedule(
        seed=20,
        actions=(
            # the hold exceeds the client's 0.15s quorum timeout once
            # paid both ways, so unanimity through the slow node fails
            # and slots fall back to the Backup path
            NetSlowNode(at=0.2, node=1, delay=0.1, duration=2.0),
            *asymmetric_bridge(at=0.6, duration=0.6),
        ),
        horizon=3.0,
    )
    report = run_net_campaign(
        schedules=[healthy, gray],
        clients=clients,
        ops_per_client=ops_per_client,
        emit=SILENT,
    )
    healthy_run, gray_run = report.runs
    return {
        "healthy_fast_ratio": _fast_ratio(healthy_run),
        "gray_fast_ratio": _fast_ratio(gray_run),
        "healthy_committed": healthy_run.committed,
        "gray_committed": gray_run.committed,
        "all_linearizable": report.all_linearizable,
    }


async def _torn_restart(kill_at=0.7, restart_at=1.2, deadline=2.4):
    """Kill node1 mid-run, tear its WAL tail, time the restart."""
    loop = asyncio.get_running_loop()
    with tempfile.TemporaryDirectory() as wal_root:
        cluster = ShardedCluster(n_servers=3, wal_root=wal_root)
        await cluster.start()
        transport = cluster.client_transport("bench")
        recorder = HistoryRecorder(clock=lambda: transport.now)
        client = probing_client(
            "c0", 3, transport, recorder, op_timeout=3.0
        )
        committed = []
        start = loop.time()
        outcome = {}

        async def drive():
            i = 0
            while loop.time() - start < deadline:
                await client.submit(("put", f"k{i % 4}", i))
                committed.append(loop.time() - start)
                i += 1

        async def nemesis():
            await asyncio.sleep(kill_at)
            await cluster.kill(1)
            tear_tail(os.path.join(cluster.wal_dir(1), "wal.log"), cut=3)
            await asyncio.sleep(restart_at - kill_at)
            t0 = time.perf_counter()
            (node,) = await cluster.restart(1)
            outcome["restart_s"] = time.perf_counter() - t0
            outcome["torn_recovered"] = bool(node.wal.state.torn_tail)
            outcome["records_replayed"] = node.wal.state.records_replayed

        await asyncio.gather(drive(), nemesis())
        await cluster.stop()

    check = check_linearizable(recorder.trace(), kv_store_adt())
    outcome["committed"] = len(committed)
    outcome["linearizable"] = bool(check.ok)
    return outcome


def harness_report(quick):
    """The harness entry: metrics + regression gates for ``grayfaults``."""
    seeds = range(2) if quick else range(5)
    rows = sim_degradation(seeds)
    by_shape = {row[0]: row for row in rows}
    live = live_fast_path(ops_per_client=6 if quick else 10)
    torn = asyncio.run(_torn_restart())
    return {
        "name": "grayfaults",
        "metrics": {
            "sim_ok_rate": min(row[1] for row in rows),
            "sim_healthy_latency": by_shape["healthy"][3],
            "sim_slow_node_latency": by_shape["slow_node"][3],
            "sim_drift_latency": by_shape["timer_drift"][3],
            "sim_skew_latency": by_shape["clock_skew"][3],
            "live_healthy_fast_ratio": live["healthy_fast_ratio"],
            "live_gray_fast_ratio": live["gray_fast_ratio"],
            "live_all_linearizable": live["all_linearizable"],
            "torn_restart_s": torn["restart_s"],
            "torn_recovered": torn["torn_recovered"],
            "torn_linearizable": torn["linearizable"],
            "torn_committed": torn["committed"],
        },
        "checks": [
            {"metric": "live_all_linearizable", "mode": "bool"},
            {"metric": "torn_recovered", "mode": "bool"},
            {"metric": "torn_linearizable", "mode": "bool"},
            {"metric": "sim_ok_rate", "mode": "higher_better", "min": 1.0},
        ],
    }


def main():
    print("E13: simulated gray-failure degradation (SMR target, 5 seeds)")
    print(
        f"{'shape':>12} {'ok':>5} {'committed':>9} "
        f"{'median lat':>10} {'switched':>8}"
    )
    for shape, ok_rate, committed, latency, switched in sim_degradation(
        range(5)
    ):
        assert ok_rate == 1.0, f"{shape}: a history failed the checker"
        print(
            f"{shape:>12} {ok_rate:>5.0%} {committed:>9} "
            f"{latency:>10.1f} {switched:>8}"
        )
    print("  (every run linearizable; gray failures cost latency and")
    print("   Backup switches, never safety)")

    print("\nE13b: live fast-path ratio, healthy vs gray burst")
    live = live_fast_path()
    print(
        f"  healthy: fast-path {live['healthy_fast_ratio']:.0%} "
        f"({live['healthy_committed']} ops)"
    )
    print(
        f"  gray   : fast-path {live['gray_fast_ratio']:.0%} "
        f"({live['gray_committed']} ops) under slow node + one-way bridge"
    )
    assert live["all_linearizable"]
    print("  both histories linearizable")

    print("\nE13c: torn-tail WAL restart (kill @0.7s, tear, restart @1.2s)")
    torn = asyncio.run(_torn_restart())
    print(
        f"  restart took {torn['restart_s'] * 1000:.1f}ms, replayed "
        f"{torn['records_replayed']} records, torn tail "
        f"{'tolerated' if torn['torn_recovered'] else 'NOT DETECTED'}"
    )
    print(
        f"  committed={torn['committed']}, history="
        f"{'linearizable' if torn['linearizable'] else 'VIOLATION'}"
    )
    assert torn["torn_recovered"] and torn["linearizable"]

    print(
        "\npaper: gray failures fall outside the fail-stop model; the"
        "\nreproduction degrades to Backup latency and torn-prefix replay"
        "\nwhile every checked history stays linearizable"
    )


if __name__ == "__main__":
    main()
