"""Monitoring overhead and the streaming monitor's memory bound.

The streaming monitor (docs/MONITORING.md) promises two things worth
gating in CI:

* **low overhead on the hot path** — `loadgen --monitor` taps every
  recorded event into an async-drained queue and advances one search
  frontier per partition key *while the pipelined burst runs*.  The
  tap's enqueue is O(1) on the client's critical path; the frontier
  work rides the same event loop.  This benchmark runs the identical
  pipelined burst monitor-off and monitor-on and reports the
  dimensionless slowdown ratio (gated: the monitor may not eat the
  data plane);
* **O(concurrent window) memory** — a monitored run retains only the
  events of operations that are still open or not yet covered by a
  quiescent cut; every decided prefix is garbage-collected.  The
  second half streams a large synthetic concurrent workload (50k ops,
  100k events, full run) straight through a
  :class:`~repro.monitor.StreamingMonitor` and asserts the *peak*
  retained-event gauge stays under a fixed bound that depends only on
  the client count — not on the 50k run length.

Run standalone:  python benchmarks/bench_monitor.py
"""

import random
import tempfile
import time

from repro.monitor import StreamingMonitor
from repro.net.loadgen import run_loadgen
from repro.smr.universal import kv_store_adt

SILENT = lambda line: None  # noqa: E731

KEYS = tuple(f"key{i:02d}" for i in range(12))

#: synthetic-feed shape: this many clients run concurrently, so the GC
#: invariant predicts peak retention proportional to it
GC_CLIENTS = 8

#: the fixed memory bound the 50k-op run must stay under: a decided
#: prefix is collected at every per-key quiescent cut, so retention is
#: O(concurrent window) — a few events per in-flight client — never
#: O(run length).  8 clients * 8x slack = 64 events out of 100_000.
GC_PEAK_BOUND = 8 * GC_CLIENTS


def run_burst(ops, monitor, clients=16, shards=2):
    """One burst on the default (pipelined) data plane, monitor on/off.

    ``check=False`` keeps the post-hoc checker out of both timings so
    the delta is the monitor alone.
    """
    prefix = "bench-mon-on-" if monitor else "bench-mon-off-"
    with tempfile.TemporaryDirectory(prefix=prefix) as wal_root:
        return run_loadgen(
            replicas=3,
            clients=clients,
            ops=ops,
            seed=42,
            keys=KEYS,
            wal_root=wal_root,
            shards=shards,
            check=False,
            monitor=monitor,
            emit=SILENT,
        )


def synthetic_gc_run(ops, clients=GC_CLIENTS, seed=7):
    """Stream ``ops`` concurrent kv operations through one monitor.

    ``clients`` sequential clients interleave over a shared key set:
    each round opens up to ``clients`` invocations in a seeded order,
    then delivers the matching responses in another seeded order, so
    the monitor permanently sees a full concurrent window without the
    run ever quiescing globally for long.  Outputs are computed from a
    real linearization (the delivery order), so the verdict stays
    ``ok`` and every prefix becomes collectable — this measures the GC,
    not the violation path.
    """
    adt = kv_store_adt()
    monitor = StreamingMonitor(adt)
    rng = random.Random(f"bench-monitor:{seed}")
    keys = KEYS[:4]
    store = {}
    issued = 0
    start = time.perf_counter()
    while issued < ops:
        round_clients = list(range(clients))[: max(1, min(clients, ops - issued))]
        rng.shuffle(round_clients)
        pending = []
        for c in round_clients:
            key = rng.choice(keys)
            if rng.random() < 0.5:
                command = ("put", key, issued)
            else:
                command = ("get", key)
            monitor.feed(("inv", f"c{c}", command, None, float(issued)))
            pending.append((c, command))
            issued += 1
        rng.shuffle(pending)
        for c, command in pending:
            # linearize in delivery order against the model store
            if command[0] == "put":
                prev = store.get(command[1])
                store[command[1]] = command[2]
                output = ("value", prev)
            else:
                output = ("value", store.get(command[1]))
            monitor.feed(("res", f"c{c}", command, output, float(issued)))
    elapsed = time.perf_counter() - start
    report = monitor.report()
    assert report.verdict == "ok", report.reason
    return report, elapsed


def harness_report(quick):
    """The harness entry: metrics + regression gates for ``monitor``."""
    burst_ops = 800 if quick else 1600
    off = run_burst(burst_ops, monitor=False)
    on = run_burst(burst_ops, monitor=True)
    # The memory-bound run is the acceptance criterion at 50k ops; the
    # bound itself never scales down, only the quick run length does.
    gc_ops = 10_000 if quick else 50_000
    gc_report, gc_elapsed = synthetic_gc_run(gc_ops)
    metrics = {
        "burst_ops": burst_ops,
        "monitor_off_ops_per_s": off.throughput,
        "monitor_on_ops_per_s": on.throughput,
        "monitor_overhead": (
            off.throughput / on.throughput if on.throughput else 0.0
        ),
        "monitor_verdict_ok": on.monitor_verdict == "ok",
        "monitor_events": on.monitor_events,
        "monitor_peak_retained": on.monitor_peak_retained,
        "monitor_gc_drops": on.monitor_gc_drops,
        "gc_ops": gc_ops,
        "gc_events": gc_report.events,
        "gc_events_per_s": (
            gc_report.events / gc_elapsed if gc_elapsed else 0.0
        ),
        "gc_peak_retained": gc_report.peak_retained,
        "gc_drops": gc_report.gc_drops,
        "gc_bound": GC_PEAK_BOUND,
        "gc_bounded": gc_report.peak_retained <= GC_PEAK_BOUND,
    }
    return {
        "name": "monitor",
        "metrics": metrics,
        "checks": [
            # the acceptance criteria: the live verdict agrees, and the
            # monitored run's memory stays under the fixed bound
            {"metric": "monitor_verdict_ok", "mode": "bool"},
            {"metric": "gc_bounded", "mode": "bool"},
            # overhead is a machine-independent ratio; gate it so the
            # monitor can never quietly eat the data plane
            {
                "metric": "monitor_overhead",
                "mode": "lower_better",
                "tolerance": 2.0,
            },
            # absolute rates are machine-dependent: visible, loose gate
            {
                "metric": "monitor_on_ops_per_s",
                "mode": "higher_better",
                "tolerance": 4.0,
            },
            {
                "metric": "gc_events_per_s",
                "mode": "higher_better",
                "tolerance": 4.0,
            },
        ],
    }


def main():
    print("monitor: live-tap overhead and the GC memory bound")
    report = harness_report(quick=False)
    m = report["metrics"]
    print(
        f"  burst off : {m['monitor_off_ops_per_s']:>9.1f} ops/s "
        f"({m['burst_ops']} ops, pipelined, 2 shards)"
    )
    print(
        f"  burst on  : {m['monitor_on_ops_per_s']:>9.1f} ops/s  "
        f"overhead {m['monitor_overhead']:.2f}x, "
        f"verdict {'ok' if m['monitor_verdict_ok'] else 'NOT OK'}, "
        f"{m['monitor_events']} events, "
        f"peak retained {m['monitor_peak_retained']}, "
        f"gc'd {m['monitor_gc_drops']}"
    )
    print(
        f"  gc run    : {m['gc_ops']} ops / {m['gc_events']} events at "
        f"{m['gc_events_per_s']:.0f} events/s; peak retained "
        f"{m['gc_peak_retained']} (bound {m['gc_bound']}), "
        f"gc'd {m['gc_drops']}"
    )
    assert m["monitor_verdict_ok"]
    assert m["gc_bounded"], (
        f"peak retained {m['gc_peak_retained']} exceeds the "
        f"O(concurrent window) bound {m['gc_bound']}"
    )


if __name__ == "__main__":
    main()
