"""Throughput — the high-volume data plane vs the seed client model.

The paper's client replicates one operation per consensus round: probe
a slot, propose, wait for the decision, and probe the next slot if a
contender won.  That is the right model for measuring message delays
(E11) and exactly the wrong one for volume — throughput is capped at
one op per protocol round trip per client, and with 16 contending
clients most rounds are lost (15.75 decrees per committed op).

This benchmark measures what the data-plane rebuild buys, end to end
over real localhost TCP sockets with durability on:

* **seed configuration** — ``run_loadgen(pipeline=False,
  codec="json")``, the slow values named explicitly: every client a
  :func:`~repro.net.pipeline.probing_client`, i.e. a
  :class:`~repro.net.pipeline.SlotPipeline` of its own at ``window=1,
  max_batch=1``; JSON frames, one replica group, one fsync per WAL
  append;
* **pipelined configuration** — ``run_loadgen``'s defaults plus
  ``shards=2``: the same proposer shared per shard and sized up
  (``window`` in-flight decrees, up to ``batch`` ops per decree),
  struct-packed binary frames and sharded replica groups routed by the
  partition key.  Both sync each WAL record before its reply leaves.

Both runs go through the one loadgen driver, keep the WAL enabled and
have their histories checked per shard (disjoint key sets make
per-shard checking compositional — Horn & Kroening's locality
argument).  The gated metric is the dimensionless ``speedup``
(floor 10x, the acceptance criterion) plus the linearizability
booleans; ops/s and p50/p99 latency are reported through the harness's
uniform :func:`throughput_metrics` surface with loosened per-check
tolerances (latency percentiles are noisy on shared runners).

Run standalone:  python benchmarks/bench_throughput.py
"""

import importlib.util
import os
import tempfile

from repro.net.loadgen import run_loadgen

SILENT = lambda line: None  # noqa: E731

#: both configurations run the same key set.  Wider than the loadgen
#: default so the partition spreads: the compositional checker's
#: per-key search depth stays bounded as the op count grows, and the
#: shard router has something to route.
KEYS = tuple(f"key{i:02d}" for i in range(12))


def _harness():
    """Load harness.py for the uniform throughput metric helpers."""
    path = os.path.join(os.path.dirname(__file__), "harness.py")
    spec = importlib.util.spec_from_file_location("harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_seed_config(ops, clients=16):
    """The seed data plane: a window-1/batch-1 pipeline per client
    (one op per round), JSON, per-append fsync.  The one caller of the
    two slow values: the denominator of the >=10x gate."""
    with tempfile.TemporaryDirectory(prefix="bench-tp-seed-") as wal_root:
        return run_loadgen(
            replicas=3,
            clients=clients,
            ops=ops,
            seed=42,
            keys=KEYS,
            wal_root=wal_root,
            pipeline=False,
            codec="json",
            emit=SILENT,
        )


def run_pipelined_config(ops, clients=16, shards=2, window=8, batch=16):
    """The default data plane (pipeline + batch + binary), sharded,
    same replica count per group, WAL on."""
    with tempfile.TemporaryDirectory(prefix="bench-tp-pipe-") as wal_root:
        return run_loadgen(
            replicas=3,
            clients=clients,
            ops=ops,
            seed=42,
            keys=KEYS,
            wal_root=wal_root,
            shards=shards,
            window=window,
            batch=batch,
            emit=SILENT,
        )


def harness_report(quick):
    """The harness entry: metrics + regression gates for ``throughput``."""
    harness = _harness()
    # Different op counts per configuration: ops/s normalizes them, and
    # each run must last long enough to time (the pipelined plane burns
    # through small workloads in milliseconds).
    seed_ops = 160 if quick else 480
    pipe_ops = 1600 if quick else 3200
    seed = run_seed_config(seed_ops)
    pipe = run_pipelined_config(pipe_ops)
    metrics = {
        "seed_committed": seed.committed,
        "pipelined_committed": pipe.committed,
        "shards": pipe.shards,
        "window": pipe.window,
        "batch": pipe.batch,
        "codec": pipe.codec,
        "decrees": pipe.decrees,
        "ops_per_decree": (
            pipe.batched_ops / pipe.decrees if pipe.decrees else 0.0
        ),
        "speedup": (
            pipe.throughput / seed.throughput if seed.throughput else 0.0
        ),
        "seed_linearizable": seed.linearizable,
        "pipelined_linearizable": pipe.linearizable,
    }
    metrics.update(
        harness.throughput_metrics(
            seed.latencies, seed.duration, prefix="seed_"
        )
    )
    metrics.update(
        harness.throughput_metrics(
            pipe.latencies, pipe.duration, prefix="pipelined_"
        )
    )
    return {
        "name": "throughput",
        "metrics": metrics,
        "checks": [
            # the acceptance criterion: >=10x over the seed path, as a
            # machine-independent ratio with an absolute floor
            {"metric": "speedup", "mode": "higher_better", "min": 10.0},
            {"metric": "seed_linearizable", "mode": "bool"},
            {"metric": "pipelined_linearizable", "mode": "bool"},
            # absolute rates and tail latencies are machine-dependent:
            # keep them visible on dashboards but gate loosely
            {
                "metric": "pipelined_ops_per_s",
                "mode": "higher_better",
                "tolerance": 4.0,
            },
            {
                "metric": "pipelined_latency_p99_ms",
                "mode": "lower_better",
                "tolerance": 4.0,
            },
        ],
    }


def main():
    print("throughput: seed client model vs the pipelined data plane")
    report = harness_report(quick=False)
    m = report["metrics"]
    print(
        f"  seed     : {m['seed_ops_per_s']:>9.1f} ops/s  "
        f"p50={m['seed_latency_p50_ms']:.1f}ms "
        f"p99={m['seed_latency_p99_ms']:.1f}ms  "
        f"({m['seed_committed']} ops, "
        f"{'linearizable' if m['seed_linearizable'] else 'VIOLATION'})"
    )
    print(
        f"  pipelined: {m['pipelined_ops_per_s']:>9.1f} ops/s  "
        f"p50={m['pipelined_latency_p50_ms']:.1f}ms "
        f"p99={m['pipelined_latency_p99_ms']:.1f}ms  "
        f"({m['pipelined_committed']} ops over {m['shards']} shards, "
        f"{'linearizable' if m['pipelined_linearizable'] else 'VIOLATION'})"
    )
    print(
        f"  data plane: window={m['window']} batch<={m['batch']} "
        f"codec={m['codec']}; "
        f"{m['decrees']} decrees, {m['ops_per_decree']:.1f} ops/decree"
    )
    print(f"  speedup: {m['speedup']:.1f}x (gate: >=10x)")
    assert m["seed_linearizable"] and m["pipelined_linearizable"]
    assert m["speedup"] >= 10.0, "speedup below the 10x acceptance floor"


if __name__ == "__main__":
    main()
