"""Benchmark regression harness: machine-readable numbers, checked in CI.

Runs a fixed set of benchmarks and writes one ``BENCH_<name>.json`` per
benchmark, each carrying its metrics plus a declaration of which metrics
are regression-checked and how.  Absolute wall-clock numbers are
reported but never gated on — they depend on the machine.  The gated
metrics are dimensionless ratios (compositional-vs-monolithic speedup,
cached-vs-uncached step ratio, calibration-normalized search cost) and
booleans (verdict agreement, parallel determinism), which transfer
across machines.

Benchmarks:

* ``pcomp`` — P-compositional vs monolithic checking on traces over a
  3-object system (register + counter + set product).  Reports median
  times, the speedup ratio, and whether every verdict agreed.
* ``search`` — the paper's reference search on a fixed consensus
  trace family, normalized by a pure-Python calibration loop so the
  number is comparable across machines.
* ``campaign_scaling`` — one nemesis campaign at ``--jobs 1`` vs
  ``--jobs 4``; gates on byte-identical per-seed verdicts (the speedup
  is reported, not gated: it is a property of the machine's core count).
* ``adt_hot_path`` — the ``lru_cache``-d ``ADT.step`` against the
  validating ``ADT.transition`` on the checker's hot loop shape.
* ``recovery`` — WAL replay cost vs snapshot compaction, torn-tail
  tolerance, and the live kill/restart throughput dip (E12; gates on
  the fold-equivalence/tolerance/verdict booleans and the compaction
  speedup, never on wall-clock).
* ``grayfaults`` — simulated and live degradation under gray failures
  (slow node, timer drift, clock skew, torn-tail WAL restart); gates
  on every-history-linearizable and tear-tolerated booleans (E13).
* ``throughput`` — the high-throughput data plane (slot pipelining +
  batching + binary codec + sharding) against the seed
  one-op-per-round client; gates on the dimensionless ``speedup``
  (floor 10x) and all-histories-linearizable, reports uniform
  ops/s + p50/p99 latency per configuration.
* ``sessions`` — the session-dedup seam (exactly-once client
  sessions) against the raw unsessioned fold, end to end on the
  pipelined data plane and in a fold microbench; gates on the
  ``<= 1.2x`` end-to-end overhead acceptance bound (as a boolean) and
  all-histories-linearizable.
* ``monitor`` — the streaming linearizability monitor: monitor-on vs
  monitor-off on the same pipelined burst (gates on the slowdown
  ratio and the live verdict) and a 50k-op synthetic concurrent feed
  whose peak retained-event gauge must stay under a fixed
  O(concurrent window) bound (gated boolean — the GC invariant).

Throughput-shaped benchmarks report a **uniform metric surface** via
:func:`throughput_metrics` — ``ops_per_s``, ``latency_p50_ms``,
``latency_p99_ms`` — so dashboards and regression checks read the same
keys everywhere.

Usage::

    python benchmarks/harness.py --quick --out bench-out
    python benchmarks/harness.py --check benchmarks/baseline --out bench-out
    python -m repro harness --quick

``--check DIR`` compares the fresh numbers against the committed
baseline: a gated ratio may not regress by more than the tolerance
(global default 2x; a check may carry its own ``"tolerance"`` — latency
percentiles get a looser one, they are noisy on shared CI runners),
booleans must match, ``min`` floors are absolute.  Exit status 1 on any
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

from repro.core.actions import Invocation, Response
from repro.core.adt import (
    counter_adt,
    product_adt,
    register_adt,
    set_adt,
    tag_object,
)
from repro.core.fastcheck import check_linearizable
from repro.core.linearizability import linearize
from repro.core.traces import Trace
from repro.stats import percentile

#: default regression tolerance for gated ratio metrics; a check dict
#: may override it with its own ``"tolerance"`` key
TOLERANCE = 2.0


def throughput_metrics(latencies_s, duration_s, prefix=""):
    """The uniform ops/s + latency-percentile metric surface.

    ``latencies_s`` are per-op latencies in seconds; ``duration_s`` the
    wall-clock of the run that committed them.  Returns the three keys
    every throughput-shaped benchmark reports (optionally prefixed, for
    side-by-side configurations in one report).
    """
    committed = len(latencies_s)
    p50 = percentile(latencies_s, 0.50) or 0.0
    p99 = percentile(latencies_s, 0.99) or 0.0
    return {
        f"{prefix}ops_per_s": (
            committed / duration_s if duration_s else 0.0
        ),
        f"{prefix}latency_p50_ms": p50 * 1e3,
        f"{prefix}latency_p99_ms": p99 * 1e3,
    }


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def three_object_adt():
    """The >=3-object system of the acceptance criterion."""
    return product_adt(
        {
            "reg": register_adt(),
            "cnt": counter_adt(),
            "set": set_adt(),
        }
    )


def three_object_inputs():
    from repro.core.adt import (
        counter_read,
        inc,
        reg_read,
        reg_write,
        set_add,
        set_contains,
    )

    return [
        tag_object("reg", reg_write(1)),
        tag_object("reg", reg_write(2)),
        tag_object("reg", reg_read()),
        tag_object("cnt", inc()),
        tag_object("cnt", counter_read()),
        tag_object("set", set_add("x")),
        tag_object("set", set_contains("x")),
    ]


def random_product_trace(rng, adt, inputs, n_clients, n_steps):
    """A random linearizable trace (atomic at response time) with real
    concurrency: many clients, interleaved invocations/responses."""
    clients = [f"c{i}" for i in range(n_clients)]
    open_input = {c: None for c in clients}
    state = adt.initial_state
    actions = []
    for _ in range(n_steps):
        client = rng.choice(clients)
        if open_input[client] is None:
            payload = rng.choice(inputs)
            actions.append(Invocation(client, 1, payload))
            open_input[client] = payload
        else:
            payload = open_input[client]
            state, output = adt.transition(state, payload)
            actions.append(Response(client, 1, payload, output))
            open_input[client] = None
    return Trace(actions)


def rounds_trace(rng, adt, inputs, n_clients, n_rounds, corrupt=False):
    """A maximally concurrent trace: every round, all clients invoke,
    then all respond (atomic at response time, so honestly linearizable).

    The wide concurrency window is what separates the checkers: the
    monolithic search ranges over committed subsets of *all* pending
    operations, the compositional one only over same-object subsets.
    ``corrupt=True`` rewrites the last read-class response to an
    impossible output — proving *non*-linearizability is the exhaustive
    case where the window size is the whole story.
    """
    clients = [f"c{i}" for i in range(n_clients)]
    state = adt.initial_state
    actions = []
    pending = {}
    for _ in range(n_rounds):
        order = clients[:]
        rng.shuffle(order)
        for client in order:
            payload = rng.choice(inputs)
            pending[client] = payload
            actions.append(Invocation(client, 1, payload))
        order = clients[:]
        rng.shuffle(order)
        for client in order:
            payload = pending.pop(client)
            state, output = adt.transition(state, payload)
            actions.append(Response(client, 1, payload, output))
    if corrupt:
        from repro.core.adt import counter_read, reg_read

        impossible = {
            tag_object("cnt", counter_read()): ("cnt", ("count", 999)),
            tag_object("reg", reg_read()): ("reg", ("value", 777)),
        }
        for i in range(len(actions) - 1, -1, -1):
            action = actions[i]
            if (
                isinstance(action, Response)
                and action.input in impossible
            ):
                actions[i] = Response(
                    action.client,
                    action.phase,
                    action.input,
                    impossible[action.input],
                )
                break
    return Trace(actions)


def consensus_trace_family(count, n_clients, n_steps, seed=2024):
    from repro.core.adt import consensus_adt, propose

    adt = consensus_adt()
    inputs = [propose(v) for v in ("a", "b", "c")]
    rng = random.Random(seed)
    return adt, [
        random_product_trace(rng, adt, inputs, n_clients, n_steps)
        for _ in range(count)
    ]


def _median_seconds(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def calibration_seconds():
    """A fixed pure-Python workload; ~the machine's interpreter speed."""

    def work():
        total = 0
        for i in range(200_000):
            total += i % 7
        return total

    return _median_seconds(work, 5)


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------


def bench_pcomp(quick):
    """P-compositional vs monolithic on 3-object traces.

    The family mixes honestly linearizable traces (both checkers find a
    witness; agreement is checked on positives) with corrupted ones
    (one impossible read output, so both must prove non-linearizability
    — the exhaustive case where decomposition pays exponentially).  The
    reported ``speedup`` is the median of the per-trace ratios.
    """
    adt = three_object_adt()
    inputs = three_object_inputs()
    rng = random.Random(7)
    n_clients, n_rounds = (6, 2) if quick else (6, 3)
    corrupted = 3 if quick else 5
    honest = 2 if quick else 3
    traces = [
        rounds_trace(rng, adt, inputs, n_clients, n_rounds, corrupt=True)
        for _ in range(corrupted)
    ] + [
        rounds_trace(rng, adt, inputs, n_clients, n_rounds)
        for _ in range(honest)
    ]
    repeats = 3 if quick else 5

    speedups = []
    agreement = True
    sizes = []
    mono_medians = []
    comp_medians = []
    for trace in traces:
        sizes.append(len(trace.actions))
        mono = linearize(trace, adt)
        report = check_linearizable(trace, adt)
        agreement = agreement and (mono.ok == report.ok)
        mono_s = _median_seconds(lambda: linearize(trace, adt), repeats)
        comp_s = _median_seconds(
            lambda: check_linearizable(trace, adt), repeats
        )
        mono_medians.append(mono_s)
        comp_medians.append(comp_s)
        speedups.append(mono_s / comp_s if comp_s else 0.0)
    return {
        "name": "pcomp",
        "metrics": {
            "trace_count": len(traces),
            "trace_actions": sizes,
            "objects": 3,
            "median_monolithic_s": statistics.median(mono_medians),
            "median_compositional_s": statistics.median(comp_medians),
            "speedup": statistics.median(speedups),
            "agreement": agreement,
        },
        "checks": [
            {"metric": "speedup", "mode": "higher_better", "min": 3.0},
            {"metric": "agreement", "mode": "bool"},
        ],
    }


def bench_search(quick):
    """The paper's reference search, calibration-normalized."""
    count = 6 if quick else 12
    adt, traces = consensus_trace_family(
        count, n_clients=5, n_steps=22 if quick else 26
    )
    repeats = 3 if quick else 5

    def run_all():
        for trace in traces:
            linearize(trace, adt)

    median = _median_seconds(run_all, repeats)
    calib = calibration_seconds()
    return {
        "name": "search",
        "metrics": {
            "trace_count": count,
            "median_s": median,
            "calibration_s": calib,
            "normalized_cost": median / calib if calib else 0.0,
        },
        "checks": [
            {"metric": "normalized_cost", "mode": "lower_better"},
        ],
    }


def bench_campaign_scaling(quick, jobs=4):
    """Nemesis campaign at jobs=1 vs jobs=N: identical verdicts, wall."""
    from repro.faults.campaign import run_campaign

    n_schedules = 4 if quick else 14

    def campaign(n_jobs):
        lines = []
        t0 = time.perf_counter()
        report = run_campaign(
            n_schedules=n_schedules,
            base_seed=100,
            targets=("composed",),
            verbose=True,
            emit=lines.append,
            jobs=n_jobs,
        )
        return time.perf_counter() - t0, lines, report

    serial_s, serial_lines, serial_report = campaign(1)
    parallel_s, parallel_lines, parallel_report = campaign(jobs)
    return {
        "name": "campaign_scaling",
        "metrics": {
            "runs": n_schedules,
            "jobs": jobs,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else 0.0,
            "verdicts_identical": serial_lines == parallel_lines,
            "violations": len(serial_report.violations),
            "inconclusive": serial_report.inconclusive,
        },
        "checks": [
            {"metric": "verdicts_identical", "mode": "bool"},
            {"metric": "violations", "mode": "bool"},
        ],
    }


def bench_adt_hot_path(quick):
    """lru_cache'd ADT.step vs validating ADT.transition."""
    adt = three_object_adt()
    inputs = three_object_inputs()
    iterations = 20_000 if quick else 60_000
    repeats = 3 if quick else 5

    def drive(step):
        state = adt.initial_state
        for i in range(iterations):
            state, _ = step(state, inputs[i % len(inputs)])

    adt.step.cache_clear()
    uncached = _median_seconds(lambda: drive(adt.transition), repeats)
    cached = _median_seconds(lambda: drive(adt.step), repeats)
    return {
        "name": "adt_hot_path",
        "metrics": {
            "iterations": iterations,
            "uncached_s": uncached,
            "cached_s": cached,
            "cache_speedup": uncached / cached if cached else 0.0,
        },
        "checks": [
            {"metric": "cache_speedup", "mode": "higher_better"},
        ],
    }


def _delegated(module_name):
    """Load a standalone benchmark module and return its harness entry."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), f"{module_name}.py")
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.harness_report


def bench_recovery(quick):
    """WAL replay/compaction/restart costs (delegates to bench_recovery.py)."""
    return _delegated("bench_recovery")(quick)


def bench_grayfaults(quick):
    """Gray-failure degradation (delegates to bench_grayfaults.py)."""
    return _delegated("bench_grayfaults")(quick)


def bench_throughput(quick):
    """Data-plane throughput vs seed (delegates to bench_throughput.py)."""
    return _delegated("bench_throughput")(quick)


def bench_monitor(quick):
    """Live-monitor overhead + GC bound (delegates to bench_monitor.py)."""
    return _delegated("bench_monitor")(quick)


def bench_sessions(quick):
    """Session-dedup seam overhead (delegates to bench_sessions.py)."""
    return _delegated("bench_sessions")(quick)


def bench_lint(quick):
    """Lint latency over src/ (delegates to bench_lint.py)."""
    return _delegated("bench_lint")(quick)


BENCHES = {
    "pcomp": bench_pcomp,
    "search": bench_search,
    "campaign_scaling": bench_campaign_scaling,
    "adt_hot_path": bench_adt_hot_path,
    "recovery": bench_recovery,
    "grayfaults": bench_grayfaults,
    "throughput": bench_throughput,
    "monitor": bench_monitor,
    "sessions": bench_sessions,
    "lint": bench_lint,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def write_reports(reports, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for report in reports:
        path = os.path.join(out_dir, f"BENCH_{report['name']}.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


def check_regressions(reports, baseline_dir):
    """Compare gated metrics against the committed baseline.

    Ratio metrics may not regress by more than the check's own
    ``"tolerance"`` (default :data:`TOLERANCE`); booleans must match;
    ``min`` floors are absolute.  Returns the list of failure messages.
    """
    failures = []
    for report in reports:
        name = report["name"]
        path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            print(f"note: no baseline for {name} ({path}); skipping")
            baseline = None
        else:
            with open(path) as handle:
                baseline = json.load(handle)
        for check in report.get("checks", []):
            metric = check["metric"]
            mode = check["mode"]
            tolerance = check.get("tolerance", TOLERANCE)
            current = report["metrics"].get(metric)
            floor = check.get("min")
            if floor is not None and not (
                isinstance(current, (int, float)) and current >= floor
            ):
                failures.append(
                    f"{name}.{metric} = {current!r} below floor {floor}"
                )
            if baseline is None:
                continue
            base = baseline["metrics"].get(metric)
            if base is None:
                continue
            if mode == "bool":
                if bool(current) != bool(base):
                    failures.append(
                        f"{name}.{metric}: {current!r} != baseline {base!r}"
                    )
            elif mode == "higher_better":
                if current < base / tolerance:
                    failures.append(
                        f"{name}.{metric} regressed: {current:.3g} < "
                        f"baseline {base:.3g} / {tolerance}"
                    )
            elif mode == "lower_better":
                if current > base * tolerance:
                    failures.append(
                        f"{name}.{metric} regressed: {current:.3g} > "
                        f"baseline {base:.3g} * {tolerance}"
                    )
    return failures


def summarize(report):
    metrics = report["metrics"]
    keys = sorted(metrics)
    body = ", ".join(
        f"{key}={metrics[key]:.4g}"
        if isinstance(metrics[key], float)
        else f"{key}={metrics[key]!r}"
        for key in keys
    )
    print(f"[{report['name']}] {body}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument(
        "--full", action="store_true", help="full workloads (default)"
    )
    parser.add_argument(
        "--out", default="bench-out", help="directory for BENCH_*.json"
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="DIR",
        help="baseline directory to compare against (fail on regression)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker count for the campaign-scaling benchmark",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated benchmark names (default: all)",
    )
    args = parser.parse_args(argv)
    quick = args.quick and not args.full

    names = list(BENCHES)
    if args.only:
        names = [n for n in args.only.split(",") if n]
        unknown = [n for n in names if n not in BENCHES]
        if unknown:
            print(f"unknown benchmarks: {unknown}; have {list(BENCHES)}")
            return 1

    reports = []
    for name in names:
        if name == "campaign_scaling":
            report = BENCHES[name](quick, jobs=args.jobs)
        else:
            report = BENCHES[name](quick)
        report["quick"] = quick
        summarize(report)
        reports.append(report)
    write_reports(reports, args.out)

    if args.check:
        failures = check_regressions(reports, args.check)
        if failures:
            print("\nREGRESSIONS:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("\nno regressions against baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
