"""The layer ledger's one command (see README.md).

Two ways in, one measurement underneath:

``run.py --seed S --out DIR [--smoke] [--repeat-check]``
    every workload, rounds interleaved round-robin, end-to-end and
    per-layer metrics, results in ``DIR``;

``run.py --workload W --seed S --seconds T --trace 0|1``
    one workload within a time budget, end-to-end metrics (``--trace
    0``) or per-layer metrics (``--trace 1``), the result as one JSON
    object on the last line of standard output.

Either way every recorded history is decided by every decider, and any
``violation``, ``unknown``, disagreement or failed op exits non-zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # run as a script: import the package instead of the script's own
    # directory, where trace.py would shadow the standard library's
    sys.path[0] = str(HERE.parent)

from ledger import layers, plane  # noqa: E402
from ledger.plane import FULL, SMOKE, WORKLOADS, Round, Sizing  # noqa: E402
from ledger.trace import Tracer  # noqa: E402


#: per-round values that are events to count over the rounds, not
#: quantities to summarise
COUNTED = ("fastcheck.budget_hits", "monitor.unknown_rounds")


def declared() -> Dict[str, Any]:
    """``BENCHMARK.json``: the registry of workloads, metrics, units and
    bounds.  The code below may emit no metric it does not declare."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def best_third(values: Sequence[float], higher_is_better: bool) -> float:
    """The mean of the best third of ``values`` (at least one).

    The machine this runs on alternates between two processor speeds
    1.5x apart (README, noise findings), so a workload's rounds fall in
    two modes and their median jumps between them whenever the slow
    share is near a half.  The fast mode is the program's own speed and
    the best third of the rounds sits inside it.
    """
    ordered = sorted(values, reverse=higher_is_better)
    return statistics.fmean(ordered[: math.ceil(len(ordered) / 3)])


def measure(
    names: Sequence[str],
    seed: int,
    sizing: Sizing,
    scratch: str,
    budget: Optional[float] = None,
    floor: Optional[int] = None,
    time_setups: bool = False,
) -> Tuple[Dict[str, List[Round]], Dict[str, List[Tuple[float, int, int]]]]:
    """Run every workload's untraced rounds, round-robin.

    Round ``i`` of each workload runs before round ``i + 1`` of any, so a
    noisy-neighbour phase lands on a minority of every workload's rounds
    instead of on all rounds of one.  Without ``budget`` each workload
    runs its own round count; with it, rounds continue while the next one
    is expected to end within ``budget`` seconds, and never stop below
    ``floor`` (default: the workload's ``min_rounds``).  With
    ``time_setups``, ``sizing.setup_reps`` set-up samples are taken
    before every round, after one discarded warm-up call, and returned
    next to the rounds.
    """
    rounds: Dict[str, List[Round]] = {name: [] for name in names}
    setups: Dict[str, List[Tuple[float, int, int]]] = {
        name: [] for name in names
    }
    spent = {name: 0.0 for name in names}
    started = time.perf_counter()
    if time_setups:
        for name in names:
            plane.time_setup(WORKLOADS[name])
    index = 0
    while True:
        due = []
        for name in names:
            workload = WORKLOADS[name]
            if budget is None:
                wanted = index < (sizing.rounds or workload.rounds)
            else:
                least = workload.min_rounds if floor is None else floor
                expected = spent[name] / max(index, 1)
                elapsed = time.perf_counter() - started
                wanted = index < least or elapsed + expected <= budget
            if wanted:
                due.append(name)
        if not due:
            return rounds, setups
        for name in due:
            workload = WORKLOADS[name]
            gc.collect()  # between rounds only; GC stays on during them
            began = time.perf_counter()
            if time_setups:
                for _ in range(sizing.setup_reps):
                    setups[name].append(plane.time_setup(workload))
            rounds[name].append(
                plane.run_round(
                    workload, seed * 1000 + index, sizing.ops(workload),
                    sizing, scratch,
                )
            )
            spent[name] += time.perf_counter() - began
        index += 1


def trace_workload(
    name: str, seed: int, sizing: Sizing, scratch: str,
    out_dir: Optional[str],
) -> Dict[str, Any]:
    """The extra traced round (a quarter of the ops), the isolated
    timings on what it captured, and the same round untraced just before
    it: ``trace.overhead`` compares like with like."""
    workload = WORKLOADS[name]
    ops = max(workload.clients, sizing.ops(workload) // 4)
    # only ops_per_s of these two rounds is used; their thin latency
    # tails are never reported, so the percentile guard stands down
    sizing = dataclasses.replace(sizing, min_beyond=0)
    tracer = Tracer()
    gc.collect()
    reference = plane.run_round(
        workload, seed * 1000 + 999, ops, sizing, scratch
    )
    gc.collect()
    traced = plane.run_round(
        workload, seed * 1000 + 999, ops, sizing, scratch, tracer=tracer
    )
    values = layers.traced_metrics(
        tracer, traced.committed, traced.values["ops_per_s"],
        reference.values["ops_per_s"],
    )
    values.update(
        layers.isolated_metrics(
            tracer, plane.tmpfs_root()[0], scratch, sizing.timed_seconds
        )
    )
    if out_dir is not None:
        tracer.write(
            os.path.join(out_dir, f"trace-{name}.json"),
            workload=name, seed=traced.seed,
        )
    return {
        "rounds": [reference, traced],
        "values": values,
        "missing_hooks": tracer.missing_hooks,
    }


def run_set(
    names: Sequence[str],
    seed: int,
    sizing: Sizing,
    scratch: str,
    out_dir: Optional[str] = None,
    budget: Optional[float] = None,
    end_to_end: bool = True,
    per_layer: bool = True,
) -> Dict[str, Dict[str, Any]]:
    """One full set of measurements: ``{workload: result}``.

    A result holds the raw rounds, ``metrics`` (over the rounds, the
    :func:`best_third` of every end-to-end value and of the set-up
    samples and the median of every other per-round value, plus the
    traced round's values), the ops attempted and failed, and
    ``problems``.
    """
    spec = declared()
    units = {
        metric["name"]: metric["unit"]
        for kind in ("end_to_end", "per_layer")
        for metric in spec[kind]
    }
    units["failed_share"] = "ratio"
    wanted = set()
    if end_to_end:
        wanted |= {m["name"] for m in spec["end_to_end"]} | {"failed_share"}
    if per_layer:
        wanted |= {m["name"] for m in spec["per_layer"]}

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rounds, setups = measure(
        names, seed, sizing, scratch,
        budget=budget if end_to_end or budget is None else budget / 2,
        floor=None if end_to_end else 1,
        time_setups=end_to_end,
    )

    def over_rounds(metric: str, samples: List[float]) -> float:
        if metric in COUNTED:
            return sum(samples)
        if metric in better:
            return best_third(samples, better[metric] == "higher")
        return statistics.median(samples)

    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        mine = rounds[name]
        values = {
            metric: over_rounds(metric, [r.values[metric] for r in mine])
            for metric in mine[0].values
        }
        counted = list(mine)
        missing_hooks: List[str] = []
        if per_layer:
            traced = trace_workload(name, seed, sizing, scratch, out_dir)
            values.update(traced["values"])
            missing_hooks = traced["missing_hooks"]
            counted += traced["rounds"]
        attempted = sum(r.ops_requested for r in counted)
        failed = sum(r.ops_requested - r.committed for r in counted)
        if end_to_end:
            values["setup_s"] = over_rounds(
                "setup_s", [wall for wall, _, _ in setups[name]]
            )
            attempted += sum(tried for _, tried, _ in setups[name])
            failed += sum(lost for _, _, lost in setups[name])
        values["failed_share"] = failed / attempted
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(
                f"metrics emitted but not declared in BENCHMARK.json: "
                f"{sorted(unknown)}"
            )
        problems = [
            f"{name} seed {r.seed} artifact {r.artifact}: {problem}"
            for r in counted
            for problem in r.problems
        ]
        if failed and not problems:
            problems.append(f"{name}: {failed} op(s) failed during set-up")
        results[name] = {
            "rounds": [dataclasses.asdict(r) for r in mine],
            # the quarter round untraced, then traced
            "traced_rounds": [
                dataclasses.asdict(r) for r in counted[len(mine):]
            ],
            "missing_hooks": missing_hooks,
            "metrics": {
                metric: {
                    "value": values[metric],
                    "unit": units[metric],
                    "rounds": len(mine),
                }
                for metric in sorted(wanted)
            },
            "latency_samples_per_round": mine[0].samples,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
        }
    return results


def print_set(results: Dict[str, Dict[str, Any]]) -> None:
    for name, result in results.items():
        print(
            f"== {name}: {len(result['rounds'])} round(s), "
            f"{result['latency_samples_per_round']} latency samples each, "
            f"{result['failed']}/{result['attempted']} ops failed"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>16.6g} {entry['unit']}")
        if result["missing_hooks"]:
            print(f"  missing hooks: {', '.join(result['missing_hooks'])}")
        for r in result["rounds"] + result["traced_rounds"]:
            for note in r["degraded"]:
                print(f"  DEGRADED: seed {r['seed']}: {note}")


def meta(seed: int, sizing: Sizing) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # an exported checkout is not a git repository
    wal_dir, on_tmpfs = plane.tmpfs_root()
    return {
        "seed": seed,
        "smoke": sizing is SMOKE,
        "comparable": on_tmpfs and sizing is FULL,
        "wal_dir": wal_dir,
        "wal_on_tmpfs": on_tmpfs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "plane": plane.CANONICAL_PLANE,
    }


def repeat_table(
    first: Dict[str, Dict[str, Any]], second: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Both sets' values and their relative difference, per (workload,
    end-to-end metric), against the metric's own bound."""
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    bounds["failed_share"] = 0.0
    rows = []
    for name in first:
        for metric, bound in bounds.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            difference = abs(b - a) / a if a else abs(b - a)
            rows.append({
                "workload": name, "metric": metric, "first": a, "second": b,
                "difference": difference, "bound": bound,
                "within": difference <= bound,
            })
    return rows


def full_run(args: argparse.Namespace) -> int:
    sizing = SMOKE if args.smoke else FULL
    os.makedirs(args.out, exist_ok=True)
    names = list(WORKLOADS)
    info = meta(args.seed, sizing)
    if not info["wal_on_tmpfs"]:
        print("wal_on_tmpfs=false: /dev/shm is not writable, the WAL is on "
              f"{info['wal_dir']} and this run is not comparable")
    sets = []
    for index in range(2 if args.repeat_check else 1):
        results = run_set(names, args.seed, sizing, args.out, args.out)
        sets.append(results)
        print_set(results)
        suffix = "" if index == 0 else "-repeat"
        with open(
            os.path.join(args.out, f"results{suffix}.json"), "w",
            encoding="utf-8",
        ) as handle:
            json.dump({"meta": info, "workloads": results}, handle, indent=1)
    failures = [
        problem
        for results in sets
        for result in results.values()
        for problem in result["problems"]
    ]
    if args.repeat_check:
        rows = repeat_table(*sets)
        with open(
            os.path.join(args.out, "repeat.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(rows, handle, indent=1)
        print("== repeat check: first, second, difference, bound")
        for row in rows:
            print(
                f"  {row['workload']:<16} {row['metric']:<20} "
                f"{row['first']:>12.5g} {row['second']:>12.5g} "
                f"{row['difference']:>7.1%} {row['bound']:>5.0%}"
                f"{'' if row['within'] else '  EXCEEDED'}"
            )
        failures += [
            f"{row['workload']} {row['metric']}: two sets of the same code "
            f"differ by {row['difference']:.1%}, bound {row['bound']:.0%}"
            for row in rows
            if not row["within"]
        ]
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def driver_run(args: argparse.Namespace) -> int:
    """One workload under a time budget; the result is the last line."""
    scratch = tempfile.mkdtemp(prefix=".ledger-", dir=os.getcwd())
    try:
        result = run_set(
            [args.workload], args.seed, SMOKE if args.smoke else FULL,
            scratch, budget=args.seconds,
            end_to_end=not args.trace, per_layer=bool(args.trace),
        )[args.workload]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_set({args.workload: result})
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in result["metrics"].items()
        if name != "failed_share"  # carried by attempted/failed below
    }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if result["problems"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="directory for results and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="2 rounds, a tenth of the ops: plumbing only")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two sets back to back must agree within bounds")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        help="time budget of the untraced rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return driver_run(args)
    if not args.out:
        parser.error("give --out DIR, or --workload for a single workload")
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
