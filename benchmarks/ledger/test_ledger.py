"""Checks of the ledger's own plumbing (not part of the tier-1 suite).

Run with ``python -m pytest benchmarks/ledger -q``; about 10 s, nearly
all of it the one smoke run every end-to-end check below shares.
"""

import importlib
import json
import os
import re

import pytest

from ledger import plane, run
from ledger.plane import WORKLOADS, nearest_rank
from ledger.trace import HOOKS, Tracer, self_time_by, self_times


def _resolve(target):
    module_name, _, path = target.partition(":")
    class_name, _, attr = path.partition(".")
    owner = getattr(importlib.import_module(module_name), class_name)
    return vars(owner)[attr]


#: taken at import, before any tracer ran in this process
ORIGINALS = {target: _resolve(target) for target in HOOKS}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger-smoke")
    code = run.main(["--smoke", "--seed", "1", "--out", str(out)])
    with open(out / "results.json", encoding="utf-8") as handle:
        return code, json.load(handle), out


def test_nearest_rank_is_nearest_rank():
    samples = list(range(1, 1001))
    assert nearest_rank(samples, 0.50) == 500
    assert nearest_rank(samples, 0.99) == 990
    assert nearest_rank([5.0, 1.0, 3.0], 0.50, min_beyond=0) == 3.0


def test_nearest_rank_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="fewer than 10"):
        nearest_rank(list(range(999)), 0.99)
    with pytest.raises(ValueError):
        nearest_rank([], 0.50, min_beyond=0)


def test_best_third_is_the_mean_of_the_best_third():
    speeds = [3.0, 9.0, 1.0, 8.0, 2.0, 7.0, 4.0]  # ceil(7 / 3) = 3 count
    assert run.best_third(speeds, higher_is_better=True) == 8.0
    assert run.best_third(speeds, higher_is_better=False) == 2.0
    assert run.best_third([5.0, 4.0], higher_is_better=False) == 4.0


def test_declared_names_are_well_formed():
    spec = run.declared()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_smoke_emits_exactly_what_is_declared(smoke):
    code, results, _out = smoke
    assert code == 0
    spec = run.declared()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(results["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in results["workloads"].items():
        # failed_share travels as attempted/failed in the driver's result
        assert set(result["metrics"]) == declared | {"failed_share"}, name
        assert result["metrics"]["failed_share"]["value"] == 0
        assert result["missing_hooks"] == []
        assert result["problems"] == []
        assert len(result["rounds"]) == 2


def test_smoke_separates_the_paths(smoke):
    _code, results, _out = smoke
    value = lambda w, m: results["workloads"][w]["metrics"][m]["value"]
    for name in ("fast_steady", "fast_light", "monitored"):
        assert value(name, "mp.fast_share") == 1.0
    assert value("backup_degraded", "mp.fast_share") < 0.2
    assert value("monitored", "monitor.self_share") > 0
    assert value("fast_steady", "monitor.self_share") == 0
    assert value("fast_steady", "pipeline.ops_per_decree") > 4
    assert value("fast_light", "pipeline.ops_per_decree") <= 1.5


def test_smoke_writes_results_and_traces_inside_out(smoke):
    _code, results, out = smoke
    for key in ("wal_on_tmpfs", "nproc", "python", "commit", "smoke"):
        assert key in results["meta"]
    assert results["meta"]["smoke"] and not results["meta"]["comparable"]
    for name in WORKLOADS:
        with open(out / f"trace-{name}.json", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["spans"] and trace["ops"]
        assert len(trace["spans"][0]) == len(trace["span_fields"])
    # artifacts of rounds that passed are removed
    assert not [
        f for f in os.listdir(out) if f.startswith(("round-", "traced-"))
    ]


def test_hooks_are_restored_after_traced_rounds(smoke):
    for target, original in ORIGINALS.items():
        assert _resolve(target) is original, target


def test_driver_mode_prints_the_result_object_last(capsys):
    code = run.main([
        "--workload", "fast_light", "--seed", "2", "--seconds", "1",
        "--trace", "0", "--smoke",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in run.declared()["end_to_end"]
    }
    assert not [d for d in os.listdir(os.getcwd()) if d.startswith(".ledger-")]


def test_a_post_hoc_budget_hit_is_counted_not_fatal(tmp_path):
    workload = WORKLOADS["fast_light"]
    artifact = str(tmp_path / "history.json")
    report, _wall, _lines = plane._run_loadgen(workload, 60, 3, artifact)
    values, verdicts = plane.decide(artifact, report.committed, 0.0)
    assert verdicts == {
        "check_linearizable": "linearizable", "replay_history": "ok",
    }
    assert values["fastcheck.budget_hits"] == 0
    # a memo budget of one state cannot decide anything
    values, verdicts = plane.decide(
        artifact, report.committed, 0.0, state_limit=1
    )
    assert verdicts == {
        "check_linearizable": "unknown", "replay_history": "ok",
    }
    assert values["fastcheck.budget_hits"] == 1
    assert plane.verdict_problems(verdicts) == []
    assert plane.verdict_problems({
        "check_linearizable": "unknown", "replay_history": "unknown",
        "live monitor": "unknown",
    }) == ["replay_history says 'unknown'"]
    assert plane.verdict_problems(
        {"replay_history": "ok", "live monitor": "violation"}
    ) == ["live monitor says 'violation'"]
    assert plane.verdict_problems(
        {"check_linearizable": "violation", "replay_history": "ok"}
    ) == ["check_linearizable says 'violation'"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("mp", "root", 0.0, 10.0, -1, None, -1),
        ("codec", "a", 1.0, 4.0, 0, None, -1),
        ("codec", "a.inner", 2.0, 3.0, 1, None, -1),
        ("wal", "b", 5.0, 9.0, 0, None, -1),
        ("wal", "alone", 10.0, 12.0, -1, None, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert self_time_by(spans, 0) == {"mp": 3.0, "codec": 3.0, "wal": 6.0}
    assert sum(self_times(spans)) == 12.0  # no instant is counted twice


def test_tracer_nests_spans_and_survives_a_missing_hook():
    hooks = {
        "repro.net.codec:BinaryCodec.encode_frame": "codec",
        "repro.net.codec:FrameDecoder.feed": "codec",
        "repro.net.codec:NoSuchClass.method": "codec",
        "repro.no_such_module:Class.method": "codec",
    }
    from repro.net.codec import BINARY_CODEC, FrameDecoder

    with Tracer(hooks) as tracer:
        frame = BINARY_CODEC.encode_frame(("a", ("b", 1)))
        assert list(FrameDecoder().feed(frame + frame)) == [("a", ("b", 1))] * 2
    assert tracer.missing_hooks == [
        "repro.net.codec:NoSuchClass.method",
        "repro.no_such_module:Class.method",
    ]
    assert tracer.counts()["BinaryCodec.encode_frame"] == 1
    assert tracer.yields["FrameDecoder.feed"] == 2
    assert tracer.bytes["FrameDecoder.feed"] == 2 * len(frame)
    assert tracer.captured["frames"] == [("a", ("b", 1))]
    assert all(span[4] == -1 for span in tracer.spans)
    assert _resolve("repro.net.codec:FrameDecoder.feed") is ORIGINALS[
        "repro.net.codec:FrameDecoder.feed"
    ]
