"""The streaming linearizability monitor (`repro.monitor`).

Three contracts under test, mirroring docs/MONITORING.md:

* **agreement** — on any finite trace the streaming verdict, online
  and post hoc, must be every other decider's: each directed shape and
  each generated family is an input of ``tests/oracle.py``
  (:func:`~oracle.assert_deciders_agree`), which holds the engine to
  the classical checker, the paper's definition within Theorem 1's
  boundary, and a brute-force transcription of Herlihy-Wing at five
  operations or fewer.  The families: the KV store (pending operations,
  repeated values, several keys), the queue, the counter with and
  without repeated inputs, consensus, the register and a three-object
  product; a planted disagreement in any of them is shrunk to a minimal
  history.
* **bounded memory** — the retained-event gauge peaks at the size of
  the concurrent window, never the run length: decided prefixes are
  garbage-collected at every quiescent cut.
* **operational wiring** — fail-fast violation reporting with a
  ddmin-shrunken witness, the async recorder tap, `loadgen --monitor`
  (single and sharded planes) and the chaos campaign's live monitor
  must all surface the same verdicts.
"""

import ast
import asyncio
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from oracle import (
    assert_certificate_sound,
    assert_deciders_agree,
    bent_streams,
    certified_report,
    histories,
    honest_stream,
    is_linearizable_naive,
    lin_streams,
    naive_witness,
    operations,
    recorded,
    sequential_histories,
)
from repro.__main__ import main as repro_main
from repro.core.actions import Invocation, Response, Switch
from repro.core.adt import ADT, counter_adt, queue_adt
from repro.core.classical import linearize_classical
from repro.core.fastcheck import check_linearizable
from repro.core.linearizability import linearize
from repro.core.pretty import describe_action
from repro.core.strategies import wellformed_traces
from repro.core.traces import Trace
from repro.faults.mutants import DoubleApplyPipeline
from repro.monitor import (
    MonitorTap,
    StreamingMonitor,
    compose_verdicts,
    ddmin_ops,
    watch_trace,
)
from repro.monitor import frontier as frontier_module
from repro.monitor.cli import load_history, make_probe, replay_history
from repro.monitor.streaming import decide, event_action
from repro.net.client import HistoryRecorder
from repro.net.cluster import ShardedCluster
from repro.net.loadgen import (
    MONITOR_CONFIG_LIMIT,
    MONITOR_NODE_LIMIT,
    budgeted_tap,
    run_loadgen,
)
from repro.net.pipeline import PipelineClient, SlotPipeline

SILENT = lambda line: None  # noqa: E731

KV, KV_INPUTS, VALUES = oracle.FAMILIES["kv"]
REG, REG_INPUTS, _ = oracle.FAMILIES["register"]
_, QUEUE_INPUTS, QUEUE_OUTPUTS = oracle.FAMILIES["queue"]
_, COUNTER_INPUTS, COUNTER_OUTPUTS = oracle.FAMILIES["counter"]


def inv(client, payload):
    return Invocation(client, 1, payload)


def res(client, payload, output):
    return Response(client, 1, payload, output)


# ---------------------------------------------------------------------------
# agreement: directed shapes and generated families, as oracle inputs
# ---------------------------------------------------------------------------


class TestDirectedAgreement:
    def test_sequential_history_is_ok(self):
        trace = Trace(
            [
                inv("c1", ("put", "a", 1)),
                res("c1", ("put", "a", 1), ("value", None)),
                inv("c2", ("get", "a")),
                res("c2", ("get", "a"), ("value", 1)),
            ]
        )
        assert assert_deciders_agree(trace, KV) == "ok"
        assert watch_trace(trace, KV).frontiers == 1

    def test_stale_read_is_a_violation(self):
        trace = Trace(
            [
                inv("c1", ("put", "a", 1)),
                res("c1", ("put", "a", 1), ("value", None)),
                inv("c2", ("get", "a")),
                res("c2", ("get", "a"), ("value", None)),  # forgot the put
            ]
        )
        assert assert_deciders_agree(trace, KV) == "violation"
        report = watch_trace(trace, KV)
        assert report.violation_key == "a"
        assert "frontier emptied" in report.reason

    def test_concurrent_overlap_allows_either_order(self):
        # the get overlaps the put: both old and new value linearize
        for read_value in (None, 7):
            trace = Trace(
                [
                    inv("c1", ("put", "a", 7)),
                    inv("c2", ("get", "a")),
                    res("c2", ("get", "a"), ("value", read_value)),
                    res("c1", ("put", "a", 7), ("value", None)),
                ]
            )
            assert assert_deciders_agree(trace, KV) == "ok"

    def test_pending_invocations_stay_ok(self):
        trace = Trace(
            [
                inv("c1", ("put", "a", 1)),
                inv("c2", ("get", "a")),
                res("c2", ("get", "a"), ("value", 1)),  # c1's put took effect
            ]
        )
        assert assert_deciders_agree(trace, KV) == "ok"

    def test_ill_formed_trace_is_rejected_like_posthoc(self):
        # respond, no invoke: not an operation, so no oracle input
        trace = Trace([res("c1", ("get", "a"), ("value", None))])
        report = watch_trace(trace, KV)
        assert report.verdict == check_linearizable(trace, KV).verdict
        assert report.verdict == "violation" and "well-formed" in report.reason
        assert not linearize(trace, KV).ok
        assert not linearize_classical(trace, KV).ok

    def test_monolithic_adt_without_partition_spec(self):
        trace = Trace(
            [
                inv("c1", ("write", 1)),
                res("c1", ("write", 1), ("ok",)),
                inv("c2", ("read",)),
                res("c2", ("read",), ("value", 2)),  # never written
            ]
        )
        assert assert_deciders_agree(trace, REG) == "violation"


class TestPropertyAgreement:
    @given(wellformed_traces(KV, KV_INPUTS, max_steps=14))
    @settings(max_examples=120, deadline=None)
    def test_kv_streaming_matches_posthoc(self, trace):
        # dishonest outputs: a mix of linearizable and violating traces,
        # partitioned per key — the P-compositional equivalence
        assert_deciders_agree(trace, KV)

    @given(wellformed_traces(KV, KV_INPUTS, max_steps=14, honest=True))
    @settings(max_examples=60, deadline=None)
    def test_honest_kv_traces_are_always_ok(self, trace):
        assert assert_deciders_agree(trace, KV) == "ok"

    @given(wellformed_traces(REG, REG_INPUTS, max_steps=12))
    @settings(max_examples=120, deadline=None)
    def test_register_streaming_matches_posthoc(self, trace):
        # no partition spec: the whole trace rides one frontier
        assert_deciders_agree(trace, REG)




class TestDifferentialOracle:
    """ROADMAP 1(b), first slice: pending operations, repeated values,
    several keys; every decider agrees or the history is shrunk."""

    @given(histories(KV, KV_INPUTS, VALUES, max_ops=5))
    @settings(max_examples=150, deadline=None)
    def test_every_decider_and_herlihy_wing_agree_at_small_scope(self, trace):
        assert_deciders_agree(trace, KV)

    @given(histories(KV, KV_INPUTS, VALUES, max_ops=9, clients=5))
    @settings(max_examples=100, deadline=None)
    def test_every_decider_agrees_on_wider_kv_histories(self, trace):
        assert_deciders_agree(trace, KV)

    @given(histories(queue_adt(), QUEUE_INPUTS, QUEUE_OUTPUTS, max_ops=6))
    @example(
        # a violation (c0 dequeues 1 only if c1 took 2 first, yet c1
        # says empty) that the post-hoc decider once called ok, when an
        # object without a partition fell through to `linearize`
        trace=Trace([
            inv("c1", ("deq",)), inv("c0", ("deq",)),
            inv("c2", ("enq", 2)), res("c2", ("enq", 2), ("ok",)),
            inv("c2", ("enq", 1)), res("c0", ("deq",), ("value", 1)),
            inv("c0", ("deq",)), res("c1", ("deq",), ("empty",)),
        ])
    )
    @settings(max_examples=100, deadline=None)
    def test_order_sensitive_object_without_a_partition(self, trace):
        # a queue remembers the order of what it was told: the promise
        # of an operation that never answers may lose its output, never
        # its place
        assert_deciders_agree(trace, queue_adt())

    @given(
        histories(counter_adt(), COUNTER_INPUTS, COUNTER_OUTPUTS, max_ops=6)
    )
    @settings(max_examples=60, deadline=None)
    def test_the_storm_workload_object(self, trace):
        assert_deciders_agree(trace, counter_adt())

    @given(histories(KV, KV_INPUTS, VALUES, max_ops=12, clients=6))
    @settings(max_examples=100, deadline=None)
    def test_the_recorded_response_cut_never_changes_a_verdict(self, trace):
        told = decide(trace, KV)
        assert told.report().verdict == watch_trace(trace, KV).verdict
        assert {key for key, _ in told.parts()} <= {"a", "b"}

    def test_the_definition_is_coarser_on_repeated_inputs(self):
        """Found by this oracle: three identical puts, and a real-time
        edge laundered through the duplicate.  c1's put can only have
        read 1 from c2's (c0's is invoked after c1 answered), and then
        c2's own put read None, not 1.  The paper's definition cannot
        tell the three inputs apart and accepts; so did the per-key
        search that decided wire histories before the engine did."""
        put = ("put", "a", 1)
        trace = Trace(
            [
                inv("c1", put),
                inv("c2", put),
                res("c1", put, ("value", 1)),
                inv("c0", put),
                res("c2", put, ("value", 1)),
            ]
        )
        assert linearize(trace, KV).ok
        assert not linearize_classical(trace, KV).ok
        assert not is_linearizable_naive(trace, KV)
        assert check_linearizable(trace, KV).verdict == "violation"
        assert watch_trace(trace, KV).verdict == "violation"
        assert assert_deciders_agree(trace, KV) == "violation"

    def test_herlihy_wing_reference_on_the_textbook_shapes(self):
        stale = Trace(
            [
                inv("c1", ("put", "a", 1)),
                res("c1", ("put", "a", 1), ("value", None)),
                inv("c2", ("get", "a")),
                res("c2", ("get", "a"), ("value", None)),
            ]
        )
        assert not is_linearizable_naive(stale, KV)
        # the same read overlapping the write may miss it...
        overlap = Trace([stale[0], stale[2], stale[3], stale[1]])
        assert is_linearizable_naive(overlap, KV)
        # ...and a write that never answers may have taken effect
        pending = Trace(
            [
                inv("c1", ("put", "a", 1)),
                inv("c2", ("get", "a")),
                res("c2", ("get", "a"), ("value", 1)),
            ]
        )
        assert is_linearizable_naive(pending, KV)

    def test_a_disagreement_is_shrunk_to_a_minimal_history(self, monkeypatch):
        """Plant a decider that is wrong about one read; the oracle must
        hand back that read alone, not the noise around it."""
        def wrong(monitor, trace):
            honest = monitor.report().verdict
            poisoned = any(a.input == ("get", "b") for a in trace)
            return "violation" if poisoned else honest

        monkeypatch.setattr(oracle, "told_verdict", wrong)
        actions, previous = [], None
        for i in range(6):
            actions += [
                inv("c1", ("put", "a", i)),
                res("c1", ("put", "a", i), ("value", previous)),
            ]
            previous = i
        actions[6:6] = [
            inv("c2", ("get", "b")),
            res("c2", ("get", "b"), ("value", None)),
        ]
        try:
            assert_deciders_agree(Trace(actions), KV)
        except AssertionError as error:
            report = str(error)
        else:
            raise AssertionError("the planted disagreement went unnoticed")
        assert "minimal history" in report and "'told': 'violation'" in report
        assert report.count("inv[1]") == 1 and "put" not in report

    @pytest.mark.parametrize("name", ["counter-unique", "product"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_decider_agrees_on_each_family(self, name, data):
        # consensus and the register are drawn in test_equivalence, the
        # queue and the counter with repeated inputs above
        trace = data.draw(oracle.family_histories(name))
        assert_deciders_agree(trace, oracle.FAMILIES[name][0])

    @pytest.mark.parametrize(
        "name", [name for name in oracle.FAMILIES if name != "kv"]
    )
    def test_a_planted_disagreement_is_shrunk_in_every_family(
        self, name, monkeypatch
    ):
        """The family's first input, invoked first and answered as the
        object would, then each other input in turn: a decider wrong
        about that first input alone must be handed back that
        operation and nothing else."""
        adt, inputs, _ = oracle.FAMILIES[name]
        poison = inputs[0]

        def wrong(monitor, trace):
            honest = monitor.report().verdict
            poisoned = any(a.input == poison for a in trace)
            return "violation" if poisoned else honest

        monkeypatch.setattr(oracle, "told_verdict", wrong)
        state, actions = adt.initial_state, []
        for i, payload in enumerate(inputs + inputs[1:]):
            state, output = adt.transition(state, payload)
            actions += [inv(f"c{i}", payload), res(f"c{i}", payload, output)]
        with pytest.raises(AssertionError) as caught:
            assert_deciders_agree(Trace(actions), adt)
        report = str(caught.value)
        assert "minimal history" in report and "'told': 'violation'" in report
        assert report.count("inv[1]") == 1
        assert describe_action(actions[0]).split("inv[1] ")[1] in report


class TestBudgetsAndResync:
    def ambiguous_burst(self, n_open=5):
        """Five open puts, then a get answered by one of them: every
        speculative ordering of a put-subset ending in put-3 survives,
        so the frontier (and the post-hoc search) genuinely fans out."""
        actions = [inv(f"c{i}", ("put", "a", i + 1)) for i in range(n_open)]
        actions += [
            inv("cg", ("get", "a")),
            res("cg", ("get", "a"), ("value", 3)),
        ]
        # close the puts too, so the stream can quiesce; once degraded
        # these land on the unchecked path
        actions += [
            res(f"c{i}", ("put", "a", i + 1), ("value", None))
            for i in range(n_open)
        ]
        return Trace(actions)

    def test_tiny_config_budget_degrades_to_unknown_like_posthoc(self):
        trace = self.ambiguous_burst()
        report = watch_trace(trace, KV, config_limit=2)
        assert report.verdict == "unknown"
        assert "budget" in report.reason
        # the post-hoc checker degrades the same way under its budget
        assert check_linearizable(trace, KV, state_limit=1).unknown
        # ...and neither side guessed: with full budgets the same trace
        # has a definite verdict on both (here: violation — the get
        # pins put-3 first, yet every put claims the empty cell)
        assert assert_deciders_agree(trace, KV) == "violation"

    def test_node_budget_degrades_per_event_search(self):
        report = watch_trace(self.ambiguous_burst(), KV, node_limit=3)
        assert report.verdict == "unknown"


class TestKnowingTheFuture:
    """The tail the ledger caught (`--workload monitored --seed 12`,
    round 12004): ten puts pending on one key, each answered with its
    predecessor's value.  Online, the first response must consider every
    order of the other nine (986,410 of them); told the recorded
    responses, the engine creates none that the history refutes."""

    @staticmethod
    def waves(n_waves=5, width=10):
        actions, previous = [], None
        for wave in range(n_waves):
            values = [wave * width + i for i in range(width)]
            actions += [inv(f"c{v % width}", ("put", "k", v)) for v in values]
            for v in values:
                actions.append(
                    res(f"c{v % width}", ("put", "k", v), ("value", previous))
                )
                previous = v
        return Trace(actions)

    def test_online_degrades_where_post_hoc_decides(self):
        trace = self.waves()
        online = watch_trace(trace, KV, node_limit=1000)
        assert online.verdict == "unknown"  # degrades, does not guess
        assert "exceeded 1000 nodes" in online.reason
        told = decide(trace, KV, 1000, 10_000)
        assert told.report().verdict == "ok"
        assert told.parts() == (("k", 100),)
        assert linearize_classical(trace, KV).ok and linearize(trace, KV).ok

    def test_the_cut_costs_nothing_it_would_not_have_killed(self):
        # one wrong answer in the last wave: still found, same budgets
        actions = list(self.waves().actions)
        last = actions[-1]
        actions[-1] = res(last.client, last.input, ("value", 0))
        trace = Trace(actions)
        told = check_linearizable(
            trace, KV, node_limit=1000, state_limit=10_000
        )
        assert told.verdict == "violation"
        assert told.reason.startswith("partition 'k': frontier emptied")
        # the classical checker seconds it; the definition's search is
        # the other tail (a refutation costs it 8x per unit of width:
        # 15 s at width 7), which is why it no longer decides histories
        assert not linearize_classical(trace, KV).ok

    def test_a_width_the_window_can_hold_agrees_online(self):
        trace = self.waves(n_waves=3, width=5)
        assert watch_trace(trace, KV).verdict == "ok"
        assert check_linearizable(trace, KV).verdict == "ok"

    def test_a_replayed_artifact_is_told_its_own_answers(self, monkeypatch):
        # `monitor --replay` and the ledger hold a finished history: one
        # wave cost the untold replay 986,410 nodes at its first response
        # (12.7 s; a hard `monitored` seed, gigabytes).  Work is counted,
        # not timed: one surviving configuration per response, and the
        # ADT stepped 10 + 9 + ... + 1 times.
        steps, survivors = [0], []
        search = frontier_module.frontier_step

        def counted(step, *args, **kwargs):
            def stepped(*state_and_input):
                steps[0] += 1
                return step(*state_and_input)

            survivors.append(search(stepped, *args, **kwargs))
            return survivors[-1]

        monkeypatch.setattr(frontier_module, "frontier_step", counted)
        wave = [oracle.recorded(a) for a in self.waves(n_waves=1)]
        # answered in the order the puts took effect: certified, no search
        verdict, reason, (report,) = replay_history([wave])
        assert (verdict, reason, report.certificate_misses) == ("ok", None, 0)
        assert survivors == [] and steps[0] == 0
        # the same wave answered last put first: response order misses,
        # and the search is told its answers
        events = wave[:10] + wave[10:][::-1]
        verdict, reason, (report,) = replay_history([events])
        assert (verdict, reason) == ("ok", None)
        assert report.certificate_misses == 1
        assert report.events == 20 and report.ops == 10
        assert [len(s) for s in survivors] == [1] * 10 and steps[0] <= 55
        # the replay runs unbudgeted; a budget handed to the `decide` it
        # runs per shard still binds: puts that never answer stay in the
        # window whatever the search is told
        silent = [
            ("inv", f"s{i}", ("put", "k", i), None, 0.0) for i in range(6)
        ]
        read = [oracle.recorded(a) for a in (
            inv("r", ("get", "k")), res("r", ("get", "k"), ("value", 3)),
        )]
        assert replay_history([silent + read])[0] == "ok"
        report = decide(silent + read, KV, node_limit=5).report()
        assert report.verdict == "unknown"
        assert "exceeded 5 nodes" in report.reason


# ---------------------------------------------------------------------------
# the certificate: the decided log checked, not searched for
# ---------------------------------------------------------------------------


def with_stream(traces, streams):
    """Pairs ``(trace, stream)``: a generated history and ``lin`` events
    drawn for it."""
    return traces.flatmap(
        lambda trace: st.tuples(st.just(trace), streams(trace))
    )


def tagged(command, client, seq):
    return command + (("seq", (client, seq)),)


class TestTheCertificateIsTheSixthDecider:
    """The front end against the brute-force reference: ``ok`` without a
    search on the reference's own witness, and never past the reference
    whatever ``lin`` events it is fed."""

    @given(histories(KV, KV_INPUTS, VALUES, max_ops=5))
    @settings(max_examples=150, deadline=None)
    def test_the_references_witness_checks_without_a_search(self, trace):
        order = naive_witness(trace, KV)
        if order is None:
            return
        report = certified_report(trace, KV, honest_stream(trace, order))
        assert report.verdict == "ok"
        assert report.certificate_misses == 0 and report.frontiers == 0
        assert report.events == len(trace)

    @given(
        with_stream(
            histories(KV, KV_INPUTS, VALUES, max_ops=5),
            lambda trace: lin_streams(trace, KV_INPUTS),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_lin_events_never_buy_a_wrong_verdict(self, pair):
        assert_certificate_sound(pair[0], KV, pair[1])

    @given(
        with_stream(
            histories(KV, KV_INPUTS, VALUES, max_ops=5),
            lambda trace: bent_streams(trace, KV),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_a_bent_certificate_never_buys_a_wrong_verdict(self, pair):
        assert_certificate_sound(pair[0], KV, pair[1])

    @given(
        with_stream(
            histories(
                counter_adt(), COUNTER_INPUTS, COUNTER_OUTPUTS, max_ops=5
            ),
            lambda trace: st.one_of(
                bent_streams(trace, counter_adt()),
                lin_streams(trace, COUNTER_INPUTS),
            ),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_an_object_without_a_partition(self, pair):
        assert_certificate_sound(pair[0], counter_adt(), pair[1])

    def test_an_unsound_front_end_is_shrunk_to_a_minimal_history(
        self, monkeypatch
    ):
        """Plant a front end that believes any read of ``b``; the oracle
        must hand back that one read, not the writes around it."""
        honest = oracle.certified_report

        def gullible(trace, adt, stream, **budget):
            report = honest(trace, adt, stream, **budget)
            if any(a.input == ("get", "b") for a in trace):
                report.verdict = "ok"
            return report

        monkeypatch.setattr(oracle, "certified_report", gullible)
        actions = list(TestTheCertificate.sequential_puts(6))
        actions[6:6] = [
            inv("c2", ("get", "b")),
            res("c2", ("get", "b"), ("value", 7)),  # never written
        ]
        trace = Trace(actions)
        with pytest.raises(AssertionError) as caught:
            assert_certificate_sound(
                trace, KV, honest_stream(trace, operations(trace))
            )
        report = str(caught.value)
        assert "minimal history" in report and "certified says 'ok'" in report
        assert report.count("inv[1]") == 1 and "put" not in report.split(
            "stream:"
        )[0]


class TestTheCertificate:
    """The cases that motivated it, and the ones that break it."""

    def test_ten_pending_puts_decide_live_without_a_search(self, monkeypatch):
        # TestKnowingTheFuture's shape: 986,410 nodes online for the
        # first response.  The decided log says where each put went.
        def searched(*args, **kwargs):
            raise AssertionError("the certificate path searched")

        monkeypatch.setattr(frontier_module, "frontier_step", searched)
        trace = TestKnowingTheFuture.waves()
        stream = honest_stream(trace, operations(trace))
        report = certified_report(trace, KV, stream, node_limit=1000)
        assert report.verdict == "ok" and report.certificate_misses == 0
        assert report.events == len(trace) and report.ops == 50
        # memory is the open window: ten puts, never the run
        assert report.peak_retained == 10 and report.retained == 0
        assert report.gc_drops == report.events

    def test_sixteen_clients_on_five_keys_keep_the_fast_path(self, tmp_path):
        # on the frontier engine this load stalled the loop until
        # quorum replies missed their timer: unknown, Backup switches
        report = run_loadgen(
            replicas=3, clients=16, ops=1600, seed=3, shards=2,
            wal_root=str(tmp_path), monitor=True, emit=SILENT,
        )
        assert report.linearizable and report.monitor_verdict == "ok"
        assert report.monitor_certificate_misses == 0
        assert report.slow == 0 and report.committed == 1600
        assert report.monitor_events == 3200
        assert report.monitor_peak_retained <= 16

    @staticmethod
    def sequential_puts(n):
        actions, previous = [], None
        for i in range(n):
            actions += [
                inv("c1", ("put", "a", i)),
                res("c1", ("put", "a", i), ("value", previous)),
            ]
            previous = i
        return Trace(actions)

    def test_a_miss_replays_exactly_the_prefix_it_consumed(self):
        # the drain runs behind the recorder: its list already holds
        # the whole run when the monitor, six events in, meets a miss
        trace = self.sequential_puts(10)
        history = [recorded(action) for action in trace]
        stream = honest_stream(trace, operations(trace))
        seen = []
        monitor = StreamingMonitor(KV, history=history)
        observe = monitor.observe
        monitor.observe = lambda action, answer=None: (
            seen.append((action, answer)), observe(action, answer)
        )
        for item in stream[:9]:  # three whole operations
            monitor.feed(history[item] if isinstance(item, int) else item)
        assert monitor.events == 6 and seen == []
        monitor.feed(history[6])  # c1 invokes the fourth
        monitor.feed(("lin", 7, ()))  # a gap: slot 3 never came
        assert monitor.certificate_misses == 1
        assert "slot 7" in monitor.miss_reason
        # the six events, each invocation told its recorded response,
        # then the open one, told nothing; not the thirteen unread
        assert [action for action, _ in seen] == list(trace[:7])
        assert [answer for _, answer in seen] == [
            trace[1], None, trace[3], None, trace[5], None, None
        ]
        assert monitor.events == 7 and monitor.report().ops == 4
        for item in stream[10:]:
            monitor.feed(history[item] if isinstance(item, int) else item)
        report = monitor.report()
        assert report.verdict == "ok" and report.events == 20
        assert report.certificate_misses == 1 and report.frontiers == 1
        assert "certificate miss" in report.summary()

    def test_after_a_miss_a_late_violation_is_caught_and_shrunk(self):
        trace = self.sequential_puts(30)
        actions = list(trace) + [
            inv("c3", ("put", "a", 100)),
            inv("c4", ("put", "a", 101)),
            inv("c2", ("get", "a")),
            res("c2", ("get", "a"), ("value", 3)),  # 29, 100 or 101
        ]
        history = []
        monitor = StreamingMonitor(KV, history=history)
        history.append(recorded(actions[0]))
        monitor.feed(history[0])
        monitor.feed(("lin", 0, (("put", "a", 0),)))  # untagged: a miss
        assert monitor.certificate_misses == 1 and monitor.verdict == "ok"
        for action in actions[1:]:
            assert not monitor.violated
            history.append(recorded(action))
            monitor.feed(history[-1])
        # it flips at the last event, the read no order explains
        assert len(history) > 50 and monitor.violated
        report = monitor.report()
        assert report.verdict == "violation" and report.violation_key == "a"
        assert report.witness["shrunk"]
        assert [e["client"] for e in report.witness["events"]] == ["c2", "c2"]

    def test_the_front_end_alone_never_says_violation(self):
        # a response from nowhere: the certificate only misses, and the
        # engine it falls back on is the one that judges
        history = [
            ("inv", "c1", ("get", "a"), None, 0.0),
            ("res", "c1", ("get", "a"), ("value", 41), 0.0),
        ]
        monitor = StreamingMonitor(KV, history=history)
        monitor.feed(history[0])
        monitor.feed(("lin", 0, (tagged(("get", "a"), "c1", 1),)))
        assert monitor.certificate_misses == 0
        monitor.feed(history[1])
        assert monitor.certificate_misses == 1
        assert "the log says ('value', None)" in monitor.miss_reason
        assert monitor.verdict == "violation"

    def test_a_monitor_without_a_history_is_the_frontier_engine(self):
        monitor = StreamingMonitor(KV)
        monitor.feed(("inv", "c1", ("put", "a", 1), None, 0.0))
        monitor.feed(("lin", 0, (tagged(("put", "a", 1), "c1", 1),)))
        monitor.feed(("res", "c1", ("put", "a", 1), ("value", None), 0.0))
        report = monitor.report()
        assert report.verdict == "ok" and report.events == 2
        assert report.frontiers == 1 and report.certificate_misses == 0

    def test_lin_events_reach_the_tap_and_never_the_history(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            tap = budgeted_tap(KV, recorder)
            heard = []
            recorder.tap = lambda event: (heard.append(event), tap(event))
            pipeline = SlotPipeline("lin", 3, transport, quorum_timeout=0.15)
            client = PipelineClient("c1", pipeline, recorder)
            await client.submit(("put", "a", 1))
            await client.submit(("get", "a"))
            report = await tap.close()
            await cluster.stop()
            return heard, recorder, report

        heard, recorder, report = asyncio.run(scenario())
        assert [event[0] for event in heard] == ["inv", "lin", "res"] * 2
        assert heard[1][1:] == (0, (tagged(("put", "a", 1), "c1", 1),))
        assert [event[0] for event in recorder.events] == ["inv", "res"] * 2
        assert "lin" not in str(recorder.to_jsonable())
        assert len(recorder.trace()) == 4
        assert report.verdict == "ok" and report.events == 4
        assert report.certificate_misses == 0 and report.frontiers == 0

    def test_a_forked_log_misses_and_then_the_search_judges(self):
        """Two replica groups that never met stand in for a fork: their
        pipelines report different commands for slot 0."""
        async def scenario():
            left, right = ShardedCluster(n_servers=3), ShardedCluster(n_servers=3)
            await left.start()
            await right.start()
            transport = left.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            tap = budgeted_tap(KV, recorder)
            writer = PipelineClient(
                "c1",
                SlotPipeline("l", 3, transport, quorum_timeout=0.15),
                recorder,
            )
            reader = PipelineClient(
                "c2",
                SlotPipeline(
                    "r", 3, right.client_transport("clients"),
                    quorum_timeout=0.15,
                ),
                recorder,
            )
            await writer.submit(("put", "a", 1))
            out = await reader.submit(("get", "a"))
            report = await tap.close()
            await left.stop()
            await right.stop()
            return out, recorder, report

        out, recorder, report = asyncio.run(scenario())
        assert out == ("value", None)  # the fork: the put is not there
        assert report.certificate_misses == 1
        assert "never linearized" in report.miss_reason
        posthoc = check_linearizable(recorder.trace(), KV)
        assert report.verdict == posthoc.verdict == "violation"
        assert report.witness is not None

    def test_a_double_apply_misses_and_then_the_search_judges(self):
        """The double-apply mutant folds a duplicate decree twice; the
        monitor's own fold skips it as the session seam would."""
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            tap = budgeted_tap(counter_adt(), recorder)
            pipeline = DoubleApplyPipeline(
                "dd", 3, transport, adt=counter_adt(), quorum_timeout=0.15
            )
            c1 = PipelineClient("c1", pipeline, recorder)
            c2 = PipelineClient("c2", pipeline, recorder)
            await c1.submit(("inc", 1))
            op = tagged(("inc", 1), "c1", 1)
            await pipeline.enqueue(op, pipeline.ensure_fits(op))
            out = await c2.submit(("cread",))
            report = await tap.close()
            await cluster.stop()
            return out, recorder, report

        out, recorder, report = asyncio.run(scenario())
        assert out == ("count", 2)  # one inc, counted twice
        assert report.certificate_misses == 1
        assert "the log says ('count', 1)" in report.miss_reason
        posthoc = check_linearizable(recorder.trace(), counter_adt())
        assert report.verdict == posthoc.verdict == "violation"


# ---------------------------------------------------------------------------
# the off-line front end: a finished history is its own certificate
# ---------------------------------------------------------------------------


def never_searched(*args, **kwargs):
    raise AssertionError("the certificate path searched")


class TestResponseOrderIsTheEighthDecider:
    """``ok`` or abstain, against every other decider; and complete
    where response order is the only order real time allows."""

    @given(sequential_histories(KV, KV_INPUTS, VALUES))
    @settings(max_examples=150, deadline=None)
    def test_a_sequential_history_certifies_iff_it_is_linearizable(
        self, trace
    ):
        said = oracle.response_order(trace, KV)
        assert said == ("ok" if is_linearizable_naive(trace, KV) else None)
        assert_deciders_agree(trace, KV)

    @given(wellformed_traces(KV, KV_INPUTS, max_steps=14, honest=True))
    @settings(max_examples=100, deadline=None)
    def test_an_honest_multi_key_history_certifies(self, trace):
        assert oracle.response_order(trace, KV) == "ok"

    @given(
        wellformed_traces(queue_adt(), QUEUE_INPUTS, max_steps=12, honest=True)
    )
    @settings(max_examples=60, deadline=None)
    def test_an_honest_history_without_a_partition_certifies(self, trace):
        assert oracle.response_order(trace, queue_adt()) == "ok"

    def test_the_oracle_corpus_reaches_both_branches(self):
        # the small-scope corpus every decider answers to: if it never
        # missed, the search behind the certificate would go unchecked
        seen = set()

        @given(histories(KV, KV_INPUTS, VALUES, max_ops=5))
        @settings(max_examples=150, deadline=None)
        def branch(trace):
            seen.add(oracle.response_order(trace, KV))

        branch()
        assert seen == {"ok", None}

    def test_a_miss_is_all_the_front_end_can_say(self):
        # ill-formed, invalid, not an interface action: each is a miss,
        # and what judges it is the search
        put = ("put", "a", 1)
        for actions in (
            [inv("c1", put), inv("c1", ("get", "a"))],
            [res("c1", put, ("value", None))],
            [inv("c1", ("frob", "a"))],
            [inv("c1", put), Switch("c1", 2, put, "v")],
        ):
            trace = Trace(actions)
            monitor = decide(trace, KV)
            assert monitor.certificate_misses == 1, actions
            assert "index" in monitor.miss_reason
            assert check_linearizable(trace, KV).verdict == "violation"
        # a spec that raises is a miss too, and the search decides the
        # whole history as one partition: an object that accepts what
        # its spec cannot route
        lax = ADT(
            "lax_kv", (), lambda state, payload: (state, ("value", None)),
            lambda payload: True, lambda payload: True,
            partition=KV.partition,
        )
        trace = Trace([inv("c1", ("bogus",)), res("c1", ("bogus",), None)])
        assert "ValueError" in decide(trace, lax).miss_reason
        assert decide(trace, lax).parts() == ((None, 2),)


class TestAWireHistoryIsItsOwnCertificate:
    """What the off-line deciders' speed rests on: the pipelined plane
    answers a shard's operations in the order it decided them.  A data
    plane that reorders responses fails here, not as a decider five
    times slower."""

    def test_a_recorded_run_certifies_on_every_shard(
        self, tmp_path, monkeypatch, capsys
    ):
        artifact = str(tmp_path / "run.json")
        report = run_loadgen(
            replicas=3, clients=16, ops=600, seed=25, shards=2,
            keys=tuple(f"key{i:02d}" for i in range(12)),
            wal_root=str(tmp_path / "wal"), artifact=artifact,
            check=False, emit=SILENT,
        )
        assert report.committed == 600
        shards = load_history(artifact)
        traces = [Trace(event_action(e) for e in events) for events in shards]
        assert len(traces) == 2 and all(traces)
        monkeypatch.setattr(frontier_module, "frontier_step", never_searched)
        certified = [decide(trace, KV) for trace in traces]
        verdict, _, reports = replay_history(shards)
        assert verdict == "ok"
        assert [r.certificate_misses for r in reports] == [0, 0]
        assert [r.frontiers for r in reports] == [0, 0]
        assert repro_main(["monitor", "--replay", artifact]) == 0
        assert "searched" not in capsys.readouterr().out
        monkeypatch.undo()
        assert [oracle.what_it_said(m) for m in certified] == [
            oracle.what_it_said(oracle.told(trace, KV)) for trace in traces
        ]
        assert all(monitor.parts() for monitor in certified)

    def test_a_replay_that_missed_says_it_searched(self, tmp_path, capsys):
        wave = [recorded(a) for a in TestKnowingTheFuture.waves(n_waves=1)]
        path = tmp_path / "wave.json"
        path.write_text(json.dumps({"history": [
            dict(zip(("kind", "client", "command", "response", "at"), e))
            for e in wave[:10] + wave[10:][::-1]
        ]}))
        assert repro_main(["monitor", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert (
            "[certificate missed, searched: index 10: 'c9': ('value', 8), "
            "the log says ('value', None)]"
        ) in out
        assert "monitor replay: ok" in out


class TestOneWayToBuildALiveMonitor:
    """A search beside a server is budgeted, and what it falls back on
    is the history of the recorder it taps."""

    def test_no_live_site_builds_a_monitor_of_its_own(self):
        root = pathlib.Path(__file__).parent.parent / "src" / "repro"
        taps, certified = [], []
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                keywords = {keyword.arg for keyword in node.keywords}
                if name == "MonitorTap":
                    taps.append(module)
                if name == "StreamingMonitor" and "history" in keywords:
                    certified.append(module)
                    assert {"node_limit", "config_limit"} <= keywords
        # every tap and every certificate checker comes out of budgeted_tap
        assert taps == certified == ["net/loadgen.py"]

    def test_budgets_are_never_none_and_the_history_is_the_recorders(self):
        recorder = HistoryRecorder(clock=lambda: 0.0)
        tap = budgeted_tap(KV, recorder)
        assert recorder.tap is tap
        assert (tap.monitor.node_limit, tap.monitor.config_limit) == (
            MONITOR_NODE_LIMIT, MONITOR_CONFIG_LIMIT,
        )
        assert tap.monitor._history is recorder.events

    def test_the_canary_probe_is_certified_and_budgeted(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            client, tap = make_probe(cluster.client_transport("probe"), 3)
            await client.submit(("put", "k", 1))
            await client.submit(("get", "k"))
            report = await tap.close()
            await cluster.stop()
            return client, tap, report

        client, tap, report = asyncio.run(scenario())
        assert tap.monitor.node_limit and tap.monitor.config_limit
        assert client.recorder.tap is tap
        assert report.verdict == "ok" and report.events == 4
        assert report.certificate_misses == 0 and report.frontiers == 0


# ---------------------------------------------------------------------------
# the GC bound
# ---------------------------------------------------------------------------


class TestBoundedMemory:
    def test_long_sequential_run_retains_a_constant_window(self):
        monitor = StreamingMonitor(KV)
        value = None
        for i in range(2000):
            payload = ("put", "a", i)
            monitor.observe(inv("c1", payload))
            monitor.observe(res("c1", payload, ("value", value)))
            value = i
        report = monitor.report()
        assert report.verdict == "ok"
        assert report.events == 4000
        # one op in flight at a time: the window never holds more than
        # one op's events, and every decided prefix was collected
        assert report.peak_retained <= 2
        assert report.retained == 0
        assert report.gc_drops == 4000

    def test_peak_tracks_the_concurrent_window_not_the_run(self):
        monitor = StreamingMonitor(KV)
        clients = [f"c{i}" for i in range(6)]
        store = {}
        for round_no in range(300):
            batch = []
            for i, c in enumerate(clients):
                key = "ab"[i % 2]
                payload = ("put", key, round_no * 10 + i)
                monitor.observe(inv(c, payload))
                batch.append((c, key, payload))
            for c, key, payload in batch:
                output = ("value", store.get(key))
                store[key] = payload[2]
                monitor.observe(res(c, payload, output))
        report = monitor.report()
        assert report.verdict == "ok"
        assert report.events == 300 * len(clients) * 2
        # the bound depends on the 6-client window, not the 300 rounds
        assert report.peak_retained <= 4 * len(clients)
        assert report.gc_drops == report.events


# ---------------------------------------------------------------------------
# fail-fast and the shrunken witness
# ---------------------------------------------------------------------------


class TestFailFastAndWitness:
    def test_violation_flips_at_the_event(self):
        monitor = StreamingMonitor(KV)
        monitor.observe(inv("c1", ("get", "a")))
        assert not monitor.violated
        monitor.observe(res("c1", ("get", "a"), ("value", 3)))  # from nowhere
        assert monitor.violated and monitor.verdict == "violation"
        # later events are ignored, the verdict is final
        monitor.observe(inv("c2", ("put", "a", 1)))
        assert monitor.report().verdict == "violation"

    def test_witness_is_shrunk_to_the_relevant_ops(self):
        # two irrelevant committed ops on key "b" and four open puts on
        # "a" surround a failing read; ddmin must cut the noise down to
        # the read itself (no open op is needed to refute ("value", 9))
        actions = [
            inv("cb", ("put", "b", 1)),
            res("cb", ("put", "b", 1), ("value", None)),
        ]
        actions += [inv(f"c{i}", ("put", "a", i)) for i in range(4)]
        actions += [
            inv("cr", ("get", "a")),
            res("cr", ("get", "a"), ("value", 9)),  # 9 was never written
        ]
        report = watch_trace(Trace(actions), KV)
        assert report.verdict == "violation"
        witness = report.witness
        assert witness is not None and witness["partition"] == "a"
        assert witness["shrunk"] and not witness["truncated"]
        ops = {event["op"] for event in witness["events"]}
        # the failing read survives; the unrelated key never appears
        assert any(e["client"] == "cr" for e in witness["events"])
        assert len(ops) == 1

    def test_ddmin_minimizes_a_known_superset(self):
        fails = lambda kept: {"x", "y"} <= set(kept)  # noqa: E731
        assert set(ddmin_ops(["a", "x", "b", "y", "c"], fails)) == {"x", "y"}

    def test_compose_verdicts_prefers_violation_over_unknown(self):
        ok = watch_trace(Trace([]), KV)
        bad = watch_trace(
            Trace([res("c1", ("get", "a"), ("value", 1))]), KV
        )
        verdict, reason = compose_verdicts([ok, bad])
        assert verdict == "violation" and reason
        assert compose_verdicts([ok, ok])[0] == "ok"


# ---------------------------------------------------------------------------
# the async tap and the data-plane integrations
# ---------------------------------------------------------------------------


class TestMonitorTap:
    def test_tap_drains_recorder_events_in_background(self):
        async def scenario():
            tap = MonitorTap(StreamingMonitor(KV))
            recorder = HistoryRecorder(clock=lambda: 0.0)
            recorder.tap = tap
            recorder.invoke("c1", ("put", "a", 1))
            recorder.respond("c1", ("put", "a", 1), ("value", None))
            await asyncio.sleep(0.01)
            assert tap.pending == 0  # the drain task consumed the queue
            recorder.invoke("c2", ("get", "a"))
            recorder.respond("c2", ("get", "a"), ("value", 1))
            return await tap.close()

        report = asyncio.run(scenario())
        assert report.verdict == "ok" and report.events == 4

    def test_tap_flags_violation_before_close(self):
        async def scenario():
            tap = MonitorTap(StreamingMonitor(KV))
            recorder = HistoryRecorder(clock=lambda: 0.0)
            recorder.tap = tap
            recorder.invoke("c1", ("get", "a"))
            recorder.respond("c1", ("get", "a"), ("value", 41))
            await asyncio.sleep(0.01)
            assert tap.violated  # visible mid-run, before close()
            return await tap.close()

        assert asyncio.run(scenario()).verdict == "violation"


class TestLoadgenIntegration:
    def test_monitored_run_agrees_with_the_posthoc_check(self, tmp_path):
        report = run_loadgen(
            replicas=3,
            clients=4,
            ops=24,
            seed=5,
            wal_root=str(tmp_path),
            monitor=True,
            emit=SILENT,
        )
        assert report.monitored
        assert report.linearizable and report.monitor_verdict == "ok"
        assert report.monitor_events == 2 * report.committed
        assert 0 < report.monitor_peak_retained < report.monitor_events
        assert report.monitor_gc_drops == report.monitor_events

    def test_sharded_run_composes_per_shard_monitors(self, tmp_path):
        report = run_loadgen(
            replicas=3,
            clients=6,
            ops=48,
            seed=6,
            shards=2,
            wal_root=str(tmp_path),
            monitor=True,
            emit=SILENT,
        )
        assert report.monitored and report.monitor_verdict == "ok"
        assert report.monitor_shard_verdicts == ["ok", "ok"]
        assert report.linearizable
