"""Tests for speculative SMR and the replicated KV store (§6 application)."""

import pytest
from hypothesis import given, settings

from oracle import kv_command_sequences, kv_rebuild_transition
from repro.core.linearizability import is_linearizable
from repro.smr.kvstore import ReplicatedKVStore
from repro.smr.replica import SpeculativeSMR
from repro.smr.universal import (
    UniversalFrontend,
    kv_delete,
    kv_get,
    kv_put,
    kv_store_adt,
)


def jitter(rng):
    return rng.uniform(0.5, 1.5)


class TestKVAdt:
    def test_put_get_delete_semantics(self):
        adt = kv_store_adt()
        history = (kv_put("k", 1), kv_get("k"))
        assert adt.output(history) == ("value", 1)
        history += (kv_delete("k"), kv_get("k"))
        assert adt.output(history) == ("value", None)

    def test_put_returns_previous(self):
        adt = kv_store_adt()
        assert adt.output((kv_put("k", 1), kv_put("k", 2))) == ("value", 1)

    def test_validation(self):
        adt = kv_store_adt()
        assert adt.is_input(kv_put("k", 1))
        assert adt.is_input(kv_get("k"))
        assert not adt.is_input(("put", "k"))
        assert adt.is_output(("value", 3))

    def test_state_is_canonical(self):
        adt = kv_store_adt()
        s1, _ = adt.run((kv_put("a", 1), kv_put("b", 2)))
        s2, _ = adt.run((kv_put("b", 2), kv_put("a", 1)))
        assert s1 == s2

    @settings(max_examples=300, deadline=None)
    @given(kv_command_sequences())
    def test_a_write_is_a_splice_and_the_same_function(self, commands):
        """The splice against the rebuild, step by step: same outputs,
        same store, and a state in canonical form whatever order the
        keys arrived in.  On these keys the two orders (``repr`` of the
        key, ``repr`` of the pair) coincide, so the tuples are equal."""
        adt = kv_store_adt()
        state = reference = adt.initial_state
        for command in commands:
            state, output = adt.transition(state, command)
            reference, expected = kv_rebuild_transition(reference, command)
            assert output == expected
            assert dict(state) == dict(reference)
            assert len(state) == len(dict(state))  # one pair per key
            assert state == tuple(
                sorted(state, key=lambda pair: repr(pair[0]))
            )
            assert state == reference
            assert [type(k) for k, _ in state] == [
                type(k) for k, _ in reference
            ]

    def test_keys_equal_across_types_are_one_key(self):
        adt = kv_store_adt()
        state, outputs = adt.initial_state, []
        for command in (
            kv_put(1, "a"), kv_put(1.0, "b"), kv_get(True), kv_put("1", "c")
        ):
            state, output = adt.transition(state, command)
            outputs.append(output[1])
        assert outputs == [None, "a", "b", None]
        # the key object first held stays, as in a dict
        assert state == (("1", "c"), (1, "b"))
        assert [type(k) for k, _ in state] == [str, int]
        state, _ = adt.transition(state, kv_delete(True))
        assert state == (("1", "c"),)

    def test_a_write_costs_log_k_reprs_not_k(self):
        """At 256 held keys a put, an overwrite and a delete each call
        ``repr`` at most about twice log2(256) times: the key bisected
        in, one probe per halving.  The rebuild called it 256 times."""

        class Key:
            calls = 0

            def __init__(self, n):
                self.n = n

            def __repr__(self):
                Key.calls += 1
                return f"Key({self.n:04d})"

            def __eq__(self, other):
                return isinstance(other, Key) and other.n == self.n

            def __hash__(self):
                return hash(self.n)

        adt = kv_store_adt()
        state = adt.initial_state
        for n in range(0, 512, 2):
            state, _ = adt.transition(state, kv_put(Key(n), n))
        assert [k.n for k, _ in state] == list(range(0, 512, 2))
        for command in (
            kv_put(Key(301), "new"),
            kv_put(Key(300), "over"),
            kv_get(Key(300)),
            kv_delete(Key(300)),
            kv_delete(Key(999)),
        ):
            Key.calls = 0
            state, _ = adt.transition(state, command)
            assert Key.calls <= 18, (command[0], Key.calls)
        assert len(state) == 256
        assert [k.n for k, _ in state] == sorted(k.n for k, _ in state)


class TestUniversalFrontend:
    def test_respond_applies_output_function(self):
        frontend = UniversalFrontend(kv_store_adt())
        history = (kv_put("k", 1), kv_get("k"))
        assert frontend.respond(history) == ("value", 1)

    def test_respond_prefix(self):
        frontend = UniversalFrontend(kv_store_adt())
        history = (kv_put("k", 1), kv_put("k", 2), kv_get("k"))
        assert frontend.respond(history[:1]) == ("value", None)


class TestSpeculativeSMR:
    def test_sequential_commands_fast_path(self):
        smr = SpeculativeSMR(n_servers=3, seed=0)
        o1 = smr.submit("c1", "A", at=0.0)
        o2 = smr.submit("c2", "B", at=10.0)
        smr.run()
        assert smr.committed_log() == ["A", "B"]
        assert o1.path == "fast" and o1.latency == 2.0
        assert o2.path == "fast" and o2.latency == 2.0
        assert (o1.slot, o2.slot) == (0, 1)

    def test_fast_path_pays_nothing_for_backup(self):
        # with server 0 live every slot's pre-preparer owns ballot 0:
        # 2n messages per fast command, no coordinator timer armed
        smr = SpeculativeSMR(n_servers=3, seed=0)
        outcomes = [smr.submit("c1", "A", at=0.0), smr.submit("c2", "B", at=10.0)]
        smr.run()
        assert [o.path for o in outcomes] == ["fast", "fast"]
        assert smr.network.stats.sent == 2 * (2 * smr.n_servers)
        coordinators = [
            process
            for pid, process in smr.network.processes.items()
            if pid[0] == "coord"
        ]
        assert len(coordinators) == 6
        assert all(c._retry_timer is None for c in coordinators)

    def test_a_pre_preparer_of_another_rank_still_buys_its_promise(self):
        # server 0 down: the pre-preparer is rank 1, its first ballot is
        # 1, and that one needs a real phase 1
        smr = SpeculativeSMR(n_servers=3, seed=0)
        smr.crash_server(0, at=0.0)
        outcome = smr.submit("c1", "A", at=1.0)
        smr.run()
        assert outcome.path == "slow" and smr.committed_log() == ["A"]
        coordinator = smr.network.processes[("coord", outcome.slot, 1)]
        assert coordinator.ballot == 1 and coordinator.decision == "A"
        assert smr.network.processes[("acc", outcome.slot, 2)].promised == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_concurrent_commands_all_commit_distinct_slots(self, seed):
        smr = SpeculativeSMR(n_servers=3, seed=seed, delay=jitter)
        outcomes = [
            smr.submit(f"c{i}", f"cmd{i}", at=0.0) for i in range(3)
        ]
        smr.run()
        slots = [o.slot for o in outcomes]
        assert None not in slots
        assert len(set(slots)) == 3
        assert sorted(smr.committed_log()) == sorted(
            o.command for o in outcomes
        )

    def test_log_has_no_gaps(self):
        smr = SpeculativeSMR(n_servers=3, seed=2, delay=jitter)
        for i in range(4):
            smr.submit(f"c{i}", f"cmd{i}", at=float(i) * 0.5)
        smr.run()
        log = smr.committed_log()
        assert len(log) == 4

    def test_crash_tolerated(self):
        smr = SpeculativeSMR(n_servers=3, seed=0)
        smr.crash_server(1, at=0.0)
        outcome = smr.submit("c1", "A", at=1.0)
        smr.run()
        assert outcome.commit_time is not None
        assert outcome.path == "slow"  # quorum needs all servers
        assert smr.committed_log() == ["A"]

    def test_attempts_counted(self):
        smr = SpeculativeSMR(n_servers=3, seed=1, delay=jitter)
        outcomes = [
            smr.submit(f"c{i}", f"cmd{i}", at=0.0) for i in range(2)
        ]
        smr.run()
        assert all(o.attempts >= 1 for o in outcomes)


class TestReplicatedKVStore:
    def test_quickstart_scenario(self):
        kv = ReplicatedKVStore(n_servers=3, seed=1)
        kv.put("alice", "x", 1, at=0.0)
        kv.put("bob", "x", 2, at=10.0)
        kv.get("carol", "x", at=20.0)
        kv.delete("alice", "x", at=30.0)
        kv.get("bob", "x", at=40.0)
        kv.run()
        responses = [r.response for r in kv.results]
        assert responses == [
            ("value", None),
            ("value", 1),
            ("value", 2),
            ("value", 2),
            ("value", None),
        ]
        assert kv.state() == {}

    def test_interface_trace_linearizable(self):
        kv = ReplicatedKVStore(n_servers=3, seed=3, delay=jitter)
        kv.put("a", "x", 1, at=0.0)
        kv.put("b", "x", 2, at=0.0)
        kv.get("c", "x", at=0.0)
        kv.run()
        trace = kv.interface_trace()
        assert is_linearizable(trace, kv_store_adt())

    @pytest.mark.parametrize("seed", range(4))
    def test_concurrent_kv_linearizable(self, seed):
        kv = ReplicatedKVStore(n_servers=3, seed=seed, delay=jitter)
        kv.put("a", "k1", seed, at=0.0)
        kv.get("b", "k1", at=0.0)
        kv.put("c", "k2", 9, at=0.5)
        kv.delete("a", "k1", at=6.0)
        kv.run()
        assert is_linearizable(kv.interface_trace(), kv_store_adt())

    def test_state_reflects_log(self):
        kv = ReplicatedKVStore(n_servers=3, seed=0)
        kv.put("a", "x", 1, at=0.0)
        kv.put("b", "y", 2, at=5.0)
        kv.run()
        assert kv.state() == {"x": 1, "y": 2}

    def test_crash_tolerance(self):
        kv = ReplicatedKVStore(n_servers=3, seed=0)
        kv.smr.crash_server(2, at=0.0)
        kv.put("a", "x", 1, at=1.0)
        kv.get("b", "x", at=15.0)
        kv.run()
        assert [r.response for r in kv.results] == [
            ("value", None),
            ("value", 1),
        ]
