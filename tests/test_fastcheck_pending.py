"""Histories with pending (timed-out) operations through ``fastcheck``.

The networked runtime records Jepsen-style histories: an operation whose
client timed out stays in the trace as an invocation with no response.
Linearizability gives such an operation a choice — it may have taken
effect at any point after its invocation, or never.  These tests pin
that semantics through :func:`repro.core.fastcheck.check_linearizable`
with and without a split (the KV store partitions per key; a single
cell has no partition spec and is the engine's one partition):

* a pending write whose effect *is* visible must be linearizable;
* a pending write whose effect is *not* visible must be linearizable
  too (it simply never happened);
* a pending operation must not excuse an output no interleaving
  explains;
* pending operations on several keys decompose per key.
"""

from repro.core.actions import Invocation, Response
from repro.core.fastcheck import check_linearizable
from repro.core.traces import Trace
from repro.monitor.streaming import decide
from repro.smr.universal import kv_cell_adt, kv_get, kv_put, kv_store_adt


def inv(client, payload):
    return Invocation(client, 1, payload)


def res(client, payload, output):
    return Response(client, 1, payload, ("value", output))


def decided(trace, adt):
    """What ``check_linearizable`` reports on ``trace``, and the
    partitions the deciding engine opened."""
    monitor = decide(trace, adt)
    return monitor.report(), monitor.parts()


class TestPendingKVStore:
    """The compositional path (the KV store carries a partition spec)."""

    def test_pending_write_whose_effect_is_visible(self):
        # c1's put(x, 1) never returned, but c2 reads 1: the pending op
        # must be linearized before the read.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c2", kv_get("x")),
                res("c2", kv_get("x"), 1),
            ]
        )
        report, parts = decided(trace, kv_store_adt())
        assert report.ok
        assert parts == (("x", 3),)

    def test_pending_write_whose_effect_never_happened(self):
        # Same pending put, but the read sees the key absent: legal —
        # the timed-out op simply did not (yet) take effect.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c2", kv_get("x")),
                res("c2", kv_get("x"), None),
            ]
        )
        report = check_linearizable(trace, kv_store_adt())
        assert report.ok

    def test_pending_op_cannot_excuse_an_unexplained_read(self):
        # No interleaving of {put(x,1) pending} explains reading 2.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c2", kv_get("x")),
                res("c2", kv_get("x"), 2),
            ]
        )
        report = check_linearizable(trace, kv_store_adt())
        assert not report.ok

    def test_pending_read_is_always_harmless(self):
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                res("c1", kv_put("x", 1), None),
                inv("c2", kv_get("x")),
            ]
        )
        assert check_linearizable(trace, kv_store_adt()).ok

    def test_pending_ops_decompose_per_key(self):
        # One pending op per key; each partition carries its own.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c2", kv_put("y", 2)),
                inv("c3", kv_get("x")),
                res("c3", kv_get("x"), 1),
                inv("c4", kv_get("y")),
                res("c4", kv_get("y"), None),
            ]
        )
        report, parts = decided(trace, kv_store_adt())
        assert report.ok
        assert {key for key, _ in parts} == {"x", "y"}

    def test_pending_then_poisoned_client_issues_nothing_else(self):
        # The recording discipline: after a pending op the client stops.
        # A history where the same client has TWO open invocations is
        # ill-formed and must be rejected, not linearized.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c1", kv_put("x", 2)),
            ]
        )
        report = check_linearizable(trace, kv_store_adt())
        assert not report.ok

    def test_visible_and_invisible_pending_mix(self):
        # Two pending writes to one key; the reader sees one of them.
        trace = Trace(
            [
                inv("c1", kv_put("x", 1)),
                inv("c2", kv_put("x", 2)),
                inv("c3", kv_get("x")),
                res("c3", kv_get("x"), 2),
            ]
        )
        assert check_linearizable(trace, kv_store_adt()).ok


class TestPendingMonolithic:
    """The same semantics on an object without a partition spec: the
    engine's one partition, the whole object."""

    def test_pending_write_visible(self):
        trace = Trace(
            [
                inv("c1", ("put", "x", 1)),
                inv("c2", ("get", "x")),
                res("c2", ("get", "x"), 1),
            ]
        )
        report, parts = decided(trace, kv_cell_adt("x"))
        assert report.verdict == "ok"
        assert parts == ((None, 3),)

    def test_pending_write_invisible(self):
        trace = Trace(
            [
                inv("c1", ("put", "x", 1)),
                inv("c2", ("get", "x")),
                res("c2", ("get", "x"), None),
            ]
        )
        report, parts = decided(trace, kv_cell_adt("x"))
        assert report.verdict == "ok"
        assert parts == ((None, 3),)

    def test_unexplained_output_still_fails(self):
        trace = Trace(
            [
                inv("c1", ("put", "x", 1)),
                inv("c2", ("get", "x")),
                res("c2", ("get", "x"), 3),
            ]
        )
        assert not check_linearizable(trace, kv_cell_adt("x")).ok
