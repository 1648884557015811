"""The pipeline applies a decided command in its key's cell.

``SlotPipeline._fold`` keeps one state per partition key, each the
object's own state after that key's sub-history, where the apply used to
fold every command into one state for the whole store.  By the
``PartitionSpec`` claim the two answer alike; the oracle's apply family
(``tests/oracle.py``) holds the first to the second on the inputs that
could tell them apart: keys equal across types (``1``, ``1.0``,
``True``), replayed session tags, and an object with no spec at all.
"""

import pytest
from hypothesis import given, settings

import oracle
from oracle import (
    assert_apply_agrees,
    counter_command_sequences,
    kv_command_sequences,
    session_streams,
)
from repro.core.adt import counter_adt
from repro.faults.mutants import DoubleApplier
from repro.smr.universal import kv_store_adt

KV = kv_store_adt()
COUNTER = counter_adt()


@settings(max_examples=200, deadline=None)
@given(session_streams(kv_command_sequences()))
def test_the_store_answers_alike_per_key_and_whole(stream):
    assert_apply_agrees(KV, stream)


@settings(max_examples=100, deadline=None)
@given(session_streams(counter_command_sequences()))
def test_the_counter_is_its_own_one_cell(stream):
    assert_apply_agrees(COUNTER, stream)


def test_keys_equal_across_types_share_a_cell():
    stream = [
        ("put", 1, "a", ("seq", ("c0", 1))),
        ("put", 1.0, "b", ("seq", ("c1", 1))),
        ("get", True, ("seq", ("c0", 2))),
        ("put", 1.0, "b", ("seq", ("c1", 1))),  # a replay: answered, not applied
        ("delete", True, ("seq", ("c1", 2))),
    ]
    assert_apply_agrees(KV, stream)
    replies, cells = oracle.per_key_fold(KV, stream)
    assert [reply[1] for reply in replies] == [None, "a", "b", "a", "b"]
    assert cells == {1: ()}


def test_a_planted_disagreement_is_shrunk(monkeypatch):
    """A fold whose seam skips the session table applies a replay
    again; the oracle must hand back the op and its replay alone."""
    build = oracle.fold_pipeline

    def double_applying(adt):
        pipeline = build(adt)
        pipeline.applier = DoubleApplier(adt)
        return pipeline

    monkeypatch.setattr(oracle, "fold_pipeline", double_applying)
    put = ("put", 1, 0, ("seq", ("c0", 1)))
    noise = [("get", "b", ("seq", ("c1", seq))) for seq in range(1, 7)]
    stream = noise[:2] + [put] + noise[2:4] + [put] + noise[4:]
    with pytest.raises(AssertionError, match="minimal stream") as caught:
        assert_apply_agrees(KV, stream)
    assert f"\n{[put, put]}\n" in str(caught.value)
