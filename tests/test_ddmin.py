"""Properties of the one delta-debugging loop (`repro.ddmin`).

Both shrinkers ride it — `shrink_schedule` over action positions, the
monitor's `ddmin_ops` over a violating window's operations — so the
contract is pinned here once, against random monotone predicates, and
each caller's budget behaviour next to it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddmin import ProbeBudgetExceeded, ddmin
from repro.faults import BurstLoss, FaultSchedule, shrink_schedule
from repro.monitor import ddmin_ops

#: a family of guilty subsets over ≤ 10 items: the predicate "fails"
#: iff the kept items cover at least one of them (monotone, like "the
#: bug needs these actions", with several independent causes)
CAUSES = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.frozensets(st.integers(0, n - 1), max_size=4),
            min_size=1,
            max_size=3,
        ),
    )
)


def covering(causes):
    return lambda kept: any(cause <= set(kept) for cause in causes)


@settings(max_examples=200, deadline=None)
@given(CAUSES)
def test_result_still_fails_and_is_1_minimal(case):
    n, causes = case
    fails = covering(causes)
    kept = ddmin(range(n), fails)
    assert fails(kept)
    assert kept == sorted(kept)  # input order survives
    for drop in range(len(kept)):
        assert not fails(kept[:drop] + kept[drop + 1 :])


@settings(max_examples=200, deadline=None)
@given(CAUSES, st.integers(min_value=1, max_value=12))
def test_a_spent_budget_still_hands_back_a_failing_sublist(case, budget):
    n, causes = case
    fails = covering(causes)
    probes = []

    def counted(kept):
        probes.append(kept)
        return fails(kept)

    try:
        kept = ddmin(range(n), counted, max_probes=budget)
    except ProbeBudgetExceeded as exceeded:
        kept = exceeded.best
        assert "probe" in str(exceeded)
    assert len(probes) <= budget
    assert fails(kept) and set(kept) <= set(range(n))


def test_repeated_items_are_told_apart_by_position():
    fails = lambda kept: kept.count("x") >= 2  # noqa: E731
    assert ddmin(["x", "a", "x", "x"], fails) == ["x", "x"]


def test_the_schedule_shrinker_raises_on_a_spent_budget():
    schedule = FaultSchedule(
        seed=0, actions=tuple(BurstLoss(at=float(i)) for i in range(10))
    )
    with pytest.raises(RuntimeError, match="probe"):
        shrink_schedule(
            schedule, lambda s: len(s.actions) == 10, max_probes=1
        )


def test_the_witness_shrinker_settles_for_the_best_so_far():
    # needs all of 0..5: no probe ever reduces, the budget runs out, and
    # a witness is best-effort — the whole failing window comes back
    fails = lambda kept: set(range(6)) <= set(kept)  # noqa: E731
    assert ddmin_ops(list(range(8)), fails, max_probes=3) == list(range(8))
