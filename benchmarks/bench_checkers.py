"""E3 — Theorem 1 at scale, plus checker performance (ablation).

Two artifacts:

* an **agreement census**: both complete linearizability checkers (the
  paper's new definition and the classical one) run over large random
  trace families; the table reports how many traces each accepts — the
  columns must be identical (Theorem 1);
* a **performance ablation** of the two checker designs (master-history
  DFS vs Wing-Gong reordering search) as trace length grows — the design
  choice called out in DESIGN.md.

The census also runs the P-compositional fast path
(:mod:`repro.core.fastcheck`); its column must match the complete
checkers on every family — including the multi-object product family,
where it actually decomposes.

Run standalone:  python benchmarks/bench_checkers.py
"""

import random
import sys
import os

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from helpers import random_wellformed_trace  # noqa: E402

from repro.core.adt import (  # noqa: E402
    consensus_adt,
    counter_adt,
    deq,
    enq,
    product_adt,
    propose,
    queue_adt,
    reg_read,
    reg_write,
    register_adt,
    tag_object,
)
from repro.core.classical import is_linearizable_classical  # noqa: E402
from repro.core.fastcheck import check_linearizable  # noqa: E402
from repro.core.linearizability import is_linearizable  # noqa: E402

FAMILIES = [
    ("consensus", consensus_adt(), [propose("a"), propose("b")]),
    ("register", register_adt(), [reg_read(), reg_write(1), reg_write(2)]),
    ("queue", queue_adt(), [enq(1), enq(2), deq()]),
    (
        "product",
        product_adt({"reg": register_adt(), "cnt": counter_adt()}),
        [
            tag_object("reg", reg_read()),
            tag_object("reg", reg_write(1)),
            tag_object("cnt", ("inc", 1)),
            tag_object("cnt", ("cread",)),
        ],
    ),
]


def census_row(name, adt, inputs, n_traces=120, n_steps=8, seed=0):
    rng = random.Random(seed)
    traces = [
        random_wellformed_trace(rng, adt, inputs, n_clients=3, n_steps=n_steps)
        for _ in range(n_traces)
    ]
    new_accepts = sum(1 for t in traces if is_linearizable(t, adt))
    classical_accepts = sum(
        1 for t in traces if is_linearizable_classical(t, adt)
    )
    fast_accepts = sum(1 for t in traces if check_linearizable(t, adt).ok)
    return {
        "family": name,
        "traces": n_traces,
        "new": new_accepts,
        "classical": classical_accepts,
        "fast": fast_accepts,
    }


def census():
    return [census_row(*family) for family in FAMILIES]


def make_traces(n_steps, count=30, seed=7):
    rng = random.Random(seed)
    adt = consensus_adt()
    inputs = [propose("a"), propose("b"), propose("c")]
    return adt, [
        random_wellformed_trace(rng, adt, inputs, n_clients=3, n_steps=n_steps)
        for _ in range(count)
    ]


class TestTheorem1Census:
    @pytest.fixture(scope="class")
    def rows(self):
        return census()

    def test_checkers_agree_exactly(self, rows):
        for row in rows:
            assert row["new"] == row["classical"], row

    def test_fast_path_agrees(self, rows):
        for row in rows:
            assert row["fast"] == row["new"], row

    def test_families_are_nontrivial(self, rows):
        # Each family contains both accepted and rejected traces, so the
        # agreement is not vacuous.
        for row in rows:
            assert 0 < row["new"] < row["traces"], row


@pytest.mark.benchmark(group="checker-e3")
@pytest.mark.parametrize("n_steps", [6, 10, 14])
def test_bench_new_definition_checker(benchmark, n_steps):
    adt, traces = make_traces(n_steps)
    benchmark(lambda: [is_linearizable(t, adt) for t in traces])


@pytest.mark.benchmark(group="checker-e3")
@pytest.mark.parametrize("n_steps", [6, 10, 14])
def test_bench_classical_checker(benchmark, n_steps):
    adt, traces = make_traces(n_steps)
    benchmark(lambda: [is_linearizable_classical(t, adt) for t in traces])


def main():
    print("E3: Theorem 1 agreement census (accepted / total)")
    print(
        f"{'family':<12} {'new def':>10} {'classical':>10} {'fast':>8} "
        f"{'total':>7}"
    )
    for row in census():
        print(
            f"{row['family']:<12} {row['new']:>10} {row['classical']:>10} "
            f"{row['fast']:>8} {row['traces']:>7}"
        )
    print("\npaper: the two definitions are equivalent (Theorem 1)")

    import time

    print("\nchecker scaling ablation (30 consensus traces per point)")
    print(f"{'steps':>6} {'new def (s)':>12} {'classical (s)':>14}")
    for n_steps in (6, 10, 14, 18):
        adt, traces = make_traces(n_steps)
        t0 = time.time()
        for t in traces:
            is_linearizable(t, adt)
        new_time = time.time() - t0
        t0 = time.time()
        for t in traces:
            is_linearizable_classical(t, adt)
        classical_time = time.time() - t0
        print(f"{n_steps:>6} {new_time:>12.3f} {classical_time:>14.3f}")


if __name__ == "__main__":
    main()
