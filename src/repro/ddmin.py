"""The one delta-debugging loop every shrinker in the repo uses.

Zeller's ddmin over a list of removable items: given a predicate that
holds on the whole list ("still fails"), find a sublist on which it
still holds and from which no single item can be removed — a
*1-minimal* reproducer.  The fault-schedule shrinker
(:func:`repro.faults.shrink.shrink_schedule`) runs it over action
positions, the streaming monitor
(:meth:`repro.monitor.frontier.KeyFrontier._shrink_witness`) over the
operations of a violating window.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

Item = TypeVar("Item")


class ProbeBudgetExceeded(RuntimeError):
    """ddmin ran out of probes; ``best`` is the smallest failing sublist
    found so far (still failing, not necessarily 1-minimal)."""

    def __init__(self, max_probes: int, best: List) -> None:
        super().__init__(f"shrinking exceeded {max_probes} probe runs")
        self.best = best


def ddmin(
    items: Sequence[Item],
    fails: Callable[[List[Item]], bool],
    max_probes: int = 1000,
) -> List[Item]:
    """A 1-minimal sublist of ``items`` on which ``fails`` still holds.

    ``fails(items)`` is assumed true and is not probed.  The empty list
    is probed first (nothing to minimize if it already fails); then
    each round tries every chunk alone, then every complement, halving
    the chunk size when neither reduces.  Items keep their input order.
    Raises :exc:`ProbeBudgetExceeded` (carrying the best sublist so
    far) when more than ``max_probes`` probes would be needed.
    """
    current = list(range(len(items)))  # positions: items may repeat
    probes = 0

    def probe(positions: List[int]) -> bool:
        nonlocal probes
        probes += 1
        if probes > max_probes:
            raise ProbeBudgetExceeded(
                max_probes, [items[i] for i in current]
            )
        return fails([items[i] for i in positions])

    if probe([]):
        return []
    granularity = 2
    while len(current) >= 2:
        size = max(1, len(current) // granularity)
        chunks = [
            current[i : i + size] for i in range(0, len(current), size)
        ]
        reduced = False
        for chunk in chunks:
            if probe(chunk):
                current, granularity, reduced = chunk, 2, True
                break
        # with two chunks each complement is the other chunk: probed
        if not reduced and len(chunks) > 2:
            for chunk in chunks:
                rest = [i for i in current if i not in chunk]
                if probe(rest):
                    current, reduced = rest, True
                    granularity = max(granularity - 1, 2)
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return [items[i] for i in current]
