"""CASCons — CAS-based speculative consensus (Figure 3).

The straightforward hardware-consensus phase RCons falls back to:

.. code-block:: text

    Object CASCons
        // Shared register D, initially ⊥
        Function switch-to-CASCons(val):  return CAS(D, ⊥, val)
        Function propose(val):            return D

``switch-to-CASCons`` races the switch values through a single CAS: the
first value installed wins and every caller receives the winner (our CAS
primitive returns the register's value after the operation).  ``propose``
is only reachable once the consensus has already been won — clients first
enter the phase through a switch — so it simply reads ``D``.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Tuple

Outcome = Tuple[str, Hashable]


def cascons_switch_program(
    value: Hashable,
    prefix: str = "cascons",
) -> Generator[Tuple, Any, Outcome]:
    """``switch-to-CASCons(value)``: one CAS decides."""
    winner = yield ("cas", (prefix, "D"), None, value)
    return ("decide", winner)


def cascons_propose_program(
    value: Hashable,
) -> Generator[Tuple, Any, Outcome]:
    """``propose(value)`` for clients already past the switch: read ``D``
    of the default ``"cascons"`` instance.

    Figure 3's comment: "Since processes have to call switch-to-CASCons
    first, we know that the consensus has already been won, hence just
    return D."
    """
    winner = yield ("read", ("cascons", "D"))
    return ("decide", winner)
