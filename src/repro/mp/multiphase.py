"""Three speculation phases composed: SubQuorum → Quorum → Backup.

The paper's framework scales to any number of phases: "a speculative
system may choose between many different options, or speculation phases,
in order to closely match a changing common case", and adding a phase
must not require touching the existing ones.  This module demonstrates
exactly that: a *third* phase is added in front of Quorum+Backup with
zero changes to either — the deployment is the three-element list
``[quorum(sub_servers, "sq", "sqcli"), quorum(n), backup(n)]`` handed to
the same :class:`~repro.mp.composed.PhasedConsensus` that runs the
two-phase object.

**SubQuorum** is the Quorum algorithm run over a fixed 2-server subset:
same code (:class:`~repro.mp.quorum.QuorumClient` /
:class:`~repro.mp.quorum.QuorumServer`), a quarter of the fast-path
messages of a 4-server Quorum.  Its safety argument is Quorum's own
(decide on identical accepts from *all* sub-servers; on timeout, switch
with an accepted value, waiting for at least one accept), so I1-I3 — and
hence speculative linearizability — hold unchanged.  When the subset
disagrees, times out, or a sub-server crashes (one may), clients switch
into the full Quorum phase, whose clients treat the incoming switch value
as their proposal; Quorum in turn switches into Backup (Paxos) as before.

The composed object therefore spans phases ``(1, 4)``:

* phase 1 — SubQuorum on servers {0, 1}: 2 message delays, 4 messages;
* phase 2 — Quorum on all servers: 2 message delays, 2n messages;
* phase 3 — Backup (coordinated Paxos): 3 message delays, crash-majority
  tolerant.

Each phase boundary records a single switch action (tags 2 and 3), so the
trace is directly checkable: SLin(1,2), SLin(2,3), SLin(3,4), the
pairwise composition theorem, and Theorem 2's projection.
"""

from __future__ import annotations

from typing import Any, Optional

from .backoff import BackoffPolicy
from .composed import PhasedConsensus
from .phases import backup, quorum


class ThreePhaseConsensus(PhasedConsensus):
    """SubQuorum → Quorum → Backup over one simulated cluster.

    ``sub_servers`` selects how many servers host the SubQuorum phase
    (default 2); all ``n_servers`` host the full Quorum and the Paxos
    roles.  Each phase keeps its own sticky server state (separate
    process ids), exactly as if the phases had been deployed
    independently — the point of intra-object composition.
    """

    def __init__(
        self,
        n_servers: int = 4,
        sub_servers: int = 2,
        seed: int = 0,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        sub_timeout: float = 5.0,
        quorum_timeout: float = 12.0,
        expected_clients: int = 8,
        duplicate_rate: float = 0.0,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if not 1 <= sub_servers <= n_servers:
            raise ValueError("sub_servers must be within the cluster")
        super().__init__(
            [
                quorum(sub_servers, "sq", "sqcli", timeout=sub_timeout),
                quorum(n_servers, timeout=quorum_timeout),
                backup(n_servers, expected_clients),
            ],
            n_servers,
            seed,
            delay,
            loss_rate,
            duplicate_rate,
            backoff,
            expected_clients,
        )
        self.sub_servers = sub_servers
