"""A replicated key-value store on speculative SMR.

The application the paper's introduction motivates (Chubby, Gaios):
clients issue ``put``/``get``/``delete`` operations, the speculative SMR
layer linearizes them into the replicated log, and responses are derived
by applying the KV ADT's output function to the log prefix ending at the
client's committed command — exactly the universal-ADT recipe of
Section 6, written once in :class:`~repro.smr.replica.ReplicatedObject`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

from .replica import OperationResult, ReplicatedObject, SpeculativeSMR
from .universal import kv_delete, kv_get, kv_put, kv_store_adt

#: a completed KV operation with its derived response
KVResult = OperationResult


class ReplicatedKVStore(ReplicatedObject):
    """Client-facing KV API over :class:`SpeculativeSMR`.

    Each operation is tagged with a unique sequence number before
    replication so identical commands from different clients occupy
    distinct log slots; responses strip the tag and apply the KV
    semantics to the linearized prefix
    (:class:`~repro.smr.replica.ReplicatedObject` does both).
    """

    def __init__(
        self,
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        backoff: Any = None,
    ) -> None:
        super().__init__(
            kv_store_adt(),
            SpeculativeSMR(
                n_servers=n_servers, seed=seed, delay=delay, backoff=backoff
            ),
        )

    def put(self, client: Hashable, key: Hashable, value: Hashable, at: float = 0.0) -> None:
        """Schedule a replicated ``put``."""
        self.invoke(client, kv_put(key, value), at)

    def get(self, client: Hashable, key: Hashable, at: float = 0.0) -> None:
        """Schedule a replicated ``get``."""
        self.invoke(client, kv_get(key), at)

    def delete(self, client: Hashable, key: Hashable, at: float = 0.0) -> None:
        """Schedule a replicated ``delete``."""
        self.invoke(client, kv_delete(key), at)

    def state(self) -> Dict[Hashable, Hashable]:
        """The KV state after applying the committed log prefix."""
        return dict(self.adt_state())
