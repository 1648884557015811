"""Speculative State Machine Replication (the Section 6 application).

The universal ADT and ADT-derivation glue (:mod:`repro.smr.universal`),
the multi-slot replicated log where every slot is a composed Quorum+Backup
consensus instance (:mod:`repro.smr.replica`), the one frontend that
derives any ADT from it (:class:`~repro.smr.replica.ReplicatedObject`),
and a replicated key-value store and a lock service that are its named
operations (:mod:`repro.smr.kvstore`, :mod:`repro.smr.lockservice`).
"""

from .kvstore import ReplicatedKVStore
from .lockservice import LockService, lock_table_adt
from .universal import kv_store_adt

__all__ = [
    "LockService",
    "ReplicatedKVStore",
    "kv_store_adt",
    "lock_table_adt",
]
