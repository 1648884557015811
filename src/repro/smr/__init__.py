"""Speculative State Machine Replication (the Section 6 application).

The universal ADT and ADT-derivation glue (:mod:`repro.smr.universal`),
the multi-slot replicated log where every slot is a composed Quorum+Backup
consensus instance (:mod:`repro.smr.replica`), the one frontend that
derives any ADT from it (:class:`~repro.smr.replica.ReplicatedObject`),
and a replicated key-value store and a lock service that are its named
operations (:mod:`repro.smr.kvstore`, :mod:`repro.smr.lockservice`).
"""

from .kvstore import KVResult, ReplicatedKVStore
from .lockservice import LockResult, LockService, lock_table_adt
from .replica import CommandOutcome, ReplicatedObject, SpeculativeSMR
from .sessions import (
    SessionTable,
    SessionedApplier,
    dedup_commands,
    sessioned_adt,
    seq_uid,
    untag_command,
)
from .universal import (
    UniversalFrontend,
    kv_delete,
    kv_get,
    kv_put,
    kv_store_adt,
)

__all__ = [
    "CommandOutcome",
    "KVResult",
    "LockResult",
    "LockService",
    "ReplicatedKVStore",
    "ReplicatedObject",
    "SessionTable",
    "SessionedApplier",
    "SpeculativeSMR",
    "UniversalFrontend",
    "dedup_commands",
    "kv_delete",
    "kv_get",
    "kv_put",
    "kv_store_adt",
    "lock_table_adt",
    "seq_uid",
    "sessioned_adt",
    "untag_command",
]
