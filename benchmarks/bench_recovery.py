"""E12 — crash-recovery costs of the TCP runtime's write-ahead log.

Durability is paid for twice: on every append (fsync before a reply
leaves the node) and at restart (replaying the log before the listener
binds).  This experiment measures the restart side:

* **replay cost vs log length** — reopening a `NodeWAL` replays every
  record after the snapshot; the time grows linearly with the log, and
  snapshot compaction bounds it: a compacted log recovers from
  ``snapshot + tail`` in near-constant time, by construction equal to
  the full-history fold (the equivalence is asserted, not assumed);
* **torn-tail tolerance** — a log whose final record is cut mid-body
  (the crash-mid-append case) must replay everything before the tear;
* **restart throughput dip** — a live 3-replica cluster under
  closed-loop load has one replica killed and restarted from its WAL;
  throughput dips while unanimity is impossible (no Quorum timer: its
  connections close, so every slot pays the Backup path at once) and
  recovers after the restart, once
  the restarted replica's answers end the client's presumption that it
  is down, with the whole history still linearizable.

Wall-clock seconds are reported but never gated; the regression gates
are the booleans (fold equivalence, torn-tail tolerance, verdict) and
the dimensionless compaction speedup.

Run standalone:  python benchmarks/bench_recovery.py
"""

import asyncio
import os
import tempfile
import time

from repro.core.fastcheck import check_linearizable
from repro.net import NodeWAL, ShardedCluster, probing_client
from repro.net.client import HistoryRecorder
from repro.smr.universal import kv_store_adt

#: every record folds onto one of ``length // SLOT_DIVISOR`` slots, the
#: realistic shape (durable state is per-slot and overwritten in place),
#: which is exactly what makes the compacted snapshot smaller than the log
SLOT_DIVISOR = 16


def _write_log(directory, length, compact_threshold):
    wal = NodeWAL(
        directory, fsync=False, compact_threshold=compact_threshold
    )
    slots = max(1, length // SLOT_DIVISOR)
    for i in range(length):
        slot = i % slots
        wal.record_acceptor(slot, (i, i, ("put", f"k{slot}", i)))
    wal.close()


def _reopen_seconds(directory, repeats):
    """The fastest of ``repeats`` opens.  A compacted open is half a
    millisecond, the size of one scheduler hiccup: the median of three
    moved the gated ratio 10-30x between runs of the same code, the
    minimum is the open's own cost."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wal = NodeWAL(directory, fsync=False)
        samples.append(time.perf_counter() - t0)
        wal.close()
    return min(samples)


def replay_costs(lengths, repeats=3):
    """(length, full_replay_s, compacted_replay_s, folds_equal) rows.

    The full log never compacts (threshold above ``length`` records
    plus the open's incarnation marker); the compacted one snapshots every ``length // 8`` records, so recovery
    is snapshot + a short tail.  Both must fold to identical state.
    """
    rows = []
    for length in lengths:
        with tempfile.TemporaryDirectory() as root:
            full_dir = os.path.join(root, "full")
            compact_dir = os.path.join(root, "compacted")
            _write_log(full_dir, length, compact_threshold=length + 2)
            _write_log(
                compact_dir, length, compact_threshold=max(8, length // 8)
            )
            full_s = _reopen_seconds(full_dir, repeats)
            compact_s = _reopen_seconds(compact_dir, repeats)
            a = NodeWAL(full_dir, fsync=False)
            b = NodeWAL(compact_dir, fsync=False)
            equal = (
                a.state.acceptors == b.state.acceptors
                and a.state.quorum == b.state.quorum
                and a.state.decided == b.state.decided
            )
            a.close()
            b.close()
            rows.append((length, full_s, compact_s, equal))
    return rows


def torn_tail_tolerated(length=200):
    """Cut the final record mid-body; replay must keep the prefix."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "torn")
        _write_log(directory, length, compact_threshold=length + 2)
        path = os.path.join(directory, "wal.log")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-3])
        wal = NodeWAL(directory, fsync=False)
        ok = (
            wal.state.torn_tail
            and wal.state.records_replayed == length - 1
        )
        wal.close()
        return ok


async def _restart_dip(kill_at=0.7, restart_at=1.2, deadline=2.2):
    """Closed-loop ops through a kill/restart; per-window throughput."""
    loop = asyncio.get_running_loop()
    with tempfile.TemporaryDirectory() as wal_root:
        cluster = ShardedCluster(n_servers=3, wal_root=wal_root)
        await cluster.start()
        transport = cluster.client_transport("bench")
        recorder = HistoryRecorder(clock=lambda: transport.now)
        client = probing_client(
            "c0", 3, transport, recorder, op_timeout=3.0
        )
        commits = []
        start = loop.time()

        async def drive():
            i = 0
            while loop.time() - start < deadline:
                await client.submit(("put", f"k{i % 4}", i))
                commits.append(loop.time() - start)
                i += 1

        async def nemesis():
            await asyncio.sleep(kill_at)
            await cluster.kill(1)
            await asyncio.sleep(restart_at - kill_at)
            await cluster.restart(1)

        await asyncio.gather(drive(), nemesis())
        await cluster.stop()

    def rate(lo, hi):
        n = sum(1 for t in commits if lo <= t < hi)
        return n / (hi - lo)

    check = check_linearizable(recorder.trace(), kv_store_adt())
    return {
        "committed": len(commits),
        "throughput_before": rate(0.0, kill_at),
        "throughput_down": rate(kill_at, restart_at),
        "throughput_after": rate(restart_at, deadline),
        "linearizable": bool(check.ok),
    }


def harness_report(quick):
    """The harness entry: metrics + regression gates for ``recovery``."""
    lengths = [512, 2048] if quick else [512, 2048, 8192]
    rows = replay_costs(lengths, repeats=3 if quick else 5)
    length, full_s, compact_s, _ = rows[-1]
    dip = asyncio.run(_restart_dip())
    return {
        "name": "recovery",
        "metrics": {
            "log_length": length,
            "full_replay_s": full_s,
            "compacted_replay_s": compact_s,
            "compaction_speedup": full_s / compact_s if compact_s else 0.0,
            "recovered_equal": all(row[3] for row in rows),
            "torn_tail_tolerated": torn_tail_tolerated(),
            "restart_committed": dip["committed"],
            "restart_throughput_before": dip["throughput_before"],
            "restart_throughput_down": dip["throughput_down"],
            "restart_throughput_after": dip["throughput_after"],
            "restart_linearizable": dip["linearizable"],
        },
        "checks": [
            {"metric": "recovered_equal", "mode": "bool"},
            {"metric": "torn_tail_tolerated", "mode": "bool"},
            {"metric": "restart_linearizable", "mode": "bool"},
            {
                "metric": "compaction_speedup",
                "mode": "higher_better",
                "min": 1.5,
            },
        ],
    }


def main():
    print("E12: WAL replay cost vs log length (ms, wall-clock)")
    print(f"{'records':>9} {'full':>10} {'compacted':>10} {'speedup':>8}")
    for length, full_s, compact_s, equal in replay_costs(
        [512, 2048, 8192]
    ):
        assert equal, "snapshot+tail fold diverged from full replay"
        print(
            f"{length:>9} {full_s * 1000:>9.2f}m {compact_s * 1000:>9.2f}m "
            f"{full_s / compact_s:>7.1f}x"
        )
    print("  (snapshot + tail == full-history fold, asserted per row)")

    assert torn_tail_tolerated()
    print("\ntorn final record: truncated and tolerated, prefix intact")

    print("\nE12b: live 3-replica cluster, kill node1 @0.7s, restart @1.2s")
    dip = asyncio.run(_restart_dip())
    print(
        f"  throughput op/s: before={dip['throughput_before']:.0f} "
        f"down={dip['throughput_down']:.0f} "
        f"after={dip['throughput_after']:.0f} "
        f"(committed={dip['committed']}, "
        f"history={'linearizable' if dip['linearizable'] else 'VIOLATION'})"
    )
    assert dip["linearizable"]
    print(
        "\npaper: with a replica down every slot pays Backup's 3 delays"
        "\n(never the Quorum timer); the WAL restart restores"
        "\nunanimity and the fast path returns when the replica answers"
    )


if __name__ == "__main__":
    main()
