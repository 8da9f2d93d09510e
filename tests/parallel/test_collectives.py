"""Collective semantics: rank-ordered all-gather, stats ledger, aborts."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel.collectives import CommStats, LocalGroup, gather_wire_bytes


def run_ranks(group, fn):
    """Run ``fn(rank)`` on one thread per rank; return results in rank order
    or raise the first failure."""
    results = [None] * group.world_size
    errors = []

    def target(rank):
        try:
            results[rank] = fn(rank)
        except BaseException as exc:  # noqa: BLE001 - collected for assertion
            errors.append(exc)
            group.abort()

    threads = [
        threading.Thread(target=target, args=(rank,))
        for rank in range(group.world_size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class SlowReaderBarrier:
    """A group barrier after which one marked rank thread sleeps.

    The marked rank reads every gather's contributions late, while its
    peers have already left the barrier and run ahead into the next call.
    """

    def __init__(self, barrier, delay_s: float) -> None:
        self.barrier = barrier
        self.delay_s = delay_s
        self.local = threading.local()

    def mark_slow(self) -> None:
        self.local.slow = True

    def wait(self):
        index = self.barrier.wait()
        if getattr(self.local, "slow", False):
            time.sleep(self.delay_s)
        return index

    def abort(self) -> None:
        self.barrier.abort()

    def reset(self) -> None:
        self.barrier.reset()


class TestHelpers:
    def test_wire_byte_identities(self):
        assert gather_wire_bytes(1000, 4) == 3000
        assert gather_wire_bytes(1000, 1) == 0

    def test_stats_record_and_snapshot(self):
        stats = CommStats()
        stats.record(100, 300, 0.5)
        stats.record(50, 150)
        assert stats.calls == 2
        assert stats.payload_bytes == 150
        assert stats.wire_bytes == 450
        snap = stats.snapshot()
        assert snap == {
            "calls": 2,
            "payload_bytes": 150,
            "wire_bytes": 450,
            "elapsed_s": 0.5,
            "channels": {
                "all_gather": {
                    "calls": 2,
                    "payload_bytes": 150,
                    "wire_bytes": 450,
                    "elapsed_s": 0.5,
                },
            },
        }
        # snapshot round-trips through the constructor
        assert CommStats(**snap).snapshot() == snap

    def test_stats_channels_split_by_primitive(self):
        stats = CommStats()
        stats.record(100, 300, channel="all_gather")
        stats.record(40, 40, channel="p2p")
        stats.record(40, 40, channel="p2p")
        # Totals sum over channels; each channel keeps its own ledger.
        assert stats.calls == 3
        assert stats.payload_bytes == 180
        assert stats.channel("all_gather")["wire_bytes"] == 300
        assert stats.channel("p2p") == {
            "calls": 2, "payload_bytes": 80, "wire_bytes": 80, "elapsed_s": 0.0,
        }
        # Never-fired channels read as zeros, not KeyError.
        assert CommStats().channel("p2p")["calls"] == 0
        snap = stats.snapshot()
        assert CommStats(**snap).snapshot() == snap

    def test_stats_loads_legacy_snapshot_without_channels(self):
        # Snapshots written before the per-channel breakdown lack the
        # "channels" key; they must still construct (empty breakdown).
        legacy = {"calls": 2, "payload_bytes": 150, "wire_bytes": 450,
                  "elapsed_s": 0.5}
        stats = CommStats(**legacy)
        assert stats.calls == 2
        assert stats.channels == {}
        assert stats.channel("all_gather")["calls"] == 0


class TestLocalGroup:
    def test_world_size_must_be_positive(self):
        with pytest.raises(ParallelError):
            LocalGroup(0)

    def test_all_gather_concatenates_in_rank_order(self):
        group = LocalGroup(3)
        # Uneven chunks: 1, 2, and 3 columns.
        chunks = [np.full((2, width), rank, dtype=np.float32)
                  for rank, width in enumerate((1, 2, 3))]
        results = run_ranks(group, lambda rank: group.all_gather(rank, chunks[rank]))
        expected = np.concatenate(chunks, axis=-1)
        for result in results:
            np.testing.assert_array_equal(result, expected)
        assert group.stats.calls == 1
        assert group.stats.payload_bytes == expected.nbytes
        assert group.stats.wire_bytes == 2 * expected.nbytes

    def test_world_size_one_fast_paths(self):
        group = LocalGroup(1)
        array = np.ones((3, 4), dtype=np.float32)
        assert group.all_gather(0, array) is array
        assert group.stats.calls == 1
        assert group.stats.wire_bytes == 0  # nothing crosses a link

    def test_abort_releases_blocked_peers(self):
        group = LocalGroup(2)

        def worker(rank):
            if rank == 1:
                raise RuntimeError("rank 1 exploded")
            return group.all_gather(rank, np.ones(2, dtype=np.float32))

        # Rank 0 blocks in the collective until rank 1's failure aborts the
        # barrier; run_ranks re-raises the causal error, not a hang.
        with pytest.raises(RuntimeError, match="exploded"):
            run_ranks(group, worker)

    def test_reset_makes_group_usable_after_abort(self):
        group = LocalGroup(2)
        group.abort()
        group.reset()
        chunks = [np.full(2, rank, dtype=np.float32) for rank in range(2)]
        results = run_ranks(group, lambda rank: group.all_gather(rank, chunks[rank]))
        np.testing.assert_array_equal(results[0], np.array([0, 0, 1, 1], dtype=np.float32))

    @pytest.mark.parametrize("slow_rank", [0, 1, 2])
    def test_back_to_back_gathers_with_a_slow_rank(self, slow_rank):
        """The lifetime rule, exercised at its limit.

        One rank reads each gather late.  Its peers rewrite the buffer
        they contributed to call ``n`` as soon as the rule allows — once
        they return from call ``n + 1`` — and every rank keeps all its
        results, so each must still equal the canonical concatenation.
        """
        group = LocalGroup(3)
        barrier = SlowReaderBarrier(group._barrier, delay_s=0.02)
        group._barrier = barrier
        calls = 4
        widths = (1, 2, 3)

        def contribution(rank, call):
            return np.full((2, widths[rank]), 10 * call + rank, dtype=np.float32)

        def worker(rank):
            if rank == slow_rank:
                barrier.mark_slow()
            # Two buffers per rank, alternating by call, like the fast
            # path's workspace names: call n's buffer is refilled for
            # call n + 2, right after call n + 1 returns.
            buffers = [np.empty((2, widths[rank]), dtype=np.float32) for _ in range(2)]
            results = []
            for call in range(calls):
                buffer = buffers[call % 2]
                buffer[...] = contribution(rank, call)
                results.append(group.all_gather(rank, buffer))
            return results

        per_rank = run_ranks(group, worker)
        for call in range(calls):
            expected = np.concatenate(
                [contribution(rank, call) for rank in range(3)], axis=-1
            )
            for rank, results in enumerate(per_rank):
                np.testing.assert_array_equal(
                    results[call], expected, err_msg=f"rank {rank}, call {call}"
                )
        assert group.stats.calls == calls
