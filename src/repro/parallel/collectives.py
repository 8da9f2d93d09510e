"""Collective communication between the thread ranks of one process.

:class:`LocalGroup` runs ranks as threads of one process, synchronized by
a :class:`threading.Barrier`, over one shared heap.  Its ``all_gather``
combines contributions in a *fixed order* — rank 0 first, rank P-1 last,
regardless of arrival order — so results are bit-identical across world
sizes.

Pipeline parallelism adds point-to-point ``send`` / ``recv`` (activations
forward only — inference has no backward pass).  P2P transfers land in the
same ledger under their own channel: one hop moves the payload across one
link, so ``wire_bytes == payload_bytes`` per send.

Every collective also updates a :class:`CommStats` ledger.  ``wire_bytes``
counts bytes that would cross GPU interconnect links: for an all-gather of
a ``payload`` result, every rank must receive all chunks it does not own,
totalling ``(P-1) * payload`` across the group — an identity that holds
regardless of how unevenly the chunks split, which is what lets the
measured ledger agree *exactly* with the analytic projection.  The ledger
also keeps a per-channel breakdown (``all_gather`` / ``p2p``) whose totals
always sum to the top-level counters.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CollectiveAborted, ParallelError

COMM_CHANNELS = ("all_gather", "p2p")


@dataclass
class CommStats:
    """Ledger of collective traffic, in the units the hardware model uses.

    ``channels`` breaks the same totals down by primitive; old snapshots
    without the key load as an empty breakdown (backward compatible), and
    ``CommStats(**snapshot)`` round-trips either shape.
    """

    calls: int = 0
    payload_bytes: int = 0  # full (post-collective) tensor bytes
    wire_bytes: int = 0     # bytes crossing interconnect links
    elapsed_s: float = 0.0  # wall time rank 0 spent inside collectives
    channels: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Plain attribute (not a field) so CommStats(**snapshot) keeps
        # working; guards concurrent p2p sends from multiple rank threads.
        self._lock = threading.Lock()

    def record(
        self, payload: int, wire: int, elapsed: float = 0.0,
        channel: str = "all_gather",
    ) -> None:
        with self._lock:
            self.calls += 1
            self.payload_bytes += payload
            self.wire_bytes += wire
            self.elapsed_s += elapsed
            entry = self.channels.setdefault(
                channel,
                {"calls": 0, "payload_bytes": 0, "wire_bytes": 0, "elapsed_s": 0.0},
            )
            entry["calls"] += 1
            entry["payload_bytes"] += payload
            entry["wire_bytes"] += wire
            entry["elapsed_s"] += elapsed

    def channel(self, name: str) -> Dict[str, float]:
        """One channel's counters (zeros if the channel never fired)."""
        return dict(
            self.channels.get(
                name,
                {"calls": 0, "payload_bytes": 0, "wire_bytes": 0, "elapsed_s": 0.0},
            )
        )

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "elapsed_s": self.elapsed_s,
            "channels": {name: dict(entry) for name, entry in self.channels.items()},
        }


def gather_wire_bytes(payload_bytes: int, world_size: int) -> int:
    """Interconnect bytes for one all-gather with a ``payload_bytes``
    result: each of the P ranks receives everything but its own chunk."""
    return (world_size - 1) * payload_bytes


_P2P_ABORT = object()  # sentinel flooding queues so blocked recvs unblock


class LocalGroup:
    """In-process collective group: one thread per rank, shared memory.

    The all-gather waits on one barrier: every rank deposits its
    contribution in the slot row of its call parity, waits, then
    concatenates all contributions in fixed rank order into an array of
    its own.  Two slot rows, alternating by each rank's call count, are
    enough: a rank can write the row of call ``n + 2`` only after every
    peer has reached the barrier of call ``n + 1``, so after reading call
    ``n``'s contributions.  Lifetime rule:

    - a contribution to call ``n`` must stay untouched until its rank
      returns from its next all-gather (call ``n + 1``), because a slower
      peer may still be reading it until then;
    - the returned array belongs to the caller and no other rank reads
      it (with one rank it *is* the contribution).

    ``stats`` lets several groups (per-stage TP groups plus the pipeline's
    P2P lanes) share one ledger, so a run's total traffic is a single
    snapshot regardless of how the grid was carved into groups.
    """

    def __init__(self, world_size: int, stats: Optional[CommStats] = None) -> None:
        if world_size <= 0:
            raise ParallelError(f"world_size must be positive, got {world_size}")
        self.world_size = int(world_size)
        self.stats = stats if stats is not None else CommStats()
        self._slots = self._empty_slots()
        self._calls = [0] * self.world_size  # per-rank all-gather count
        if self.world_size > 1:
            self._barrier = threading.Barrier(self.world_size)
        # Point-to-point lanes, created lazily per (src, dst) pair.
        self._lanes: Dict[Tuple[int, int], queue.Queue] = {}
        self._lanes_lock = threading.Lock()
        self._p2p_aborted = False

    # -- lifecycle ---------------------------------------------------------
    def abort(self) -> None:
        """Break peers out of a pending barrier after a rank failed."""
        if self.world_size > 1:
            self._barrier.abort()
        with self._lanes_lock:
            self._p2p_aborted = True
            for lane in self._lanes.values():
                lane.put(_P2P_ABORT)

    def reset(self) -> None:
        """Make the group usable again after :meth:`abort`."""
        if self.world_size > 1:
            self._barrier.reset()
        self._slots = self._empty_slots()
        self._calls = [0] * self.world_size
        with self._lanes_lock:
            self._p2p_aborted = False
            self._lanes.clear()

    def _empty_slots(self) -> List[List[Optional[np.ndarray]]]:
        return [[None] * self.world_size for _ in range(2)]

    def _wait(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise CollectiveAborted("collective aborted: a peer rank failed") from exc

    def _lane(self, src: int, dst: int) -> queue.Queue:
        for rank, label in ((src, "src"), (dst, "dst")):
            if not 0 <= rank < self.world_size:
                raise ParallelError(
                    f"p2p {label} rank {rank} out of range [0, {self.world_size})"
                )
        if src == dst:
            raise ParallelError(f"p2p send to self (rank {src})")
        with self._lanes_lock:
            lane = self._lanes.get((src, dst))
            if lane is None:
                lane = self._lanes[(src, dst)] = queue.Queue()
                if self._p2p_aborted:
                    lane.put(_P2P_ABORT)
            return lane

    # -- point-to-point ----------------------------------------------------
    def send(self, rank: int, dst: int, array: np.ndarray) -> None:
        """Ship ``array`` to rank ``dst`` (one hop: wire == payload).

        The receiver gets the same object — senders must not mutate the
        array after sending (copy workspace-backed buffers first).
        """
        started = time.perf_counter()
        lane = self._lane(rank, dst)
        lane.put(array)
        self.stats.record(
            array.nbytes, array.nbytes,
            time.perf_counter() - started, channel="p2p",
        )

    def recv(self, rank: int, src: int) -> np.ndarray:
        """Block until rank ``src``'s next send to this rank arrives."""
        lane = self._lane(src, rank)
        item = lane.get()
        if item is _P2P_ABORT:
            lane.put(_P2P_ABORT)  # keep later recvs unblocked too
            raise CollectiveAborted("p2p recv aborted: a peer rank failed")
        return item

    # -- collectives -------------------------------------------------------
    def all_gather(self, rank: int, array: np.ndarray, axis: int = -1) -> np.ndarray:
        """Concatenate per-rank arrays along ``axis``, rank 0 first."""
        if self.world_size == 1:
            self.stats.record(array.nbytes, 0)
            return array
        started = time.perf_counter()
        slots = self._slots[self._calls[rank] & 1]
        self._calls[rank] += 1
        slots[rank] = array
        self._wait()
        result = np.concatenate(slots, axis=axis)
        if rank == 0:
            self.stats.record(
                result.nbytes,
                gather_wire_bytes(result.nbytes, self.world_size),
                time.perf_counter() - started,
            )
        return result
