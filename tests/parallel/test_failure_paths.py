"""A rank that fails mid-forward: the grid reports it, fast, and recovers.

One rank's all-gather raises partway through a forward while its tensor
peers wait in the group barrier and later stages wait on a P2P recv.  The
facade must abort every group so those waits end, re-raise the rank's own
exception (not the secondary ``CollectiveAborted`` its peers see), and
reset the groups so the next forward is bit-identical to the canonical
model.  The rank's fault may itself be a ``ParallelError`` that says
"aborted": the facade tells it from its peers' by type, not by message.
"""

import threading

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel import ShardedLlama

from tests.parallel.conftest import (
    assert_valid_rows_equal,
    prompt_batch,
    ragged_steps,
    run_canonical_ragged,
)

GRID = [(1, 2), (2, 1), (2, 2)]  # (pp, tp)
TIMEOUT_S = 30.0
FAIL_ON_CALL = 3  # the failing rank's third all-gather: inside layer 0


class InjectedFault(RuntimeError):
    pass


def inject_fault(sharded: ShardedLlama, flat_rank: int, make_fault) -> list:
    """Make ``flat_rank`` raise ``make_fault(flat_rank)`` on its
    ``FAIL_ON_CALL``-th all-gather; returns the list it is recorded in."""
    group = sharded.stage_groups[flat_rank // sharded.tp]
    tp_rank = flat_rank % sharded.tp
    real = group.all_gather
    calls = [0]
    raised = []

    def all_gather(rank, array, axis=-1):
        if rank == tp_rank:
            calls[0] += 1
            if calls[0] == FAIL_ON_CALL:
                raised.append(make_fault(flat_rank))
                raise raised[-1]
        return real(rank, array, axis=axis)

    group.all_gather = all_gather
    return raised


def heal(sharded: ShardedLlama) -> None:
    for group in sharded.stage_groups:
        group.__dict__.pop("all_gather", None)


def call_with_deadline(fn):
    """Run ``fn`` on a helper thread; return what it raised (or None),
    failing the test if it has not returned within ``TIMEOUT_S``."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - inspected below
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"forward still blocked after {TIMEOUT_S} s"
    return raised[0] if raised else None


def ragged_caches(sharded: ShardedLlama):
    return [sharded.make_cache() for _ in range(2)]


def run_ragged(sharded: ShardedLlama, caches):
    return [
        sharded.forward_ragged(tokens, caches, lengths).data
        for tokens, lengths in ragged_steps()
    ]


@pytest.mark.parametrize("failing", ["first", "last"])
@pytest.mark.parametrize("pp,tp", GRID, ids=[f"pp{p}tp{t}" for p, t in GRID])
class TestRankFailure:
    @staticmethod
    def make_fault(rank: int) -> BaseException:
        return InjectedFault(f"rank {rank} failed")

    def test_plain_forward(self, variant_models, pp, tp, failing):
        model = variant_models["dense"]
        tokens = prompt_batch(3, 7)
        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            rank = 0 if failing == "first" else sharded.world_size - 1
            raised = inject_fault(sharded, rank, self.make_fault)
            exc = call_with_deadline(lambda: sharded.forward(tokens))
            assert raised and exc is raised[0], exc
            heal(sharded)
            got = sharded.forward(tokens).data
        finally:
            sharded.close()
        np.testing.assert_array_equal(got, model.forward(tokens).data)

    def test_ragged_forward(self, variant_models, pp, tp, failing):
        model = variant_models["dense"]
        references = run_canonical_ragged(model)
        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            rank = 0 if failing == "first" else sharded.world_size - 1
            raised = inject_fault(sharded, rank, self.make_fault)
            exc = call_with_deadline(
                lambda: run_ragged(sharded, ragged_caches(sharded))
            )
            assert raised and exc is raised[0], exc
            heal(sharded)
            got = run_ragged(sharded, ragged_caches(sharded))
        finally:
            sharded.close()
        for (_, lengths), g, e in zip(ragged_steps(), got, references):
            assert_valid_rows_equal(g, e, lengths)


class TestAbortedParallelError(TestRankFailure):
    """The failing rank raises a ``ParallelError`` whose message says
    "aborted", as its peers' secondary errors do."""

    @staticmethod
    def make_fault(rank: int) -> BaseException:
        return ParallelError(f"rank {rank}: shard weights aborted mid-load")


def test_injected_fault_fires_mid_forward(variant_models):
    """The fault lands after the failing rank's first collectives, so the
    tests above exercise a partial forward, not a rank that never started."""
    model = variant_models["dense"]
    sharded = ShardedLlama(model, 2)
    try:
        group = sharded.stage_groups[0]
        real = group.all_gather
        seen = []

        def all_gather(rank, array, axis=-1):
            if rank == 0:
                seen.append(array.shape)
            return real(rank, array, axis=axis)

        group.all_gather = all_gather
        sharded.forward(prompt_batch(3, 7))
    finally:
        sharded.close()
    assert len(seen) > FAIL_ON_CALL
