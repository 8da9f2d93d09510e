"""Measured collective traffic must equal the analytic projection exactly."""

import numpy as np
import pytest

from repro.hwmodel.device import get_gpu
from repro.parallel import ShardedLlama, analytic_comm, analytic_p2p, gathered_width

from tests.parallel.conftest import TINY, build_tiny, prompt_batch, ragged_steps


class TestAnalyticFormulas:
    def test_gathered_width(self):
        # 2 layers * (3*32 + 40) + 97
        assert gathered_width(TINY) == 2 * (3 * 32 + 40) + 97

    def test_projection_arithmetic(self):
        proj = analytic_comm(TINY, padded_tokens=10, world_size=4, forward_calls=3)
        assert proj.calls == 3 * (4 * TINY.n_layers + 1)
        assert proj.payload_bytes == 4 * 10 * gathered_width(TINY)
        assert proj.wire_bytes == 3 * proj.payload_bytes
        assert proj.to_dict()["wire_bytes"] == proj.wire_bytes

    def test_p2p_projection_arithmetic(self):
        """One send per TP rank per stage boundary per forward."""
        proj = analytic_p2p(TINY, padded_tokens=10, pp=3, tp=2, forward_calls=4)
        assert proj.calls == 4 * (3 - 1) * 2
        assert proj.payload_bytes == 4 * 10 * TINY.dim * (3 - 1) * 2
        assert proj.wire_bytes == proj.payload_bytes

    def test_single_rank_latency_is_zero(self):
        proj = analytic_comm(TINY, padded_tokens=10, world_size=1)
        assert proj.wire_bytes == 0
        assert proj.latency_s(get_gpu("a100-80gb")) == 0.0

    def test_latency_scales_with_wire_bytes(self):
        gpu = get_gpu("a100-80gb")
        small = analytic_comm(TINY, padded_tokens=10, world_size=2)
        large = analytic_comm(TINY, padded_tokens=1000, world_size=2)
        assert large.latency_s(gpu) > small.latency_s(gpu) > 0.0


class TestMeasuredAgreesExactly:
    @pytest.fixture(scope="class")
    def model(self):
        return build_tiny()

    @pytest.mark.parametrize("world_size", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 9), (3, 4)])
    def test_plain_forward_bytes(self, model, world_size, shape):
        sharded = ShardedLlama(model, world_size)
        try:
            sharded.forward(prompt_batch(*shape))
            measured = sharded.comm_stats()
            projected = sharded.comm_projection()
        finally:
            sharded.close()
        assert measured.calls == projected.calls
        assert measured.payload_bytes == projected.payload_bytes
        assert measured.wire_bytes == projected.wire_bytes
        assert projected.payload_bytes == 4 * shape[0] * shape[1] * gathered_width(TINY)

    @pytest.mark.parametrize("world_size", [2, 4])
    def test_ragged_steps_accumulate_exactly(self, model, world_size):
        """Padded ragged batches count padded slots: the executor gathers
        rectangular tensors, and the ledger must reflect that."""
        sharded = ShardedLlama(model, world_size)
        try:
            caches = [sharded.make_cache() for _ in range(2)]
            padded = 0
            for tokens, lengths in ragged_steps():
                sharded.forward_ragged(tokens, caches, lengths)
                padded += tokens.shape[0] * tokens.shape[1]
            measured = sharded.comm_stats()
            projected = sharded.comm_projection()
        finally:
            sharded.close()
        assert sharded.padded_tokens == padded
        assert sharded.forward_calls == len(ragged_steps())
        assert measured.snapshot()["payload_bytes"] == projected.payload_bytes
        assert measured.wire_bytes == projected.wire_bytes
        assert measured.calls == projected.calls

    def test_decomposition_does_not_change_traffic(self):
        """Factorized projections change the GEMMs, not the gathered
        activations: dense and decomposed variants move identical bytes."""
        from repro.decomposition import DecompositionConfig

        dense = build_tiny()
        decomposed = build_tiny(
            decomposition=DecompositionConfig.all_tensors(TINY, layers=(0, 1), rank=2)
        )
        tokens = prompt_batch(2, 6)
        ledgers = []
        for model in (dense, decomposed):
            sharded = ShardedLlama(model, 2)
            try:
                sharded.forward(tokens)
                snapshot = sharded.comm_stats().snapshot()
            finally:
                sharded.close()
            snapshot.pop("elapsed_s")
            for channel in snapshot["channels"].values():
                channel.pop("elapsed_s")
            ledgers.append(snapshot)
        assert ledgers[0] == ledgers[1]
