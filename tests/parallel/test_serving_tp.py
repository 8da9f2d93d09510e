"""Tensor-parallel execution under the continuous-batching engine."""

import numpy as np
import pytest

from repro.parallel import ShardedLlama
from repro.parallel.local import ShardedPagedStore
from repro.parallel.sharding import shard_model
from repro.parallel.mesh import DeviceMesh
from repro.serving import EngineConfig, InferenceEngine, poisson_trace, replay_trace
from repro.serving.bench import run_serve_bench
from repro.serving.paged import PagedKVStore

from tests.parallel.conftest import TINY, build_tiny


@pytest.fixture(scope="module")
def model():
    return build_tiny()


ENGINE_CONFIG = dict(max_batch=4, token_budget=32, n_blocks=32, block_tokens=8)


def small_trace(n=6):
    return poisson_trace(
        n,
        rate_rps=50.0,
        vocab_size=TINY.vocab_size,
        prompt_len=(4, 10),
        new_tokens=(2, 6),
        seed=0,
    )


class TestEngineIntegration:
    @pytest.mark.parametrize("world_size", [2, 4])
    def test_engine_tokens_identical_to_canonical(self, model, world_size):
        trace = small_trace()
        reference = InferenceEngine(model, EngineConfig(**ENGINE_CONFIG))
        expected = replay_trace(reference, trace)

        sharded = ShardedLlama(model, world_size)
        try:
            engine = InferenceEngine(sharded, EngineConfig(**ENGINE_CONFIG))
            got = replay_trace(engine, trace)
            for want, have in zip(expected, got):
                assert have.state is want.state
                np.testing.assert_array_equal(have.tokens, want.tokens)
            measured = sharded.comm_stats()
            projected = sharded.comm_projection()
            assert measured.payload_bytes == projected.payload_bytes
            assert measured.wire_bytes == projected.wire_bytes
            assert measured.calls == projected.calls
        finally:
            sharded.close()

    def test_engine_uses_sharded_pool(self, model):
        sharded = ShardedLlama(model, 2)
        try:
            engine = InferenceEngine(sharded, EngineConfig(**ENGINE_CONFIG))
            assert isinstance(engine.pool, ShardedPagedStore)
            assert len(engine.pool.pools) == 2
        finally:
            sharded.close()


class TestShardedPagedStore:
    def test_per_rank_pools_hold_covering_heads_only(self, model):
        shards = shard_model(model, DeviceMesh(2))
        pool = ShardedPagedStore(shards, n_blocks=16, block_tokens=8)
        full = PagedKVStore(TINY, n_blocks=16, block_tokens=8)
        # 2 kv heads over 2 ranks: one head each, so the sharded total
        # equals the canonical store's bytes (no GQA-cover overlap here).
        assert pool.bytes_allocated == full.bytes_allocated
        for rank_pool, shard in zip(pool.pools, shards):
            assert rank_pool.bytes_allocated == full.bytes_allocated // 2
            assert shard.n_kv_heads == 1

    def test_gqa_cover_replication_costs_memory(self, model):
        # At world size 4 each rank covers one kv head, so the 2 kv heads
        # are stored twice across the group.
        shards = shard_model(model, DeviceMesh(4))
        pool = ShardedPagedStore(shards, n_blocks=16, block_tokens=8)
        full = PagedKVStore(TINY, n_blocks=16, block_tokens=8)
        assert pool.bytes_allocated == 2 * full.bytes_allocated

    def test_reservations_stay_symmetric(self, model):
        shards = shard_model(model, DeviceMesh(2))
        pool = ShardedPagedStore(shards, n_blocks=4, block_tokens=8)
        cache = pool.acquire_sequence()
        cache.reserve(10)  # 2 blocks on every rank
        assert cache.seq_len == 0
        assert pool.used_blocks == 2
        for rank_pool in pool.pools:
            assert rank_pool.used_blocks == 2
        cache.free()
        assert pool.used_blocks == 0
        assert pool.available_blocks == 4


class TestServeBenchTP:
    def test_report_carries_exact_comm_verdict(self, model):
        report = run_serve_bench(
            model,
            ["dense"],
            small_trace(4),
            engine_config=EngineConfig(**ENGINE_CONFIG),
            tp=2,
            seed=0,
        )
        result = report.result_for("dense")
        assert result.tp == 2
        assert result.comm is not None
        assert result.comm["bytes_match"] is True
        assert "[exact]" in report.table()
        payload = report.to_dict()
        assert payload["tp"] == 2 and payload["seed"] == 0
        assert payload["results"][0]["comm"]["bytes_match"] is True

    def test_tp_one_has_no_comm_section(self, model):
        report = run_serve_bench(
            model,
            ["dense"],
            small_trace(3),
            engine_config=EngineConfig(**ENGINE_CONFIG),
            tp=1,
        )
        result = report.result_for("dense")
        assert result.comm is None
        assert result.comm_line() is None

    def test_tp_must_be_positive(self, model):
        from repro.errors import ServingError

        with pytest.raises(ServingError):
            run_serve_bench(model, ["dense"], small_trace(2), tp=0)


class TestServeBench2D:
    def test_grid_engine_tokens_identical_to_canonical(self, model):
        trace = small_trace()
        reference = InferenceEngine(model, EngineConfig(**ENGINE_CONFIG))
        expected = replay_trace(reference, trace)
        sharded = ShardedLlama(model, 2, pp=2)
        try:
            engine = InferenceEngine(sharded, EngineConfig(**ENGINE_CONFIG))
            got = replay_trace(engine, trace)
            for want, have in zip(expected, got):
                assert have.state is want.state
                np.testing.assert_array_equal(have.tokens, want.tokens)
        finally:
            sharded.close()

    def test_report_carries_both_channel_verdicts(self, model):
        report = run_serve_bench(
            model,
            ["dense"],
            small_trace(4),
            engine_config=EngineConfig(**ENGINE_CONFIG),
            tp=2,
            pp=2,
            seed=0,
        )
        result = report.result_for("dense")
        assert result.tp == 2 and result.pp == 2
        assert result.comm["bytes_match"] is True
        channels = result.comm["channels"]
        assert set(channels) == {"all_gather", "p2p"}
        for name, cell in channels.items():
            assert cell["bytes_match"] is True, name
            assert cell["measured"]["calls"] > 0, name
        line = result.comm_line()
        assert "all_gather" in line and "p2p" in line
        assert "[MISMATCH]" not in line
        assert "pp=2" in report.table()

    def test_pipeline_only_grid_stays_exact(self, model):
        """tp=1, pp=2: size-1 gathers record calls but move zero wire
        bytes, and the live p2p channel matches its projection exactly."""
        report = run_serve_bench(
            model,
            ["dense"],
            small_trace(3),
            engine_config=EngineConfig(**ENGINE_CONFIG),
            tp=1,
            pp=2,
        )
        result = report.result_for("dense")
        channels = result.comm["channels"]
        assert channels["p2p"]["bytes_match"] is True
        assert channels["p2p"]["measured"]["wire_bytes"] > 0
        assert channels["all_gather"]["bytes_match"] is True
        assert channels["all_gather"]["measured"]["wire_bytes"] == 0
        assert "p2p" in result.comm_line()

    def test_pp_must_be_positive(self, model):
        from repro.errors import ServingError

        with pytest.raises(ServingError):
            run_serve_bench(model, ["dense"], small_trace(2), pp=0)
