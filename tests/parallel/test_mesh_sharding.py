"""Mesh arithmetic and weight-shard reconstruction."""

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.nn import FactorizedLinear
from repro.nn.linear import block_edges
from repro.parallel import DeviceMesh, shard_model, validate_mesh
from repro.parallel.mesh import Span

from tests.parallel.conftest import TINY, build_tiny


class TestDeviceMesh:
    def test_world_size_must_be_positive(self):
        with pytest.raises(ParallelError):
            DeviceMesh(0)

    def test_block_spans_cover_contiguously(self):
        spans = DeviceMesh(3).block_spans(7)
        assert spans[0][0] == 0 and spans[-1][1] == 7
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1  # loads differ by at most one

    def test_block_spans_match_block_edges_split(self):
        assert DeviceMesh(4).block_spans(4) == block_edges(4, 4)

    def test_too_few_blocks_rejected(self):
        with pytest.raises(ParallelError):
            DeviceMesh(5).block_spans(4)

    def test_head_span_indexes_rank(self):
        mesh = DeviceMesh(2)
        assert mesh.head_span(4, 0) == (0, 2)
        assert mesh.head_span(4, 1) == (2, 4)

    @pytest.mark.parametrize(
        "q_span,group,expected",
        [
            ((0, 2), 2, (0, 1)),   # aligned: exactly one kv head
            ((1, 3), 2, (0, 2)),   # straddles a group boundary: covers two
            ((0, 4), 1, (0, 4)),   # MHA: identity
            ((3, 4), 2, (1, 2)),
        ],
    )
    def test_kv_cover(self, q_span: Span, group: int, expected: Span):
        assert DeviceMesh.kv_cover(q_span, group) == expected

    def test_validate_mesh_accepts_tiny_at_4(self):
        validate_mesh(TINY, DeviceMesh(4))

    def test_validate_mesh_rejects_oversharding(self):
        with pytest.raises(ParallelError, match="tp"):
            validate_mesh(TINY, DeviceMesh(TINY.n_heads + 1))


class TestShardModel:
    @pytest.fixture(scope="class")
    def model(self):
        return build_tiny()

    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_chunks_reassemble_dense_weights(self, model, world_size):
        shards = shard_model(model, DeviceMesh(world_size))
        block = model.blocks[0]
        for role, module in (("w_so", block.attn.w_so), ("w_d", block.mlp.w_d)):
            rebuilt = np.concatenate(
                [getattr(shard.layers[0], role).weight for shard in shards], axis=1
            )
            np.testing.assert_array_equal(rebuilt, module.weight.data)

    def test_q_heads_partition_and_kv_heads_cover(self, model):
        shards = shard_model(model, DeviceMesh(4))
        assert [shard.q_span for shard in shards] == [(0, 1), (1, 2), (2, 3), (3, 4)]
        # 4 q heads over 2 kv heads: adjacent ranks replicate their kv head.
        assert [shard.kv_span for shard in shards] == [(0, 1), (0, 1), (1, 2), (1, 2)]
        assert sum(shard.n_kv_heads for shard in shards) == 4  # 2x replication
        np.testing.assert_array_equal(
            shards[0].layers[0].w_k.weight, shards[1].layers[0].w_k.weight
        )

    def test_vocab_edges_stay_global(self, model):
        shards = shard_model(model, DeviceMesh(2))
        # vocab 97 over a 4-block grid splits unevenly (25/24/24/24); rank
        # edges must be the canonical global block boundaries, and the
        # per-rank [lo, hi) ranges must tile the vocabulary.
        assert shards[0].vocab_lo == 0 and shards[-1].vocab_hi == TINY.vocab_size
        for shard in shards:
            assert shard.vocab_edges[0][0] == shard.vocab_lo
            assert shard.vocab_edges[-1][1] == shard.vocab_hi
        assert shards[0].vocab_hi == shards[1].vocab_lo

    def test_factorized_projection_replicates_prefix(self):
        from repro.decomposition import DecompositionConfig

        model = build_tiny(
            decomposition=DecompositionConfig.uniform(
                layers=(0,), roles=("w_q",), rank=4
            )
        )
        module = model.blocks[0].attn.w_q
        assert isinstance(module, FactorizedLinear)
        shards = shard_model(model, DeviceMesh(2))
        widths = 0
        for shard in shards:
            proj = shard.layers[0].w_q
            assert proj.factorized
            np.testing.assert_array_equal(proj.u1, module.u1.data)
            np.testing.assert_array_equal(proj.core, module.core.data)
            widths += proj.out_width
        assert widths == module.u2.data.shape[1]  # only U2 columns shard

    def test_tied_head_keeps_full_embedding(self):
        model = build_tiny(tie_lm_head=True)
        assert model.lm_head is None
        for shard in shard_model(model, DeviceMesh(2)):
            assert shard.lm_head is None
            assert shard.embed.shape == (TINY.vocab_size, TINY.dim)

    def test_sharding_leaves_model_untouched(self, model):
        before = model.blocks[0].attn.w_q.weight.data.copy()
        shards = shard_model(model, DeviceMesh(2))
        shards[0].layers[0].w_q.weight[:] = -1.0
        np.testing.assert_array_equal(model.blocks[0].attn.w_q.weight.data, before)
