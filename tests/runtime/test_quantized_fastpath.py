"""Bit-for-bit identity of the int8 fast-path kernels.

The fast path in :mod:`repro.runtime.fastpath` dequantizes int8 grids
once, when its state is built, and must land on exactly the bytes the
Tensor-graph driver produces from the same simulated-quant weights: every
comparison here is ``np.testing.assert_array_equal`` — never
``allclose`` — across weight structures (dense / rank-1 / rank-8 chains),
cache regimes (stateless / shared KV cache / ragged), and (tp, pp) mesh
shapes.
"""

import numpy as np
import pytest

from repro.compression import (
    quantize_model_real,
    restore_real_quantized,
)
from repro.decomposition import DecompositionConfig, decompose_model
from repro.models import build_model
from repro.models.config import ModelConfig
from repro.nn import ModelKVCache
from repro.runtime import fastpath
from repro.runtime.benchmark import run_decode_bench

TINY = ModelConfig(
    name="tiny-quant-fast",
    family="llama",
    vocab_size=97,
    dim=32,
    n_layers=2,
    n_heads=4,
    mlp_hidden=40,
    max_seq_len=64,
    n_kv_heads=2,
)

STRUCTURES = ("dense", "rank1", "rank8")
MESHES = ((1, 1), (2, 1), (1, 2), (2, 2))  # (tp, pp)


def build_quantized(structure: str, bits: int = 8):
    model = build_model(TINY, rng=np.random.default_rng(0))
    model.eval()
    if structure != "dense":
        rank = int(structure.removeprefix("rank"))
        decompose_model(
            model,
            DecompositionConfig.all_tensors(TINY, range(TINY.n_layers), rank=rank),
        )
    quantize_model_real(model, bits)
    return model


def make_runner(model, tp: int, pp: int):
    if tp == 1 and pp == 1:
        return model, None
    from repro.parallel import ShardedLlama

    sharded = ShardedLlama(model, tp, pp=pp)
    return sharded, sharded


def tokens_for(config, batch, seq_len, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=(batch, seq_len), dtype=np.int64)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("tp,pp", MESHES)
class TestQuantizedIdentity:
    def test_stateless_forward_bit_equal(self, structure, tp, pp):
        model = build_quantized(structure)
        runner, sharded = make_runner(model, tp, pp)
        try:
            tokens = tokens_for(model.config, 2, 9)
            with fastpath.disabled():
                reference = runner.forward(tokens).data
            fast = runner.forward(tokens).data
            np.testing.assert_array_equal(reference, fast)
        finally:
            if sharded is not None:
                sharded.close()

    def test_cached_prefill_and_decode_bit_equal(self, structure, tp, pp):
        model = build_quantized(structure)
        runner, sharded = make_runner(model, tp, pp)
        try:
            tokens = tokens_for(model.config, 1, 8)
            with fastpath.disabled():
                ref_cache = runner.make_cache()
                ref_prefill = runner.forward_cached(tokens[:, :6], ref_cache).data
                ref_steps = [
                    runner.forward_cached(tokens[:, i : i + 1], ref_cache).data
                    for i in range(6, 8)
                ]
            cache = runner.make_cache()
            np.testing.assert_array_equal(
                ref_prefill, runner.forward_cached(tokens[:, :6], cache).data
            )
            for i, reference in zip(range(6, 8), ref_steps):
                fast = runner.forward_cached(tokens[:, i : i + 1], cache).data
                np.testing.assert_array_equal(reference, fast)
        finally:
            if sharded is not None:
                sharded.close()

    def test_ragged_bit_equal(self, structure, tp, pp):
        model = build_quantized(structure)
        if tp == 1 and pp == 1:
            forward_ragged = model.runtime.forward_ragged

            def make_row_cache():
                return ModelKVCache(model.config.n_layers)

            sharded = None
        else:
            from repro.parallel import ShardedLlama

            sharded = ShardedLlama(model, tp, pp=pp)
            forward_ragged = sharded.forward_ragged
            make_row_cache = sharded.make_cache
        try:
            step = tokens_for(model.config, 2, 3)
            lengths = np.array([3, 2])
            with fastpath.disabled():
                reference = forward_ragged(
                    step, [make_row_cache() for _ in range(2)], lengths
                ).data
            fast = forward_ragged(
                step, [make_row_cache() for _ in range(2)], lengths
            ).data
            for row, valid in enumerate(lengths):
                np.testing.assert_array_equal(
                    reference[row, :valid], fast[row, :valid]
                )
        finally:
            if sharded is not None:
                sharded.close()


class TestInt4Identity:
    @pytest.mark.parametrize("structure", ("dense", "rank8"))
    def test_int4_cached_decode_bit_equal(self, structure):
        model = build_quantized(structure, bits=4)
        tokens = tokens_for(model.config, 1, 7)
        with fastpath.disabled():
            ref_cache = model.make_cache()
            reference = [model.forward_cached(tokens[:, :5], ref_cache).data]
            reference += [
                model.forward_cached(tokens[:, i : i + 1], ref_cache).data
                for i in range(5, 7)
            ]
        cache = model.make_cache()
        fast = [model.forward_cached(tokens[:, :5], cache).data]
        fast += [
            model.forward_cached(tokens[:, i : i + 1], cache).data
            for i in range(5, 7)
        ]
        for ref, got in zip(reference, fast):
            np.testing.assert_array_equal(ref, got)


class TestQuantizedSelection:
    def test_real_quantization_swaps_to_grid_projections(self):
        model = build_quantized("dense")
        state = fastpath.active_state(model.runtime.context)
        assert state is not None
        for block, layer in zip(model.blocks, state.layers):
            module, proj = block.attn.w_q, layer.proj["w_q"]
            assert proj.weight.dtype == np.float32 and proj.u1 is None
            np.testing.assert_array_equal(proj.weight, module.dequantize())

    def test_quantized_chain_keeps_prefix_grids(self):
        model = build_quantized("rank8")
        state = fastpath.active_state(model.runtime.context)
        module, proj = model.blocks[0].attn.w_q, state.layers[0].proj["w_q"]
        np.testing.assert_array_equal(proj.u1, module.dequantize_u1())
        np.testing.assert_array_equal(proj.core, module.dequantize_core())
        np.testing.assert_array_equal(proj.weight, module.dequantize_u2())

    def test_restore_invalidates_back_to_fp32_path(self):
        model = build_model(TINY, rng=np.random.default_rng(0))
        model.eval()
        report = quantize_model_real(model, 8)
        quant_state = fastpath.active_state(model.runtime.context)
        np.testing.assert_array_equal(
            quant_state.layers[0].proj["w_q"].weight,
            model.blocks[0].attn.w_q.dequantize(),
        )
        restore_real_quantized(model, report)
        state = fastpath.active_state(model.runtime.context)
        assert state is not quant_state
        assert state.layers[0].proj["w_q"].weight is model.blocks[0].attn.w_q.weight.data


#: The scales of each quantized flavor: a dense grid's, then a chain's.
SCALES = (("dense", "scales"), ("rank8", "u1_scales"),
          ("rank8", "core_scales"), ("rank8", "u2_scales"))


@pytest.mark.parametrize("structure,name", SCALES)
def test_rebinding_scales_rebuilds_the_fast_state(structure, name):
    # The fast state holds fp32 copies of the dequantized weights, so a
    # rebound scales array must invalidate it like a rebound grid does.
    model = build_quantized(structure)
    tokens = tokens_for(model.config, 2, 5)
    model.forward(tokens)  # warm: the state is built from the old scales
    module = model.blocks[0].attn.w_q
    setattr(module, name, getattr(module, name) * np.float32(1.5))
    with fastpath.disabled():
        reference = model.forward(tokens).data
    np.testing.assert_array_equal(reference, model.forward(tokens).data)


class TestDequantCache:
    def test_warm_decode_allocates_nothing_and_uses_cache(self):
        model = build_quantized("dense")
        tokens = tokens_for(model.config, 1, 6)
        cache = model.make_cache()
        model.forward_cached(tokens, cache)
        step = tokens[:, :1]
        for _ in range(40):
            model.forward_cached(step, cache)
        # The warm loop reuses the weights dequantized when the state was
        # built, and its workspace buffers: nothing is rebuilt or grown.
        state = fastpath.active_state(model.runtime.context)
        workspace = model.runtime.workspace
        allocations = workspace.allocations
        nbytes = workspace.bytes_allocated
        for _ in range(10):
            model.forward_cached(step, cache)
        assert fastpath.active_state(model.runtime.context) is state
        assert workspace.allocations == allocations
        assert workspace.bytes_allocated == nbytes


class TestQuantizedBench:
    def test_bits_expansion_ratios_and_memory(self):
        model = build_model(TINY, rng=np.random.default_rng(0))
        model.eval()
        report = run_decode_bench(
            model,
            variant_specs=("dense",),
            tp_degrees=(1,),
            prompt_tokens=4,
            new_tokens=4,
            bits=8,
        )
        specs = [cell.spec for cell in report.cells]
        assert specs == ["dense", "dense-int8"]
        assert report.all_bit_identical
        ratios = report.quant_decode_ratios()
        assert set(ratios) == {"dense-int8"}
        # Catastrophic-regression floor only: the >= 0.9x acceptance gate
        # runs on serve-llama in CI where timing is meaningful; at this
        # micro scale per-call overhead dominates.
        assert ratios["dense-int8"] > 0.25
        assert report.min_quant_memory_reduction is not None
        assert report.min_quant_memory_reduction > 3.0
        quant_cell = report.cells[1]
        assert quant_cell.bits == 8
        assert quant_cell.memory_reduction_x > 3.0
        assert quant_cell.compound_reduction_x > 3.0
        payload = report.to_dict()
        assert payload["min_quant_memory_reduction"] > 3.0
        assert "dense-int8" in payload["quant_decode_ratios"]
