"""KV-cache incremental decoding: exact equivalence with full recompute."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import (
    LayerKVCache,
    ModelKVCache,
    RaggedLayerCaches,
    RaggedModelCaches,
    causal_mask,
)


class TestCausalMaskOffset:
    def test_zero_offset_is_classic_triangle(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert mask[0, 1] and not mask[3, 0]


class TestLayerKVCache:
    def test_append_grows(self):
        cache = LayerKVCache()
        k = np.zeros((1, 2, 3, 4), dtype=np.float32)
        cache.append(k, k)
        assert cache.seq_len == 3
        cache.append(k[:, :, :1], k[:, :, :1])
        assert cache.seq_len == 4

    def test_returns_full_history(self):
        cache = LayerKVCache()
        first = np.ones((1, 1, 2, 2), dtype=np.float32)
        second = np.full((1, 1, 1, 2), 2.0, dtype=np.float32)
        cache.append(first, first)
        keys, _ = cache.append(second, second)
        assert keys.shape == (1, 1, 3, 2)
        assert keys[0, 0, 2, 0] == 2.0

    def test_shape_mismatch_rejected(self):
        cache = LayerKVCache()
        cache.append(np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 1, 4)))
        with pytest.raises(ShapeError):
            cache.append(np.zeros((1, 3, 1, 4)), np.zeros((1, 3, 1, 4)))

    def test_capacity_grows_geometrically_not_per_append(self):
        cache = LayerKVCache()
        k = np.zeros((1, 2, 1, 4), dtype=np.float32)
        cache.append(k, k)
        first_capacity = cache.capacity
        assert first_capacity >= 16  # preallocated beyond the first token
        for _ in range(first_capacity - 1):
            cache.append(k, k)
        assert cache.capacity == first_capacity  # no growth while it fits
        cache.append(k, k)
        assert cache.capacity >= 2 * first_capacity  # doubled, not +1

    def test_append_returns_views_not_copies(self):
        cache = LayerKVCache()
        k = np.arange(8, dtype=np.float32).reshape(1, 2, 1, 4)
        keys, values = cache.append(k, k)
        assert keys.base is not None  # a view into the preallocated buffer
        np.testing.assert_array_equal(keys, k)
        np.testing.assert_array_equal(cache.keys, k)
        np.testing.assert_array_equal(cache.values, k)

    def test_empty_cache_exposes_none(self):
        cache = LayerKVCache()
        assert cache.seq_len == 0
        assert cache.keys is None
        assert cache.values is None

    def test_history_survives_buffer_growth(self):
        cache = LayerKVCache()
        rng = np.random.default_rng(6)
        chunks = [
            rng.normal(size=(1, 2, n, 4)).astype(np.float32) for n in (3, 30, 50)
        ]
        for chunk in chunks:
            keys, _ = cache.append(chunk, chunk)
        expected = np.concatenate(chunks, axis=2)
        np.testing.assert_array_equal(keys, expected)

    def test_batch_and_head_dim_mismatch_rejected(self):
        cache = LayerKVCache()
        cache.append(np.zeros((1, 2, 1, 4)), np.zeros((1, 2, 1, 4)))
        with pytest.raises(ShapeError):
            cache.append(np.zeros((2, 2, 1, 4)), np.zeros((2, 2, 1, 4)))
        with pytest.raises(ShapeError):
            cache.append(np.zeros((1, 2, 1, 8)), np.zeros((1, 2, 1, 8)))

    def test_model_cache_indexing(self):
        cache = ModelKVCache(3)
        assert len(cache) == 3
        assert cache.seq_len == 0
        with pytest.raises(ShapeError):
            ModelKVCache(0)


class TestRaggedWrappers:
    def test_layer_offsets_reflect_per_cache_depths(self):
        caches = [LayerKVCache(), LayerKVCache()]
        k = np.zeros((1, 2, 3, 4), dtype=np.float32)
        caches[0].append(k, k)
        ragged = RaggedLayerCaches(caches, np.array([2, 1]))
        assert len(ragged) == 2
        np.testing.assert_array_equal(ragged.offsets, [3, 0])
        np.testing.assert_array_equal(ragged.new_lengths, [2, 1])

    def test_model_wrapper_builds_layer_views(self):
        caches = [ModelKVCache(2), ModelKVCache(2)]
        ragged = RaggedModelCaches(caches, np.array([1, 1]))
        assert len(ragged.layers) == 2
        assert all(isinstance(layer, RaggedLayerCaches) for layer in ragged.layers)

    def test_length_count_must_match_caches(self):
        with pytest.raises(ShapeError):
            RaggedModelCaches([ModelKVCache(1)], np.array([1, 2]))


class TestIncrementalAttention:
    """Cached decoding — the model's one-row ragged forward — against a
    full forward over the same window."""

    @staticmethod
    def _tokens(model, length):
        return (np.arange(length) * 7 + 2).reshape(1, length) % model.config.vocab_size

    def test_step_by_step_matches_full_forward(self, micro_llama):
        micro_llama.eval()
        tokens = self._tokens(micro_llama, 6)
        full = micro_llama(tokens).data
        cache = micro_llama.make_cache()
        outputs = [
            micro_llama.forward_cached(tokens[:, t : t + 1], cache).data
            for t in range(6)
        ]
        assert np.allclose(np.concatenate(outputs, axis=1), full, atol=1e-5)

    def test_prefill_then_decode_matches(self, micro_llama):
        micro_llama.eval()
        tokens = self._tokens(micro_llama, 5)
        full = micro_llama(tokens).data
        cache = micro_llama.make_cache()
        prefill = micro_llama.forward_cached(tokens[:, :3], cache).data
        step = micro_llama.forward_cached(tokens[:, 3:4], cache).data
        step2 = micro_llama.forward_cached(tokens[:, 4:5], cache).data
        assert np.allclose(prefill, full[:, :3], atol=1e-5)
        assert np.allclose(step, full[:, 3:4], atol=1e-5)
        assert np.allclose(step2, full[:, 4:5], atol=1e-5)


class TestCachedGeneration:
    def test_cached_matches_recompute(self, trained_llama):
        model, tokenizer = trained_llama
        prompt = np.asarray(tokenizer.encode("question : where does alice live ? answer :"))
        cached = model.greedy_generate(prompt, 6, use_cache=True)
        recomputed = model.greedy_generate(prompt, 6, use_cache=False)
        assert np.array_equal(cached, recomputed)

    def test_cached_respects_stop_token(self, trained_llama):
        model, tokenizer = trained_llama
        prompt = np.asarray(tokenizer.encode("alice lives in"))
        out = model.greedy_generate(
            prompt, 20, stop_token=tokenizer.eos_id, use_cache=True
        )
        if tokenizer.eos_id in out[len(prompt):]:
            stop_index = list(out[len(prompt):]).index(tokenizer.eos_id)
            assert stop_index == len(out) - len(prompt) - 1

    def test_cached_generation_faster_for_long_outputs(self, trained_llama):
        import time

        model, tokenizer = trained_llama
        prompt = np.asarray(tokenizer.encode("bob lives in"))

        start = time.perf_counter()
        model.greedy_generate(prompt, 40, use_cache=True)
        cached_s = time.perf_counter() - start
        start = time.perf_counter()
        model.greedy_generate(prompt, 40, use_cache=False)
        recompute_s = time.perf_counter() - start
        assert cached_s < recompute_s * 1.5  # generous: tiny model, noisy timer
