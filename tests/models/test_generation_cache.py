"""Cached greedy decoding must be a pure optimization.

``greedy_generate(use_cache=True)`` and the recompute reference path must
produce identical tokens — including when the KV cache hits the context
window mid-generation and the cached path falls back to windowed
recomputation — and batched ragged forwards must match the per-sequence
cached forward exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import ModelKVCache


@pytest.fixture(scope="module")
def short_context_model(micro_llama_config):
    """Context window small enough that generation overflows it quickly."""
    config = replace(micro_llama_config, max_seq_len=12, name="short-ctx-llama")
    model = build_model(config, rng=np.random.default_rng(9))
    model.eval()
    return model


class TestCacheVsRecompute:
    @pytest.mark.parametrize("prompt_len,new_tokens", [(1, 5), (4, 8), (10, 3)])
    def test_identical_tokens(self, micro_llama, prompt_len, new_tokens):
        micro_llama.eval()
        prompt = (np.arange(prompt_len) * 7 + 3) % micro_llama.config.vocab_size
        cached = micro_llama.greedy_generate(prompt, new_tokens, use_cache=True)
        recomputed = micro_llama.greedy_generate(prompt, new_tokens, use_cache=False)
        np.testing.assert_array_equal(cached, recomputed)

    def test_stop_token_identical(self, micro_llama):
        micro_llama.eval()
        prompt = np.array([2, 11, 5])
        reference = micro_llama.greedy_generate(prompt, 8, use_cache=False)
        stop = int(reference[len(prompt) + 1])
        cached = micro_llama.greedy_generate(prompt, 8, stop_token=stop, use_cache=True)
        recomputed = micro_llama.greedy_generate(
            prompt, 8, stop_token=stop, use_cache=False
        )
        np.testing.assert_array_equal(cached, recomputed)

    def test_overflow_falls_back_to_recompute(self, short_context_model):
        """Generation past max_seq_len takes the windowed-recompute branch."""
        config = short_context_model.config
        prompt = np.arange(8) % config.vocab_size
        new_tokens = 10  # 8 + 10 > max_seq_len=12: cache fills mid-decode
        cached = short_context_model.greedy_generate(prompt, new_tokens, use_cache=True)
        recomputed = short_context_model.greedy_generate(
            prompt, new_tokens, use_cache=False
        )
        assert cached.size == prompt.size + new_tokens
        np.testing.assert_array_equal(cached, recomputed)

    def test_overflow_with_prompt_at_window(self, short_context_model):
        config = short_context_model.config
        prompt = np.arange(config.max_seq_len) % config.vocab_size
        cached = short_context_model.greedy_generate(prompt, 4, use_cache=True)
        recomputed = short_context_model.greedy_generate(prompt, 4, use_cache=False)
        np.testing.assert_array_equal(cached, recomputed)


class TestForwardRagged:
    def test_matches_per_sequence_cached_forward(self, micro_llama):
        micro_llama.eval()
        config = micro_llama.config
        rng = np.random.default_rng(3)
        prompts = [
            rng.integers(0, config.vocab_size, size=length) for length in (7, 3, 12)
        ]
        # Reference: each sequence through its own contiguous cache.
        reference = []
        ref_caches = [ModelKVCache(config.n_layers) for _ in prompts]
        for prompt, cache in zip(prompts, ref_caches):
            logits = micro_llama.forward_cached(prompt.reshape(1, -1), cache)
            reference.append(logits.data[0])

        lengths = np.array([p.size for p in prompts])
        batch = np.zeros((len(prompts), lengths.max()), dtype=np.int64)
        for row, prompt in enumerate(prompts):
            batch[row, : prompt.size] = prompt
        caches = [ModelKVCache(config.n_layers) for _ in prompts]
        logits = micro_llama.forward_ragged(batch, caches, lengths)
        for row, prompt in enumerate(prompts):
            np.testing.assert_allclose(
                logits.data[row, : prompt.size], reference[row], atol=1e-5
            )

    def test_decode_step_at_mixed_depths(self, micro_llama):
        micro_llama.eval()
        config = micro_llama.config
        rng = np.random.default_rng(4)
        prompts = [rng.integers(0, config.vocab_size, size=n) for n in (5, 9)]
        ref_caches = [ModelKVCache(config.n_layers) for _ in prompts]
        caches = [ModelKVCache(config.n_layers) for _ in prompts]
        for prompt, ref_cache, cache in zip(prompts, ref_caches, caches):
            micro_llama.forward_cached(prompt.reshape(1, -1), ref_cache)
            micro_llama.forward_cached(prompt.reshape(1, -1), cache)
        next_tokens = np.array([[1], [2]])
        reference = [
            micro_llama.forward_cached(next_tokens[row : row + 1], ref_caches[row])
            for row in range(2)
        ]
        logits = micro_llama.forward_ragged(next_tokens, caches, np.array([1, 1]))
        for row in range(2):
            np.testing.assert_allclose(
                logits.data[row, 0], reference[row].data[0, 0], atol=1e-5
            )

    def test_validates_cache_count(self, micro_llama):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError):
            micro_llama.forward_ragged(
                np.zeros((2, 3), dtype=np.int64),
                [ModelKVCache(micro_llama.config.n_layers)],
                np.array([3, 3]),
            )
