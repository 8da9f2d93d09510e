"""Driver-level equality and typed error paths across cache regimes."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import ModelKVCache
from repro.runtime import ModelRuntime, build_model_program


def _fresh_caches(model, batch):
    return [ModelKVCache(model.config.n_layers) for _ in range(batch)]


class TestCachedEqualsStateless:
    def test_prefill_then_step_matches_full_forward(self, micro_llama):
        micro_llama.eval()
        tokens = (np.arange(14).reshape(2, 7) * 5 + 1) % micro_llama.config.vocab_size
        full = micro_llama(tokens)
        # forward_cached takes one row: each row extends its own cache.
        for row in range(2):
            cache = micro_llama.make_cache()
            prefill = micro_llama.forward_cached(tokens[row : row + 1, :5], cache)
            np.testing.assert_array_equal(prefill.data, full.data[row : row + 1, :5])
            step = micro_llama.forward_cached(tokens[row : row + 1, 5:], cache)
            np.testing.assert_array_equal(step.data, full.data[row : row + 1, 5:])

    def test_ragged_matches_per_sequence_cached(self, micro_llama):
        micro_llama.eval()
        vocab = micro_llama.config.vocab_size
        rows = [np.array([1, 4, 9, 2]) % vocab, np.array([7, 3]) % vocab]
        lengths = np.array([len(r) for r in rows])
        padded = np.zeros((2, lengths.max()), dtype=np.int64)
        for i, row in enumerate(rows):
            padded[i, : len(row)] = row
        caches = _fresh_caches(micro_llama, 2)
        ragged = micro_llama.forward_ragged(padded, caches, lengths)
        for i, row in enumerate(rows):
            solo = micro_llama.forward_cached(
                row.reshape(1, -1), micro_llama.make_cache()
            )
            # Batched GEMMs reorder float accumulation: close, not bit-equal.
            np.testing.assert_allclose(
                ragged.data[i, : len(row)], solo.data[0], atol=1e-5
            )


class TestRaggedErrorPaths:
    def test_row_cache_count_mismatch(self, micro_llama):
        micro_llama.eval()
        tokens = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ShapeError, match="cache"):
            micro_llama.forward_ragged(
                tokens, _fresh_caches(micro_llama, 1), np.array([3, 3])
            )

    def test_length_exceeds_padded_width(self, micro_llama):
        micro_llama.eval()
        tokens = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ShapeError, match="out of range"):
            micro_llama.forward_ragged(
                tokens, _fresh_caches(micro_llama, 2), np.array([3, 4])
            )

    def test_zero_new_token_row(self, micro_llama):
        micro_llama.eval()
        tokens = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ShapeError, match="out of range"):
            micro_llama.forward_ragged(
                tokens, _fresh_caches(micro_llama, 2), np.array([3, 0])
            )


class TestDriverValidation:
    def test_pad_mask_shape_checked(self, micro_llama):
        micro_llama.eval()
        tokens = np.ones((2, 4), dtype=np.int64)
        with pytest.raises(ShapeError, match="pad_mask"):
            micro_llama(tokens, pad_mask=np.zeros((2, 5), dtype=bool))

    def test_runtime_rejects_layer_mismatch(self, micro_llama):
        program = build_model_program(micro_llama.config)
        context = micro_llama.runtime.context

        class Shallow:
            n_layers = program.n_layers + 1
            config = micro_llama.config
            prologue = program.prologue
            layers = program.layers[:1]
            epilogue = program.epilogue

        with pytest.raises(ShapeError, match="layers"):
            ModelRuntime(Shallow(), context)


class TestSharedDriver:
    def test_all_backends_use_one_driver(self, micro_llama):
        """Canonical model, TP executor, and attention module all bind the
        same run_model/attention kernels — no forked forward paths left."""
        from repro.nn.attention import MultiHeadAttention, _attention_kernel
        from repro.parallel.executor import RankExecutor
        from repro.runtime import driver

        assert _attention_kernel is driver.attention
        assert micro_llama.runtime.forward.__func__ is not None
        assert RankExecutor.forward.__doc__  # facade exists
        import inspect

        assert "run_model" in inspect.getsource(RankExecutor.forward)
        assert "run_model" in inspect.getsource(type(micro_llama.runtime).forward)
        assert "_attention_kernel" in inspect.getsource(MultiHeadAttention.forward)
