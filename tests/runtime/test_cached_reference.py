"""Cached decoding against the one independent reference left: recompute.

``forward_cached`` is the one-row ragged forward, so the serving engine,
``greedy_generate`` and cached decode all run one attention kernel.  The
windowed recompute loop (``greedy_generate(use_cache=False)``) shares no
cache code with it, so it is the reference here: on the grouped-query
serve-llama (6 query heads over 3 KV heads), cached generation must emit
the recompute tokens on the canonical model and on ``ShardedLlama`` at
tp=2 and at pp=2.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models import build_model, get_config
from repro.nn import ModelKVCache
from repro.parallel import ShardedLlama
from repro.runtime import DecodeSession, run_model
from repro.serving.variants import VariantRegistry

SERVE = get_config("serve-llama")
PROMPT = np.random.default_rng(2).integers(0, SERVE.vocab_size, size=12)
NEW_TOKENS = 10


@pytest.fixture(scope="module")
def serve_variants():
    base = build_model(SERVE, rng=np.random.default_rng(0))
    base.eval()
    registry = VariantRegistry(base)
    return {spec: registry.get(spec).model for spec in ("dense", "rank8", "rank8-int8")}


@pytest.mark.parametrize("grid", [None, (2, 1), (1, 2)], ids=["canonical", "tp2", "pp2"])
@pytest.mark.parametrize("variant", ["dense", "rank8", "rank8-int8"])
def test_cached_tokens_match_recompute_on_gqa_model(serve_variants, variant, grid):
    model = serve_variants[variant]
    assert model.config.kv_heads < model.config.n_heads
    reference = model.greedy_generate(PROMPT, NEW_TOKENS, use_cache=False)
    if grid is None:
        cached = model.greedy_generate(PROMPT, NEW_TOKENS, use_cache=True)
    else:
        tp, pp = grid
        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            cached = DecodeSession(sharded).generate(PROMPT, NEW_TOKENS)
        finally:
            sharded.close()
    assert cached.size == PROMPT.size + NEW_TOKENS
    np.testing.assert_array_equal(cached, reference)


class TestTypedErrors:
    @pytest.mark.parametrize("sharded", [False, True], ids=["canonical", "tp2"])
    def test_forward_cached_rejects_two_rows(self, micro_llama, sharded):
        micro_llama.eval()
        runner = ShardedLlama(micro_llama, 2) if sharded else micro_llama
        try:
            cache = runner.make_cache()
            with pytest.raises(ShapeError):
                runner.forward_cached(np.ones((2, 3), dtype=np.int64), cache)
            assert cache.seq_len == 0
        finally:
            if sharded:
                runner.close()

    def test_run_model_rejects_a_bare_model_cache(self, micro_llama):
        micro_llama.eval()
        cache = ModelKVCache(micro_llama.config.n_layers)
        with pytest.raises(ShapeError, match="RaggedModelCaches"):
            run_model(
                micro_llama.runtime.context, np.ones((1, 3), dtype=np.int64),
                caches=cache,
            )
        assert cache.seq_len == 0
