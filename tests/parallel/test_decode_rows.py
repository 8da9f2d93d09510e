"""A decode batch is one GEMM per weight product, and the pipe keeps it whole.

Both drivers run a forward with one token per row and ``B > 1`` rows as
one ``(B, D)`` GEMM per weight product.  With OpenBLAS a GEMM row's low
bits depend on the row count for some serve-llama shapes, so
``ShardedLlama`` must carry such a forward through the pipe in one pass:
split into row chunks, its rows would no longer match the canonical
model.  The tiny test model is too small to show it, so this runs the
16-row decode step of the closed-loop serving workloads on serve-llama.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.decomposition import DecompositionConfig, decompose_model
from repro.models import build_model
from repro.models.registry import get_config
from repro.nn.kv_cache import ModelKVCache
from repro.parallel import ShardedLlama

from tests.parallel.conftest import assert_one_pipe_pass

SERVE = get_config("serve-llama")
ROWS = 16


@pytest.fixture(scope="module")
def serve_models():
    def build(rank=None):
        model = build_model(SERVE, rng=np.random.default_rng(0))
        model.eval()
        if rank is not None:
            # SVD factors: the same U1·core·U2 chains as the served
            # (HOI) variant in a fraction of the set-up time.
            layers = tuple(range(SERVE.n_layers))
            config = DecompositionConfig.all_tensors(SERVE, layers, rank=rank)
            decompose_model(model, replace(config, method="svd"))
        return model

    return {"dense": build(), "rank8": build(rank=8)}


def decode_inputs():
    """Ragged prompts for ``ROWS`` sequences, then one decode token each."""
    rng = np.random.default_rng(11)
    lengths = rng.integers(2, 7, size=ROWS)
    prompts = rng.integers(0, SERVE.vocab_size, size=(ROWS, int(lengths.max())))
    step = rng.integers(0, SERVE.vocab_size, size=(ROWS, 1))
    return prompts, lengths, step


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("variant", ["dense", "rank8"])
def test_pp2_decode_step_matches_canonical(serve_models, variant, tp):
    model = serve_models[variant]
    prompts, lengths, step = decode_inputs()
    ones = np.ones(ROWS, dtype=np.int64)

    caches = [ModelKVCache(SERVE.n_layers) for _ in range(ROWS)]
    model.forward_ragged(prompts, caches, lengths)
    expected = model.forward_ragged(step, caches, ones).data

    sharded = ShardedLlama(model, tp, pp=2)
    try:
        shard_caches = [sharded.make_cache() for _ in range(ROWS)]
        sharded.forward_ragged(prompts, shard_caches, lengths)
        got = assert_one_pipe_pass(
            sharded, lambda: sharded.forward_ragged(step, shard_caches, ones)
        ).data
    finally:
        sharded.close()
    np.testing.assert_array_equal(got, expected)
