"""Fixtures for the tensor-parallel backend tests.

Every equivalence test runs against one tiny GQA Llama: small enough to
shard/forward in milliseconds, awkward enough to be honest — an odd vocab
(97) so vocab blocks split unevenly, 4 query heads over 2 KV heads so the
GQA cover replicates at world size 4.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.decomposition import DecompositionConfig, decompose_model
from repro.models import build_model
from repro.models.config import ModelConfig

TINY = ModelConfig(
    name="tiny",
    family="llama",
    vocab_size=97,
    dim=32,
    n_layers=2,
    n_heads=4,
    mlp_hidden=40,
    max_seq_len=64,
    n_kv_heads=2,
)

WORLD_SIZES = (1, 2, 4)


def build_tiny(tie_lm_head: bool = False, decomposition: DecompositionConfig = None):
    config = replace(TINY, tie_lm_head=tie_lm_head) if tie_lm_head else TINY
    model = build_model(config, rng=np.random.default_rng(0))
    model.eval()
    if decomposition is not None:
        decompose_model(model, decomposition)
    return model


VARIANT_BUILDERS = {
    "dense": lambda: build_tiny(),
    "tied-head": lambda: build_tiny(tie_lm_head=True),
    "partial-rank4": lambda: build_tiny(
        decomposition=DecompositionConfig.uniform(
            layers=(0, 1), roles=("w_q", "w_d"), rank=4
        )
    ),
    "all-tensors-rank2": lambda: build_tiny(
        decomposition=DecompositionConfig.all_tensors(TINY, layers=(0, 1), rank=2)
    ),
}


@pytest.fixture(scope="module")
def variant_models():
    """One model per variant, built once and shared read-only: sharding
    copies weights and ragged runs only mutate per-call caches."""
    return {name: build() for name, build in VARIANT_BUILDERS.items()}


def prompt_batch(rows: int, cols: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, TINY.vocab_size, size=(rows, cols))


def ragged_steps():
    """A prefill step with uneven rows, then two joint decode steps."""
    rng = np.random.default_rng(3)
    prefill = rng.integers(0, TINY.vocab_size, size=(2, 5))
    decode_a = rng.integers(0, TINY.vocab_size, size=(2, 1))
    decode_b = rng.integers(0, TINY.vocab_size, size=(2, 1))
    return [
        (prefill, np.array([5, 3])),
        (decode_a, np.array([1, 1])),
        (decode_b, np.array([1, 1])),
    ]


def assert_valid_rows_equal(got: np.ndarray, want: np.ndarray, lengths) -> None:
    """Exact comparison over each row's valid prefix (padded tail positions
    of a ragged batch hold garbage by contract)."""
    for row, length in enumerate(lengths):
        np.testing.assert_array_equal(got[row, :length], want[row, :length])


def assert_one_pipe_pass(sharded, forward):
    """Run ``forward()`` and check, from the measured ledger, that it
    crossed the pipe once: ``4 * n_layers + 1`` all-gathers (four per
    layer plus the logits) and one send per TP rank per stage boundary.
    Returns what ``forward()`` returned."""
    stats = sharded.comm_stats()
    before = {name: stats.channel(name)["calls"] for name in ("all_gather", "p2p")}
    result = forward()
    logged = {name: stats.channel(name)["calls"] - calls for name, calls in before.items()}
    assert logged == {
        "all_gather": 4 * sharded.config.n_layers + 1,
        "p2p": (sharded.pp - 1) * sharded.tp,
    }
    return result


def run_canonical_ragged(model):
    """Reference logits per step from the canonical single-process model."""
    from repro.nn.kv_cache import ModelKVCache

    caches = [ModelKVCache(model.config.n_layers) for _ in range(2)]
    outputs = []
    for tokens, lengths in ragged_steps():
        outputs.append(model.forward_ragged(tokens, caches, lengths).data)
    return outputs
