"""2-D grid exact equality: every (pp, tp) cell reproduces canonical bytes.

The tentpole contract: pipeline stages compose with tensor shards without
touching the numerics.  ``ShardedLlama(model, tp, pp=pp)`` must equal the
single-process model *bit for bit* at every grid shape, for every variant,
on every execution surface (plain forward, ragged prefill/decode, cached
decode) — and the grid's P2P ledger must match its analytic projection
byte for byte alongside the all-gather ledger.
"""

import numpy as np
import pytest

from repro.parallel import ShardedLlama

from tests.parallel.conftest import (
    VARIANT_BUILDERS,
    assert_one_pipe_pass,
    assert_valid_rows_equal,
    prompt_batch,
    ragged_steps,
    run_canonical_ragged,
)

VARIANTS = sorted(VARIANT_BUILDERS)
GRID = [(1, 1), (1, 2), (2, 1), (2, 2)]  # (pp, tp) cells of the ISSUE matrix


@pytest.mark.parametrize("pp,tp", GRID, ids=[f"pp{p}tp{t}" for p, t in GRID])
@pytest.mark.parametrize("variant", VARIANTS)
class TestGridEquality:
    def test_plain_forward(self, variant_models, variant, pp, tp):
        model = variant_models[variant]
        tokens = prompt_batch(3, 7)
        expected = model.forward(tokens).data
        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            got = sharded.forward(tokens).data
        finally:
            sharded.close()
        np.testing.assert_array_equal(got, expected)

    def test_ragged_prefill_and_decode(self, variant_models, variant, pp, tp):
        model = variant_models[variant]
        references = run_canonical_ragged(model)
        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            caches = [sharded.make_cache() for _ in range(2)]
            for (tokens, lengths), expected in zip(ragged_steps(), references):
                got = sharded.forward_ragged(tokens, caches, lengths).data
                assert_valid_rows_equal(got, expected, lengths)
        finally:
            sharded.close()

    def test_cached_decode(self, variant_models, variant, pp, tp):
        """Prefill then two single-token decode steps against the canonical
        cached path — the surface greedy generation drives."""
        from repro.nn.kv_cache import ModelKVCache

        model = variant_models[variant]
        prompt = prompt_batch(1, 5, seed=19)
        steps = [prompt_batch(1, 1, seed=s) for s in (23, 29)]

        cache = ModelKVCache(model.config.n_layers)
        model.forward_cached(prompt, cache)
        expected = [model.forward_cached(step, cache).data for step in steps]

        sharded = ShardedLlama(model, tp, pp=pp)
        try:
            shard_cache = sharded.make_cache()
            sharded.forward_cached(prompt, shard_cache)
            got = [sharded.forward_cached(step, shard_cache).data for step in steps]
        finally:
            sharded.close()
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)


class TestGridLedger:
    def test_p2p_ledger_matches_projection(self, variant_models):
        """Measured P2P traffic on a 2x2 grid equals the analytic projection
        byte for byte, and the all-gather channel stays exact too."""
        model = variant_models["dense"]
        sharded = ShardedLlama(model, 2, pp=2)
        try:
            sharded.forward(prompt_batch(2, 6, seed=31))
            caches = [sharded.make_cache() for _ in range(2)]
            for tokens, lengths in ragged_steps():
                sharded.forward_ragged(tokens, caches, lengths)
            stats = sharded.comm_stats()
            for name, projection in sharded.comm_projections().items():
                measured = stats.channel(name)
                assert measured["calls"] == projection.calls, name
                assert measured["payload_bytes"] == projection.payload_bytes, name
                assert measured["wire_bytes"] == projection.wire_bytes, name
        finally:
            sharded.close()

    @pytest.mark.parametrize("tp", [1, 2])
    def test_ragged_prefill_is_one_pipe_pass(self, variant_models, tp):
        """A multi-token ragged prefill crosses a two-stage pipe once."""
        model = variant_models["dense"]
        tokens, lengths = ragged_steps()[0]
        sharded = ShardedLlama(model, tp, pp=2)
        try:
            caches = [sharded.make_cache() for _ in range(2)]
            assert_one_pipe_pass(
                sharded, lambda: sharded.forward_ragged(tokens, caches, lengths)
            )
        finally:
            sharded.close()

    def test_single_stage_pipe_has_no_p2p(self, variant_models):
        model = variant_models["dense"]
        sharded = ShardedLlama(model, 2, pp=1)
        try:
            sharded.forward(prompt_batch(1, 4, seed=37))
            assert sharded.comm_stats().channel("p2p")["calls"] == 0
            assert sharded.p2p_projection().calls == 0
        finally:
            sharded.close()


def test_returned_logits_survive_the_next_forward(variant_models):
    """Regression: a size-1 gather used to return the sharded fast path's
    reused workspace buffer, so logits held across decode steps were
    silently clobbered by the next call."""
    model = variant_models["all-tensors-rank2"]
    sharded = ShardedLlama(model, 1, pp=1)
    try:
        cache = sharded.make_cache()
        sharded.forward_cached(prompt_batch(1, 5, seed=19), cache)
        first = sharded.forward_cached(prompt_batch(1, 1, seed=23), cache)
        snapshot = first.data.copy()
        sharded.forward_cached(prompt_batch(1, 1, seed=29), cache)
        np.testing.assert_array_equal(first.data, snapshot)
    finally:
        sharded.close()


class TestGridOverrides:
    def test_cut_points_override_stays_exact(self, variant_models):
        """An explicitly imbalanced cut (all layers but one in stage 0)
        changes the schedule, never the bytes."""
        model = variant_models["partial-rank4"]
        tokens = prompt_batch(2, 8, seed=41)
        expected = model.forward(tokens).data
        sharded = ShardedLlama(model, 1, pp=2, cut_points=(1,))
        try:
            np.testing.assert_array_equal(sharded.forward(tokens).data, expected)
        finally:
            sharded.close()
