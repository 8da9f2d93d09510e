"""Mid-decode variant hot-swap exactness.

The contract: a request swapped between ladder variants mid-decode produces
exactly the tokens of a fresh run that applies the same per-step variant
schedule — KV caches are variant-agnostic token state, so a swap is a pure
weights switch with no recomputation.  A :class:`ScriptedRouter` pins the
swap points, making the schedule (recorded in ``variant_history``)
deterministic; the reference replays it position by position with
``forward_cached`` on the unsharded models.  The matrix covers
{tp1, tp2} x {plain, speculative} x {paged, unshared} engines.
"""

import numpy as np
import pytest

from repro.serving import (
    QUALITY_LADDER,
    EngineConfig,
    InferenceEngine,
    RequestState,
    ScriptedRouter,
    VariantRegistry,
)


@pytest.fixture(scope="module")
def registry(smoke_model):
    return VariantRegistry(smoke_model)


def engine_config(paged: bool, **overrides):
    defaults = dict(
        max_batch=4,
        token_budget=48,
        n_blocks=64,
        block_tokens=8,
        prefix_sharing=paged,
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_engine(registry, levels, tp=1, paged=True, speculative=False):
    """A routed engine whose level schedule is fully scripted."""
    router = ScriptedRouter(QUALITY_LADDER, levels)
    facades = []
    if tp > 1:
        from repro.parallel import ShardedLlama

        variants = {}
        for spec in QUALITY_LADDER:
            facade = ShardedLlama(registry.get(spec).model, tp)
            facades.append(facade)
            variants[spec] = facade
    else:
        variants = registry.ladder(QUALITY_LADDER)
    drafter = registry.get("rank1").model if speculative else None
    engine = InferenceEngine(
        None,
        engine_config(paged),
        drafter=drafter,
        router=router,
        variants=variants,
    )
    return engine, facades


def scheduled_reference(registry, history, prompt, max_new_tokens, stop_token=None):
    """Greedy decode where generated position ``j`` is computed by the last
    history entry assigned at or before ``j`` — the engine's own contract
    for ``variant_history``."""

    def variant_at(j):
        spec = history[0][1]
        for count, candidate in history:
            if count <= j:
                spec = candidate
        return spec

    models = {spec: registry.get(spec).model for spec in QUALITY_LADDER}
    first = models[variant_at(0)]
    cache = first.make_cache()
    logits = first.forward_cached(np.asarray(prompt)[None, :], cache)
    token = int(np.argmax(logits.data[0, -1]))
    tokens = [token]
    for j in range(1, max_new_tokens):
        if stop_token is not None and token == stop_token:
            break
        model = models[variant_at(j)]
        logits = model.forward_cached(np.array([[token]]), cache)
        token = int(np.argmax(logits.data[0, -1]))
        tokens.append(token)
    return np.asarray(tokens[:max_new_tokens])


def run_swapped(registry, tp, paged, speculative, levels):
    engine, facades = make_engine(
        registry, levels, tp=tp, paged=paged, speculative=speculative
    )
    try:
        prompts = [
            np.array([5, 9, 2, 7, 11, 3]),
            np.array([4, 4, 8, 1, 0, 6, 2]),
            np.array([9, 1, 5]),
        ]
        requests = [
            engine.submit(prompt, max_new_tokens=10, speculative=speculative)
            for prompt in prompts
        ]
        engine.run_until_idle()
    finally:
        for facade in facades:
            facade.close()
    return requests


SWAP_LEVELS = [0, 0, 0, 1, 1, 2, 2, 1, 0]


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("speculative", [False, True])
@pytest.mark.parametrize("paged", [True, False])
def test_swapped_tokens_match_scheduled_reference(registry, tp, paged, speculative):
    requests = run_swapped(registry, tp, paged, speculative, SWAP_LEVELS)
    swapped = 0
    for request in requests:
        assert request.state is RequestState.FINISHED
        assert request.variant_history, "routed request must record its schedule"
        swapped += int(len(request.served_variants) > 1)
        reference = scheduled_reference(
            registry,
            request.variant_history,
            request.prompt,
            request.max_new_tokens,
            stop_token=request.stop_token,
        )
        np.testing.assert_array_equal(np.asarray(request.generated), reference)
    assert swapped >= 1, "schedule must actually swap at least one request"


def test_history_starts_at_admission_level(registry):
    requests = run_swapped(registry, 1, True, False, [2])
    for request in requests:
        count, spec = request.variant_history[0]
        assert count == 0
        assert spec == "rank1"
        assert request.swaps == 0


def test_swap_counts_match_history(registry):
    requests = run_swapped(registry, 1, True, False, SWAP_LEVELS)
    for request in requests:
        assert request.swaps == len(request.variant_history) - 1
        assert request.result().swaps == request.swaps
        assert request.result().variants == tuple(request.served_variants)


def run_watching_cache(engine, prompt, max_new_tokens):
    """Drive the engine to idle, capturing the request's live cache (it is
    released back to the pool at finish)."""
    request = engine.submit(prompt, max_new_tokens=max_new_tokens)
    cache = None
    for _ in range(1000):
        if not engine.has_work:
            break
        engine.step()
        cache = request.cache or cache
    assert request.state is RequestState.FINISHED
    return request, cache


def test_swap_freezes_sealing_on_paged_cache(registry):
    """After a mid-flight swap the cache must stop advertising its pages to
    future prefix matches — they were partly computed by another variant."""
    engine, _ = make_engine(registry, [0, 0, 2, 2, 2, 2], tp=1, paged=True)
    request, cache = run_watching_cache(
        engine, np.array([5, 9, 2, 7, 11, 3]), max_new_tokens=8
    )
    assert request.swaps >= 1
    assert cache._seal_frozen is True


def test_unswapped_request_keeps_sealing(registry):
    engine, _ = make_engine(registry, [1], tp=1, paged=True)
    request, cache = run_watching_cache(
        engine, np.array([5, 9, 2, 7, 11, 3]), max_new_tokens=8
    )
    assert request.swaps == 0
    assert cache._seal_frozen is False


def test_variant_namespaces_isolate_prefixes(registry):
    """Identical prompts admitted under different variants must not share
    pages: a page advertises 'computed by the admission variant'."""
    prompt = np.arange(16, dtype=np.int64) % 13
    # First request admitted at level 0 (dense), second at level 2 (rank1):
    # same tokens, different computing variants.
    engine, _ = make_engine(registry, [0, 0, 2, 2, 2, 2, 2, 2, 2], tp=1, paged=True)
    first = engine.submit(prompt, max_new_tokens=2)
    engine.run_until_idle()
    second = engine.submit(prompt.copy(), max_new_tokens=2)
    engine.run_until_idle()
    assert first.variant_history[0][1] == "dense"
    assert second.variant_history[0][1] == "rank1"
    store = engine.pool
    assert store.prefix_hits == 0, "cross-variant prefix reuse is forbidden"


def test_same_variant_prefixes_still_share(registry):
    prompt = np.arange(16, dtype=np.int64) % 13
    engine, _ = make_engine(registry, [0], tp=1, paged=True)
    engine.submit(prompt, max_new_tokens=2)
    engine.run_until_idle()
    engine.submit(prompt.copy(), max_new_tokens=2)
    engine.run_until_idle()
    assert engine.pool.prefix_hits >= 1
