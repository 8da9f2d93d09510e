"""Adversarial speculation in the engine: rollback under pool pressure.

The engine-level contract mirrors the session-level one: a speculative
request's tokens are identical to ``greedy_generate`` on its prompt alone,
for any interleaving — pool exhaustion mid-speculation, preemption of a
drafting request, draft-pool starvation — and both KV pools drain to empty
when the engine goes idle.
"""

import numpy as np
import pytest

from repro.errors import PoolExhaustedError, ServingError
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    RequestState,
    VariantRegistry,
)
from repro.serving.paged import PagedSequenceCache


@pytest.fixture(scope="module")
def drafter(smoke_model):
    return VariantRegistry(smoke_model).get("rank8").model


def spec_engine(model, drafter, **overrides):
    defaults = dict(max_batch=4, token_budget=24, n_blocks=24, block_tokens=8)
    defaults.update(overrides)
    return InferenceEngine(model, EngineConfig(**defaults), drafter=drafter)


def reference_tokens(model, request):
    return model.greedy_generate(
        request.prompt,
        max_new_tokens=request.max_new_tokens,
        stop_token=request.stop_token,
    )


def assert_all_finished_exact(engine, requests):
    for request in requests:
        assert request.state is RequestState.FINISHED, request.finish_reason
        np.testing.assert_array_equal(
            request.tokens, reference_tokens(engine.model, request)
        )


def assert_pools_drained(engine):
    assert engine.pool.used_blocks == 0
    assert engine.draft_pool.used_blocks == 0


class TestSubmission:
    def test_speculative_without_drafter_raises(self, smoke_model):
        engine = InferenceEngine(smoke_model, EngineConfig(max_batch=2, token_budget=8))
        with pytest.raises(ServingError):
            engine.submit(np.arange(4), max_new_tokens=2, speculative=True)

    def test_single_speculative_request_exact(self, smoke_model, drafter):
        engine = spec_engine(smoke_model, drafter)
        request = engine.submit(np.array([5, 9, 2, 7]), 10, speculative=True)
        engine.run_until_idle()
        assert_all_finished_exact(engine, [request])
        assert engine.metrics.spec_steps > 0
        assert engine.metrics.spec_drafted > 0
        assert_pools_drained(engine)

    def test_mixed_speculative_and_plain_rows(self, smoke_model, drafter):
        """Speculative and non-speculative rows share ragged batches."""
        engine = spec_engine(smoke_model, drafter)
        rng = np.random.default_rng(3)
        requests = []
        for i in range(6):
            prompt = rng.integers(0, 128, size=int(rng.integers(2, 10)))
            requests.append(
                engine.submit(prompt, int(rng.integers(3, 9)), speculative=i % 2 == 0)
            )
        engine.run_until_idle()
        assert_all_finished_exact(engine, requests)
        assert_pools_drained(engine)

    def test_stop_token_inside_draft_block(self, smoke_model, drafter):
        prompt = np.array([5, 9, 2, 7])
        reference = smoke_model.greedy_generate(prompt, 8)
        stop = int(reference[-1])  # stop somewhere mid-generation
        engine = spec_engine(smoke_model, drafter)
        request = engine.submit(prompt, 8, stop_token=stop, speculative=True)
        engine.run_until_idle()
        np.testing.assert_array_equal(
            request.tokens,
            smoke_model.greedy_generate(prompt, 8, stop_token=stop),
        )
        assert_pools_drained(engine)


class TestPoolPressure:
    def test_starved_draft_pool_falls_back_cleanly(self, smoke_model, drafter):
        """With a draft pool too small to ever speculate, every cycle is a
        counted fallback and output is still exact."""
        engine = spec_engine(smoke_model, drafter, spec_blocks=1)
        rng = np.random.default_rng(5)
        requests = [
            engine.submit(rng.integers(0, 128, size=6), 8, speculative=True)
            for _ in range(3)
        ]
        engine.run_until_idle()
        assert_all_finished_exact(engine, requests)
        assert engine.metrics.spec_fallbacks > 0
        assert_pools_drained(engine)

    def test_verifier_pool_exhaustion_mid_speculation(self, smoke_model, drafter):
        """A main pool tight enough to force preemption while speculative
        rows are mid-flight: rollback + re-prefill keep tokens exact."""
        engine = spec_engine(
            smoke_model, drafter,
            max_batch=3, token_budget=18, n_blocks=8, block_tokens=4,
        )
        rng = np.random.default_rng(7)
        requests = [
            engine.submit(rng.integers(0, 128, size=5), 8, speculative=True)
            for _ in range(3)
        ]
        engine.run_until_idle()
        assert engine.metrics.preemptions > 0
        assert_all_finished_exact(engine, requests)
        assert_pools_drained(engine)

    def test_rollback_without_a_fork_page_preempts_and_recomputes(
        self, smoke_model, drafter, monkeypatch
    ):
        """A verifier rollback that must fork a shared sealed page with no
        page free raises PoolExhaustedError and changes nothing.  The engine
        preempts that request recompute-style instead of letting the error
        escape ``step()`` after earlier rows committed their tokens."""
        engine = spec_engine(smoke_model, drafter)
        rng = np.random.default_rng(13)
        requests = [
            engine.submit(rng.integers(0, 128, size=6), 8, speculative=True)
            for _ in range(3)
        ]
        victims = []
        real_truncate = PagedSequenceCache.truncate

        def truncate(cache, length):
            if cache.store is engine.pool and not victims:
                victims.extend(r for r in requests if r.cache is cache)
                raise PoolExhaustedError("no free page to fork the cut page")
            real_truncate(cache, length)

        monkeypatch.setattr(PagedSequenceCache, "truncate", truncate)
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            assert steps < 1000
        assert len(victims) == 1
        assert victims[0].preemptions == 1
        assert engine.metrics.preemptions == 1
        assert_all_finished_exact(engine, requests)
        assert_pools_drained(engine)

    def test_cache_invariants_after_every_step(self, smoke_model, drafter):
        """At every step boundary each running decode row's verifier cache
        covers exactly prefix-1 positions and its draft cache never exceeds
        the verifier's coverage."""
        engine = spec_engine(
            smoke_model, drafter,
            max_batch=3, token_budget=18, n_blocks=10, block_tokens=4,
        )
        rng = np.random.default_rng(11)
        requests = [
            engine.submit(rng.integers(0, 128, size=int(rng.integers(3, 8))),
                          7, speculative=True)
            for _ in range(4)
        ]
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            assert steps < 1000
            for request in requests:
                if request.state is not RequestState.DECODE:
                    continue
                assert request.cache.seq_len == request.prefix.size - 1
                if request.draft_cache is not None:
                    assert request.draft_cache.seq_len <= request.cache.seq_len
        assert_all_finished_exact(engine, requests)
        assert_pools_drained(engine)


class TestLifecycle:
    def test_cancel_mid_speculation_frees_draft_state(self, smoke_model, drafter):
        engine = spec_engine(smoke_model, drafter)
        victim = engine.submit(np.arange(6), 12, speculative=True)
        survivor = engine.submit(np.arange(4) + 1, 6, speculative=True)
        engine.step()
        engine.step()
        assert engine.cancel(victim.request_id)
        assert victim.draft_cache is None
        engine.run_until_idle()
        assert_all_finished_exact(engine, [survivor])
        assert_pools_drained(engine)

    def test_step_report_spec_accounting(self, smoke_model, drafter):
        engine = spec_engine(smoke_model, drafter)
        request = engine.submit(np.array([3, 1, 4, 1, 5]), 9, speculative=True)
        committed = drafted = accepted = 0
        while engine.has_work:
            report = engine.step()
            committed += report.committed
            drafted += report.spec_drafted
            accepted += report.spec_accepted
        assert request.state is RequestState.FINISHED
        assert committed == request.n_generated
        assert drafted == engine.metrics.spec_drafted
        assert accepted == engine.metrics.spec_accepted
        assert 0 <= engine.metrics.spec_acceptance_rate <= 1.0

    def test_sharded_engine_speculates_exactly(self, smoke_model, drafter):
        """World size 2 end to end: TP verifier, canonical drafter."""
        from repro.parallel import ShardedLlama

        sharded = ShardedLlama(smoke_model, 2)
        try:
            engine = spec_engine(sharded, drafter)
            rng = np.random.default_rng(13)
            requests = [
                engine.submit(rng.integers(0, 128, size=6), 7, speculative=bool(i % 2))
                for i in range(4)
            ]
            engine.run_until_idle()
            for request in requests:
                assert request.state is RequestState.FINISHED
                np.testing.assert_array_equal(
                    request.tokens, reference_tokens(smoke_model, request)
                )
            assert engine.pool.used_blocks == 0
            assert engine.draft_pool.used_blocks == 0
        finally:
            sharded.close()
