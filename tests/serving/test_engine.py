"""The continuous-batching engine: scheduling, admission, and correctness.

The load-bearing property: for *any* interleaving of requests — any pool
size, token budget, arrival pattern, or preemption history — every finished
request's tokens are identical to running ``greedy_generate`` on its prompt
alone.  Continuous batching must be a pure throughput optimization.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.models import build_model
from repro.runtime import Workspace
from repro.serving import (
    QUALITY_LADDER,
    EngineConfig,
    InferenceEngine,
    QoSClass,
    RequestState,
    ScriptedRouter,
    VariantRegistry,
    poisson_trace,
    replay_trace,
)


def small_engine(model, **overrides):
    defaults = dict(max_batch=4, token_budget=24, n_blocks=24, block_tokens=8)
    defaults.update(overrides)
    return InferenceEngine(model, EngineConfig(**defaults))


def reference_tokens(model, request):
    return model.greedy_generate(
        request.prompt,
        max_new_tokens=request.max_new_tokens,
        stop_token=request.stop_token,
    )


@pytest.fixture(scope="module")
def registry(smoke_model):
    return VariantRegistry(smoke_model)


#: Chunked prefill under load: prompts longer than the token budget arrive
#: continuously, so most steps carry prefill chunks next to many decode rows.
MIXED_CONFIG = dict(max_batch=8, token_budget=16, n_blocks=80, block_tokens=8)


def serve_arriving(
    engine, n=12, seed=0, every=2, requests=None, classes=(), speculative=False
):
    """Submit one request every ``every`` steps while stepping the engine
    until it drains.  Prompts (20-40 tokens) exceed ``MIXED_CONFIG``'s
    budget; request ``i`` carries QoS class ``classes[i % len(classes)]``
    when classes are given.  Returns the submitted requests (appended to
    ``requests`` when given)."""
    rng = np.random.default_rng(seed)
    vocab = engine.model.config.vocab_size
    requests = [] if requests is None else requests
    steps = 0
    while len(requests) < n or engine.has_work:
        if len(requests) < n and steps % every == 0:
            prompt = rng.integers(0, vocab, size=int(rng.integers(20, 41)))
            new_tokens = int(rng.integers(6, 13))
            qos = classes[len(requests) % len(classes)] if classes else None
            requests.append(
                engine.submit(prompt, new_tokens, speculative=speculative, qos=qos)
            )
        engine.step()
        steps += 1
    return requests


class TestConfigValidation:
    def test_budget_must_cover_batch(self):
        with pytest.raises(ServingError):
            EngineConfig(max_batch=8, token_budget=4)

    def test_positive_sizes(self):
        with pytest.raises(ServingError):
            EngineConfig(max_batch=0)


class TestAdmissionControl:
    def test_context_overflow_rejected(self, smoke_model, smoke_config):
        engine = small_engine(smoke_model)
        prompt = np.arange(smoke_config.max_seq_len, dtype=np.int64) % 11
        request = engine.submit(prompt, max_new_tokens=1)
        assert request.state is RequestState.REJECTED
        assert request.finish_reason == "context-overflow"

    def test_pool_too_small_rejected(self, smoke_model):
        engine = small_engine(smoke_model, n_blocks=2, block_tokens=4)
        request = engine.submit(np.arange(8), max_new_tokens=8)
        assert request.finish_reason == "exceeds-pool"

    def test_queue_full_rejected(self, smoke_model):
        engine = small_engine(smoke_model, max_queue=1)
        first = engine.submit(np.arange(4), max_new_tokens=2)
        second = engine.submit(np.arange(4), max_new_tokens=2)
        assert first.state is RequestState.QUEUED
        assert second.finish_reason == "queue-full"

    def test_rejection_never_raises_and_is_terminal(self, smoke_model):
        engine = small_engine(smoke_model, n_blocks=2, block_tokens=4)
        request = engine.submit(np.arange(8), max_new_tokens=8)
        assert request.done
        assert not request.result().ok


class TestSingleRequest:
    def test_matches_sequential_generate(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.array([5, 9, 2, 7]), max_new_tokens=6)
        engine.run_until_idle()
        assert request.state is RequestState.FINISHED
        assert request.finish_reason == "max-tokens"
        np.testing.assert_array_equal(
            request.tokens, reference_tokens(smoke_model, request)
        )

    def test_stop_token_honoured(self, smoke_model):
        engine = small_engine(smoke_model)
        prompt = np.array([5, 9, 2, 7])
        reference = smoke_model.greedy_generate(prompt, 8)
        stop = int(reference[len(prompt)])  # first generated token
        request = engine.submit(prompt, max_new_tokens=8, stop_token=stop)
        engine.run_until_idle()
        assert request.finish_reason == "stop-token"
        assert request.n_generated == 1

    def test_chunked_prefill_spans_steps(self, smoke_model):
        engine = small_engine(smoke_model, max_batch=1, token_budget=4)
        request = engine.submit(np.arange(10) % 7, max_new_tokens=2)
        first = engine.step()
        assert first.prefill_tokens == 4
        assert request.n_generated == 0  # prompt not yet covered
        engine.run_until_idle()
        np.testing.assert_array_equal(
            request.tokens, reference_tokens(smoke_model, request)
        )

    def test_blocks_released_on_finish(self, smoke_model):
        engine = small_engine(smoke_model)
        engine.submit(np.arange(6), max_new_tokens=3)
        engine.run_until_idle()
        assert engine.pool.used_blocks == 0


class TestLifecycleControls:
    def test_cancel_queued_request(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=4)
        assert engine.cancel(request.request_id)
        assert request.state is RequestState.CANCELLED
        assert not engine.has_work

    def test_cancel_running_request_frees_blocks(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=16)
        engine.step()
        assert engine.pool.used_blocks > 0
        assert engine.cancel(request.request_id)
        assert engine.pool.used_blocks == 0
        assert not engine.cancel(request.request_id)  # already terminal

    def test_deadline_expires_queued_request(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=4, deadline=1.0, now=0.0)
        engine.step(now=2.0)
        assert request.state is RequestState.CANCELLED
        assert request.finish_reason == "deadline"

    def test_deadline_in_future_still_runs(self, smoke_model):
        engine = small_engine(smoke_model)
        request = engine.submit(np.arange(4), max_new_tokens=2, deadline=1e9)
        engine.run_until_idle()
        assert request.state is RequestState.FINISHED


class TestContinuousBatching:
    def test_decode_rows_batched_together(self, smoke_model):
        engine = small_engine(smoke_model)
        for seed in range(3):
            engine.submit(np.arange(4) + seed, max_new_tokens=8)
        engine.step()  # all three prefill
        report = engine.step()
        assert report.decode_rows == 3

    def test_late_arrival_joins_running_batch(self, smoke_model):
        engine = small_engine(smoke_model)
        engine.submit(np.arange(6), max_new_tokens=10)
        engine.step()
        engine.step()
        engine.submit(np.arange(4), max_new_tokens=2)
        report = engine.step()
        assert report.decode_rows == 1 and report.prefill_rows == 1

    def test_token_budget_caps_step(self, smoke_model):
        engine = small_engine(smoke_model, max_batch=4, token_budget=10)
        for _ in range(4):
            engine.submit(np.arange(8), max_new_tokens=2)
        report = engine.step()
        assert report.prefill_tokens <= 10


class TestStepTiming:
    def test_duration_covers_admission(self, smoke_model):
        """A step is timed from the top of ``step``: admission work (here a
        slow prefix lookup) reaches the caller's clock, not just the
        forward."""
        clock = [0.0]
        engine = InferenceEngine(
            smoke_model,
            EngineConfig(max_batch=4, token_budget=24, n_blocks=24, block_tokens=8),
            timer=lambda: clock[0],
        )
        acquire = engine.pool.acquire_sequence

        def slow_acquire(*args, **kwargs):
            clock[0] += 1.0
            return acquire(*args, **kwargs)

        engine.pool.acquire_sequence = slow_acquire
        engine.submit(np.arange(6), max_new_tokens=2)
        report = engine.step()
        assert report.duration_s == 1.0
        assert engine.metrics.total_step_s == 1.0


class TestTokenIdentityProperty:
    """Engine output == sequential greedy_generate, for any interleaving."""

    @pytest.mark.parametrize(
        "blocks,budget,batch",
        [(24, 24, 4), (6, 24, 4), (4, 24, 4), (24, 8, 8), (5, 12, 3)],
    )
    def test_trace_replay_token_identical(
        self, smoke_model, smoke_config, blocks, budget, batch
    ):
        trace = poisson_trace(
            10,
            rate_rps=500.0,
            vocab_size=smoke_config.vocab_size,
            prompt_len=(2, 16),
            new_tokens=(1, 8),
            seed=blocks + budget,
        )
        engine = small_engine(
            smoke_model, n_blocks=blocks, token_budget=budget, max_batch=batch
        )
        requests = replay_trace(engine, trace)
        finished = [r for r in requests if r.state is RequestState.FINISHED]
        assert finished, "trace produced no finished requests"
        for request in finished:
            np.testing.assert_array_equal(
                request.tokens, reference_tokens(smoke_model, request)
            )

    @pytest.mark.parametrize("spec", ["dense", "rank8-int8"])
    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("speculative", [False, True])
    def test_mixed_step_heavy_token_identical(self, registry, spec, tp, speculative):
        model = registry.get(spec).model
        drafter = registry.get("rank1").model if speculative else None
        facade = model
        if tp > 1:
            from repro.parallel import ShardedLlama

            facade = ShardedLlama(model, tp)
        try:
            engine = InferenceEngine(
                facade, EngineConfig(**MIXED_CONFIG), drafter=drafter
            )
            requests = serve_arriving(engine, seed=tp, speculative=speculative)
        finally:
            if tp > 1:
                facade.close()
        assert engine.metrics.mixed_steps >= engine.metrics.steps // 2
        if speculative:
            assert engine.metrics.spec_steps > 0
        for request in requests:
            assert request.state is RequestState.FINISHED
            np.testing.assert_array_equal(
                request.tokens, reference_tokens(model, request)
            )

    def test_preemption_exercised_and_harmless(self, smoke_model, smoke_config):
        trace = poisson_trace(
            12,
            rate_rps=1000.0,
            vocab_size=smoke_config.vocab_size,
            prompt_len=(8, 16),
            new_tokens=(4, 10),
            seed=7,
        )
        engine = small_engine(smoke_model, n_blocks=5, block_tokens=8)
        requests = replay_trace(engine, trace)
        assert engine.metrics.preemptions > 0, "pool was never under pressure"
        for request in requests:
            assert request.state is RequestState.FINISHED
            np.testing.assert_array_equal(
                request.tokens, reference_tokens(smoke_model, request)
            )

    def test_results_in_submission_order(self, smoke_model, smoke_config):
        trace = poisson_trace(
            6, rate_rps=300.0, vocab_size=smoke_config.vocab_size, seed=11
        )
        engine = small_engine(smoke_model)
        replay_trace(engine, trace)
        results = engine.results()
        assert [r.request_id for r in results] == sorted(r.request_id for r in results)
        assert all(r.ok for r in results)


class ForwardLog:
    """Every ``forward_ragged`` call of one engine, as :class:`RecordingModel`
    proxies saw it; ``requests`` maps live caches back to their variants."""

    def __init__(self) -> None:
        self.calls = []
        self.requests = []
        self.engine = None

    def wrap(self, model, spec=None):
        return RecordingModel(model, self, spec)


class RecordingModel:
    """Wraps a (variant) model and logs each ragged forward: the engine step
    it ran in, its padded width, its row lengths and the variants of the
    requests whose caches it extended."""

    def __init__(self, inner, log: ForwardLog, spec) -> None:
        self._inner = inner
        self._log = log
        self._spec = spec

    def forward_ragged(self, tokens, caches, new_lengths):
        owners = {
            id(r.cache): r.variant for r in self._log.requests if r.cache is not None
        }
        self._log.calls.append(
            dict(
                step=self._log.engine.metrics.steps,
                spec=self._spec,
                width=tokens.shape[1],
                lengths=[int(n) for n in new_lengths],
                variants={owners[id(cache)] for cache in caches},
            )
        )
        return self._inner.forward_ragged(tokens, caches, new_lengths)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestStepShapes:
    """Each step runs one ragged forward per (variant, single-token row)
    group: decode rows never pad to a prefill chunk's or verify row's
    width, and each forward is exactly as wide as its longest row."""

    def assert_step_shapes(self, log):
        assert log.calls
        groups = set()
        for call in log.calls:
            assert call["width"] == max(call["lengths"]), call
            kinds = {n == 1 for n in call["lengths"]}
            assert len(kinds) == 1, f"one-token and multi-token rows mixed: {call}"
            assert call["variants"] == {call["spec"]}, call
            group = (call["step"], call["spec"], kinds.pop())
            assert group not in groups, f"group split over two forwards: {call}"
            groups.add(group)
        split = {step for step, _, single in groups if single} & {
            step for step, _, single in groups if not single
        }
        assert split, "no step carried both one-token and multi-token rows"
        return groups

    def serve(self, log, model=None, **engine_kwargs):
        engine = InferenceEngine(model, EngineConfig(**MIXED_CONFIG), **engine_kwargs)
        log.engine = engine
        return engine

    def test_plain_engine(self, smoke_model):
        log = ForwardLog()
        engine = self.serve(log, log.wrap(smoke_model))
        serve_arriving(engine, requests=log.requests)
        self.assert_step_shapes(log)

    def test_speculative_engine(self, smoke_model, registry):
        log = ForwardLog()
        engine = self.serve(
            log, log.wrap(smoke_model), drafter=registry.get("rank1").model
        )
        serve_arriving(engine, requests=log.requests, speculative=True)
        assert engine.metrics.spec_steps > 0
        self.assert_step_shapes(log)

    def test_routed_engine(self, registry):
        log = ForwardLog()
        variants = {
            spec: log.wrap(registry.get(spec).model, spec) for spec in QUALITY_LADDER
        }
        engine = self.serve(
            log,
            router=ScriptedRouter(QUALITY_LADDER, [0, 1, 2, 2, 1, 2, 0] * 20),
            variants=variants,
        )
        classes = (QoSClass("gold", "dense"), QoSClass("batch", "rank1"))
        serve_arriving(engine, requests=log.requests, classes=classes)
        groups = self.assert_step_shapes(log)
        specs_per_step = {}
        for step, spec, _ in groups:
            specs_per_step.setdefault(step, set()).add(spec)
        assert max(len(specs) for specs in specs_per_step.values()) > 1


class TestWorkspaceBound:
    """Serving memory stops growing with traffic: the fast path keeps one
    workspace array per name, grown to the largest shape that name has
    seen, so a second, different trace no larger in rows, chunk sizes or
    totals than the first allocates nothing."""

    def test_second_smaller_trace_allocates_no_workspace_array(
        self, smoke_config, monkeypatch
    ):
        names, stages = set(), set()
        handout, stage = Workspace.buf, Workspace.stage

        def buf(self, name, shape):
            names.add(name)
            return handout(self, name, shape)

        def staged(self, name, *sizes):
            stages.add(name)
            return stage(self, name, *sizes)

        monkeypatch.setattr(Workspace, "buf", buf)
        monkeypatch.setattr(Workspace, "stage", staged)
        model = build_model(smoke_config, rng=np.random.default_rng(0))
        model.eval()
        log = ForwardLog()
        engine = InferenceEngine(log.wrap(model), EngineConfig(**MIXED_CONFIG))
        log.engine = engine
        first = list(serve_arriving(engine, n=12, seed=0, requests=log.requests))
        first_calls = list(log.calls)
        workspace = model.runtime.workspace
        allocations, nbytes = workspace.allocations, workspace.bytes_allocated

        # serve_arriving counts the requests it is handed toward ``n``.
        second = serve_arriving(engine, n=20, seed=1, every=3, requests=log.requests)[12:]
        second_calls = log.calls[len(first_calls):]
        assert all(r.state is RequestState.FINISHED for r in first + second)

        def largest(calls, key):
            return max(key(call) for call in calls)

        # The second trace differs, and is no larger in rows, chunk sizes
        # or totals.
        assert [c["lengths"] for c in second_calls] != [
            c["lengths"] for c in first_calls[: len(second_calls)]
        ]
        for key in (lambda c: len(c["lengths"]), lambda c: c["width"]):
            assert largest(second_calls, key) <= largest(first_calls, key)
        assert max(r.prompt.size + r.max_new_tokens for r in second) <= max(
            r.prompt.size + r.max_new_tokens for r in first
        )
        assert workspace.allocations == allocations
        assert workspace.bytes_allocated == nbytes
        assert workspace.buffers == len(names) + 2 * len(stages)
