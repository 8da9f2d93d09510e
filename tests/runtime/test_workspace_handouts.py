"""The workspace handout contract, checked with poisoned buffers.

:meth:`Workspace.buf` hands out prefix views of one array per name, with
whatever the last use left in them.  That is safe only if every caller
overwrites what it reads back, and no two live buffers share a name.
The ``nan_handouts`` fixture NaN-fills every view handed out: a kernel
that reads memory it did not write, or a second live view clobbering the
first, then changes the fast path's bits (or turns them into NaN), while
the Tensor driver — which allocates fresh arrays — never sees the fill.
So fast path = Tensor driver, bit for bit, under NaN handouts checks
both properties on each path below.
"""

import numpy as np
import pytest

from repro.nn import ModelKVCache
from repro.runtime import Workspace, fastpath
from tests.runtime.test_fastpath import build_tiny, tokens_for
from tests.runtime.test_quantized_fastpath import build_quantized


@pytest.fixture
def nan_handouts(monkeypatch):
    handout = Workspace.buf

    def buf(self, name, shape):
        view = handout(self, name, shape)
        view.fill(np.nan)
        return view

    monkeypatch.setattr(Workspace, "buf", buf)


def cached_decode(runner, prompt: int = 6, steps: int = 4):
    """Logits of a ``prompt``-token prefill then ``steps`` decode steps."""
    tokens = tokens_for(runner.config, 1, prompt + steps)
    cache = runner.make_cache()
    outputs = [runner.forward_cached(tokens[:, :prompt], cache).data]
    for i in range(prompt, prompt + steps):
        outputs.append(runner.forward_cached(tokens[:, i : i + 1], cache).data)
    return outputs


#: Ragged steps over three rows: a prefill, then prefill chunks next to
#: decode rows, then pure decode.
RAGGED_STEPS = ([5, 3, 7], [1, 4, 1], [2, 1, 3], [1, 1, 1])


def ragged_decode(runner, make_cache):
    """Valid logits rows of every step in :data:`RAGGED_STEPS`."""
    caches = [make_cache() for _ in RAGGED_STEPS[0]]
    rng = np.random.default_rng(5)
    outputs = []
    for lengths in RAGGED_STEPS:
        lengths = np.asarray(lengths)
        batch = rng.integers(0, runner.config.vocab_size,
                             size=(lengths.size, int(lengths.max())))
        logits = runner.forward_ragged(batch, caches, lengths).data
        outputs.extend(logits[row, :valid] for row, valid in enumerate(lengths))
    return outputs


def assert_fast_equals_tensor(run, workspace_of):
    with fastpath.disabled():
        reference = run()
    fast = run()
    assert workspace_of().allocations > 0  # the fast path really ran
    assert len(reference) == len(fast)
    for ref, got in zip(reference, fast):
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(ref, got)


def canonical_cases(model):
    def workspace():
        return model.runtime.workspace

    def new_cache():
        return ModelKVCache(model.config.n_layers)

    assert_fast_equals_tensor(lambda: cached_decode(model), workspace)
    assert_fast_equals_tensor(lambda: ragged_decode(model, new_cache), workspace)


@pytest.mark.usefixtures("nan_handouts")
class TestNaNHandouts:
    def test_dense_cached_and_ragged_decode(self):
        canonical_cases(build_tiny("dense"))

    def test_rank8_int8_cached_and_ragged_decode(self):
        canonical_cases(build_quantized("rank8"))

    def test_tp2(self):
        from repro.parallel import ShardedLlama

        sharded = ShardedLlama(build_tiny("dense"), 2)
        try:
            def workspace():
                return fastpath.workspace_of(sharded.executors[0].context)

            assert_fast_equals_tensor(lambda: cached_decode(sharded), workspace)
            assert_fast_equals_tensor(
                lambda: ragged_decode(sharded, sharded.make_cache), workspace
            )
        finally:
            sharded.close()
