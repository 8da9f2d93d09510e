"""Bit-for-bit identity and zero-allocation contracts of the fast path.

The no-grad executor in :mod:`repro.runtime.fastpath` must be
indistinguishable from the Tensor-graph driver at the byte level: every
test here compares the two paths on the *same* model with
``np.testing.assert_array_equal`` — never ``allclose`` — across weight
flavors (dense / tied / decomposed), cache regimes (stateless / shared KV
cache / ragged), and world sizes (1 / 2).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.decomposition import DecompositionConfig, decompose_model
from repro.errors import ShapeError
from repro.models import build_model
from repro.models.config import ModelConfig
from repro.nn import ModelKVCache
from repro.runtime import OpProfiler, Workspace, causal_mask, fastpath
from repro.runtime.decode import _TokenRow

TINY = ModelConfig(
    name="tiny-fast",
    family="llama",
    vocab_size=97,
    dim=32,
    n_layers=2,
    n_heads=4,
    mlp_hidden=40,
    max_seq_len=64,
    n_kv_heads=2,
)

FLAVORS = ("dense", "tied", "decomposed")
WORLD_SIZES = (1, 2)


def build_tiny(flavor: str, base=TINY):
    config = replace(base, tie_lm_head=(flavor == "tied"))
    model = build_model(config, rng=np.random.default_rng(0))
    model.eval()
    if flavor == "decomposed":
        decompose_model(
            model,
            DecompositionConfig(
                layers=(0,), roles=("w_q", "w_u", "w_d"), rank=4
            ),
        )
        model.eval()
    return model


def make_runner(model, world_size: int):
    if world_size == 1:
        return model, None
    from repro.parallel import ShardedLlama

    sharded = ShardedLlama(model, world_size)
    return sharded, sharded


def tokens_for(config, batch, seq_len, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, config.vocab_size, size=(batch, seq_len), dtype=np.int64)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("world_size", WORLD_SIZES)
class TestFastPathIdentity:
    def test_stateless_forward_bit_equal(self, flavor, world_size):
        model = build_tiny(flavor)
        runner, sharded = make_runner(model, world_size)
        try:
            tokens = tokens_for(model.config, 2, 9)
            with fastpath.disabled():
                reference = runner.forward(tokens).data
            fast = runner.forward(tokens).data
            np.testing.assert_array_equal(reference, fast)
        finally:
            if sharded is not None:
                sharded.close()

    def test_cached_prefill_and_decode_bit_equal(self, flavor, world_size):
        model = build_tiny(flavor)
        runner, sharded = make_runner(model, world_size)
        try:
            tokens = tokens_for(model.config, 1, 8)
            with fastpath.disabled():
                ref_cache = runner.make_cache()
                ref_prefill = runner.forward_cached(tokens[:, :6], ref_cache).data
                ref_steps = [
                    runner.forward_cached(tokens[:, i : i + 1], ref_cache).data
                    for i in range(6, 8)
                ]
            cache = runner.make_cache()
            np.testing.assert_array_equal(
                ref_prefill, runner.forward_cached(tokens[:, :6], cache).data
            )
            for i, reference in zip(range(6, 8), ref_steps):
                fast = runner.forward_cached(tokens[:, i : i + 1], cache).data
                np.testing.assert_array_equal(reference, fast)
        finally:
            if sharded is not None:
                sharded.close()

    def test_ragged_bit_equal(self, flavor, world_size):
        model = build_tiny(flavor)
        if world_size == 1:
            forward_ragged = model.runtime.forward_ragged

            def make_row_cache():
                return ModelKVCache(model.config.n_layers)

            sharded = None
        else:
            from repro.parallel import ShardedLlama

            sharded = ShardedLlama(model, world_size)
            forward_ragged = sharded.forward_ragged
            make_row_cache = sharded.make_cache
        try:
            step = tokens_for(model.config, 2, 3)
            lengths = np.array([3, 2])
            with fastpath.disabled():
                reference = forward_ragged(
                    step, [make_row_cache() for _ in range(2)], lengths
                ).data
            fast = forward_ragged(
                step, [make_row_cache() for _ in range(2)], lengths
            ).data
            for row, valid in enumerate(lengths):
                # Padded tail positions are garbage by contract in both paths.
                np.testing.assert_array_equal(
                    reference[row, :valid], fast[row, :valid]
                )
        finally:
            if sharded is not None:
                sharded.close()


def _replay(runners, new_cache, schedule, seed=11):
    """Run a ragged ``schedule`` and return every valid logits row.

    Ops: ``("open", seq, prompt)`` makes a cache (``prompt`` keys a paged
    store's prefix match), ``("fwd", runner, rows)`` runs one ragged
    forward over ``rows`` of ``(seq, n_new | explicit token ids)`` in
    batch order, ``("cached", runner, seq, n)`` appends through
    ``forward_cached`` (outside the ragged staging), ``("trunc", seq,
    length)`` rolls a cache back and ``("free", seq)`` releases it.  Fresh
    token ids come from one seeded stream, so two replays feed the same
    ids.
    """
    rng = np.random.default_rng(seed)
    vocab = TINY.vocab_size
    caches, outputs = {}, []

    def feed(cache, spec):
        ids = (rng.integers(0, vocab, size=spec) if np.ndim(spec) == 0
               else np.asarray(spec, dtype=np.int64))
        if hasattr(cache, "reserve"):
            cache.reserve(ids.size)
            cache.note_tokens(ids)
        return ids

    for op in schedule:
        kind = op[0]
        if kind == "open":
            caches[op[1]] = new_cache(op[2])
        elif kind == "fwd":
            rows = [(caches[seq], spec) for seq, spec in op[2]]
            ids = [feed(cache, spec) for cache, spec in rows]
            lengths = np.asarray([row.size for row in ids])
            batch = np.zeros((len(ids), int(lengths.max())), dtype=np.int64)
            for index, row in enumerate(ids):
                batch[index, : row.size] = row
            logits = runners[op[1]].forward_ragged(
                batch, [cache for cache, _ in rows], lengths
            ).data
            outputs.extend(logits[index, :valid] for index, valid in enumerate(lengths))
        elif kind == "cached":
            cache = caches[op[2]]
            ids = feed(cache, op[3])
            outputs.append(runners[op[1]].forward_cached(ids[None, :], cache).data)
        elif kind == "trunc":
            caches[op[1]].truncate(op[2])
        elif kind == "free":
            cache = caches.pop(op[1])
            if hasattr(cache, "free"):  # a growable cache is just dropped
                cache.free()
    return outputs


_PREFIX = np.arange(9, dtype=np.int64) + 5  # two full 4-token pages + one

#: Ragged schedules that make the fast path's KV staging rows go stale in
#: every way a serving engine can: each must still match the Tensor path.
STAGING_SCHEDULES = {
    # Truncate, then re-append the same length with different tokens
    # outside the staging: only the cache epoch tells row 0 it is stale.
    "spec-rollback": [
        ("open", "a", None), ("open", "b", None),
        ("fwd", "A", [("a", 5), ("b", 7)]),
        ("fwd", "A", [("a", 1), ("b", 1)]),
        ("fwd", "A", [("a", 3), ("b", 1)]),
        ("trunc", "a", 6),
        ("cached", "A", "a", 3),
        ("fwd", "A", [("a", 1), ("b", 1)]),
        ("fwd", "A", [("a", 1), ("b", 1)]),
    ],
    # A request finishes mid-batch: the next row slides onto its staging
    # row at the very same length.
    "reorder": [
        ("open", "a", None), ("open", "b", None), ("open", "c", None),
        ("fwd", "A", [("a", 4), ("b", 6), ("c", 6)]),
        ("fwd", "A", [("a", 1), ("b", 1), ("c", 1)]),
        ("free", "b"),
        ("fwd", "A", [("a", 1), ("c", 1)]),
        ("fwd", "A", [("c", 1), ("a", 1)]),
        ("open", "d", None),
        ("fwd", "A", [("c", 1), ("a", 1), ("d", 5)]),
        ("fwd", "A", [("c", 1), ("a", 1), ("d", 1)]),
    ],
    # Shared prefix pages: concurrent identical prefills dedup onto the
    # sealed pages (block tables swap under staged rows), a prefix match
    # shares them, and rollbacks into a shared page fork it.  (On a paged
    # store, spec-rollback's cut into a private sealed page unseals it.)
    "cow-dedup": [
        ("open", "a", None),
        ("fwd", "A", [("a", _PREFIX)]),
        ("open", "b", None), ("open", "c", None),
        ("fwd", "A", [("b", _PREFIX), ("c", _PREFIX), ("a", 1)]),
        ("fwd", "A", [("b", 1), ("c", 1), ("a", 1)]),
        ("fwd", "A", [("b", 1), ("c", 1), ("a", 1)]),
        ("open", "d", np.concatenate([_PREFIX, [1, 2]])),
        ("fwd", "A", [("b", 1), ("c", 1), ("d", 3)]),
        ("trunc", "d", 6),
        ("trunc", "b", 6),
        ("fwd", "A", [("b", 2), ("c", 1), ("d", 2)]),
        ("fwd", "A", [("b", 1), ("c", 1), ("d", 1)]),
    ],
    # Row and width capacities grow mid-run while row 0 keeps hitting.
    "growth": [
        ("open", "a", None),
        ("fwd", "A", [("a", 3)]),
        ("fwd", "A", [("a", 1)]),
        ("open", "b", None), ("open", "c", None),
        ("fwd", "A", [("a", 1), ("b", 20), ("c", 2)]),
        *[("fwd", "A", [("a", 1), ("b", 1), ("c", 1)])] * 14,
    ],
    # A variant hot-swap: B writes the caches A staged, then A resumes.
    "hot-swap": [
        ("open", "a", None), ("open", "b", None),
        ("fwd", "A", [("a", 5), ("b", 3)]),
        ("fwd", "A", [("a", 1), ("b", 1)]),
        ("fwd", "B", [("a", 1), ("b", 1)]),
        ("fwd", "A", [("a", 1), ("b", 1)]),
        ("fwd", "B", [("a", 1), ("b", 1)]),
        ("fwd", "B", [("a", 1), ("b", 1)]),
        ("fwd", "A", [("a", 1), ("b", 1)]),
    ],
}


@pytest.mark.parametrize("store, schedule", [
    (store, schedule)
    for store in ("growable", "paged", "pp2", "tp2-split")
    for schedule in sorted(STAGING_SCHEDULES)
    if not (store == "growable" and schedule == "cow-dedup")  # needs pages
])
def test_ragged_staging_matches_tensor_path(store, schedule):
    """Multi-step ragged schedules, fast path vs Tensor path, bit for bit.

    ``pp2`` runs both variants on a two-stage pipeline, where each
    stage's fast path stages only its own layers; ``tp2-split``
    shards 6 query / 3 KV heads over two ranks, so a KV group is split
    and each rank's KV heads serve query-head runs of unequal length.
    """
    from repro.parallel import ShardedLlama
    from repro.serving.paged import PagedKVStore

    base = replace(TINY, dim=48, n_heads=6, n_kv_heads=3) if store == "tp2-split" else TINY
    models = {"A": build_tiny("dense", base), "B": build_tiny("decomposed", base)}
    runners = dict(models)
    sharded = []
    if store in ("pp2", "tp2-split"):
        tp, pp = (1, 2) if store == "pp2" else (2, 1)
        runners = {key: ShardedLlama(model, tp, pp=pp) for key, model in models.items()}
        sharded = list(runners.values())
    try:
        def replay():
            if store == "growable":
                def new_cache(prompt):
                    return ModelKVCache(TINY.n_layers)
            else:
                pool = (
                    PagedKVStore(TINY, n_blocks=64, block_tokens=4)
                    if store == "paged"
                    else runners["A"].make_kv_pool(64, 4)
                )

                def new_cache(prompt):
                    return pool.acquire_sequence(prompt)
            return _replay(runners, new_cache, STAGING_SCHEDULES[schedule])

        with fastpath.disabled():
            reference = replay()
        fast = replay()
    finally:
        for runner in sharded:
            runner.close()
    assert len(fast) == len(reference)
    for expected, got in zip(reference, fast):
        np.testing.assert_array_equal(expected, got)


class TestFastPathSelection:
    def test_training_mode_keeps_tensor_path(self):
        model = build_tiny("dense")
        model.train()
        assert fastpath.active_state(model.runtime.context) is None
        model.eval()
        assert fastpath.active_state(model.runtime.context) is not None

    def test_decomposition_swap_invalidates_state(self):
        model = build_tiny("dense")
        before = fastpath.active_state(model.runtime.context)
        decompose_model(
            model, DecompositionConfig(layers=(0,), roles=("w_q",), rank=2)
        )
        model.eval()
        after = fastpath.active_state(model.runtime.context)
        assert after is not None and after is not before
        assert after.layers[0].proj["w_q"].u1 is not None

    def test_disabled_context_manager_restores(self):
        model = build_tiny("dense")
        with fastpath.disabled():
            assert fastpath.active_state(model.runtime.context) is None
        assert fastpath.active_state(model.runtime.context) is not None

    def test_fast_logits_require_no_grad_semantics(self):
        model = build_tiny("dense")
        logits = model.forward(tokens_for(model.config, 1, 4))
        assert logits._backward is None and not logits.requires_grad


class TestZeroAllocationDecode:
    def test_warm_decode_loop_allocates_nothing(self):
        model = build_tiny("dense")
        tokens = tokens_for(model.config, 1, 6)
        cache = model.make_cache()
        model.forward_cached(tokens, cache)
        step = tokens[:, :1]
        # Warm past the doubling boundaries (scores grow with the cache)
        # before snapshotting the counters.
        for _ in range(40):
            model.forward_cached(step, cache)
        workspace = model.runtime.workspace
        assert workspace is not None and workspace.allocations > 0
        allocations = workspace.allocations
        nbytes = workspace.bytes_allocated
        for _ in range(10):
            model.forward_cached(step, cache)
        assert workspace.allocations == allocations
        assert workspace.bytes_allocated == nbytes

    @staticmethod
    def _warm_ragged_loop(flavour: str, rows: int = 2):
        """A dense tiny model and a ``step(live)`` decoding the ``live`` rows
        (default: all ``rows``) in the given order."""
        from repro.serving.paged import PagedKVStore

        model = build_tiny("dense")
        if flavour == "growable":
            caches = [ModelKVCache(model.config.n_layers) for _ in range(rows)]
        else:
            store = PagedKVStore(model.config, n_blocks=64, block_tokens=8)
            caches = [store.acquire_sequence() for _ in range(rows)]
        step_ids = tokens_for(model.config, rows, 1)

        def step(live=range(rows)):
            live = list(live)
            if flavour == "paged":
                for row in live:
                    caches[row].reserve(1)
                    caches[row].note_tokens(step_ids[row])
            model.runtime.forward_ragged(
                step_ids[live], [caches[row] for row in live],
                np.ones(len(live), dtype=np.int64),
            )

        return model, caches, step

    def _assert_steady_state_allocates_nothing(self, flavour: str) -> None:
        model, _, step = self._warm_ragged_loop(flavour)
        for _ in range(40):
            step()
        workspace = model.runtime.workspace
        allocations = workspace.allocations
        nbytes = workspace.bytes_allocated
        for _ in range(10):
            step()
        assert workspace.allocations == allocations
        assert workspace.bytes_allocated == nbytes

    def test_ragged_steady_state_allocates_nothing(self):
        self._assert_steady_state_allocates_nothing("growable")

    def test_ragged_steady_state_allocates_nothing_paged(self):
        self._assert_steady_state_allocates_nothing("paged")

    @staticmethod
    def _count_history_reads(caches, monkeypatch) -> list:
        """Record every cache whose history is read back (the ``read`` seam
        that ``append`` and the staging misses go through)."""
        layer_type = type(caches[0].layers[0])
        reads = []
        original = layer_type.read

        def counting_read(self):
            reads.append(self)
            return original(self)

        monkeypatch.setattr(layer_type, "read", counting_read)
        return reads

    @pytest.mark.parametrize("flavour", ("growable", "paged"))
    def test_warm_ragged_decode_reads_no_history(self, flavour, monkeypatch):
        """Stable rows write only their new token: nothing reads a cache's
        history back."""
        model, caches, step = self._warm_ragged_loop(flavour, rows=3)
        for _ in range(4):
            step()
        reads = self._count_history_reads(caches, monkeypatch)
        hits = model.runtime.workspace.stage_hits
        for _ in range(10):
            step()
        assert reads == []
        assert model.runtime.workspace.stage_hits - hits == 10 * 3 * TINY.n_layers

    @pytest.mark.parametrize("flavour", ("growable", "paged"))
    def test_rows_shifted_by_a_finish_read_no_history(self, flavour, monkeypatch):
        """A middle row finishes and the rows after it shift up one batch
        position: their staged histories move slot to slot, and no cache
        history is read back."""
        model, caches, step = self._warm_ragged_loop(flavour, rows=4)
        for _ in range(4):
            step()
        reads = self._count_history_reads(caches, monkeypatch)
        misses = model.runtime.workspace.stage_misses
        for _ in range(3):
            step([0, 2, 3])
        step([3, 0, 2])
        assert reads == []
        assert model.runtime.workspace.stage_misses == misses


class TestFastPathErrors:
    def test_ragged_length_errors_survive_fast_path(self):
        model = build_tiny("dense")
        assert fastpath.active_state(model.runtime.context) is not None
        step = np.ones((2, 3), dtype=np.int64)
        caches = [ModelKVCache(model.config.n_layers) for _ in range(2)]
        with pytest.raises(ShapeError, match="out of range"):
            model.runtime.forward_ragged(step, caches, np.array([3, 4]))

    def test_embedding_range_error_survives_fast_path(self):
        model = build_tiny("dense")
        bad = np.full((1, 3), model.config.vocab_size, dtype=np.int64)
        with pytest.raises(ShapeError, match="out of range"):
            model.forward(bad)

    def test_pad_mask_shape_error_survives_fast_path(self):
        model = build_tiny("dense")
        tokens = tokens_for(model.config, 2, 4)
        with pytest.raises(ShapeError, match="pad_mask"):
            model.forward(tokens, pad_mask=np.zeros((2, 5), dtype=bool))

    @pytest.mark.parametrize("path", ("fast", "tensor", "sharded"))
    def test_ragged_rows_past_rope_table_are_rejected(self, path):
        """Real tokens must not be rotated at a clamped position: a ragged
        forward reaching past ``max_seq_len`` fails like ``forward_cached``
        does, before any cache is written."""
        from contextlib import nullcontext

        from repro.models import get_config
        from repro.parallel import ShardedLlama

        config = get_config("tiny-llama")
        model = build_model(config, rng=np.random.default_rng(0))
        model.eval()
        runner = ShardedLlama(model, 2) if path == "sharded" else model
        try:
            cache = runner.make_cache()
            runner.forward_cached(tokens_for(config, 1, config.max_seq_len - 4), cache)
            with fastpath.disabled() if path == "tensor" else nullcontext():
                with pytest.raises(ShapeError, match="RoPE"):
                    runner.forward_ragged(tokens_for(config, 1, 8), [cache], np.array([8]))
            assert cache.seq_len == config.max_seq_len - 4
        finally:
            if path == "sharded":
                runner.close()

    @pytest.mark.parametrize("path", ("fast", "tensor"))
    def test_ragged_batch_listing_a_sequence_twice_is_rejected(self, path):
        """Two rows on one cache would both write its next position; the
        batch is refused before any layer is written."""
        from contextlib import nullcontext

        from repro.models import get_config

        config = get_config("tiny-llama")
        model = build_model(config, rng=np.random.default_rng(0))
        model.eval()
        cache = model.make_cache()
        model.forward_cached(np.array([[1, 2, 3]]), cache)
        with fastpath.disabled() if path == "tensor" else nullcontext():
            with pytest.raises(ShapeError, match="twice"):
                model.forward_ragged(np.array([[4], [5]]), [cache, cache], [1, 1])
        assert [layer.seq_len for layer in cache.layers] == [3] * config.n_layers

    def test_rope_overflow_error_survives_fast_path(self):
        model = build_tiny("dense")
        cache = model.make_cache()
        step = tokens_for(model.config, 1, 1)
        model.forward_cached(tokens_for(model.config, 1, TINY.max_seq_len), cache)
        with pytest.raises(ShapeError, match="RoPE"):
            model.forward_cached(step, cache)


class TestCausalMaskCache:
    def test_same_key_returns_same_readonly_array(self):
        first = causal_mask(5)
        second = causal_mask(5)
        assert first is second
        assert not first.flags.writeable

    def test_mask_values_unchanged(self):
        mask = causal_mask(3)
        expected = np.arange(3)[None, :] > np.arange(3)[:, None]
        np.testing.assert_array_equal(mask, expected)


class TestWorkspace:
    def test_buf_is_one_array_per_name(self):
        workspace = Workspace()
        a = workspace.buf("x", (2, 3))
        b = workspace.buf("x", (3, 2))
        c = workspace.buf("y", (2, 3))
        assert a.shape == (2, 3) and b.shape == (3, 2)
        assert np.shares_memory(a, b) and not np.shares_memory(a, c)
        assert workspace.allocations == 2 and workspace.buffers == 2

    def test_larger_shape_grows_once_by_doubling(self):
        workspace = Workspace()
        workspace.buf("s", (2, 5))
        assert workspace.bytes_allocated == 10 * 4
        workspace.buf("s", (2, 7))
        assert workspace.allocations == 2
        assert workspace.bytes_allocated == (10 + 20) * 4
        # Within the doubled capacity, and any smaller shape: no allocation.
        for shape in ((4, 5), (2, 3), (1,), (20,)):
            workspace.buf("s", shape)
        assert workspace.allocations == 2 and workspace.buffers == 1

    def test_stage_grows_from_use_and_keeps_rows(self):
        workspace = Workspace()
        stage = workspace.stage("kv0", 3, 2, 5, 4)
        assert stage.keys.shape == (4, 2, 8, 4) and not stage.keys.any()
        assert workspace.allocations == 2
        assert workspace.bytes_allocated == 2 * stage.keys.nbytes
        stage.keys[2, :, :5] = 1.0
        stage.records[2] = (7, 5)
        assert workspace.stage("kv0", 4, 2, 8, 4) is stage
        grown = workspace.stage("kv0", 5, 2, 9, 4)
        assert grown.keys.shape == (8, 2, 16, 4)
        assert grown.records[2] == (7, 5) and grown.records[4:] == [None] * 4
        np.testing.assert_array_equal(grown.keys[2, :, :5], 1.0)
        assert not grown.keys[2, :, 5:].any() and not grown.values.any()
        assert workspace.allocations == 4

    @pytest.mark.parametrize("shape", [(2, 4), (3, 1, 5), (1, 2, 3, 4), (7,)])
    def test_every_view_is_c_contiguous_float32(self, shape):
        workspace = Workspace()
        workspace.buf("z", (64,))
        view = workspace.buf("z", shape)
        assert view.shape == shape and view.dtype == np.float32
        assert view.flags.c_contiguous


class TestOpProfiler:
    def test_records_fast_path_ops(self):
        model = build_tiny("dense")
        profiler = model.runtime.enable_profiling()
        model.forward(tokens_for(model.config, 1, 5))
        assert isinstance(profiler, OpProfiler)
        ops = profiler.to_dict()
        assert "layer0.w_q" in ops and "lm_head" in ops
        assert ops["layer0.w_q"]["calls"] == 1
        rolled = profiler.rollup()
        assert rolled["w_q"]["calls"] == model.config.n_layers
        assert "w_q" in profiler.table()
        model.runtime.disable_profiling()
        assert model.runtime.profiler is None

    def test_warm_loop_bytes_column_goes_to_zero(self):
        model = build_tiny("dense")
        cache = model.make_cache()
        tokens = tokens_for(model.config, 1, 4)
        model.forward_cached(tokens, cache)
        for _ in range(40):
            model.forward_cached(tokens[:, :1], cache)
        profiler = model.runtime.enable_profiling()
        for _ in range(5):
            model.forward_cached(tokens[:, :1], cache)
        assert all(rec["bytes"] == 0 for rec in profiler.to_dict().values())


class TestTokenRow:
    def test_append_growth_preserves_tokens(self):
        row = _TokenRow(np.array([[3, 1, 4]]), reserve=2)
        buffer_before = row._buf
        for token in range(20):
            row.append(token)
        assert row._buf is not buffer_before  # grew past the reserve
        np.testing.assert_array_equal(
            row.row[0], np.array([3, 1, 4] + list(range(20)))
        )

    def test_row_is_view_until_growth(self):
        row = _TokenRow(np.array([[7]]), reserve=8)
        view = row.row
        row.append(9)
        assert row.row.base is view.base
