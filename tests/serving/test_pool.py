"""The paged KV store as the engine's page pool: allocator accounting,
per-request reservations, and the layer-cache contract.

These cases hold for every sequence, shared or not; the sharing rules
(sealing, copy-on-write, eviction) live in ``test_paged_store.py``.
"""

import numpy as np
import pytest

from repro.errors import PoolExhaustedError, ServingError, ShapeError
from repro.nn import LayerKVCache
from repro.serving import PagedKVStore


@pytest.fixture()
def pool(smoke_config):
    return PagedKVStore(smoke_config, n_blocks=8, block_tokens=4)


class TestAccounting:
    def test_starts_empty(self, pool):
        assert pool.available_blocks == 8
        assert pool.used_blocks == 0
        assert pool.utilization == 0.0

    def test_blocks_for_tokens_rounds_up(self, pool):
        assert pool.blocks_for_tokens(0) == 0
        assert pool.blocks_for_tokens(1) == 1
        assert pool.blocks_for_tokens(4) == 1
        assert pool.blocks_for_tokens(5) == 2

    def test_fits(self, pool):
        assert pool.fits(32)
        assert not pool.fits(33)

    def test_bytes_allocated_matches_shape(self, pool, smoke_config):
        per_side = (
            smoke_config.n_layers
            * 8
            * smoke_config.kv_heads
            * 4
            * smoke_config.head_dim
            * 4  # float32
        )
        assert pool.bytes_allocated == 2 * per_side

    def test_allocation_moves_accounting(self, pool):
        blocks = pool.allocate(3)
        assert len(blocks) == 3
        assert pool.used_blocks == 3
        for block in blocks:
            pool.release_ref(block)
        assert pool.used_blocks == 0

    def test_exhaustion_raises_and_allocates_nothing(self, pool):
        pool.allocate(7)
        with pytest.raises(PoolExhaustedError):
            pool.allocate(2)
        assert pool.available_blocks == 1

    def test_double_release_detected(self, pool):
        block = pool.allocate(1)[0]
        pool.release_ref(block)
        with pytest.raises(ServingError):
            pool.release_ref(block)

    def test_release_validates_ids(self, pool):
        with pytest.raises(ServingError):
            pool.release_ref(99)


class TestSequenceCache:
    def test_reserve_then_append(self, pool, smoke_config):
        cache = pool.acquire_sequence()
        cache.reserve(6)
        assert cache.capacity == 8  # two blocks of four
        assert pool.used_blocks == 2
        assert cache.seq_len == 0

    def test_append_without_reserve_raises(self, pool, smoke_config):
        cache = pool.acquire_sequence()
        kv = np.zeros((1, smoke_config.kv_heads, 2, smoke_config.head_dim))
        with pytest.raises(PoolExhaustedError):
            cache.layers[0].append(kv, kv)

    def test_append_shape_validation(self, pool, smoke_config):
        cache = pool.acquire_sequence()
        cache.reserve(4)
        bad = np.zeros((2, smoke_config.kv_heads, 2, smoke_config.head_dim))
        with pytest.raises(ShapeError):
            cache.layers[0].append(bad, bad)

    def test_free_returns_blocks_and_closes(self, pool, smoke_config):
        cache = pool.acquire_sequence()
        cache.reserve(10)
        cache.free()
        assert pool.used_blocks == 0
        assert cache.closed
        with pytest.raises(ServingError):
            cache.reserve(1)
        cache.free()  # idempotent

    def test_reserve_failure_allocates_nothing(self, pool):
        hog = pool.acquire_sequence()
        hog.reserve(28)  # 7 blocks
        cache = pool.acquire_sequence()
        with pytest.raises(PoolExhaustedError):
            cache.reserve(8)  # needs 2, only 1 free
        assert pool.available_blocks == 1
        assert cache.capacity == 0

    def test_matches_contiguous_layer_cache(self, pool, smoke_config, rng):
        """Paged storage must gather to exactly what LayerKVCache returns."""
        cache = pool.acquire_sequence()
        reference = LayerKVCache()
        total = 0
        for chunk in (3, 1, 5, 4, 1):
            keys = rng.normal(
                size=(1, smoke_config.kv_heads, chunk, smoke_config.head_dim)
            ).astype(np.float32)
            values = rng.normal(size=keys.shape).astype(np.float32)
            cache.reserve(chunk)
            paged_k, paged_v = cache.layers[0].append(keys, values)
            ref_k, ref_v = reference.append(keys, values)
            total += chunk
            assert cache.layers[0].seq_len == total
            assert cache.seq_len == total
            np.testing.assert_array_equal(paged_k, ref_k)
            np.testing.assert_array_equal(paged_v, ref_v)

    def test_layers_are_independent(self, pool, smoke_config):
        cache = pool.acquire_sequence()
        cache.reserve(2)
        kv = np.ones((1, smoke_config.kv_heads, 2, smoke_config.head_dim))
        cache.layers[0].append(kv, kv)
        assert cache.layers[0].seq_len == 2
        assert cache.layers[1].seq_len == 0


@pytest.mark.parametrize("flavour", ("growable", "paged"))
def test_layer_cache_epoch_and_write_contract(flavour, smoke_config, rng):
    """Every layer-cache flavour: ``write`` appends without reading back,
    ``append`` is ``write`` plus the history read, and the epoch is fresh
    on creation and renewed by every ``truncate``."""
    def new_layer():
        if flavour == "growable":
            return LayerKVCache()
        sequence = PagedKVStore(smoke_config, n_blocks=8, block_tokens=4).acquire_sequence()
        sequence.reserve(12)
        return sequence.layers[0]

    layer = new_layer()
    other = new_layer()
    assert layer.epoch != other.epoch
    shape = (1, smoke_config.kv_heads, 3, smoke_config.head_dim)
    keys = rng.normal(size=shape).astype(np.float32)
    values = rng.normal(size=shape).astype(np.float32)
    epoch = layer.epoch
    assert layer.write(keys, values) is None
    assert layer.seq_len == 3 and layer.epoch == epoch
    full_k, full_v = layer.append(keys, values)
    np.testing.assert_array_equal(full_k, np.concatenate([keys, keys], axis=2))
    np.testing.assert_array_equal(full_v, np.concatenate([values, values], axis=2))
    assert layer.epoch == epoch
    layer.truncate(6)
    assert layer.epoch != epoch
    renewed = layer.epoch
    layer.truncate(2)
    assert layer.epoch not in (epoch, renewed) and layer.seq_len == 2
