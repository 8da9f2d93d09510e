"""Paged KV store invariants: refcounts, sealing, COW, eviction.

The store's safety argument rests on three invariants exercised here
directly (the engine tests cover the end-to-end identity contract):

1. every acquired reference is returned — refcounts drain to zero after
   completion, rollback, and cancellation, and ``used_blocks`` hits 0;
2. no page is ever mutated while shared — writes into sealed or
   multiply-referenced pages raise, and rollback into a shared sealed
   page *forks* a private copy instead of touching the original;
3. exhaustion throttles instead of crashing — allocation beyond free +
   reclaimable raises :class:`PoolExhaustedError` with no side effects,
   and reclaimable (sealed, unreferenced) pages are evicted LRU first.
"""

import numpy as np
import pytest

from repro.errors import PoolExhaustedError, ServingError
from repro.serving import PagedKVStore

PAGE = 4  # block_tokens used throughout


@pytest.fixture()
def store(smoke_config):
    return PagedKVStore(smoke_config, n_blocks=8, block_tokens=PAGE)


def kv_for(store, tokens):
    """Deterministic per-token KV content (token id broadcast everywhere),
    so two sequences writing the same tokens write identical bytes."""
    ids = np.asarray(tokens, dtype=np.float64).reshape(1, 1, -1, 1)
    return np.broadcast_to(
        ids, (1, store.kv_heads, len(tokens), store.head_dim)
    ).astype(store.dtype)


def fill(store, sequence, tokens):
    """Reserve, note, and append ``tokens`` across every layer."""
    sequence.reserve(len(tokens))
    sequence.note_tokens(tokens)
    kv = kv_for(store, tokens)
    for layer in sequence.layers:
        layer.append(kv, kv)


class TestAccounting:
    def test_starts_empty(self, store):
        assert store.available_blocks == 8
        assert store.used_blocks == 0
        assert store.cached_blocks == 0

    def test_refcounts_drain_to_zero_after_free(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(10)))  # 2 full pages + 2 slots
        assert store.used_blocks == 3
        pages = list(sequence.block_table)
        sequence.free()
        assert all(store.ref(page) == 0 for page in pages)
        assert store.used_blocks == 0
        # The two full pages stay warm in the index; the partial one is free.
        assert store.cached_blocks == 2
        assert store.reclaimable_blocks == 2
        assert store.available_blocks == 8

    def test_refcounts_drain_after_rollback_then_free(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(10)))
        sequence.truncate(3)  # back into the first (sealed) page
        pages = list(sequence.block_table)
        sequence.free()
        assert all(store.ref(page) == 0 for page in pages)
        assert store.used_blocks == 0

    def test_double_release_raises(self, store):
        (page,) = store.allocate(1)
        store.release_ref(page)
        with pytest.raises(ServingError):
            store.release_ref(page)


class TestSharing:
    def test_acquire_shares_sealed_prefix(self, store):
        tokens = list(range(9))
        first = store.allocate_sequence()
        fill(store, first, tokens)
        shared_page = first.block_table[0]
        second = store.acquire_sequence(tokens)
        # Match capped at len-1: both full pages hold 8 tokens but only
        # the first is matchable for a 9-token prompt... 8 // PAGE == 2
        # pages of cover; cap is (9-1)//4 = 2 pages.
        assert second.seq_len == 8
        assert second.block_table[:1] == [shared_page]
        assert store.ref(shared_page) == 2
        assert store.prefix_hits == 1
        assert store.shared_tokens == 8

    def test_match_capped_below_full_prompt(self, store):
        """A fully-indexed prompt still leaves >= 1 token to feed."""
        tokens = list(range(PAGE))
        first = store.allocate_sequence()
        fill(store, first, tokens)
        first.free()
        second = store.acquire_sequence(tokens)  # 4 tokens: cap = 0 pages
        assert second.seq_len == 0
        assert store.prefix_hits == 0

    def test_dedup_of_identical_concurrent_prefills(self, store):
        tokens = list(range(6))
        a = store.allocate_sequence()
        b = store.allocate_sequence()
        fill(store, a, tokens)
        fill(store, b, tokens)  # seals the same key: converges onto a's page
        assert a.block_table[0] == b.block_table[0]
        assert store.ref(a.block_table[0]) == 2
        # b's duplicate page went back to the free list.
        assert store.used_blocks == 3

    def test_warm_prefix_survives_completion(self, store):
        tokens = list(range(9))
        first = store.allocate_sequence()
        fill(store, first, tokens)
        first.free()
        second = store.acquire_sequence(tokens)
        assert second.seq_len == 8
        np.testing.assert_array_equal(
            second.layers[0].read()[0], kv_for(store, tokens[:8])
        )


class TestCopyOnWrite:
    def test_write_into_sealed_page_raises(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(5)))
        # Bypass sequence.truncate (which forks/unseals) to point a layer
        # cursor into the sealed page: the write guard must fire.
        for layer in sequence.layers:
            layer.truncate(2)
        kv = kv_for(store, [7])
        with pytest.raises(ServingError, match="COW violation"):
            sequence.layers[0].append(kv, kv)

    def test_rollback_into_shared_page_forks(self, store):
        tokens = list(range(9))
        first = store.allocate_sequence()
        fill(store, first, tokens)
        original = first.block_table[0]
        second = store.acquire_sequence(tokens)
        before = store.keys[:, original].copy()
        second.truncate(2)  # cut inside a page referenced by both
        fork = second.block_table[0]
        assert fork != original, "shared page must fork, not mutate"
        assert store.cow_forks == 1
        assert store.ref(original) == 1 and store.ref(fork) == 1
        # Original bytes untouched; fork carries the surviving slots.
        np.testing.assert_array_equal(store.keys[:, original], before)
        np.testing.assert_array_equal(
            store.keys[:, fork, :, :2], store.keys[:, original, :, :2]
        )
        # The forked page is private and writable again.
        kv = kv_for(store, [99, 98])
        for layer in second.layers:
            layer.append(kv, kv)
        np.testing.assert_array_equal(store.keys[:, original], before)

    def test_rollback_into_private_sealed_page_unseals(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(9)))
        page = sequence.block_table[0]
        assert store.is_sealed(page)
        sequence.truncate(2)
        assert not store.is_sealed(page)
        assert sequence.block_table[0] == page  # kept in place, now private
        # The chained second page (unreferenced descendant) was freed too.
        assert store.cached_blocks == 0

    def test_unseal_with_referenced_descendant_raises(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(9)))
        with pytest.raises(ServingError, match="descendant"):
            store.unseal_page(sequence.block_table[0])


class TestEvictionAndExhaustion:
    def test_exhaustion_raises_without_side_effects(self, store):
        sequence = store.allocate_sequence()
        sequence.reserve(8 * PAGE)  # every page referenced
        with pytest.raises(PoolExhaustedError):
            store.allocate(1)
        assert store.available_blocks == 0
        assert store.used_blocks == 8

    def test_reclaimable_pages_evicted_for_allocation(self, store):
        sequence = store.allocate_sequence()
        fill(store, sequence, list(range(9)))
        sequence.free()
        assert store.reclaimable_blocks == 2
        pages = store.allocate(8)  # needs both reclaimable pages back
        assert len(pages) == 8
        assert store.evictions == 2
        assert store.cached_blocks == 0

    def test_lru_order_respects_recent_matches(self, smoke_config):
        store = PagedKVStore(smoke_config, n_blocks=2, block_tokens=PAGE)
        tokens_a = list(range(0, 5))
        tokens_b = list(range(10, 15))
        a = store.allocate_sequence()
        fill(store, a, tokens_a[:PAGE])
        a.note_tokens(tokens_a[PAGE:])
        a.free()
        b = store.allocate_sequence()
        fill(store, b, tokens_b[:PAGE])
        b.note_tokens(tokens_b[PAGE:])
        b.free()
        page_a = store.match_pages(tokens_a)[0][0]  # touch A: B becomes LRU
        store.allocate(1)
        assert store.is_sealed(page_a)
        assert store.cached_blocks == 1


class TestNoteTokens:
    def test_out_of_step_note_raises(self, store):
        sequence = store.allocate_sequence()
        sequence.reserve(2)
        kv = kv_for(store, [1, 2])
        for layer in sequence.layers:
            layer.append(kv, kv)  # appended without noting
        with pytest.raises(ServingError, match="out of step"):
            sequence.note_tokens([1, 2])

    def test_unnoted_pages_never_seal(self, store):
        sequence = store.allocate_sequence()
        sequence.reserve(2 * PAGE)
        kv = kv_for(store, list(range(2 * PAGE)))
        for layer in sequence.layers:
            layer.append(kv, kv)
        assert store.cached_blocks == 0
