"""Stateful check of the paged KV store: every operation, every invariant.

A hypothesis state machine drives one small :class:`PagedKVStore` through
interleaved acquisitions (keyed or not, in two sharing namespaces),
reservations, noted and unnoted writes through the ``kv_slots`` resolver,
rollbacks, seal freezes and frees.  Like the engine, each sequence first
feeds its prompt (a few prompts recur, so pages get matched, deduplicated
and forked) and then free-running ids.  After every step it checks the
store's bookkeeping against a plain model of the live sequences, and
every live sequence's history against a per-sequence
:class:`~repro.nn.kv_cache.LayerKVCache` fed the same writes.

KV content is a deterministic function of (namespace, token id,
position, layer), like real KV is of the computing model and the prefix,
so sharing a sealed page is only correct where the real store would
share it: any wrong match, dedup or fork shows up as a history mismatch.
"""

import hashlib

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import PoolExhaustedError
from repro.models import TINY_LLAMA
from repro.nn import LayerKVCache
from repro.serving import PagedKVStore

PAGE = 2
N_BLOCKS = 6
N_LAYERS = 2
NAMESPACES = {None: 0.0, "low-rank": 1000.0}
PROMPTS = [(0, 0, 1, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1), (1, 0, 1, 0, 1), ()]


def kv_for(store, salt, tokens, start, layer):
    """(1, H, T, Dh) entries for ``tokens`` written from ``start``."""
    ids = np.asarray(tokens, dtype=np.float64)
    positions = np.arange(start, start + len(tokens), dtype=np.float64)
    rows = 1.0 + salt + 10.0 * ids + 0.01 * positions + 0.5 * layer
    shape = (1, store.kv_heads, len(tokens), store.head_dim)
    return np.broadcast_to(rows.reshape(1, 1, -1, 1), shape).astype(store.dtype)


class Live:
    """One live sequence and what the model expects of it."""

    def __init__(self, cache, prompt, namespace, noted, store):
        self.cache = cache
        self.prompt = list(prompt)
        self.namespace = namespace
        self.salt = salt = NAMESPACES[namespace]
        self.noted = noted
        self.frozen = False
        # Sealed pages the sequence may hold without ever sealing one
        # itself: its matched prefix, shrunk by rollbacks.
        self.matched_pages = len(cache.block_table)
        self.sealed = cache._sealed_pages
        tokens = list(cache._tokens)
        self.reference = []
        for layer in range(N_LAYERS):
            ref = LayerKVCache()
            if tokens:
                kv = kv_for(store, salt, tokens, 0, layer)
                ref.append(kv, kv)
            self.reference.append(ref)


class PagedStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = PagedKVStore(
            TINY_LLAMA, n_blocks=N_BLOCKS, block_tokens=PAGE, n_layers=N_LAYERS
        )
        self.live = []
        self.sealed_hashes = {}

    def pick(self, index):
        return self.live[index % len(self.live)]

    def feed(self, seq, ids):
        """Reserve, note (if the sequence notes) and write ``ids``."""
        cache, store = seq.cache, self.store
        try:
            cache.reserve(len(ids))
        except PoolExhaustedError:
            return
        if seq.noted:
            cache.note_tokens(ids)
        start = cache.seq_len
        target = cache.kv_slots(len(ids), store.kv_heads, store.head_dim)
        for layer, cache_layer in enumerate(cache.layers):
            kv = kv_for(store, seq.salt, ids, start, layer)
            entries = kv[0].swapaxes(0, 1)
            target.keys[layer][target.blocks, :, target.slots] = entries
            target.values[layer][target.blocks, :, target.slots] = entries
            cache_layer.advance(len(ids))
            seq.reference[layer].append(kv, kv)
        if target.after is not None:
            target.after()

    # -- rules -----------------------------------------------------------
    @rule(
        keyed=st.booleans(),
        noted=st.booleans(),
        namespace=st.sampled_from(sorted(NAMESPACES, key=str)),
        prompt=st.sampled_from(PROMPTS),
        prefill=st.booleans(),
    )
    def acquire(self, keyed, noted, namespace, prompt, prefill):
        cache = self.store.acquire_sequence(prompt if keyed else None, namespace=namespace)
        if not keyed:
            assert cache.seq_len == 0 and cache.block_table == []
        seq = Live(cache, prompt, namespace, noted or keyed, self.store)
        self.live.append(seq)
        if prefill and cache.seq_len < len(prompt):
            self.feed(seq, prompt[cache.seq_len :])

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63), last=st.integers(0, 1))
    def acquire_like(self, index, last):
        """A keyed acquisition whose prompt is a live sequence's noted
        history plus one token — a second tenant on the same prefix."""
        source = self.pick(index)
        prompt = [*source.cache._tokens, last]
        cache = self.store.acquire_sequence(prompt, namespace=source.namespace)
        self.live.append(Live(cache, prompt, source.namespace, True, self.store))

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63), new_tokens=st.integers(0, 8))
    def reserve(self, index, new_tokens):
        seq = self.pick(index)
        table, free = list(seq.cache.block_table), list(self.store._free)
        try:
            seq.cache.reserve(new_tokens)
        except PoolExhaustedError:
            assert seq.cache.block_table == table and self.store._free == free

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63), size=st.integers(1, 5),
          free_ids=st.lists(st.integers(0, 1), min_size=5, max_size=5))
    def write(self, index, size, free_ids):
        seq = self.pick(index)
        start = seq.cache.seq_len
        self.feed(seq, seq.prompt[start : start + size] or free_ids[:size])

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63), cut=st.integers(0, 63))
    def truncate(self, index, cut):
        seq = self.pick(index)
        cache = seq.cache
        length = cut % (cache.seq_len + 1)

        def state():
            return (
                cache.seq_len, list(cache.block_table), list(cache._tokens),
                cache._sealed_pages, [layer.epoch for layer in cache.layers],
                list(self.store._ref),
            )

        before = state()
        try:
            cache.truncate(length)
        except PoolExhaustedError:
            assert state() == before
            return
        for ref in seq.reference:
            ref.truncate(length)
        seq.matched_pages = min(seq.matched_pages, length // PAGE)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63))
    def freeze_sealing(self, index):
        seq = self.pick(index)
        seq.cache.freeze_sealing()
        seq.frozen = True

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, 63))
    def free(self, index):
        seq = self.live.pop(index % len(self.live))
        seq.cache.free()
        seq.cache.free()  # idempotent
        assert seq.cache.closed and seq.cache.block_table == []

    # -- invariants ------------------------------------------------------
    @invariant()
    def refcounts_match_block_tables(self):
        counts = [0] * N_BLOCKS
        for seq in self.live:
            for page in seq.cache.block_table:
                counts[page] += 1
        assert list(self.store._ref) == counts

    @invariant()
    def sealed_regions_are_indexed(self):
        for seq in self.live:
            for page in seq.cache.block_table[: seq.cache._sealed_pages]:
                assert self.store.is_sealed(page)

    @invariant()
    def free_pages_are_unmapped(self):
        free = self.store._free
        mapped = {page for seq in self.live for page in seq.cache.block_table}
        sealed = set(self.store._nodes)
        assert len(set(free)) == len(free)
        assert not set(free) & mapped and not set(free) & sealed
        assert len(free) + len(mapped | sealed) == N_BLOCKS

    @invariant()
    def sealed_pages_never_change(self):
        store = self.store
        hashes = {}
        for page, node in store._nodes.items():
            digest = hashlib.sha256(
                store.keys[:, page].tobytes() + store.values[:, page].tobytes()
            ).hexdigest()
            previous = self.sealed_hashes.get(page)
            if previous is not None and previous[0] is node:
                assert previous[1] == digest, f"sealed page {page} was mutated"
            hashes[page] = (node, digest)
        self.sealed_hashes = hashes

    @invariant()
    def radix_nodes_name_sealed_pages(self):
        store = self.store
        reached = 0
        stack = [store._root, *store._namespace_roots.values()]
        while stack:
            node = stack.pop()
            for key, child in node.children.items():
                assert child.tokens == key and child.parent is node
                assert len(key) == PAGE
                assert store._nodes.get(child.page) is child
                reached += 1
                stack.append(child)
        assert reached == len(store._nodes)

    @invariant()
    def unnoted_sequences_never_seal(self):
        for seq in self.live:
            if not seq.noted:
                for page in seq.cache.block_table[seq.matched_pages:]:
                    assert not self.store.is_sealed(page)
            if seq.frozen:
                assert seq.cache._sealed_pages <= seq.sealed
            seq.sealed = seq.cache._sealed_pages

    @invariant()
    def histories_match_reference(self):
        for seq in self.live:
            for layer, ref in zip(seq.cache.layers, seq.reference):
                assert layer.seq_len == ref.seq_len
                if ref.seq_len == 0:
                    continue
                keys, values = layer.read()
                ref_keys, ref_values = ref.read()
                np.testing.assert_array_equal(keys, ref_keys)
                np.testing.assert_array_equal(values, ref_values)


PagedStoreMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestPagedStoreMachine = PagedStoreMachine.TestCase
