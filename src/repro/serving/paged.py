"""Global paged KV store with cross-request prefix sharing.

The per-request :class:`~repro.serving.pool.KVBlockPool` hands every
sequence its own private blocks, so N requests carrying the same system
prompt each prefill it and each hold a full copy of its KV state.  At
multi-tenant scale that is the dominant waste: the paper's serving-side
memory argument (Section 2.2, Figure 12) already makes KV state the
bottleneck, and most production traffic shares prompt prefixes.

This module is the serving-side answer (vLLM/SGLang-style):

- :class:`PagedKVStore` owns one fixed arena of *pages* (fixed-size token
  slots across every layer, same geometry as the block pool) behind a
  single allocator with **per-page reference counts**.
- A **radix index** keyed on token ids maps full pages of already-computed
  prefixes to their page ids.  ``acquire_sequence(tokens)`` walks it and
  returns a sequence cache whose block table starts with the matched
  pages — the shared prefix is *never prefilled again*; only the suffix
  past the match runs through the model.
- Pages are **copy-on-write**: a page is sealed (inserted into the index)
  once every layer has written all of its slots, and a sealed page is
  immutable.  Rolling a sequence back *into* a sealed page (speculative
  draft rejection) forks a private copy when the page is shared and
  unseals it when it is not; appending into a sealed or shared page raises
  — mutation of shared state is a hard error, not a silent corruption.
- Released pages whose refcount hits zero stay in the index as
  *reclaimable* until the allocator needs them (LRU eviction of leaf
  pages), so a tenant prefix stays warm across request lifetimes — a
  finished request's prompt pages serve the next arrival for free.

Exactness: KV entries are a deterministic function of the token prefix
and absolute positions (RoPE included), so serving from shared pages is
bit-identical to re-prefilling — the engine's token-for-token identity
contract against the unshared pool holds on every trace.

``PagedSequenceCache`` satisfies the same ``seq_len`` / ``kv_slots`` /
``reserve`` / ``truncate`` / ``free`` contract as
:class:`~repro.serving.pool.PooledSequenceCache`, so the engine, the
ragged runtime caches in :mod:`repro.nn.kv_cache`, and the attention
kernels are oblivious to the sharing.  The one addition is
``note_tokens``: the scheduler tells the cache which token ids the next
forward will append, which is what keys the radix index.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PoolExhaustedError, ServingError
from repro.models.config import ModelConfig
from repro.nn.kv_cache import KVSlots, uniform_length
from repro.serving.pool import PooledLayerCache, block_slots


class _RadixNode:
    """One sealed page in the prefix tree.

    ``tokens`` is the full-page token tuple that labels the edge from the
    parent; the root is a sentinel with no page.  Children are keyed by
    their token tuple, so lookup is one dict probe per page.
    """

    __slots__ = ("tokens", "page", "parent", "children", "touch")

    def __init__(
        self,
        tokens: Tuple[int, ...],
        page: int,
        parent: Optional["_RadixNode"],
    ) -> None:
        self.tokens = tokens
        self.page = page
        self.parent = parent
        self.children: Dict[Tuple[int, ...], "_RadixNode"] = {}
        self.touch = 0


class PagedKVStore:
    """A refcounted page arena plus a radix index over sealed prefixes.

    Exposes the same accounting surface as
    :class:`~repro.serving.pool.KVBlockPool` (``n_blocks`` /
    ``block_tokens`` / ``available_blocks`` / ``used_blocks`` / ``fits``)
    so the engine's admission control works unchanged.  ``used_blocks``
    counts pages referenced by live sequences; sealed pages at refcount
    zero are *reclaimable* and counted available — they are cache, not
    occupancy.
    """

    def __init__(
        self,
        config: ModelConfig,
        n_blocks: int = 256,
        block_tokens: int = 16,
        dtype=np.float32,
        kv_heads: Optional[int] = None,
        n_layers: Optional[int] = None,
    ) -> None:
        if n_blocks <= 0 or block_tokens <= 0:
            raise ServingError("n_blocks and block_tokens must be positive")
        if kv_heads is not None and not 0 < kv_heads <= config.kv_heads:
            raise ServingError(
                f"kv_heads override {kv_heads} outside (0, {config.kv_heads}]"
            )
        if n_layers is not None and not 0 < n_layers <= config.n_layers:
            raise ServingError(
                f"n_layers override {n_layers} outside (0, {config.n_layers}]"
            )
        self.config = config
        self.n_blocks = int(n_blocks)
        self.block_tokens = int(block_tokens)
        self.kv_heads = int(kv_heads) if kv_heads is not None else config.kv_heads
        self.n_layers = int(n_layers) if n_layers is not None else config.n_layers
        self.head_dim = config.head_dim
        self.dtype = np.dtype(dtype)
        shape = (
            self.n_layers,
            self.n_blocks,
            self.kv_heads,
            self.block_tokens,
            self.head_dim,
        )
        self.keys = np.zeros(shape, dtype=self.dtype)
        self.values = np.zeros(shape, dtype=self.dtype)
        self._free: List[int] = list(range(self.n_blocks - 1, -1, -1))
        self._ref: List[int] = [0] * self.n_blocks
        self._root = _RadixNode((), -1, None)
        # Variant-namespaced radix roots: sealed KV is a function of the
        # *computing model*, not just the token ids, so an adaptively
        # routed engine indexes each variant's pages under its own root —
        # a dense-floor request must never be served rank-1-computed pages.
        self._namespace_roots: Dict[str, _RadixNode] = {}
        self._nodes: Dict[int, _RadixNode] = {}  # sealed page id -> node
        self._tick = 0
        # -- sharing telemetry (per store lifetime) ------------------------
        self.prefix_lookups = 0   # acquire_sequence calls with a token key
        self.prefix_hits = 0      # lookups that matched >= 1 page
        self.shared_tokens = 0    # prefill tokens served from the index
        self.cow_forks = 0        # sealed pages forked on rollback
        self.evictions = 0        # reclaimable pages evicted for allocation
        self.sealed_total = 0     # pages ever inserted into the index

    # -- accounting --------------------------------------------------------
    @property
    def reclaimable_blocks(self) -> int:
        """Sealed pages no live sequence references (evictable cache)."""
        return sum(1 for page in self._nodes if self._ref[page] == 0)

    @property
    def available_blocks(self) -> int:
        return len(self._free) + self.reclaimable_blocks

    @property
    def used_blocks(self) -> int:
        """Pages pinned by live sequences (refcount > 0)."""
        return self.n_blocks - self.available_blocks

    @property
    def cached_blocks(self) -> int:
        """Pages present in the radix index (shared or reclaimable)."""
        return len(self._nodes)

    @property
    def utilization(self) -> float:
        return self.used_blocks / self.n_blocks

    @property
    def bytes_allocated(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def blocks_for_tokens(self, tokens: int) -> int:
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_tokens)

    def fits(self, tokens: int) -> bool:
        return self.blocks_for_tokens(tokens) <= self.n_blocks

    def ref(self, page: int) -> int:
        return self._ref[page]

    def is_sealed(self, page: int) -> bool:
        return page in self._nodes

    # -- allocator ---------------------------------------------------------
    def allocate(self, n: int) -> List[int]:
        """Take ``n`` fresh pages (refcount 1 each), evicting reclaimable
        index pages LRU when the free list runs dry.

        Raises :class:`PoolExhaustedError` without side effects when even
        eviction cannot supply ``n`` pages — the admission-throttle signal.
        """
        if n < 0:
            raise ServingError("cannot allocate a negative page count")
        if n > len(self._free) + self.reclaimable_blocks:
            raise PoolExhaustedError(
                f"need {n} pages, {len(self._free)} free + "
                f"{self.reclaimable_blocks} reclaimable of {self.n_blocks}"
            )
        while len(self._free) < n:
            if not self._evict_one():
                raise PoolExhaustedError(
                    f"need {n} pages, eviction stalled at {len(self._free)} free"
                )
        taken = self._free[-n:] if n else []
        del self._free[len(self._free) - n :]
        for page in taken:
            if self._ref[page] != 0:
                raise ServingError(f"free-list page {page} has refcount {self._ref[page]}")
            self._ref[page] = 1
        return taken

    def _evict_one(self) -> bool:
        """Drop the least-recently-touched unreferenced *leaf* page."""
        victim: Optional[_RadixNode] = None
        for page, node in self._nodes.items():
            if self._ref[page] != 0 or node.children:
                continue
            if victim is None or node.touch < victim.touch:
                victim = node
        if victim is None:
            return False
        self._remove_node(victim)
        self._free.append(victim.page)
        self.evictions += 1
        return True

    def _remove_node(self, node: _RadixNode) -> None:
        del node.parent.children[node.tokens]
        del self._nodes[node.page]

    def release_ref(self, page: int) -> None:
        """Drop one reference; unsealed pages return to the free list at
        zero, sealed pages stay reclaimable in the index."""
        if not 0 <= page < self.n_blocks:
            raise ServingError(f"page id {page} outside store")
        if self._ref[page] <= 0:
            raise ServingError(f"double release detected on page {page}")
        self._ref[page] -= 1
        if self._ref[page] == 0 and page not in self._nodes:
            self._free.append(page)

    # -- radix index -------------------------------------------------------
    def _touch(self, node: _RadixNode) -> None:
        self._tick += 1
        node.touch = self._tick

    def root_for(self, namespace: Optional[str]) -> _RadixNode:
        """The radix root for a sharing namespace (None: the default)."""
        if namespace is None:
            return self._root
        root = self._namespace_roots.get(namespace)
        if root is None:
            root = _RadixNode((), -1, None)
            self._namespace_roots[namespace] = root
        return root

    def match_pages(
        self, tokens, root: Optional[_RadixNode] = None
    ) -> Tuple[List[int], _RadixNode]:
        """Longest full-page chain in the index matching ``tokens``.

        The match is capped at ``len(tokens) - 1`` positions: the engine
        always feeds at least the final token through the model to produce
        next-token logits, so a fully-covered prefix would leave it with
        an empty prefill chunk.
        """
        ids = [int(t) for t in np.asarray(tokens).reshape(-1)]
        max_pages = max(0, (len(ids) - 1) // self.block_tokens)
        node = self._root if root is None else root
        pages: List[int] = []
        for index in range(max_pages):
            key = tuple(ids[index * self.block_tokens : (index + 1) * self.block_tokens])
            child = node.children.get(key)
            if child is None:
                break
            node = child
            self._touch(node)
            pages.append(node.page)
        return pages, node

    def seal_page(
        self, parent: _RadixNode, key: Tuple[int, ...], page: int
    ) -> _RadixNode:
        """Insert a fully-written page under ``parent``; returns its node.

        If an identical page already hangs there (two equal prefixes
        prefilled concurrently), the existing node wins and the caller is
        expected to swap its block table onto it (dedup) — KV content for
        equal token prefixes is bit-identical by construction.
        """
        if len(key) != self.block_tokens:
            raise ServingError(
                f"seal key must cover a full page ({self.block_tokens} tokens), "
                f"got {len(key)}"
            )
        existing = parent.children.get(key)
        if existing is not None:
            self._touch(existing)
            return existing
        node = _RadixNode(key, page, parent)
        parent.children[key] = node
        self._nodes[page] = node
        self._touch(node)
        self.sealed_total += 1
        return node

    def unseal_page(self, page: int) -> None:
        """Remove a page (and its now-orphaned subtree) from the index.

        Used when a rollback truncates into a sealed page that only its
        owner references: the page's tail will be rewritten, so its index
        entry — and every descendant chain through it — no longer names
        valid content.  Descendants are necessarily unreferenced (any
        holder of a descendant also holds this page), so they go straight
        to the free list.
        """
        node = self._nodes.get(page)
        if node is None:
            raise ServingError(f"page {page} is not sealed")
        stack = list(node.children.values())
        while stack:
            child = stack.pop()
            stack.extend(child.children.values())
            if self._ref[child.page] != 0:
                raise ServingError(
                    f"unseal of page {page} found referenced descendant {child.page}"
                )
            self._remove_node(child)
            self._free.append(child.page)
        self._remove_node(node)

    # -- sequences ---------------------------------------------------------
    def acquire_sequence(
        self, tokens=None, namespace: Optional[str] = None
    ) -> "PagedSequenceCache":
        """A sequence cache pre-seeded with the longest indexed prefix of
        ``tokens`` (no tokens: a fresh empty cache).

        ``namespace`` confines matching *and* future sealing to one radix
        root — the routed engine passes the computing variant's spec so
        prefixes are only ever shared between requests served by the same
        weights.
        """
        root = self.root_for(namespace)
        if tokens is None or np.asarray(tokens).size == 0:
            return PagedSequenceCache(self, [], [], root, root=root)
        ids = [int(t) for t in np.asarray(tokens).reshape(-1)]
        pages, node = self.match_pages(ids, root=root)
        self.prefix_lookups += 1
        if pages:
            self.prefix_hits += 1
            self.shared_tokens += len(pages) * self.block_tokens
        for page in pages:
            self._ref[page] += 1
        shared = len(pages) * self.block_tokens
        return PagedSequenceCache(self, pages, ids[:shared], node, root=root)

    def allocate_sequence(self) -> "PagedSequenceCache":
        """Pool-compatible alias: a fresh cache with no prefix lookup."""
        return self.acquire_sequence(None)

    # -- page data ---------------------------------------------------------
    def copy_page(self, src: int, dst: int, slots: int) -> None:
        """Copy the first ``slots`` token slots of ``src`` into ``dst``
        across every layer (the COW fork)."""
        self.keys[:, dst, :, :slots] = self.keys[:, src, :, :slots]
        self.values[:, dst, :, :slots] = self.values[:, src, :, :slots]


class PagedLayerCache(PooledLayerCache):
    """One layer's slots of one sequence, backed by shared store pages.

    Same ``seq_len`` / ``epoch`` / ``write`` / ``read`` / ``append`` /
    ``truncate`` contract as :class:`~repro.serving.pool.PooledLayerCache`;
    the only behavioural difference lives in the sequence's write checks —
    appending into a sealed or shared page is a COW violation and raises
    instead of corrupting a neighbour.  The epoch is renewed on creation
    and on every ``truncate``; a COW fork or unseal only happens inside a
    truncate, and a dedup swap replaces a page with a bit-identical one,
    so while the epoch holds the first ``seq_len`` positions read back
    unchanged.
    """


class PagedSequenceCache:
    """Per-request view over shared store pages, with COW bookkeeping.

    Structurally compatible with
    :class:`~repro.serving.pool.PooledSequenceCache` (``.layers`` /
    ``seq_len`` / ``reserve`` / ``truncate`` / ``free``).  The sealed
    region of the block table — the first ``_sealed_pages`` entries — is
    immutable and potentially shared; everything past it is private.
    """

    def __init__(
        self,
        store: PagedKVStore,
        block_table: List[int],
        tokens: List[int],
        parent_node: _RadixNode,
        root: Optional[_RadixNode] = None,
    ) -> None:
        self.store = store
        self.block_table = list(block_table)
        self.closed = False
        shared = len(self.block_table) * store.block_tokens
        self._tokens: List[int] = list(tokens)
        self._parent_node = parent_node
        self._root = root if root is not None else store._root
        self._sealed_pages = len(self.block_table)
        self._seal_frozen = False
        self.layers: List[PagedLayerCache] = [
            PagedLayerCache(self, store, layer, shared)
            for layer in range(store.n_layers)
        ]

    # -- pool-compatible surface -------------------------------------------
    @property
    def seq_len(self) -> int:
        return self.layers[0].seq_len

    @property
    def capacity(self) -> int:
        return len(self.block_table) * self.store.block_tokens

    def __getitem__(self, index: int) -> PagedLayerCache:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    def kv_slots(self, new_tokens: int, heads: int, head_dim: int) -> KVSlots:
        """Where the next ``new_tokens`` positions live in every layer.

        Capacity, copy-on-write and freed-sequence checks run here, once,
        before anything is written; ``after`` seals the pages the write
        completes.
        """
        return self._slots(uniform_length(self.layers), (1, heads, new_tokens, head_dim))

    def _slots(self, start: int, shape: tuple) -> KVSlots:
        store = self.store
        pages, slots = block_slots(self, store, "paged", start, shape)
        for page in set(pages):
            self._check_writable(page)
        page_size = store.block_tokens
        end = start + shape[2]
        # Sealing only matters when the write can complete a page.
        after = self._maybe_seal if end // page_size > self._sealed_pages else None
        return KVSlots(store, store.keys, store.values, pages, slots, after)

    def _check_writable(self, page: int) -> None:
        store = self.store
        if store.is_sealed(page):
            raise ServingError(
                f"COW violation: write into sealed page {page} "
                "(rollback must fork before the next append)"
            )
        if store.ref(page) != 1:
            raise ServingError(
                f"COW violation: write into page {page} with refcount "
                f"{store.ref(page)}"
            )

    def reserve(self, new_tokens: int) -> None:
        if self.closed:
            raise ServingError("cannot reserve on a freed sequence cache")
        if new_tokens < 0:
            raise ServingError("new_tokens must be non-negative")
        needed = self.store.blocks_for_tokens(self.seq_len + new_tokens)
        missing = needed - len(self.block_table)
        if missing > 0:
            self.block_table.extend(self.store.allocate(missing))

    def note_tokens(self, tokens) -> None:
        """Record the token ids the next forward will append.

        The engine calls this with each row's feed (prefill chunk, decode
        token, or chunk + draft proposals) before the forward pass; the
        recorded ids are what key sealed pages into the radix index.
        """
        if self.closed:
            raise ServingError("cannot note tokens on a freed sequence cache")
        ids = [int(t) for t in np.asarray(tokens).reshape(-1)]
        if len(self._tokens) != self.seq_len:
            raise ServingError(
                f"token note out of step: {len(self._tokens)} recorded ids "
                f"for {self.seq_len} cached positions"
            )
        self._tokens.extend(ids)

    def truncate(self, length: int) -> None:
        """Roll back to ``length`` positions, honouring copy-on-write.

        Pages past the kept region drop one reference (sealed ones stay
        reclaimable in the index).  When the cut lands *inside* a sealed
        page, the page is forked to a private copy if anyone else holds it
        and unsealed otherwise — a rolled-back shared page is never
        mutated in place.
        """
        if self.closed:
            raise ServingError("cannot truncate a freed sequence cache")
        length = int(length)
        for layer in self.layers:
            layer.truncate(length)
        del self._tokens[length:]
        store = self.store
        keep = store.blocks_for_tokens(length)
        if keep < len(self.block_table):
            for page in self.block_table[keep:]:
                store.release_ref(page)
            del self.block_table[keep:]
        full_pages = length // store.block_tokens
        partial = length % store.block_tokens
        if partial and full_pages < self._sealed_pages:
            # The cut is inside a sealed page: its tail will be rewritten.
            page = self.block_table[full_pages]
            if store.ref(page) > 1:
                fork = store.allocate(1)[0]
                store.copy_page(page, fork, partial)
                self.block_table[full_pages] = fork
                store.release_ref(page)
                store.cow_forks += 1
            else:
                store.unseal_page(page)
        self._sealed_pages = min(self._sealed_pages, full_pages)
        self._parent_node = (
            store._nodes[self.block_table[self._sealed_pages - 1]]
            if self._sealed_pages > 0
            else self._root
        )

    def free(self) -> None:
        """Drop every page reference; the cache becomes unusable.  Sealed
        pages stay warm in the index for the next matching request."""
        if self.closed:
            return
        for page in self.block_table:
            self.store.release_ref(page)
        self.block_table = []
        self._tokens = []
        self.closed = True

    # -- sealing -----------------------------------------------------------
    def freeze_sealing(self) -> None:
        """Permanently stop this cache from sealing new pages.

        The routed engine calls this on a mid-flight variant hot-swap: a
        sealed page advertises "KV computed by this namespace's variant"
        to future prefix matches, and positions appended after the swap
        were computed by a *different* variant.  Pages sealed before the
        freeze are pure admission-variant content (sealing is strictly
        front-to-back) and stay shared.
        """
        self._seal_frozen = True

    def _maybe_seal(self) -> None:
        """Seal every page all layers have fully written and whose token
        ids are known, chaining each into the radix index.

        If an identical page already hangs at the same spot (two equal
        prefixes prefilled in the same window), the block table is swapped
        onto the existing page and the duplicate freed — N concurrent
        identical prefills converge to one physical copy.
        """
        if self._seal_frozen:
            return
        store = self.store
        page_size = store.block_tokens
        min_len = min(layer._len for layer in self.layers)
        want = min(min_len // page_size, len(self._tokens) // page_size)
        while self._sealed_pages < want:
            index = self._sealed_pages
            page = self.block_table[index]
            key = tuple(self._tokens[index * page_size : (index + 1) * page_size])
            node = store.seal_page(self._parent_node, key, page)
            if node.page != page:
                # Dedup: an identical sealed page already exists; share it.
                store._ref[node.page] += 1
                self.block_table[index] = node.page
                store.release_ref(page)
            self._parent_node = node
            self._sealed_pages += 1


__all__ = ["PagedKVStore", "PagedLayerCache", "PagedSequenceCache"]
