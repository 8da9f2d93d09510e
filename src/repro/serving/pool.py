"""Preallocated block-based KV-cache pool shared across requests.

The paper's serving-side memory argument (Section 2.2, Figure 12) is that
decode-phase state — the KV cache — dominates GPU memory at realistic batch
sizes.  Production engines therefore never allocate per-request contiguous
caches; they carve a fixed arena into fixed-size *blocks* of token slots
and hand blocks to requests on demand (vLLM's PagedAttention).  This module
is the NumPy analogue:

- :class:`KVBlockPool` owns one preallocated array per side (K/V) holding
  ``n_blocks`` blocks of ``block_tokens`` token slots for *every* layer, so
  a block id is valid across layers and one allocation covers the whole
  model.
- :class:`PooledSequenceCache` is a per-request view: an ordered block
  table plus per-layer write cursors.  Its layers satisfy the same
  ``seq_len`` / ``epoch`` / ``write`` / ``read`` / ``append`` contract as
  :class:`~repro.nn.kv_cache.LayerKVCache`, and the sequence answers the
  same ``kv_slots`` resolver as :class:`~repro.nn.kv_cache.ModelKVCache`,
  so attention code is oblivious to the pooling.

Capacity is *reserved* ahead of a forward pass (``reserve``) so admission
control and preemption decisions happen in the scheduler, not mid-layer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import PoolExhaustedError, ServingError, ShapeError
from repro.models.config import ModelConfig
from repro.nn.kv_cache import KVSlots, LayerLength, check_entries, uniform_length


class KVBlockPool:
    """A fixed arena of KV-cache blocks shared by all in-flight requests."""

    def __init__(
        self,
        config: ModelConfig,
        n_blocks: int = 256,
        block_tokens: int = 16,
        dtype=np.float32,
        kv_heads: Optional[int] = None,
        n_layers: Optional[int] = None,
    ) -> None:
        """``kv_heads`` overrides the model's KV head count — a
        tensor-parallel rank pools only its covering KV-head slice; a
        pipeline stage passes ``n_layers`` so its pool holds only the
        stage's own decoder layers."""
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
        # LIFO free list: recently released blocks are reused first (warm).
        self._free: List[int] = list(range(self.n_blocks - 1, -1, -1))

    # -- accounting --------------------------------------------------------
    @property
    def available_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - len(self._free)

    @property
    def utilization(self) -> float:
        return self.used_blocks / self.n_blocks

    def blocks_for_tokens(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` cache slots."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.block_tokens)

    def fits(self, tokens: int) -> bool:
        """Whether a sequence of ``tokens`` positions could *ever* be held."""
        return self.blocks_for_tokens(tokens) <= self.n_blocks

    @property
    def bytes_allocated(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    # -- block management --------------------------------------------------
    def allocate(self, n: int) -> List[int]:
        if n < 0:
            raise ServingError("cannot allocate a negative block count")
        if n > len(self._free):
            raise PoolExhaustedError(
                f"need {n} blocks, {len(self._free)}/{self.n_blocks} free"
            )
        taken = self._free[-n:] if n else []
        del self._free[len(self._free) - n :]
        return taken

    def release(self, blocks: List[int]) -> None:
        for block in blocks:
            if not 0 <= block < self.n_blocks:
                raise ServingError(f"block id {block} outside pool")
        self._free.extend(blocks)
        if len(self._free) > self.n_blocks:
            raise ServingError("double release detected: free list overflow")

    def allocate_sequence(self) -> "PooledSequenceCache":
        """A fresh zero-length per-request cache drawing from this pool."""
        return PooledSequenceCache(self)


def block_slots(sequence, store, kind: str, start: int, shape: tuple) -> tuple:
    """``(blocks, slots)`` of a block-table sequence's positions
    ``[start, start + T)`` for ``shape = (1, H, T, Dh)`` entries.

    Raises before anything is written: ShapeError on entries the store
    cannot hold, ServingError on a freed sequence, PoolExhaustedError past
    the reserved capacity.
    """
    batch, heads, new_tokens, head_dim = shape
    if batch != 1 or heads != store.kv_heads or head_dim != store.head_dim:
        raise ShapeError(
            f"{kind} cache expects (1, {store.kv_heads}, T, {store.head_dim}); "
            f"got {shape}"
        )
    if sequence.closed:
        raise ServingError("cannot append to a freed sequence cache")
    if start + new_tokens > sequence.capacity:
        raise PoolExhaustedError(
            f"append of {new_tokens} exceeds reserved capacity "
            f"{sequence.capacity} (len {start}); call reserve() first"
        )
    size = store.block_tokens
    table = sequence.block_table
    positions = range(start, start + new_tokens)
    return [table[p // size] for p in positions], [p % size for p in positions]


class PooledLayerCache(LayerLength):
    """One layer's cache slots of one sequence, backed by store blocks.

    Satisfies the :class:`~repro.nn.kv_cache.LayerKVCache` contract used by
    :class:`~repro.nn.attention.MultiHeadAttention`.  ``write`` resolves
    its positions through the sequence's checks (the same ones
    ``kv_slots`` runs) and scatters them into the store.
    """

    def __init__(self, sequence, store, layer: int, length: int = 0) -> None:
        super().__init__(length)
        self._sequence = sequence
        self._store = store
        self._layer = layer

    def write(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write new (1, H, T, Dh) positions into the reserved blocks
        without reading history back."""
        keys, values = check_entries(keys, values)
        target = self._sequence._slots(self._len, keys.shape)
        layer = self._layer
        target.keys[layer][target.blocks, :, target.slots] = keys[0].swapaxes(0, 1)
        target.values[layer][target.blocks, :, target.slots] = values[0].swapaxes(0, 1)
        self._len += keys.shape[2]
        if target.after is not None:
            target.after()

    def read(self) -> tuple:
        """Contiguous (1, H, seq_len, Dh) copies of the blocked history."""
        store = self._store
        table = self._sequence.block_table
        total = self._len
        out_keys = np.empty((1, store.kv_heads, total, store.head_dim), dtype=store.dtype)
        out_values = np.empty_like(out_keys)
        block_size = store.block_tokens
        for index in range(store.blocks_for_tokens(total)):
            block = table[index]
            start = index * block_size
            take = min(block_size, total - start)
            out_keys[0, :, start : start + take] = store.keys[self._layer, block, :, :take]
            out_values[0, :, start : start + take] = store.values[
                self._layer, block, :, :take
            ]
        return out_keys, out_values

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple:
        """:meth:`write`, then :meth:`read`."""
        self.write(keys, values)
        return self.read()


class PooledSequenceCache:
    """Per-request cache: a block table plus one layer cache per layer.

    Structurally compatible with :class:`~repro.nn.kv_cache.ModelKVCache`
    (``.layers``, ``.seq_len``), so it can be passed to the model's cached
    forward paths directly.
    """

    def __init__(self, pool: KVBlockPool) -> None:
        self.pool = pool
        self.block_table: List[int] = []
        self.closed = False
        self.layers: List[PooledLayerCache] = [
            PooledLayerCache(self, pool, layer) for layer in range(pool.n_layers)
        ]

    @property
    def seq_len(self) -> int:
        return self.layers[0].seq_len

    @property
    def capacity(self) -> int:
        """Token slots currently reserved for this sequence."""
        return len(self.block_table) * self.pool.block_tokens

    def __getitem__(self, index: int) -> PooledLayerCache:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    def note_tokens(self, tokens) -> None:
        """Scheduler token-note protocol: a no-op here.

        The paged store (:mod:`repro.serving.paged`) keys its radix index
        on the noted ids; a private block pool has nothing to index.
        """

    def kv_slots(self, new_tokens: int, heads: int, head_dim: int) -> KVSlots:
        """Where the next ``new_tokens`` positions live in every layer
        (capacity and freed-sequence checks run here, once)."""
        return self._slots(uniform_length(self.layers), (1, heads, new_tokens, head_dim))

    def _slots(self, start: int, shape: tuple) -> KVSlots:
        pool = self.pool
        blocks, slots = block_slots(self, pool, "pooled", start, shape)
        return KVSlots(pool, pool.keys, pool.values, blocks, slots, None)

    def reserve(self, new_tokens: int) -> None:
        """Ensure capacity for ``new_tokens`` more positions.

        Raises :class:`PoolExhaustedError` (allocating nothing) when the
        pool cannot supply the missing blocks — the scheduler's signal to
        stop admitting or to preempt.
        """
        if self.closed:
            raise ServingError("cannot reserve on a freed sequence cache")
        if new_tokens < 0:
            raise ServingError("new_tokens must be non-negative")
        needed = self.pool.blocks_for_tokens(self.seq_len + new_tokens)
        missing = needed - len(self.block_table)
        if missing > 0:
            self.block_table.extend(self.pool.allocate(missing))

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions and return the
        blocks beyond the surviving prefix to the pool.

        This is the speculative-decoding rollback: draft positions appended
        optimistically past the accepted prefix are discarded, and the pool
        accounting stays tight — a rejected draft never strands a block.
        """
        if self.closed:
            raise ServingError("cannot truncate a freed sequence cache")
        for layer in self.layers:
            layer.truncate(length)
        keep = self.pool.blocks_for_tokens(length)
        if keep < len(self.block_table):
            self.pool.release(self.block_table[keep:])
            del self.block_table[keep:]

    def free(self) -> None:
        """Return every block to the pool; the cache becomes unusable."""
        if self.closed:
            return
        self.pool.release(self.block_table)
        self.block_table = []
        self.closed = True
