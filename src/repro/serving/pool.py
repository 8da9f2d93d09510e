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
  ``seq_len`` / ``append -> (keys, values)`` contract as
  :class:`~repro.nn.kv_cache.LayerKVCache`, so attention code is oblivious
  to the pooling.

Capacity is *reserved* ahead of a forward pass (``reserve``) so admission
control and preemption decisions happen in the scheduler, not mid-layer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import PoolExhaustedError, ServingError, ShapeError
from repro.models.config import ModelConfig


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


class PooledLayerCache:
    """One layer's cache slots of one sequence, backed by pool blocks.

    Satisfies the :class:`~repro.nn.kv_cache.LayerKVCache` contract used by
    :class:`~repro.nn.attention.MultiHeadAttention`.
    """

    def __init__(self, sequence: "PooledSequenceCache", layer: int) -> None:
        self._sequence = sequence
        self._layer = layer
        self._len = 0
        self._epoch = object()

    @property
    def seq_len(self) -> int:
        return self._len

    @property
    def epoch(self) -> object:
        """Token renewed on creation and on every :meth:`truncate`; while
        it holds, the cache has only grown since it was last read."""
        return self._epoch

    def truncate(self, length: int) -> None:
        """Roll this layer back to ``length`` positions (draft rollback).

        Per-layer lengths only; block bookkeeping lives on the sequence —
        callers go through :meth:`PooledSequenceCache.truncate`, which also
        returns surplus blocks to the pool.  Renews the epoch.
        """
        length = int(length)
        if length < 0:
            raise ShapeError(f"cannot truncate to negative length {length}")
        if length > self._len:
            raise ShapeError(
                f"cannot truncate to {length}: cache holds {self._len} positions"
            )
        self._len = length
        self._epoch = object()

    def write(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write new (1, H, T, Dh) positions into the reserved blocks
        without reading history back."""
        sequence = self._sequence
        pool = sequence.pool
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 4 or values.shape != keys.shape:
            raise ShapeError(
                f"cache entries must be matching (B, H, T, Dh); got "
                f"{keys.shape} / {values.shape}"
            )
        batch, heads, new_tokens, head_dim = keys.shape
        if batch != 1 or heads != pool.kv_heads or head_dim != pool.head_dim:
            raise ShapeError(
                f"pooled cache expects (1, {pool.kv_heads}, T, {pool.head_dim}); "
                f"got {keys.shape}"
            )
        if sequence.closed:
            raise ServingError("cannot append to a freed sequence cache")
        if self._len + new_tokens > sequence.capacity:
            raise PoolExhaustedError(
                f"append of {new_tokens} exceeds reserved capacity "
                f"{sequence.capacity} (len {self._len}); call reserve() first"
            )
        block_size = pool.block_tokens
        written = 0
        while written < new_tokens:
            position = self._len + written
            block = sequence.block_table[position // block_size]
            slot = position % block_size
            take = min(block_size - slot, new_tokens - written)
            pool.keys[self._layer, block, :, slot : slot + take] = keys[
                0, :, written : written + take
            ]
            pool.values[self._layer, block, :, slot : slot + take] = values[
                0, :, written : written + take
            ]
            written += take
        self._len += new_tokens

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple:
        """:meth:`write`, then contiguous copies of the full history."""
        self.write(keys, values)
        return self._gather()

    def _gather(self) -> tuple:
        """Contiguous (1, H, seq_len, Dh) copies of the blocked history."""
        sequence = self._sequence
        pool = sequence.pool
        total = self._len
        out_keys = np.empty(
            (1, pool.kv_heads, total, pool.head_dim), dtype=pool.dtype
        )
        out_values = np.empty_like(out_keys)
        block_size = pool.block_tokens
        for index in range(pool.blocks_for_tokens(total)):
            block = sequence.block_table[index]
            start = index * block_size
            take = min(block_size, total - start)
            out_keys[0, :, start : start + take] = pool.keys[
                self._layer, block, :, :take
            ]
            out_values[0, :, start : start + take] = pool.values[
                self._layer, block, :, :take
            ]
        return out_keys, out_values


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
            PooledLayerCache(self, layer) for layer in range(pool.n_layers)
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
