"""Key/value caches for incremental autoregressive decoding.

One :class:`LayerKVCache` per decoder layer stores the keys and values of
all previously processed positions (post-RoPE, pre-GQA-expansion), so each
new token costs one forward pass over a single position instead of the
whole context.

Storage is a preallocated buffer grown by geometric doubling: appending a
token is an O(1) amortized copy into the next free slots, and ``append``
returns zero-copy *views* of the valid prefix.  (The original implementation
re-``np.concatenate``-d the whole history every token — O(T^2) over a
generation.)

Every layer-cache flavour (this one, the block-pool and paged caches in
:mod:`repro.serving`) shares one contract: ``write`` appends new
positions without reading the history back, ``read`` returns the whole
history, and ``append`` is ``write`` then ``read``.  Each also carries an
``epoch`` token — a fresh ``object()``, equal only to itself, so a held
token is never reissued — renewed on creation and on every
``truncate()``: while the epoch is unchanged the cache has only grown, so
a consumer that mirrors its first ``n`` positions (the fast path's KV
staging slots) knows the mirror is still exact.

Every sequence-cache flavour (:class:`ModelKVCache`, the pooled and paged
sequences) also answers one resolver call, ``kv_slots(n, heads,
head_dim)``: where its next ``n`` positions live in every layer, as a
:class:`KVSlots`.  It runs the flavour's capacity, copy-on-write and
freed-sequence checks once, raising before anything is written, so a
batched forward can resolve every row up front and then write each
layer's new K/V with one scatter per backing store.  The layers' ``write``
goes through the same checks.

:class:`RaggedLayerCaches` / :class:`RaggedModelCaches` bundle several
independent per-sequence caches into one batch object so a single forward
pass can serve sequences of different lengths — the interface the
continuous-batching engine in :mod:`repro.serving` drives.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ShapeError

_INITIAL_CAPACITY = 16


class KVSlots(NamedTuple):
    """Where one sequence's next positions live, in every layer.

    ``keys[l]`` / ``values[l]`` are layer ``l``'s backing arrays, shaped
    ``(blocks, heads, block_len, head_dim)``; new position ``i`` goes to
    ``[blocks[i], :, slots[i]]`` of every layer (``blocks`` and ``slots``
    are lists of ints).  Sequences whose ``store`` is the same object
    share those arrays, so a batch can write all their new positions with
    one fancy-index scatter per layer.  Writing does
    not move ``seq_len``: the writer calls each layer's :meth:`advance`
    once that layer is written, then ``after`` (when not None) once every
    layer is — a paged sequence seals the pages the write completed.
    """

    store: object
    keys: Sequence[np.ndarray]
    values: Sequence[np.ndarray]
    blocks: List[int]
    slots: List[int]
    after: Optional[Callable[[], None]]


def uniform_length(layers) -> int:
    """The one ``seq_len`` every layer cache reports (ShapeError if not)."""
    length = layers[0].seq_len
    for layer in layers:
        if layer.seq_len != length:
            raise ShapeError(
                f"layer caches disagree on length: "
                f"{[other.seq_len for other in layers]}"
            )
    return length


def check_entries(keys, values) -> tuple:
    """``keys`` / ``values`` as matching (B, H, T, Dh) arrays."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.ndim != 4 or values.shape != keys.shape:
        raise ShapeError(
            f"cache entries must be matching (B, H, T, Dh); got "
            f"{keys.shape} / {values.shape}"
        )
    return keys, values


class LayerLength:
    """Length and epoch bookkeeping shared by every layer-cache flavour."""

    def __init__(self, length: int = 0) -> None:
        self._len = length
        self._epoch = object()

    @property
    def seq_len(self) -> int:
        return self._len

    @property
    def epoch(self) -> object:
        """Token renewed on creation and on every :meth:`truncate`.

        Same epoch, same cache: positions below any earlier ``seq_len``
        still hold what they held then (the cache has only grown).
        """
        return self._epoch

    def advance(self, new_tokens: int) -> None:
        """Count ``new_tokens`` positions written through ``kv_slots``."""
        self._len += new_tokens

    def truncate(self, length: int) -> None:
        """Roll this layer back to its first ``length`` positions.

        Speculative decoding appends draft positions optimistically and
        discards the rejected suffix; truncation is O(1) — storage keeps
        its capacity and later writes overwrite the abandoned slots.  The
        epoch is renewed, since those slots may be rewritten differently.
        Sequence caches wrap this with their block bookkeeping.
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


class LayerKVCache(LayerLength):
    """Grows along the sequence axis as tokens are appended."""

    def __init__(self) -> None:
        super().__init__()
        self._keys: Optional[np.ndarray] = None    # (B, H_kv, capacity, Dh)
        self._values: Optional[np.ndarray] = None

    @property
    def capacity(self) -> int:
        """Currently allocated sequence slots (grows geometrically)."""
        return 0 if self._keys is None else self._keys.shape[2]

    @property
    def keys(self) -> Optional[np.ndarray]:
        """View of the valid (B, H_kv, seq_len, Dh) key prefix."""
        if self._len == 0:
            return None
        return self._keys[:, :, : self._len]

    @property
    def values(self) -> Optional[np.ndarray]:
        if self._len == 0:
            return None
        return self._values[:, :, : self._len]

    def _reserve(self, shape: tuple, dtype) -> None:
        """Room for ``shape = (B, H, T, Dh)`` new positions (allocating or
        doubling the buffers; ShapeError on a batch/head/dim mismatch)."""
        batch, heads, new_tokens, head_dim = shape
        if self._keys is None:
            capacity = max(new_tokens, _INITIAL_CAPACITY)
            self._keys = np.empty((batch, heads, capacity, head_dim), dtype=dtype)
            self._values = np.empty_like(self._keys)
            return
        stored = self._keys.shape
        if (batch, heads) != stored[:2] or head_dim != stored[3]:
            raise ShapeError(
                f"cache shape mismatch: stored "
                f"{(stored[0], stored[1], self._len, stored[3])}, new {shape}"
            )
        needed = self._len + new_tokens
        capacity = self.capacity
        if needed <= capacity:
            return
        new_capacity = max(capacity, _INITIAL_CAPACITY)
        while new_capacity < needed:
            new_capacity *= 2
        grown_keys = np.empty((batch, heads, new_capacity, head_dim), dtype=self._keys.dtype)
        grown_values = np.empty_like(grown_keys)
        grown_keys[:, :, : self._len] = self._keys[:, :, : self._len]
        grown_values[:, :, : self._len] = self._values[:, :, : self._len]
        self._keys = grown_keys
        self._values = grown_values

    def write(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append new (B, H, T, Dh) positions without reading history back."""
        keys, values = check_entries(keys, values)
        new_tokens = keys.shape[2]
        self._reserve(keys.shape, keys.dtype)
        self._keys[:, :, self._len : self._len + new_tokens] = keys
        self._values[:, :, self._len : self._len + new_tokens] = values
        self._len += new_tokens

    def read(self) -> tuple:
        """Views of the full (keys, values) history (None when empty)."""
        return self.keys, self.values

    def append(self, keys: np.ndarray, values: np.ndarray) -> tuple:
        """:meth:`write`, then :meth:`read`."""
        self.write(keys, values)
        return self.read()


class ModelKVCache:
    """Per-layer caches plus the global position counter."""

    def __init__(self, n_layers: int) -> None:
        if n_layers <= 0:
            raise ShapeError("n_layers must be positive")
        self.layers: List[LayerKVCache] = [LayerKVCache() for _ in range(n_layers)]

    @property
    def seq_len(self) -> int:
        return self.layers[0].seq_len

    def truncate(self, length: int) -> None:
        """Roll every layer back to ``length`` positions (draft rollback)."""
        for layer in self.layers:
            layer.truncate(length)

    def kv_slots(self, new_tokens: int, heads: int, head_dim: int) -> KVSlots:
        """Where the next ``new_tokens`` positions live in every layer.

        A growable cache is its own backing store: each layer's buffer
        (grown here, up front, so the returned arrays stay valid) holds the
        sequence as block 0.
        """
        start = uniform_length(self.layers)
        shape = (1, heads, new_tokens, head_dim)
        for layer in self.layers:
            layer._reserve(shape, np.float32)
        return KVSlots(
            self,
            [layer._keys for layer in self.layers],
            [layer._values for layer in self.layers],
            [0] * new_tokens,
            list(range(start, start + new_tokens)),
            None,
        )

    def note_tokens(self, tokens) -> None:
        """Scheduler token-note protocol: a no-op for growable caches.

        Sequence caches that share state across requests (the paged store
        in :mod:`repro.serving.paged`) use the noted token ids to key
        their prefix index; a private cache has nothing to index.  Part of
        the common cache contract so schedulers can note unconditionally.
        """

    def __getitem__(self, index: int) -> LayerKVCache:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)


class RaggedLayerCaches:
    """One decoder layer's caches for a *batch* of independent sequences.

    Row ``b`` of the batched input contributes ``new_lengths[b]`` valid
    (right-padded) positions which are appended to ``caches[b]``; each
    sequence keeps its own history length, so the batch is "ragged".
    :class:`~repro.nn.attention.MultiHeadAttention` dispatches on this type
    to run the padded batched attention path.
    """

    def __init__(
        self,
        caches: Sequence[object],
        new_lengths: np.ndarray,
        pad_to: int = 0,
    ) -> None:
        self.caches = list(caches)
        self.new_lengths = np.asarray(new_lengths, dtype=np.int64)
        # Floor on the padded KV width of the batched attention.  A
        # pipeline's row-microbatches pass the *whole* batch's maximum
        # total so every chunk reduces over exactly the widths the
        # full-batch pass would — the padded tail is masked and
        # contributes exact zeros, keeping chunked execution bit-identical.
        self.pad_to = int(pad_to)
        if self.new_lengths.ndim != 1 or len(self.caches) != self.new_lengths.shape[0]:
            raise ShapeError(
                f"need one cache per row: {len(self.caches)} caches, "
                f"lengths shape {self.new_lengths.shape}"
            )
        if len(self.caches) == 0:
            raise ShapeError("ragged batch must contain at least one sequence")
        if np.any(self.new_lengths < 0):
            raise ShapeError("new_lengths must be non-negative")

    def __len__(self) -> int:
        return len(self.caches)

    @property
    def offsets(self) -> np.ndarray:
        """Per-row history length (absolute position of each row's first
        new token)."""
        return np.asarray([cache.seq_len for cache in self.caches], dtype=np.int64)


class RaggedModelCaches:
    """Batch view over per-sequence :class:`ModelKVCache`-compatible caches.

    Exposes ``.layers`` like :class:`ModelKVCache` so the model's cached
    forward loop works unchanged.
    """

    def __init__(
        self,
        caches: Sequence[object],
        new_lengths: np.ndarray,
        pad_to: int = 0,
    ) -> None:
        if not caches:
            raise ShapeError("ragged batch must contain at least one sequence")
        n_layers = len(caches[0].layers)
        for cache in caches:
            if len(cache.layers) != n_layers:
                raise ShapeError("all sequence caches must have the same layer count")
        self.sequences = list(caches)
        self.layers: List[RaggedLayerCaches] = [
            RaggedLayerCaches(
                [cache.layers[i] for cache in caches], new_lengths, pad_to=pad_to
            )
            for i in range(n_layers)
        ]

    def __len__(self) -> int:
        return len(self.layers)
