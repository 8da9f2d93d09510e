"""The one layer driver every forward path in the repo runs through.

``run_model`` / ``run_layer`` execute the decoder schedule — pre-norm
attention and SwiGLU MLP with residual adds — against an
:class:`~repro.runtime.context.ExecutionContext`.  The attention kernels
handle all three cache regimes through one dispatch:

- ``cache is None``: full self-attention over the input window;
- :class:`~repro.nn.kv_cache.LayerKVCache`: incremental decoding — the
  input holds only new positions, appended to one shared-history cache;
- :class:`~repro.nn.kv_cache.RaggedLayerCaches`: a right-padded batch of
  *independent* sequences at different depths (continuous batching).

Callers: :class:`~repro.models.llama.LlamaModel` (canonical context),
:class:`~repro.parallel.executor.RankExecutor` (sharded context),
:class:`~repro.nn.attention.MultiHeadAttention` (single-module context,
which is how BERT shares the kernels), and through the first two, the
serving engine and the evaluation harness.  Before this module existed the
same math lived in six hand-rolled copies that repeatedly drifted apart.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ShapeError
from repro.runtime.context import ExecutionContext
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - layering: runtime sits below nn/models
    from repro.nn.kv_cache import RaggedLayerCaches
    from repro.runtime.program import ModelProgram

NEG_INF = -1e9


@lru_cache(maxsize=256)
def _causal_mask_cached(seq_len: int, offset: int) -> np.ndarray:
    total = offset + seq_len
    query_pos = offset + np.arange(seq_len)[:, None]
    key_pos = np.arange(total)[None, :]
    mask = key_pos > query_pos
    # Cached arrays are shared across every layer of every step that hits
    # the same (seq_len, offset); freezing them keeps sharing safe.
    mask.setflags(write=False)
    return mask


def causal_mask(seq_len: int, offset: int = 0) -> np.ndarray:
    """Boolean mask that is True at disallowed (future) positions.

    Shape (seq_len, offset + seq_len): query position i (absolute position
    ``offset + i``) may attend keys at absolute positions <= offset + i.

    Results are LRU-cached by ``(seq_len, offset)`` — a decode loop asks
    for the same handful of masks once per layer per step — and returned
    read-only.  Callers needing a private writable copy must ``.copy()``.
    """
    return _causal_mask_cached(int(seq_len), int(offset))


def _split_heads(x: Tensor, batch: int, seq_len: int, n_heads: int, head_dim: int) -> Tensor:
    return x.reshape(batch, seq_len, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor, batch: int, seq_len: int, n_heads: int, head_dim: int) -> Tensor:
    return x.transpose(0, 2, 1, 3).reshape(batch, seq_len, n_heads * head_dim)


def attention(
    ctx: ExecutionContext,
    layer: int,
    x: Tensor,
    pad_mask: Optional[np.ndarray] = None,
    cache=None,
) -> Tensor:
    """One attention sublayer (normed input in, attention output out).

    Dispatches on the cache type: a :class:`RaggedLayerCaches` bundle takes
    the ragged batched path, anything else the dense path.
    """
    # Imported here, not at module level: repro.nn's own attention module
    # builds on these kernels, so the runtime must not import repro.nn
    # during its own import.
    from repro.nn.kv_cache import RaggedLayerCaches

    if x.ndim != 3:
        raise ShapeError(f"attention expects (B, T, D), got {x.shape}")
    if isinstance(cache, RaggedLayerCaches):
        return _attention_ragged(ctx, layer, x, cache)
    return _attention_dense(ctx, layer, x, pad_mask, cache)


def _attention_dense(
    ctx: ExecutionContext,
    layer: int,
    x: Tensor,
    pad_mask: Optional[np.ndarray],
    cache,
) -> Tensor:
    """Self-attention with an optional single shared-history KV cache.

    With a cache, ``x`` contains only the *new* positions: the cache is
    extended in place and gradients do not flow into cached history
    (inference-only path).
    """
    batch, seq_len, _ = x.shape
    offset = 0 if cache is None else cache.seq_len
    q = _split_heads(
        ctx.project(layer, "w_q", x), batch, seq_len, ctx.n_q_heads, ctx.head_dim
    )
    k = _split_heads(
        ctx.project(layer, "w_k", x), batch, seq_len, ctx.n_kv_heads, ctx.head_dim
    )
    v = _split_heads(
        ctx.project(layer, "w_v", x), batch, seq_len, ctx.n_kv_heads, ctx.head_dim
    )
    q = ctx.rope(q, offset)
    k = ctx.rope(k, offset)
    if cache is not None:
        full_k, full_v = cache.append(k.data, v.data)
        k, v = Tensor(full_k), Tensor(full_v)
    k = ctx.expand_kv(k)
    v = ctx.expand_kv(v)
    scale = 1.0 / float(np.sqrt(ctx.head_dim))
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    # A single cached decode step attends everything before it — no mask.
    if ctx.causal and (seq_len > 1 or cache is None):
        scores = scores.masked_fill(
            causal_mask(seq_len, offset=offset)[None, None, :, :], NEG_INF
        )
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        expected = (batch, offset + seq_len if cache is not None else seq_len)
        if pad_mask.shape != expected:
            raise ShapeError(f"pad_mask shape {pad_mask.shape} != {expected}")
        scores = scores.masked_fill(pad_mask[:, None, None, :], NEG_INF)
    weights = F.softmax(scores, axis=-1)
    context = weights @ v
    merged = ctx.gather(
        _merge_heads(context, batch, seq_len, ctx.n_q_heads, ctx.head_dim)
    )
    return ctx.gather(ctx.project(layer, "w_so", merged))


def _attention_ragged(
    ctx: ExecutionContext, layer: int, x: Tensor, ragged: "RaggedLayerCaches"
) -> Tensor:
    """Batched attention over independent sequences of unequal depth.

    Row ``b`` of ``x`` holds ``ragged.new_lengths[b]`` valid new positions
    (right-padded to the batch maximum) for a sequence whose cache already
    stores ``ragged.offsets[b]`` positions.  Each row's valid prefix is
    appended to its own cache; attention then runs as one padded batched
    softmax with a combined causal + ragged-length mask.  Outputs at padded
    slots are garbage by construction.
    """
    if not ctx.causal:
        raise ShapeError("ragged cached attention requires a causal decoder")
    batch, max_new, _ = x.shape
    if len(ragged) != batch:
        raise ShapeError(
            f"ragged batch mismatch: {batch} rows, {len(ragged)} caches"
        )
    lengths = ragged.new_lengths
    if np.any(lengths < 1) or np.any(lengths > max_new):
        raise ShapeError(f"row lengths {lengths} out of range [1, {max_new}]")
    offsets = ragged.offsets
    q = _split_heads(
        ctx.project(layer, "w_q", x), batch, max_new, ctx.n_q_heads, ctx.head_dim
    )
    k = _split_heads(
        ctx.project(layer, "w_k", x), batch, max_new, ctx.n_kv_heads, ctx.head_dim
    )
    v = _split_heads(
        ctx.project(layer, "w_v", x), batch, max_new, ctx.n_kv_heads, ctx.head_dim
    )
    q = ctx.rope(q, offsets)
    k = ctx.rope(k, offsets)
    totals = offsets + lengths
    # pad_to floors the padded width so a pipeline's row-microbatches
    # reduce over exactly the widths the full-batch pass would; the extra
    # masked columns contribute exact zeros.
    max_total = max(int(totals.max()), getattr(ragged, "pad_to", 0))
    full_k = np.zeros(
        (batch, ctx.n_kv_heads, max_total, ctx.head_dim), dtype=np.float32
    )
    full_v = np.zeros_like(full_k)
    for row, cache in enumerate(ragged.caches):
        valid = int(lengths[row])
        row_keys, row_values = cache.append(
            k.data[row : row + 1, :, :valid], v.data[row : row + 1, :, :valid]
        )
        full_k[row, :, : totals[row]] = row_keys[0]
        full_v[row, :, : totals[row]] = row_values[0]
    keys = ctx.expand_kv(Tensor(full_k))
    values = ctx.expand_kv(Tensor(full_v))
    scale = 1.0 / float(np.sqrt(ctx.head_dim))
    scores = (q @ keys.transpose(0, 1, 3, 2)) * scale  # (B, H, T, max_total)
    key_pos = np.arange(max_total, dtype=np.int64)[None, None, :]
    query_pos = (
        offsets[:, None, None] + np.arange(max_new, dtype=np.int64)[None, :, None]
    )
    invalid = (key_pos > query_pos) | (key_pos >= totals[:, None, None])
    scores = scores.masked_fill(invalid[:, None, :, :], NEG_INF)
    weights = F.softmax(scores, axis=-1)
    context = weights @ values
    merged = ctx.gather(
        _merge_heads(context, batch, max_new, ctx.n_q_heads, ctx.head_dim)
    )
    return ctx.gather(ctx.project(layer, "w_so", merged))


def swiglu_mlp(ctx: ExecutionContext, layer: int, x: Tensor) -> Tensor:
    """The gated feed-forward sublayer ``W_D(silu(W_G x) * W_U x)``."""
    gate = ctx.project(layer, "w_g", x)
    up = ctx.project(layer, "w_u", x)
    hidden = ctx.gather(F.silu(gate) * up)
    return ctx.gather(ctx.project(layer, "w_d", hidden))


def run_layer(
    ctx: ExecutionContext,
    layer: int,
    x: Tensor,
    pad_mask: Optional[np.ndarray] = None,
    cache=None,
) -> Tensor:
    """One pre-norm decoder layer: x += attn(norm(x)); x += mlp(norm(x))."""
    x = x + attention(ctx, layer, ctx.norm(layer, "attn", x), pad_mask, cache)
    x = x + swiglu_mlp(ctx, layer, ctx.norm(layer, "mlp", x))
    return x


def run_model(
    ctx: ExecutionContext,
    tokens: np.ndarray,
    pad_mask: Optional[np.ndarray] = None,
    caches=None,
    hidden: Optional[np.ndarray] = None,
    skip_head: bool = False,
) -> Tensor:
    """(B, T) token ids through every layer to (B, T, vocab) logits.

    ``caches`` is None for a full stateless forward, or any object with a
    per-layer ``.layers`` sequence — a
    :class:`~repro.nn.kv_cache.ModelKVCache` for single-sequence
    incremental decoding, a
    :class:`~repro.nn.kv_cache.RaggedModelCaches` for the
    continuous-batching ragged path.

    Pipeline stages reuse this entry: a context whose ``has_embedding`` is
    False takes the previous stage's replicated (B, T, D) ``hidden`` block
    instead of embedding tokens, and one whose ``has_head`` is False
    returns the hidden state after its layer run instead of logits.
    ``skip_head`` makes a head-holding last stage do the same for one
    call — a chunked pipeline defers the epilogue to a single full-batch
    :func:`run_head` so the head GEMM sees the canonical row count.
    """
    # Imported here, not at module level, so the fast path stays an
    # implementation detail of this dispatch (and to keep import order
    # within the package trivial).
    from repro.nn.kv_cache import RaggedModelCaches
    from repro.runtime import fastpath

    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"expected (B, T) token ids, got shape {tokens.shape}")
    if isinstance(caches, RaggedModelCaches):
        _check_ragged_positions(ctx, caches)
        _check_distinct_sequences(caches)
    has_embedding = getattr(ctx, "has_embedding", True)
    has_head = getattr(ctx, "has_head", True)
    if not has_embedding and hidden is None:
        raise ShapeError("a non-first pipeline stage needs the hidden input")
    state = fastpath.active_state(ctx)
    if state is not None:
        return Tensor(
            fastpath.run_model_fast(
                state, tokens, pad_mask=pad_mask, caches=caches, hidden=hidden,
                skip_head=skip_head,
            )
        )
    if hidden is not None:
        x = hidden if isinstance(hidden, Tensor) else Tensor(hidden)
    else:
        x = ctx.embed(tokens)
    for layer in range(ctx.n_layers):
        cache = None if caches is None else caches.layers[layer]
        x = run_layer(ctx, layer, x, pad_mask=pad_mask, cache=cache)
    if not has_head or skip_head:
        return x
    return ctx.logits(x)


def _check_ragged_positions(ctx: ExecutionContext, caches) -> None:
    """Reject ragged rows whose new tokens run past the RoPE table.

    The per-row RoPE clamps positions past the table, because a row's
    padded tail slots may lie there and are masked anyway.  Real tokens
    must never reach the clamp, so every ragged forward — Tensor driver,
    fast path, every rank of a sharded model — checks here, before any
    cache is written.
    """
    limit = ctx.max_positions
    if limit is None:
        return
    rows = caches.layers[0]
    ends = rows.offsets + rows.new_lengths
    if int(ends.max()) > limit:
        raise ShapeError(
            f"ragged row positions up to {int(ends.max())} exceed RoPE table {limit}"
        )


def _check_distinct_sequences(caches) -> None:
    """Reject a ragged batch that lists one sequence cache twice.

    Both rows would write the same positions of one cache (the second
    row's offset is stale once the first has written), so the batch is
    refused before any cache is written.
    """
    rows = caches.layers[0].caches
    if len(set(rows)) != len(rows):
        raise ShapeError("a ragged batch lists the same sequence cache twice")


def run_head(ctx: ExecutionContext, hidden) -> Tensor:
    """Epilogue only: final norm + LM head over replicated hidden states.

    The pipelined counterpart to ``skip_head`` — after a last stage has
    run its layers over row-microbatches, the concatenated hidden batch
    goes through the head exactly once, with the full row count.
    """
    from repro.runtime import fastpath

    state = fastpath.active_state(ctx)
    if state is not None:
        return Tensor(fastpath.logits_fast(state, hidden))
    x = hidden if isinstance(hidden, Tensor) else Tensor(hidden)
    return ctx.logits(x)


class ModelRuntime:
    """A layer program bound to an execution context.

    The program says *what* one forward pass computes (named ops, shapes,
    block grids, tensor roles); the context says *how* (dense or factorized
    weights, canonical or sharded, which cache flavor).  The runtime is the
    single forward driver every backend shares.
    """

    def __init__(self, program: "ModelProgram", context: ExecutionContext) -> None:
        if program.n_layers != context.n_layers:
            raise ShapeError(
                f"program has {program.n_layers} layers, context {context.n_layers}"
            )
        self.program = program
        self.context = context

    def enable_profiling(self):
        """Attach (or return) the op-level profiler for fast-path forwards.

        Returns the :class:`~repro.runtime.profiler.OpProfiler` accumulating
        per-op wall time / call counts / arena bytes.  Profiling only
        records ops executed on the no-grad fast path; Tensor-graph
        forwards are unaffected.
        """
        from repro.runtime import fastpath

        return fastpath.enable_profiling(self.context)

    def disable_profiling(self) -> None:
        from repro.runtime import fastpath

        fastpath.disable_profiling(self.context)

    @property
    def profiler(self):
        """The attached profiler, or None."""
        return self.context.__dict__.get("_fast_profiler")

    @property
    def workspace(self):
        """The fast path's buffer arena, once a fast forward has run."""
        from repro.runtime import fastpath

        return fastpath.workspace_of(self.context)

    def forward(
        self, tokens: np.ndarray, pad_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Full stateless forward pass."""
        return run_model(self.context, tokens, pad_mask=pad_mask)

    def forward_cached(self, tokens: np.ndarray, caches) -> Tensor:
        """Forward over new ``tokens`` only, extending ``caches`` in place."""
        return run_model(self.context, tokens, caches=caches)

    def forward_ragged(self, tokens: np.ndarray, caches, new_lengths) -> Tensor:
        """Cached forward over a ragged batch of independent sequences.

        ``caches`` holds one :class:`~repro.nn.kv_cache.ModelKVCache`-
        compatible per-sequence cache per batch row.
        """
        from repro.nn.kv_cache import RaggedModelCaches

        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"expected (B, T) token ids, got shape {tokens.shape}")
        if tokens.shape[0] != len(caches):
            raise ShapeError(
                f"need one cache per row: {tokens.shape[0]} rows, {len(caches)} caches"
            )
        ragged = RaggedModelCaches(list(caches), new_lengths)
        return run_model(self.context, tokens, caches=ragged)
