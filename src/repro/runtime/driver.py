"""The one layer driver every forward path in the repo runs through.

``run_model`` / ``run_layer`` execute the decoder schedule — pre-norm
attention and SwiGLU MLP with residual adds — against an
:class:`~repro.runtime.context.ExecutionContext`.  The attention kernels
serve two cache regimes:

- no cache: full self-attention over the input window (with an optional
  padding mask);
- :class:`~repro.nn.kv_cache.RaggedLayerCaches`: a right-padded batch of
  *independent* sequences at different depths, each extending its own
  cache.  Single-sequence cached decoding is its one-row case.

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
def _causal_mask_cached(seq_len: int) -> np.ndarray:
    positions = np.arange(seq_len)
    mask = positions[None, :] > positions[:, None]
    # Cached arrays are shared across every layer of every forward with
    # the same length; freezing them keeps sharing safe.
    mask.setflags(write=False)
    return mask


def causal_mask(seq_len: int) -> np.ndarray:
    """Boolean (seq_len, seq_len) mask, True at future (disallowed) keys.

    Results are LRU-cached by length — every layer of a forward asks for
    the same mask — and returned read-only.  Callers needing a private
    writable copy must ``.copy()``.
    """
    return _causal_mask_cached(int(seq_len))


def _split_heads(x: Tensor, batch: int, seq_len: int, n_heads: int, head_dim: int) -> Tensor:
    return x.reshape(batch, seq_len, n_heads, head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor, batch: int, seq_len: int, n_heads: int, head_dim: int) -> Tensor:
    return x.transpose(0, 2, 1, 3).reshape(batch, seq_len, n_heads * head_dim)


def _decode_rows(fn, x: Tensor) -> Tensor:
    """``fn(x)``, with a decode batch's rows as one GEMM operand.

    The Tensor driver's side of :func:`repro.runtime.fastpath.decode_rows`:
    a ``(B, 1, D)`` batch with ``B > 1`` goes through ``fn`` as the one
    ``B``-token row ``(1, B, D)``, so every weight product inside ``fn`` is
    a single ``(B, D)`` GEMM instead of B one-row GEMVs; the result comes
    back as ``(B, 1, N)``.  Other shapes pass through unchanged.
    """
    batch, seq_len = x.shape[0], x.shape[1]
    if seq_len != 1 or batch == 1:
        return fn(x)
    out = fn(x.reshape(1, batch, x.shape[2]))
    return out.reshape(batch, 1, out.shape[2])


def _project(ctx: ExecutionContext, layer: int, role: str, x: Tensor) -> Tensor:
    return _decode_rows(lambda rows: ctx.project(layer, role, rows), x)


def attention(
    ctx: ExecutionContext,
    layer: int,
    x: Tensor,
    pad_mask: Optional[np.ndarray] = None,
    cache=None,
) -> Tensor:
    """One attention sublayer (normed input in, attention output out).

    ``cache`` is None for stateless attention over ``x``, or the layer's
    :class:`~repro.nn.kv_cache.RaggedLayerCaches` for the ragged cached
    path, whose batch :func:`run_model` has validated.
    """
    if x.ndim != 3:
        raise ShapeError(f"attention expects (B, T, D), got {x.shape}")
    if cache is not None:
        return _attention_ragged(ctx, layer, x, cache)
    return _attention_dense(ctx, layer, x, pad_mask)


def _attention_dense(
    ctx: ExecutionContext,
    layer: int,
    x: Tensor,
    pad_mask: Optional[np.ndarray],
) -> Tensor:
    """Stateless self-attention over the input window."""
    batch, seq_len, _ = x.shape
    q = _split_heads(
        _project(ctx, layer, "w_q", x), batch, seq_len, ctx.n_q_heads, ctx.head_dim
    )
    k = _split_heads(
        _project(ctx, layer, "w_k", x), batch, seq_len, ctx.n_kv_heads, ctx.head_dim
    )
    v = _split_heads(
        _project(ctx, layer, "w_v", x), batch, seq_len, ctx.n_kv_heads, ctx.head_dim
    )
    q = ctx.rope(q, 0)
    k = ctx.rope(k, 0)
    k = ctx.expand_kv(k)
    v = ctx.expand_kv(v)
    scale = 1.0 / float(np.sqrt(ctx.head_dim))
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if ctx.causal:
        scores = scores.masked_fill(causal_mask(seq_len)[None, None, :, :], NEG_INF)
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        expected = (batch, seq_len)
        if pad_mask.shape != expected:
            raise ShapeError(f"pad_mask shape {pad_mask.shape} != {expected}")
        scores = scores.masked_fill(pad_mask[:, None, None, :], NEG_INF)
    weights = F.softmax(scores, axis=-1)
    context = weights @ v
    merged = ctx.gather(
        _merge_heads(context, batch, seq_len, ctx.n_q_heads, ctx.head_dim)
    )
    return ctx.gather(_project(ctx, layer, "w_so", merged))


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
    batch, max_new, _ = x.shape
    lengths = ragged.new_lengths
    offsets = ragged.offsets
    q = _split_heads(
        _project(ctx, layer, "w_q", x), batch, max_new, ctx.n_q_heads, ctx.head_dim
    )
    k = _split_heads(
        _project(ctx, layer, "w_k", x), batch, max_new, ctx.n_kv_heads, ctx.head_dim
    )
    v = _split_heads(
        _project(ctx, layer, "w_v", x), batch, max_new, ctx.n_kv_heads, ctx.head_dim
    )
    q = ctx.rope(q, offsets)
    k = ctx.rope(k, offsets)
    totals = offsets + lengths
    max_total = int(totals.max())
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
    return ctx.gather(_project(ctx, layer, "w_so", merged))


def swiglu_mlp(ctx: ExecutionContext, layer: int, x: Tensor) -> Tensor:
    """The gated feed-forward sublayer ``W_D(silu(W_G x) * W_U x)``."""
    gate = _project(ctx, layer, "w_g", x)
    up = _project(ctx, layer, "w_u", x)
    hidden = ctx.gather(F.silu(gate) * up)
    return ctx.gather(_project(ctx, layer, "w_d", hidden))


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
) -> Tensor:
    """(B, T) token ids through every layer to (B, T, vocab) logits.

    ``caches`` is None for a full stateless forward, or a
    :class:`~repro.nn.kv_cache.RaggedModelCaches` for the ragged cached
    path (ShapeError for anything else).

    Pipeline stages reuse this entry: a context whose ``has_embedding`` is
    False takes the previous stage's replicated (B, T, D) ``hidden`` block
    instead of embedding tokens, and one whose ``has_head`` is False
    returns the hidden state after its layer run instead of logits.
    """
    # Imported here, not at module level: repro.nn's own attention module
    # builds on these kernels, so the runtime must not import repro.nn
    # during its own import; the fast path stays an implementation detail
    # of this dispatch.
    from repro.nn.kv_cache import RaggedModelCaches
    from repro.runtime import fastpath

    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"expected (B, T) token ids, got shape {tokens.shape}")
    if caches is not None:
        if not isinstance(caches, RaggedModelCaches):
            raise ShapeError(
                f"run_model takes no cache or a RaggedModelCaches, "
                f"got {type(caches).__name__}"
            )
        _check_ragged(ctx, caches, tokens.shape)
    has_embedding = getattr(ctx, "has_embedding", True)
    has_head = getattr(ctx, "has_head", True)
    if not has_embedding and hidden is None:
        raise ShapeError("a non-first pipeline stage needs the hidden input")
    state = fastpath.active_state(ctx)
    if state is not None:
        return Tensor(
            fastpath.run_model_fast(
                state, tokens, pad_mask=pad_mask, caches=caches, hidden=hidden
            )
        )
    if hidden is not None:
        x = hidden if isinstance(hidden, Tensor) else Tensor(hidden)
    else:
        x = ctx.embed(tokens)
    for layer in range(ctx.n_layers):
        cache = None if caches is None else caches.layers[layer]
        x = run_layer(ctx, layer, x, pad_mask=pad_mask, cache=cache)
    if not has_head:
        return x
    return _decode_rows(ctx.logits, x)


def _check_ragged(ctx: ExecutionContext, caches, shape) -> None:
    """Validate a ragged batch once per forward, before any cache is written.

    Every ragged forward — Tensor driver, fast path, every rank of a
    sharded model — checks here, so neither attention kernel re-checks
    per layer:

    - one cache per row, and each row's length in ``[1, T]``;
    - no new token past the RoPE table: the per-row RoPE clamps positions
      past the table, because a row's padded tail slots may lie there and
      are masked anyway, so real tokens must never reach the clamp;
    - no sequence cache listed twice: both rows would write the same
      positions of one cache (the second row's offset is stale once the
      first has written).
    """
    if not ctx.causal:
        raise ShapeError("ragged cached attention requires a causal decoder")
    batch, max_new = shape
    lengths = caches.new_lengths
    if lengths.shape[0] != batch:
        raise ShapeError(
            f"ragged batch mismatch: {batch} rows, {lengths.shape[0]} caches"
        )
    if lengths.min() < 1 or lengths.max() > max_new:
        raise ShapeError(f"row lengths {lengths} out of range [1, {max_new}]")
    limit = ctx.max_positions
    if limit is not None:
        end = int((caches.layers[0].offsets + lengths).max())
        if end > limit:
            raise ShapeError(
                f"ragged row positions up to {end} exceed RoPE table {limit}"
            )
    rows = caches.sequences
    if len(set(map(id, rows))) != len(rows):
        raise ShapeError("a ragged batch lists the same sequence cache twice")


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

    def forward_ragged(self, tokens: np.ndarray, caches, new_lengths) -> Tensor:
        """Cached forward over a ragged batch of independent sequences.

        ``caches`` holds one :class:`~repro.nn.kv_cache.ModelKVCache`-
        compatible per-sequence cache per batch row.
        """
        from repro.nn.kv_cache import RaggedModelCaches

        ragged = RaggedModelCaches(caches, new_lengths)
        return run_model(self.context, tokens, caches=ragged)
