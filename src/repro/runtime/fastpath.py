"""No-grad inference fast path for the runtime driver.

:func:`repro.runtime.driver.run_model` dispatches here when gradients
cannot be needed: the kernels below execute the same layer schedule as the
Tensor-graph driver directly on raw ``np.ndarray``s — no autograd nodes,
no backward closures, and (after warmup) no per-step allocation, since
every intermediate is written with ``out=`` into a
:class:`~repro.runtime.workspace.Workspace` buffer.

Selection rule
--------------
A context takes the fast path when all of the following hold:

- the module-level switch is enabled (see :func:`disabled`);
- the context declares a ``fast_kind`` (``"canonical"`` for
  :class:`~repro.runtime.context.CanonicalBlocksContext` built with an
  output head, ``"sharded"`` for the tensor-parallel rank context);
- for canonical contexts, the model is in eval mode (``module.eval()``)
  and every projection is a recognized ``Linear`` / ``FactorizedLinear`` /
  ``QuantizedLinear`` / ``QuantizedFactorizedLinear`` flavor.  Training
  forwards (``model.train()``) always keep the Tensor-graph path so
  autograd works unchanged.

Quantized projections store int8 grids with per-output-column fp32
scales.  Their kernels dequantize into the workspace's tag-validated
dequant cache (see :meth:`~repro.runtime.workspace.Workspace.cache`):
each projection's fp32 block is materialized once, bound to its
:class:`FastProjection` and reused across decode steps (the state is
rebuilt whenever a grid's identity changes), so the warm loop runs pure
GEMVs.  The cache has an explicit byte budget; once exhausted,
kernels stream one column block at a time through shared scratch
(bounded by the largest block, never a full fp32 weight copy) at the
cost of per-step dequantization.  Elementwise dequantization of a block
equals the same columns of the full dequantized matrix, and sgemm
results are independent of the operand's parent stride, so cached and
streaming modes are both bit-identical to the Tensor path dequantizing
the whole grid.

Weight arrays are *referenced*, never copied, so in-place optimizer
updates are picked up automatically; a cheap id-based signature is checked
per forward so decomposition swaps (``Linear`` -> ``FactorizedLinear``)
and ``load_state_dict`` rebinds trigger a rebuild of the cached views.

Ragged KV staging
-----------------
A ragged forward is planned once, before the layer loop: row offsets,
lengths and totals, the RoPE cos/sin rows, the causal-and-length mask,
and each row's cache destinations.  Destinations come from the one
sequence-cache resolver, ``kv_slots`` (see :mod:`repro.nn.kv_cache`),
which runs the capacity, copy-on-write and freed-sequence checks before
any layer is written; every layer then writes the new K/V of all rows
sharing a backing store with one fancy-index scatter.

Ragged attention never reassembles a batch's KV history per step.  Each
layer keeps persistent staging slots in the workspace
(:meth:`~repro.runtime.workspace.Workspace.stage`) holding cache
histories (KV heads), keyed by the cache's epoch and length.  A row whose
cache sits staged at its current length takes only its new tokens; if it
sits in another slot (rows after a finished request shift up one
position) its staged history moves over in one copy per layer; any other
row re-reads its history once through its cache's ``read``.  The score
and context matmuls read views of the staging pair.  In every attention
path the matmuls broadcast each KV head over its run of query heads, so
every (row, query head) GEMM sees the same shapes and bytes as against a
GQA-expanded copy, and no expanded copy is ever made.

Bit-for-bit contract
--------------------
Every kernel mirrors the Tensor path's exact NumPy op sequence: identical
ufuncs in identical order with identical float32 scalar operands, GEMMs
against the *same* weight views (layouts included — BLAS results are not
layout-invariant), and ``out=`` targets whose 2-D cores keep BLAS-
compatible strides so NumPy never falls back to its differently-ordered
non-BLAS loop.  Logits from this path are byte-identical to the Tensor
driver across all three cache regimes and all world sizes; the identity
sweep in ``tests/runtime/test_fastpath.py`` enforces it.

The returned logits array is always freshly allocated (callers hold it
across steps); everything else lives in the arena.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.runtime.profiler import OpProfiler
from repro.runtime.workspace import Workspace

NEG_INF = -1e9  # matches repro.runtime.driver.NEG_INF
_NEG_INF32 = np.asarray(NEG_INF, dtype=np.float32)
_RMS_EPS = 1e-6  # matches repro.parallel.executor._RMS_EPS

_ENABLED = True


@contextmanager
def disabled():
    """Force the Tensor-graph path (used by benchmarks and identity tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def enable_profiling(ctx) -> OpProfiler:
    """Attach (or return) the :class:`OpProfiler` recording ``ctx``'s ops."""
    profiler = ctx.__dict__.get("_fast_profiler")
    if profiler is None:
        profiler = OpProfiler()
        ctx._fast_profiler = profiler
    return profiler


def disable_profiling(ctx) -> None:
    ctx.__dict__.pop("_fast_profiler", None)


def workspace_of(ctx) -> Optional[Workspace]:
    """The context's arena, once a fast forward has run (else None)."""
    state = ctx.__dict__.get("_fast_state")
    return None if state is None else state.ws


# ---------------------------------------------------------------------------
# Extracted weight views
# ---------------------------------------------------------------------------

class FastProjection:
    """One role's weight views in the canonical blocked layout.

    Exactly one of ``weight`` / ``grid`` is set: fp32 storage keeps the
    dense weight (or U2 of a factor chain) in ``weight``; quantized
    storage keeps the int8 grid in ``grid`` with per-output-column fp32
    ``scales``.  A quantized factor chain additionally carries grid +
    scales for the replicated U1/core prefix.
    """

    __slots__ = ("weight", "edges", "bias", "u1", "core",
                 "grid", "scales", "u1_grid", "u1_scales",
                 "core_grid", "core_scales", "out_width", "key",
                 "deq", "u1_deq", "core_deq")

    def __init__(self, weight, edges, bias=None, u1=None, core=None,
                 grid=None, scales=None, u1_grid=None, u1_scales=None,
                 core_grid=None, core_scales=None, key="") -> None:
        self.weight = weight      # dense weight, or U2 for a factor chain
        self.edges = tuple(edges)
        self.bias = bias
        self.u1 = u1
        self.core = core
        self.grid = grid          # int8 dense grid, or U2 grid (quantized)
        self.scales = scales
        self.u1_grid = u1_grid
        self.u1_scales = u1_scales
        self.core_grid = core_grid
        self.core_scales = core_scales
        self.out_width = weight.shape[1] if weight is not None else grid.shape[1]
        self.key = key            # stable per-projection dequant-cache key
        # Dequant-cache buffers, bound on first use.  The state is rebuilt
        # whenever a grid's identity changes, so a binding never goes stale.
        self.deq = self.u1_deq = self.core_deq = None


class FastLayer:
    __slots__ = ("attn_norm", "attn_eps", "mlp_norm", "mlp_eps", "proj")

    def __init__(self, attn_norm, attn_eps, mlp_norm, mlp_eps, proj) -> None:
        self.attn_norm = attn_norm
        self.attn_eps = attn_eps
        self.mlp_norm = mlp_norm
        self.mlp_eps = mlp_eps
        self.proj = proj          # role -> FastProjection


class FastHead:
    """Final norm + LM head: a blocked projection or a tied-table slice."""

    __slots__ = ("norm", "eps", "proj", "tied", "edges", "width")

    def __init__(self, norm, eps, proj=None, tied=None, edges=(), width=0) -> None:
        self.norm = norm
        self.eps = eps
        self.proj = proj          # FastProjection (untied head)
        self.tied = tied          # (D, V)-transposed embedding view (tied head)
        self.edges = tuple(edges)
        self.width = width


def _kv_runs(plan: Tuple[int, ...]) -> Tuple[Tuple[int, int, int], ...]:
    """``(lo, hi, kv_head)`` runs of query heads served by one KV head.

    A GQA plan never decreases (query head ``h`` reads KV head
    ``h // group``), so each KV head serves one contiguous run — also on a
    tensor-parallel rank whose head slice splits a group.
    """
    runs: List[Tuple[int, int, int]] = []
    for q_head, kv_head in enumerate(plan):
        if runs and runs[-1][2] == kv_head:
            runs[-1] = (runs[-1][0], q_head + 1, kv_head)
        else:
            runs.append((q_head, q_head + 1, kv_head))
    return tuple(runs)


class FastState:
    """Everything one context needs to run the no-graph kernels."""

    __slots__ = (
        "ctx", "sig", "ws", "embed_table", "embed_checked", "layers", "head",
        "rope", "gather", "kv_runs", "scale", "inv_dim", "n_layers",
        "n_q_heads", "n_kv_heads", "head_dim", "causal", "stage_names",
    )

    def __init__(self, ctx, sig, ws, embed_table, embed_checked, layers, head,
                 rope, gather, plan, model_dim=None) -> None:
        self.ctx = ctx
        self.sig = sig
        self.ws = ws
        self.embed_table = embed_table
        self.embed_checked = embed_checked
        self.layers: List[FastLayer] = layers
        self.head: Optional[FastHead] = head
        self.rope = rope
        self.gather: Optional[Callable] = gather
        self.kv_runs = _kv_runs(plan)
        self.n_layers = ctx.n_layers
        self.n_q_heads = ctx.n_q_heads
        self.n_kv_heads = ctx.n_kv_heads
        self.head_dim = ctx.head_dim
        self.causal = ctx.causal
        self.stage_names = tuple(f"kv{layer}" for layer in range(ctx.n_layers))
        # float32 constants mirroring the Tensor path's scalar coercions.
        # A middle pipeline stage carries no embedding table, so the norm's
        # 1/D constant comes from the explicit model width instead.
        self.scale = np.float32(1.0 / float(np.sqrt(ctx.head_dim)))
        if model_dim is None:
            model_dim = embed_table.shape[1]
        self.inv_dim = np.float32(1.0 / model_dim)


_CANONICAL_ROLES = (
    ("w_q", "attn", "_q_edges"),
    ("w_k", "attn", "_kv_edges"),
    ("w_v", "attn", "_kv_edges"),
    ("w_so", "attn", "_out_edges"),
    ("w_g", "mlp", "_hidden_edges"),
    ("w_u", "mlp", "_hidden_edges"),
    ("w_d", "mlp", "_out_edges"),
)


def _module_sig(module) -> Optional[tuple]:
    """Identity tuple of a recognized projection flavor (None: unknown)."""
    bias = getattr(module, "bias", None)
    bias_id = 0 if bias is None else id(bias.data)
    grid = getattr(module, "grid", None)
    if grid is not None:
        return (id(module), id(grid), id(module.scales), bias_id)
    u2_grid = getattr(module, "u2_grid", None)
    if u2_grid is not None:
        return (id(module), id(module.u1_grid), id(module.core_grid),
                id(u2_grid), bias_id)
    u1 = getattr(module, "u1", None)
    if u1 is not None:
        return (id(module), id(u1.data), id(module.core.data),
                id(module.u2.data), bias_id)
    weight = getattr(module, "weight", None)
    if weight is None:
        return None
    return (id(module), id(weight.data), bias_id)


def _canonical_signature(ctx) -> Optional[tuple]:
    """Cheap per-forward eligibility + invalidation key (None: Tensor path)."""
    blocks = ctx.blocks
    if getattr(blocks[0], "training", True):
        return None
    if ctx._embed is None or ctx._final_norm is None or not ctx._head_edges:
        return None
    try:
        parts = [id(ctx._embed.weight.data), id(ctx._final_norm.weight.data)]
        head = ctx._lm_head
        if head is not None:
            sig = _module_sig(head)
            if sig is None:
                return None
            parts.extend(sig)
        for block in blocks:
            parts.append(id(block.attn_norm.weight.data))
            parts.append(id(block.mlp_norm.weight.data))
            for role, owner_name, _ in _CANONICAL_ROLES:
                sig = _module_sig(getattr(getattr(block, owner_name), role))
                if sig is None:
                    return None
                parts.extend(sig)
    except AttributeError:
        return None
    return tuple(parts)


def _fast_projection(module, edges, key="") -> FastProjection:
    bias = getattr(module, "bias", None)
    bias_arr = None if bias is None else bias.data
    if getattr(module, "grid", None) is not None:
        return FastProjection(None, edges, bias_arr,
                              grid=module.grid, scales=module.scales, key=key)
    if getattr(module, "u2_grid", None) is not None:
        return FastProjection(None, edges, bias_arr,
                              grid=module.u2_grid, scales=module.u2_scales,
                              u1_grid=module.u1_grid,
                              u1_scales=module.u1_scales,
                              core_grid=module.core_grid,
                              core_scales=module.core_scales, key=key)
    if getattr(module, "u1", None) is not None:
        return FastProjection(module.u2.data, edges, bias_arr,
                              u1=module.u1.data, core=module.core.data)
    return FastProjection(module.weight.data, edges, bias_arr)


def _build_canonical(ctx, sig, ws) -> Optional[FastState]:
    layers = []
    for index, block in enumerate(ctx.blocks):
        proj = {}
        for role, owner_name, edges_attr in _CANONICAL_ROLES:
            owner = getattr(block, owner_name)
            proj[role] = _fast_projection(getattr(owner, role),
                                          getattr(owner, edges_attr),
                                          key=f"L{index}.{role}")
        layers.append(FastLayer(
            block.attn_norm.weight.data, np.float32(block.attn_norm.eps),
            block.mlp_norm.weight.data, np.float32(block.mlp_norm.eps),
            proj,
        ))
    final_norm = ctx._final_norm
    if ctx._lm_head is not None:
        head = FastHead(final_norm.weight.data, np.float32(final_norm.eps),
                        proj=_fast_projection(ctx._lm_head, ctx._head_edges,
                                              key="head"))
    else:
        tied = ctx._embed.weight.data.T
        head = FastHead(final_norm.weight.data, np.float32(final_norm.eps),
                        tied=tied, edges=ctx._head_edges, width=tied.shape[1])
    return FastState(
        ctx, sig, ws,
        embed_table=ctx._embed.weight.data, embed_checked=True,
        layers=layers, head=head, rope=ctx._rope, gather=None,
        plan=ctx._kv_plan,
    )


def _from_shard(ps, key="") -> FastProjection:
    if getattr(ps, "grid", None) is not None:
        return FastProjection(None, ps.edges, ps.bias,
                              grid=ps.grid, scales=ps.scales,
                              u1_grid=ps.u1_grid, u1_scales=ps.u1_scales,
                              core_grid=ps.core_grid,
                              core_scales=ps.core_scales, key=key)
    if ps.factorized:
        return FastProjection(ps.weight, ps.edges, ps.bias,
                              u1=ps.u1, core=ps.core)
    return FastProjection(ps.weight, ps.edges, ps.bias)


def _build_sharded(ctx, sig, ws) -> FastState:
    shard = ctx.shard
    layers = []
    for index, layer_shard in enumerate(shard.layers):
        proj = {}
        for role in ("w_q", "w_k", "w_v", "w_so", "w_g", "w_u", "w_d"):
            proj[role] = _from_shard(getattr(layer_shard, role),
                                     key=f"L{index}.{role}")
        layers.append(FastLayer(
            layer_shard.attn_norm, np.float32(_RMS_EPS),
            layer_shard.mlp_norm, np.float32(_RMS_EPS),
            proj,
        ))
    if not shard.has_head:
        # A non-last pipeline stage returns hidden states — no head.
        head = None
    elif shard.lm_head is not None:
        head = FastHead(shard.final_norm, np.float32(_RMS_EPS),
                        proj=_from_shard(shard.lm_head, key="head"))
    else:
        # Tied head: GLOBAL vocab edges slice the full transposed table;
        # the rank's output chunk is packed contiguously (executor layout).
        head = FastHead(shard.final_norm, np.float32(_RMS_EPS),
                        tied=shard.embed.T, edges=shard.vocab_edges,
                        width=shard.vocab_hi - shard.vocab_lo)
    group, rank = ctx.group, ctx.rank

    def gather(array: np.ndarray) -> np.ndarray:
        return group.all_gather(rank, array, axis=-1)

    return FastState(
        ctx, sig, ws,
        embed_table=shard.embed, embed_checked=False,
        layers=layers, head=head, rope=ctx._rope, gather=gather,
        plan=ctx._kv_plan, model_dim=shard.config.dim,
    )


def active_state(ctx) -> Optional[FastState]:
    """The context's (possibly rebuilt) fast state, or None for Tensor path."""
    if not _ENABLED:
        return None
    kind = getattr(ctx, "fast_kind", None)
    if kind is None:
        return None
    state = ctx.__dict__.get("_fast_state")
    if kind == "canonical":
        sig = _canonical_signature(ctx)
        if sig is None:
            return None
        if state is not None and state.sig == sig:
            return state
        ws = Workspace() if state is None else state.ws
        state = _build_canonical(ctx, sig, ws)
    elif kind == "sharded":
        if state is not None:
            return state
        state = _build_sharded(ctx, ("sharded",), Workspace())
    else:
        return None
    if state is not None:
        ctx._fast_state = state
    return state


# ---------------------------------------------------------------------------
# Profiling regions
# ---------------------------------------------------------------------------

class _Region:
    """Null-safe op-region timer; near-free when no profiler is attached."""

    __slots__ = ("prof", "ws", "_t0", "_b0")

    def __init__(self, prof, ws) -> None:
        self.prof = prof
        self.ws = ws
        self._t0 = 0.0
        self._b0 = 0

    def start(self) -> None:
        if self.prof is not None:
            self._b0 = self.ws.bytes_allocated
            self._t0 = perf_counter()

    def stop(self, name: str) -> None:
        if self.prof is not None:
            self.prof.add(name, perf_counter() - self._t0,
                          self.ws.bytes_allocated - self._b0)


# ---------------------------------------------------------------------------
# Kernels — each mirrors the Tensor path's numpy op stream exactly
# ---------------------------------------------------------------------------

def _blocked_into(x: np.ndarray, weight: np.ndarray, edges, out: np.ndarray) -> None:
    """``blocked_project`` into ``out``: one GEMM per column block.

    Writing each block straight into ``out[..., a:b]`` is value-identical
    to fresh-array-then-concatenate: the slice keeps a unit inner stride,
    so BLAS runs with a wider ldc — and sgemm results are ldc-independent.
    """
    if len(edges) == 1:
        np.matmul(x, weight, out=out)
        return
    for a, b in edges:
        np.matmul(x, weight[:, a:b], out=out[..., a:b])


def _dequant_scratch(ws: Workspace, grid: np.ndarray, scales: np.ndarray,
                     name: str) -> np.ndarray:
    """Dequantize a whole (small) grid into a reusable workspace buffer.

    ``int8 * fp32-scale`` with an fp32 ``out=`` is elementwise-identical
    to ``grid.astype(float32) * scales[None, :]`` — the Tensor reference's
    dequantization — so GEMMs against the scratch see the same bytes.
    """
    out = ws.buf(name, grid.shape)
    np.multiply(grid, scales[None, :], out=out)
    return out


def _cached_dequant(ws: Workspace, key: str, grid: np.ndarray,
                    scales: np.ndarray) -> Optional[np.ndarray]:
    """The grid's fp32 dequantization in the workspace cache (None when
    over budget).

    Callers bind the result to their :class:`FastProjection`, so a warm
    decode loop runs pure GEMVs on previously dequantized weights without
    touching the cache again — which is what keeps quantized decode within
    a hair of the fp32 fast path (NumPy's elementwise int8→fp32 multiply
    costs several times the GEMV it would feed).  Over budget, every call
    streams through shared :meth:`Workspace.buf` scratch instead.  Cached
    or streamed, the buffer holds exactly ``fl(grid * scales)`` — the same
    operand bytes — so bit identity is unaffected by the caching policy.
    """
    cached = ws.cache(key, grid.shape, (id(grid), id(scales)))
    if cached is None:
        return None
    out, fresh = cached
    if fresh:
        np.multiply(grid, scales[None, :], out=out)
    return out


def _quant_blocked_into(ws: Workspace, x: np.ndarray, p: FastProjection,
                        out: np.ndarray) -> None:
    """Quantized ``blocked_project``: dequantize, then GEMM per block.

    With dequant-cache budget the full grid is dequantized once and column
    blocks are GEMMed as slices (sgemm results are independent of the
    operand's parent stride).  Over budget, the scratch holds one column
    block at a time — bounded by the largest block, never a full fp32 copy
    of the weight.  A block's dequantized values equal the same columns of
    the full dequantized matrix, so both modes are bit-identical to
    :func:`_blocked_into` over the full dequant.
    """
    if p.deq is None:
        p.deq = _cached_dequant(ws, "deq." + p.key, p.grid, p.scales)
    if p.deq is not None:
        _blocked_into(x, p.deq, p.edges, out)
        return
    grid, scales = p.grid, p.scales
    if len(p.edges) == 1:
        w = _dequant_scratch(ws, grid, scales, "deq.blk")
        np.matmul(x, w, out=out)
        return
    for a, b in p.edges:
        w = ws.buf("deq.blk", (grid.shape[0], b - a))
        np.multiply(grid[:, a:b], scales[a:b][None, :], out=w)
        np.matmul(x, w, out=out[..., a:b])


def _quant_prefix(ws: Workspace, p: FastProjection, x: np.ndarray,
                  name: str) -> np.ndarray:
    """The factor chain's ``(x @ U1) @ core`` on dequantized factors."""
    if p.u1_deq is None:
        p.u1_deq = _cached_dequant(ws, "deq." + p.key + ".u1", p.u1_grid, p.u1_scales)
    if p.core_deq is None:
        p.core_deq = _cached_dequant(ws, "deq." + p.key + ".core", p.core_grid,
                                     p.core_scales)
    u1 = p.u1_deq
    if u1 is None:
        u1 = _dequant_scratch(ws, p.u1_grid, p.u1_scales, "deq.u1")
    core = p.core_deq
    if core is None:
        core = _dequant_scratch(ws, p.core_grid, p.core_scales, "deq.core")
    low = ws.buf(name + ".r1", x.shape[:-1] + (u1.shape[1],))
    np.matmul(x, u1, out=low)
    mid = ws.buf(name + ".r2", x.shape[:-1] + (core.shape[1],))
    np.matmul(low, core, out=mid)
    return mid


def _project(state: FastState, layer: int, role: str, x: np.ndarray,
             name: str, region: _Region) -> np.ndarray:
    p = state.layers[layer].proj[role]
    ws = state.ws
    region.start()
    if p.u1_grid is not None:
        x = _quant_prefix(ws, p, x, name)
    elif p.u1 is not None:
        low = ws.buf(name + ".r1", x.shape[:-1] + (p.u1.shape[1],))
        np.matmul(x, p.u1, out=low)
        mid = ws.buf(name + ".r2", x.shape[:-1] + (p.core.shape[1],))
        np.matmul(low, p.core, out=mid)
        x = mid
    out = ws.buf(name, x.shape[:-1] + (p.out_width,))
    if p.grid is not None:
        _quant_blocked_into(ws, x, p, out)
    else:
        _blocked_into(x, p.weight, p.edges, out)
    if p.bias is not None:
        np.add(out, p.bias, out=out)
    region.stop(f"layer{layer}.{role}")
    return out


def _rms_norm(state: FastState, x: np.ndarray, weight: np.ndarray,
              eps: np.float32) -> np.ndarray:
    # Mirrors F.rms_norm: x * ((x*x).mean(-1, keepdims) + eps)**-0.5 * w,
    # with mean computed as sum * float32(1/D) exactly like Tensor.mean.
    ws = state.ws
    squares = ws.buf("norm.sq", x.shape)
    np.multiply(x, x, out=squares)
    stat = ws.buf("norm.stat", x.shape[:-1] + (1,))
    np.sum(squares, axis=-1, keepdims=True, out=stat)
    np.multiply(stat, state.inv_dim, out=stat)
    np.add(stat, eps, out=stat)
    np.power(stat, -0.5, out=stat)
    out = ws.buf("normed", x.shape)
    np.multiply(x, stat, out=out)
    np.multiply(out, weight, out=out)
    return out


def _embed(state: FastState, ids: np.ndarray, region: _Region) -> np.ndarray:
    region.start()
    table = state.embed_table
    if state.embed_checked:
        # Mirrors Embedding.forward's validation, messages included.
        if not np.issubdtype(ids.dtype, np.integer):
            raise ShapeError(f"embedding ids must be integers, got {ids.dtype}")
        n = table.shape[0]
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= n:
            raise ShapeError(
                f"embedding ids out of range [0, {n}): "
                f"[{ids.min()}, {ids.max()}]"
            )
    out = state.ws.buf("x", ids.shape + (table.shape[1],))
    np.take(table, ids, axis=0, out=out)
    region.stop("embed")
    return out


def _rope_table(rope, offset: int, seq_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """Views of the cos/sin rows for one shared offset (dense path)."""
    offset = int(offset)
    if offset < 0 or offset + seq_len > rope.max_seq_len:
        raise ShapeError(
            f"positions [{offset}, {offset + seq_len}) exceed RoPE table "
            f"{rope.max_seq_len}"
        )
    cos = rope._cos[offset : offset + seq_len][None, None, :, :]
    sin = rope._sin[offset : offset + seq_len][None, None, :, :]
    return cos, sin


def _rope_apply(state: FastState, x: np.ndarray, cos: np.ndarray,
                sin: np.ndarray, name: str) -> np.ndarray:
    # Mirrors RotaryEmbedding.apply: same table values, and the rotation
    # as mul/mul/sub + mul/mul/add (a - b == a + (-b) bitwise).
    ws = state.ws
    half = x.shape[-1] // 2
    out = ws.buf(name, x.shape)
    scratch = ws.buf("rope.tmp", x.shape[:-1] + (half,))
    x1 = x[..., :half]
    x2 = x[..., half:]
    first = out[..., :half]
    second = out[..., half:]
    np.multiply(x1, cos, out=first)
    np.multiply(x2, sin, out=scratch)
    np.subtract(first, scratch, out=first)
    np.multiply(x2, cos, out=second)
    np.multiply(x1, sin, out=scratch)
    np.add(second, scratch, out=second)
    return out


def _softmax_inplace(state: FastState, scores: np.ndarray) -> None:
    # Mirrors F.softmax: subtract running max (x + (-max) == x - max
    # bitwise), exp, divide by the sum.  Reductions run over the
    # contiguous last axis exactly as on a fresh array.
    stat = state.ws.buf("softmax.stat", scores.shape[:-1] + (1,))
    np.max(scores, axis=-1, keepdims=True, out=stat)
    np.subtract(scores, stat, out=scores)
    np.exp(scores, out=scores)
    np.sum(scores, axis=-1, keepdims=True, out=stat)
    np.divide(scores, stat, out=scores)


def _split_heads(x: np.ndarray, batch: int, seq_len: int, n_heads: int,
                 head_dim: int) -> np.ndarray:
    return x.reshape(batch, seq_len, n_heads, head_dim).transpose(0, 2, 1, 3)


def _per_kv_head(a: np.ndarray, b: np.ndarray, runs, out: np.ndarray) -> None:
    """``a @ b`` where ``b`` holds KV heads and ``a`` / ``out`` query heads.

    Each run of query heads ``[lo, hi)`` multiplies against its one KV
    head, broadcast over the run.  Every (row, query head) pair runs the
    same 2-D GEMM on the same bytes as against a GQA-expanded copy, so
    the result is bit-identical to it — unlike stacking a group's query
    heads into one GEMM, which changes the kernel.
    """
    for lo, hi, kv_head in runs:
        np.matmul(a[:, lo:hi], b[:, kv_head : kv_head + 1], out=out[:, lo:hi])


def _finish_attention(state: FastState, layer: int, scores: np.ndarray,
                      values: np.ndarray, batch: int, seq_len: int,
                      region: _Region) -> np.ndarray:
    ws = state.ws
    head_dim = state.head_dim
    context = ws.buf("attn.ctx", (batch, state.n_q_heads, seq_len, head_dim))
    region.start()
    _per_kv_head(scores, values, state.kv_runs, context)
    region.stop(f"layer{layer}.attn.pv")
    region.start()
    merged = ws.buf("attn.merged", (batch, seq_len, state.n_q_heads * head_dim))
    np.copyto(merged.reshape(batch, seq_len, state.n_q_heads, head_dim),
              context.transpose(0, 2, 1, 3))
    if state.gather is not None:
        merged = state.gather(merged)
    region.stop(f"layer{layer}.attn.merge")
    out = _project(state, layer, "w_so", merged, "attn.out", region)
    if state.gather is not None:
        out = state.gather(out)
    return out


def _attention_dense(state: FastState, layer: int, x: np.ndarray,
                     pad_mask, cache, region: _Region) -> np.ndarray:
    from repro.runtime.driver import causal_mask

    ws = state.ws
    batch, seq_len, _ = x.shape
    offset = 0 if cache is None else cache.seq_len
    head_dim = state.head_dim
    q = _project(state, layer, "w_q", x, "q", region)
    k = _project(state, layer, "w_k", x, "k", region)
    v = _project(state, layer, "w_v", x, "v", region)
    qh = _split_heads(q, batch, seq_len, state.n_q_heads, head_dim)
    kh = _split_heads(k, batch, seq_len, state.n_kv_heads, head_dim)
    vh = _split_heads(v, batch, seq_len, state.n_kv_heads, head_dim)
    region.start()
    if state.rope is not None:
        cos, sin = _rope_table(state.rope, offset, seq_len)
        qh = _rope_apply(state, qh, cos, sin, "q.rot")
        kh = _rope_apply(state, kh, cos, sin, "k.rot")
    region.stop(f"layer{layer}.attn.rope")
    if cache is not None:
        region.start()
        keys, values = cache.append(kh, vh)
        region.stop(f"layer{layer}.attn.cache")
    else:
        keys, values = kh, vh
    total = offset + seq_len
    scores = ws.seq_buf("scores", (batch, state.n_q_heads, seq_len, total), axis=3)
    region.start()
    _per_kv_head(qh, keys.transpose(0, 1, 3, 2), state.kv_runs, scores)
    np.multiply(scores, state.scale, out=scores)
    region.stop(f"layer{layer}.attn.qk")
    region.start()
    # A single cached decode step attends everything before it — no mask.
    if state.causal and (seq_len > 1 or cache is None):
        mask = causal_mask(seq_len, offset=offset)
        np.copyto(scores, _NEG_INF32, where=mask[None, None, :, :])
    if pad_mask is not None:
        pad = np.asarray(pad_mask, dtype=bool)
        expected = (batch, offset + seq_len if cache is not None else seq_len)
        if pad.shape != expected:
            raise ShapeError(f"pad_mask shape {pad.shape} != {expected}")
        np.copyto(scores, _NEG_INF32, where=pad[:, None, None, :])
    _softmax_inplace(state, scores)
    region.stop(f"layer{layer}.attn.softmax")
    return _finish_attention(state, layer, scores, values, batch, seq_len, region)


class _RaggedPlan:
    """What one ragged forward shares across its layers, built once.

    Row offsets, lengths and totals; the RoPE cos/sin rows of every row;
    the causal-and-length mask; and each row's cache destinations,
    resolved (and checked) through the sequence's ``kv_slots`` before any
    layer is written.  New tokens are laid out group by group — one group
    per backing store — so ``new k/v[lo:hi]`` is a group's scatter source.
    """

    __slots__ = ("batch", "max_new", "offsets", "counts", "width", "cos",
                 "sin", "invalid", "rows", "tokens", "positions", "writes",
                 "afters", "wanted", "staged")


def _plan_ragged(state: FastState, caches, batch: int, max_new: int) -> _RaggedPlan:
    if not state.causal:
        raise ShapeError("ragged cached attention requires a causal decoder")
    first = caches.layers[0]
    if len(first) != batch:
        raise ShapeError(
            f"ragged batch mismatch: {batch} rows, {len(first)} caches"
        )
    lengths = first.new_lengths
    if np.any(lengths < 1) or np.any(lengths > max_new):
        raise ShapeError(f"row lengths {lengths} out of range [1, {max_new}]")
    offsets = first.offsets
    totals = offsets + lengths
    plan = _RaggedPlan()
    plan.batch, plan.max_new = batch, max_new
    plan.offsets = offsets
    plan.counts = counts = lengths.tolist()
    # pad_to floors the padded width so a pipeline's row-microbatches
    # reduce over exactly the widths the full-batch pass would.
    plan.width = max(int(totals.max()), first.pad_to)

    plan.cos = plan.sin = None
    rope = state.rope
    if rope is not None:
        if np.any(offsets < 0) or np.any(offsets >= rope.max_seq_len):
            raise ShapeError(
                f"row offsets {offsets} exceed RoPE table {rope.max_seq_len}"
            )
        positions = offsets[:, None] + np.arange(max_new, dtype=np.int64)[None, :]
        # Clamps padded tail slots only: run_model has already rejected
        # rows whose real tokens pass the table.
        np.minimum(positions, rope.max_seq_len - 1, out=positions)
        half = state.head_dim // 2
        cos = state.ws.buf("rope.cos", (batch, max_new, half))
        sin = state.ws.buf("rope.sin", (batch, max_new, half))
        np.take(rope._cos, positions, axis=0, out=cos)
        np.take(rope._sin, positions, axis=0, out=sin)
        plan.cos, plan.sin = cos[:, None], sin[:, None]

    key_pos = np.arange(plan.width, dtype=np.int64)[None, None, :]
    query_pos = (
        offsets[:, None, None] + np.arange(max_new, dtype=np.int64)[None, :, None]
    )
    invalid = (key_pos > query_pos) | (key_pos >= totals[:, None, None])
    plan.invalid = invalid[:, None, :, :]

    targets = [
        sequence.kv_slots(count, state.n_kv_heads, state.head_dim)
        for sequence, count in zip(caches.sequences, counts)
    ]
    groups = {}
    for row, target in enumerate(targets):
        groups.setdefault(target.store, []).append(row)
    order = np.asarray([row for members in groups.values() for row in members],
                       dtype=np.intp)
    ordered = lengths[order]
    plan.rows = np.repeat(order, ordered)
    plan.tokens = (np.arange(plan.rows.size)
                   - np.repeat(np.cumsum(ordered) - ordered, ordered))
    plan.positions = offsets[plan.rows] + plan.tokens
    plan.writes = []
    lo = 0
    for members in groups.values():
        hi = lo + sum(counts[row] for row in members)
        head = targets[members[0]]
        blocks = np.asarray([b for row in members for b in targets[row].blocks],
                            dtype=np.intp)
        slots = np.asarray([s for row in members for s in targets[row].slots],
                           dtype=np.intp)
        plan.writes.append((head.keys, head.values, blocks, slots, lo, hi))
        lo = hi
    plan.afters = [target.after for target in targets if target.after is not None]

    starts, ends = offsets.tolist(), totals.tolist()
    plan.wanted, plan.staged = [], []
    for ragged in caches.layers:
        epochs = [cache.epoch for cache in ragged.caches]
        plan.wanted.append(list(zip(epochs, starts)))
        plan.staged.append(list(zip(epochs, ends)))
    return plan


def _stage_kv(state: FastState, layer: int, plan: _RaggedPlan, ragged,
              kh: np.ndarray, vh: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Write the batch's new K/V to its caches and to the staging slots.

    Every cache gets its new positions through the plan's destinations:
    one fancy-index scatter per backing store.  Staging slot ``b`` must
    mirror row ``b``'s cache history (its KV heads; the matmuls broadcast
    each over its query heads).  Slots are found by cache epoch: a row
    whose epoch sits in slot ``b`` at the row's offset is a hit; one found
    in another slot (rows shift up when a request finishes) moves its
    staged history over, in one copy for all such rows; any other row
    re-reads its history once through its cache's ``read``.  Every staged
    value is a copy of the cache's, so the matmuls read the bytes a
    per-step gather would produce.
    """
    ws = state.ws
    batch = plan.batch
    stage = ws.stage(state.stage_names[layer], batch, state.n_kv_heads,
                     plan.width, state.head_dim)
    new_k = kh[plan.rows, :, plan.tokens]
    new_v = vh[plan.rows, :, plan.tokens]
    for keys, values, blocks, slots, lo, hi in plan.writes:
        keys[layer][blocks, :, slots] = new_k[lo:hi]
        values[layer][blocks, :, slots] = new_v[lo:hi]
    wanted = plan.wanted[layer]
    misses = 0
    if stage.records[:batch] != wanted:
        sources = stage.lookup(wanted)
        moved = [row for row, slot in enumerate(sources)
                 if slot is not None and slot != row]
        if moved:
            dst = np.asarray(moved, dtype=np.intp)
            src = np.asarray([sources[row] for row in moved], dtype=np.intp)
            width = int(plan.offsets[dst].max())
            # Fancy-indexed sources are copied out before any slot is
            # written, so rows trading places read each other's old data.
            stage.keys[dst, :, :width] = stage.keys[src, :, :width]
            stage.values[dst, :, :width] = stage.values[src, :, :width]
        for row, slot in enumerate(sources):
            if slot is not None:
                continue
            misses += 1
            offset = int(plan.offsets[row])
            if offset:
                history_k, history_v = ragged.caches[row].read()
                stage.keys[row, :, :offset] = history_k[0]
                stage.values[row, :, :offset] = history_v[0]
    ws.stage_misses += misses
    ws.stage_hits += batch - misses
    stage.keys[plan.rows, :, plan.positions] = new_k
    stage.values[plan.rows, :, plan.positions] = new_v
    stage.records[:batch] = plan.staged[layer]
    for cache, count in zip(ragged.caches, plan.counts):
        cache.advance(count)
    return stage.keys[:batch, :, :plan.width], stage.values[:batch, :, :plan.width]


def _attention_ragged(state: FastState, layer: int, x: np.ndarray, ragged,
                      plan: _RaggedPlan, region: _Region) -> np.ndarray:
    ws = state.ws
    batch, max_new = plan.batch, plan.max_new
    head_dim = state.head_dim
    q = _project(state, layer, "w_q", x, "q", region)
    k = _project(state, layer, "w_k", x, "k", region)
    v = _project(state, layer, "w_v", x, "v", region)
    qh = _split_heads(q, batch, max_new, state.n_q_heads, head_dim)
    kh = _split_heads(k, batch, max_new, state.n_kv_heads, head_dim)
    vh = _split_heads(v, batch, max_new, state.n_kv_heads, head_dim)
    region.start()
    if plan.cos is not None:
        qh = _rope_apply(state, qh, plan.cos, plan.sin, "q.rot")
        kh = _rope_apply(state, kh, plan.cos, plan.sin, "k.rot")
    region.stop(f"layer{layer}.attn.rope")
    # Staging positions past a row's total hold zeros or stale finite
    # values: those key positions are masked, their softmax weight
    # underflows to exactly 0.0, and 0.0 * finite == 0.0 bit for bit.
    region.start()
    keys, values = _stage_kv(state, layer, plan, ragged, kh, vh)
    region.stop(f"layer{layer}.attn.cache")
    scores = ws.seq_buf("scores", (batch, state.n_q_heads, max_new, plan.width),
                        axis=3)
    region.start()
    _per_kv_head(qh, keys.transpose(0, 1, 3, 2), state.kv_runs, scores)
    np.multiply(scores, state.scale, out=scores)
    region.stop(f"layer{layer}.attn.qk")
    region.start()
    np.copyto(scores, _NEG_INF32, where=plan.invalid)
    _softmax_inplace(state, scores)
    region.stop(f"layer{layer}.attn.softmax")
    return _finish_attention(state, layer, scores, values, batch, max_new, region)


def _swiglu_mlp(state: FastState, layer: int, x: np.ndarray,
                region: _Region) -> np.ndarray:
    gate = _project(state, layer, "w_g", x, "mlp.gate", region)
    up = _project(state, layer, "w_u", x, "mlp.up", region)
    region.start()
    # Mirrors F.silu(gate) * up: sigmoid as 1/(1 + exp(-g)), then g * sig,
    # then * up — same ufuncs, same order.
    act = state.ws.buf("mlp.act", gate.shape)
    np.negative(gate, out=act)
    np.exp(act, out=act)
    np.add(act, 1.0, out=act)
    np.divide(1.0, act, out=act)
    np.multiply(gate, act, out=act)
    np.multiply(act, up, out=act)
    region.stop(f"layer{layer}.mlp.act")
    hidden = state.gather(act) if state.gather is not None else act
    out = _project(state, layer, "w_d", hidden, "mlp.out", region)
    return state.gather(out) if state.gather is not None else out


def _run_layer(state: FastState, layer: int, x: np.ndarray, pad_mask, cache,
               plan: Optional[_RaggedPlan], region: _Region) -> np.ndarray:
    lay = state.layers[layer]
    region.start()
    normed = _rms_norm(state, x, lay.attn_norm, lay.attn_eps)
    region.stop(f"layer{layer}.attn_norm")
    if plan is not None:
        attn_out = _attention_ragged(state, layer, normed, cache, plan, region)
    else:
        attn_out = _attention_dense(state, layer, normed, pad_mask, cache, region)
    ws = state.ws
    region.start()
    mid = ws.buf("stream.mid", x.shape)
    np.add(x, attn_out, out=mid)
    region.stop(f"layer{layer}.residual")
    region.start()
    normed = _rms_norm(state, mid, lay.mlp_norm, lay.mlp_eps)
    region.stop(f"layer{layer}.mlp_norm")
    mlp_out = _swiglu_mlp(state, layer, normed, region)
    region.start()
    out = ws.buf("stream.out", x.shape)
    np.add(mid, mlp_out, out=out)
    region.stop(f"layer{layer}.residual")
    return out


def _logits(state: FastState, x: np.ndarray, region: _Region) -> np.ndarray:
    ws = state.ws
    head = state.head
    region.start()
    normed = _rms_norm(state, x, head.norm, head.eps)
    region.stop("final_norm")
    batch, seq_len, dim = x.shape
    region.start()
    if head.proj is not None:
        p = head.proj
        hidden = normed
        if p.u1_grid is not None:
            hidden = _quant_prefix(ws, p, hidden, "lm_head")
        elif p.u1 is not None:
            low = ws.buf("lm_head.r1", hidden.shape[:-1] + (p.u1.shape[1],))
            np.matmul(hidden, p.u1, out=low)
            mid = ws.buf("lm_head.r2", hidden.shape[:-1] + (p.core.shape[1],))
            np.matmul(low, p.core, out=mid)
            hidden = mid
        width = p.out_width
        if state.gather is None:
            out = np.empty((batch, seq_len, width), dtype=np.float32)
        else:
            out = ws.buf("lm_head.local", (batch, seq_len, width))
        if p.grid is not None:
            _quant_blocked_into(ws, hidden, p, out)
        else:
            _blocked_into(hidden, p.weight, p.edges, out)
        if p.bias is not None:
            np.add(out, p.bias, out=out)
        if state.gather is None:
            result = out
        else:
            result = state.gather(out)
            if result is out:
                # A size-1 gather returns its input — a view of the reused
                # workspace buffer.  Logits escape this call, so detach.
                result = result.copy()
    else:
        # Tied head: GEMMs against the same transposed-table views the
        # Tensor path slices (identical memory layout, identical bytes).
        flat = normed.reshape(batch * seq_len, dim)
        if state.gather is None:
            out = np.empty((batch * seq_len, head.width), dtype=np.float32)
        else:
            out = ws.buf("lm_head.local", (batch * seq_len, head.width))
        position = 0
        for a, b in head.edges:
            np.matmul(flat, head.tied[:, a:b],
                      out=out[:, position : position + (b - a)])
            position += b - a
        result = out.reshape(batch, seq_len, head.width)
        if state.gather is not None:
            gathered = state.gather(result)
            # Size-1 gathers hand the workspace view straight back; copy so
            # the escaping logits survive the next forward's buffer reuse.
            result = gathered.copy() if gathered is result else gathered
    region.stop("lm_head")
    return result


def run_model_fast(state: FastState, tokens: np.ndarray, pad_mask=None,
                   caches=None, hidden=None, skip_head=False) -> np.ndarray:
    """(B, T) ids -> freshly allocated (B, T, vocab) logits, no autograd.

    On a pipeline stage, ``hidden`` replaces the embedding with the
    previous stage's replicated (B, T, D) block, and a head-less state
    returns a fresh copy of the hidden output (the internal layer buffer
    is workspace-owned and reused on the next call, so it must not escape).
    """
    from repro.nn.kv_cache import RaggedModelCaches

    region = _Region(state.ctx.__dict__.get("_fast_profiler"), state.ws)
    if hidden is not None:
        x = np.asarray(hidden, dtype=np.float32)
    else:
        x = _embed(state, tokens, region)
    plan = None
    if isinstance(caches, RaggedModelCaches):
        region.start()
        plan = _plan_ragged(state, caches, x.shape[0], x.shape[1])
        region.stop("ragged.plan")
    for layer in range(state.n_layers):
        cache = None if caches is None else caches.layers[layer]
        x = _run_layer(state, layer, x, pad_mask, cache, plan, region)
    if plan is not None:
        for after in plan.afters:
            after()
    if state.head is None or skip_head:
        return x.copy()
    return _logits(state, x, region)


def logits_fast(state: FastState, hidden: np.ndarray) -> np.ndarray:
    """Epilogue only: final norm + LM head over replicated hidden states.

    Used when a pipelined forward runs its layers in row-microbatches but
    defers the head to one full-batch call — the head GEMM against the
    transposed tied-embedding view is the one kernel whose low-order bits
    depend on the row count, so it must see the same row count as the
    canonical pass.
    """
    region = _Region(state.ctx.__dict__.get("_fast_profiler"), state.ws)
    return _logits(state, np.asarray(hidden, dtype=np.float32), region)


__all__ = [
    "FastState",
    "OpProfiler",
    "Workspace",
    "active_state",
    "disable_profiling",
    "disabled",
    "enable_profiling",
    "logits_fast",
    "run_model_fast",
    "workspace_of",
]
