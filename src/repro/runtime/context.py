"""Pluggable execution contexts for the runtime driver.

The driver in :mod:`repro.runtime.driver` runs one fixed op schedule — the
layer program — and delegates every weight-touching or topology-dependent
step to an :class:`ExecutionContext`:

- ``project``: the rank's output columns of a (possibly factorized) role
  projection, in the canonical block-grid reduction layout;
- ``norm`` / ``embed`` / ``logits``: the replicated streaming ops;
- ``rope`` / ``expand_kv``: position rotation and GQA head expansion for
  the context's (possibly rank-local) head slice;
- ``gather``: identity on a single device, an all-gather on a mesh.

The canonical single-process context delegates to the model's modules (so
autograd and the fixed ``blocked_project`` reduction layout are preserved
bit for bit), while :class:`repro.parallel.executor.ShardedContext` runs
the same schedule over one rank's weight shard and a collective group.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.tensor.tensor import Tensor


def kv_expand_plan(
    n_q_heads: int, kv_group: int, q_start: int = 0, kv_start: int = 0
) -> tuple:
    """The local KV head index serving each query head, precomputed.

    The head-to-head wiring depends only on the context's geometry, so
    every context materializes this once at construction instead of
    re-deriving it (and re-slicing per head) on every attention call.
    """
    return tuple(
        head // kv_group - kv_start for head in range(q_start, q_start + n_q_heads)
    )


def expand_kv_heads(
    x: Tensor,
    n_q_heads: int,
    kv_group: int,
    q_start: int = 0,
    kv_start: int = 0,
    plan: Optional[tuple] = None,
) -> Tensor:
    """Repeat each KV head to serve its group of query heads (GQA).

    Built from basic head slices concatenated along the head axis (not a
    fancy-indexed copy): concatenation guarantees a C-ordered result, so
    the batched matmuls that follow see the same memory layout — and
    produce the same bytes — whether computed over all heads (canonical,
    ``q_start == kv_start == 0``) or over one rank's head run (``q_start``
    the rank's first query head, ``kv_start`` its first covering KV head).

    ``plan`` is an optional precomputed :func:`kv_expand_plan`; passing it
    skips the per-call index derivation.
    """
    if kv_group == 1:
        return x
    if plan is None:
        plan = kv_expand_plan(n_q_heads, kv_group, q_start, kv_start)
    parts = [x[:, local : local + 1] for local in plan]
    return Tensor.concatenate(parts, axis=1)


class ExecutionContext:
    """Strategy bundle the driver runs a layer program against.

    Subclasses fix the weight flavor (dense vs. factorized — resolved per
    role by ``project``), the device topology (``gather`` and the local
    head counts), and the output head (``logits``).  Geometry attributes
    are *local*: a tensor-parallel rank reports only its own head slice.
    """

    n_layers: int
    n_q_heads: int
    n_kv_heads: int
    head_dim: int
    kv_group: int
    causal: bool
    #: Positions the RoPE table covers; None when there is no table.
    max_positions: Optional[int] = None

    def embed(self, tokens) -> Tensor:
        """Token ids (B, T) to hidden states (B, T, D)."""
        raise NotImplementedError

    def norm(self, layer: int, which: str, x: Tensor) -> Tensor:
        """Pre-sublayer normalization; ``which`` is ``"attn"`` or ``"mlp"``."""
        raise NotImplementedError

    def project(self, layer: int, role: str, x: Tensor) -> Tensor:
        """This context's output columns of the role's blocked projection."""
        raise NotImplementedError

    def rope(self, x: Tensor, offset) -> Tensor:
        """Rotary rotation at absolute positions (identity without RoPE)."""
        return x

    def expand_kv(self, x: Tensor) -> Tensor:
        """GQA expansion restricted to this context's query heads."""
        return expand_kv_heads(
            x,
            self.n_q_heads,
            self.kv_group,
            plan=getattr(self, "_kv_plan", None),
        )

    def gather(self, x: Tensor) -> Tensor:
        """Reassemble a sharded activation (identity on a single device)."""
        return x

    def logits(self, x: Tensor) -> Tensor:
        """Final norm + LM-head projection of (B, T, D) hidden states."""
        raise NotImplementedError


class CanonicalBlocksContext(ExecutionContext):
    """Single-process execution over Llama-style decoder block modules.

    ``blocks`` is any sequence of modules with ``attn_norm`` / ``attn``
    (a :class:`~repro.nn.attention.MultiHeadAttention`) / ``mlp_norm`` /
    ``mlp`` (a :class:`~repro.nn.mlp.SwiGluMLP`) attributes —
    :class:`~repro.models.llama.LlamaBlock` in practice.  All projections
    go through the modules' own ``forward_blocked`` with their stored block
    grids, so gradients flow and the bytes match the pre-runtime forwards
    exactly.  Module lookups are dynamic: swapping a ``Linear`` for a
    :class:`~repro.nn.factorized.FactorizedLinear` (decomposition) is
    picked up without rebuilding the context.
    """

    causal = True
    fast_kind = "canonical"

    def __init__(
        self,
        blocks,
        embed=None,
        logits_fn=None,
        rope=None,
        final_norm=None,
        lm_head=None,
        vocab_edges=None,
    ) -> None:
        self.blocks = list(blocks)
        if not self.blocks:
            raise ConfigError("context needs at least one decoder block")
        attn = self.blocks[0].attn
        self.n_layers = len(self.blocks)
        self.n_q_heads = attn.n_heads
        self.n_kv_heads = attn.n_kv_heads
        self.head_dim = attn.head_dim
        self.kv_group = attn.n_heads // attn.n_kv_heads
        self._kv_plan = kv_expand_plan(self.n_q_heads, self.kv_group)
        self._embed = embed
        self._logits_fn = logits_fn
        self._rope = rope if rope is not None else attn.rope
        if self._rope is not None:
            self.max_positions = self._rope.max_seq_len
        # Structured head description for the no-grad fast path (see
        # repro.runtime.fastpath).  ``logits_fn`` stays authoritative for
        # the Tensor-graph path; without these the context simply never
        # takes the fast path.
        self._final_norm = final_norm
        self._lm_head = lm_head
        self._head_edges = tuple(vocab_edges) if vocab_edges else ()

    def embed(self, tokens) -> Tensor:
        if self._embed is None:
            raise ConfigError("this context was built without an embedding")
        return self._embed(tokens)

    def norm(self, layer: int, which: str, x: Tensor) -> Tensor:
        block = self.blocks[layer]
        return block.attn_norm(x) if which == "attn" else block.mlp_norm(x)

    def project(self, layer: int, role: str, x: Tensor) -> Tensor:
        block = self.blocks[layer]
        if role in ("w_q",):
            return block.attn.w_q.forward_blocked(x, block.attn._q_edges)
        if role in ("w_k", "w_v"):
            module = getattr(block.attn, role)
            return module.forward_blocked(x, block.attn._kv_edges)
        if role == "w_so":
            return block.attn.w_so.forward_blocked(x, block.attn._out_edges)
        if role in ("w_g", "w_u"):
            module = getattr(block.mlp, role)
            return module.forward_blocked(x, block.mlp._hidden_edges)
        if role == "w_d":
            return block.mlp.w_d.forward_blocked(x, block.mlp._out_edges)
        raise ConfigError(f"unknown Llama tensor role {role!r}")

    def rope(self, x: Tensor, offset) -> Tensor:
        if self._rope is None:
            return x
        return self._rope.apply(x, offset=offset)

    def logits(self, x: Tensor) -> Tensor:
        if self._logits_fn is None:
            raise ConfigError("this context was built without an output head")
        return self._logits_fn(x)


class AttentionModuleContext(ExecutionContext):
    """Single-layer adapter over one bare :class:`MultiHeadAttention`.

    Lets the encoder (BERT) and standalone attention modules share the
    runtime attention kernel without a surrounding decoder block: only the
    attention-role projections and geometry are wired; norms, MLP, and the
    output head are never consulted by the kernel.
    """

    n_layers = 1

    def __init__(self, attn) -> None:
        self.attn = attn
        self.n_q_heads = attn.n_heads
        self.n_kv_heads = attn.n_kv_heads
        self.head_dim = attn.head_dim
        self.kv_group = attn.n_heads // attn.n_kv_heads
        self._kv_plan = kv_expand_plan(self.n_q_heads, self.kv_group)
        self.causal = attn.causal

    def project(self, layer: int, role: str, x: Tensor) -> Tensor:
        if role == "w_q":
            return self.attn.w_q.forward_blocked(x, self.attn._q_edges)
        if role in ("w_k", "w_v"):
            module = getattr(self.attn, role)
            return module.forward_blocked(x, self.attn._kv_edges)
        if role == "w_so":
            return self.attn.w_so.forward_blocked(x, self.attn._out_edges)
        raise ConfigError(f"attention context has no role {role!r}")

    def rope(self, x: Tensor, offset) -> Tensor:
        if self.attn.rope is None:
            return x
        return self.attn.rope.apply(x, offset=offset)

    def __repr__(self) -> str:
        return f"AttentionModuleContext({self.attn!r})"


__all__ = [
    "AttentionModuleContext",
    "CanonicalBlocksContext",
    "ExecutionContext",
    "expand_kv_heads",
    "kv_expand_plan",
]
