"""Multi-head self-attention for both encoder (BERT) and decoder (Llama).

The four projection weights (W_Q, W_K, W_V, W_SO in the paper's Figure 4)
are separate :class:`Linear` modules so that the decomposition machinery can
target each of them individually.  The attention math itself lives in the
shared runtime kernels (:mod:`repro.runtime.driver`); this module owns the
weights, the block-grid reduction layout, and the geometry, and runs the
kernels through a single-layer execution context.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.nn.linear import Linear, block_edges
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding
from repro.runtime.context import AttentionModuleContext
from repro.runtime.driver import NEG_INF, attention as _attention_kernel, causal_mask
from repro.tensor.tensor import Tensor

_NEG_INF = NEG_INF

__all__ = ["MultiHeadAttention", "causal_mask"]


class MultiHeadAttention(Module):
    """Self-attention with optional causal masking and rotary embeddings.

    Parameters
    ----------
    dim:
        Model (residual stream) width.
    n_heads:
        Number of attention heads; ``dim`` must be divisible by it.
    causal:
        True for decoder (Llama) blocks, False for encoder (BERT) blocks.
    rope:
        Rotary embedding table shared across layers, or None for models with
        absolute positional embeddings.
    bias:
        Whether projections carry biases (BERT yes, Llama no).
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        causal: bool,
        rope: Optional[RotaryEmbedding] = None,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
        n_kv_heads: int = 0,
    ) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ShapeError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = int(dim)
        self.n_heads = int(n_heads)
        self.head_dim = dim // n_heads
        self.n_kv_heads = int(n_kv_heads) or self.n_heads
        if self.n_heads % self.n_kv_heads != 0:
            raise ShapeError(
                f"n_heads {n_heads} not divisible by n_kv_heads {self.n_kv_heads}"
            )
        self.causal = bool(causal)
        self.rope = rope
        kv_dim = self.n_kv_heads * self.head_dim
        self.w_q = Linear(dim, dim, bias=bias, rng=rng)
        self.w_k = Linear(dim, kv_dim, bias=bias, rng=rng)
        self.w_v = Linear(dim, kv_dim, bias=bias, rng=rng)
        self.w_so = Linear(dim, dim, bias=bias, rng=rng)
        # Fixed reduction layout: Q/K/V project one head at a time and the
        # output projection runs in n_heads column blocks, so the
        # tensor-parallel executor (repro.parallel), which computes the same
        # blocks head-sharded, matches this forward bit for bit.
        self._q_edges = block_edges(dim, self.n_heads)
        self._kv_edges = block_edges(kv_dim, self.n_kv_heads)
        self._out_edges = block_edges(dim, self.n_heads)
        self._runtime_ctx = AttentionModuleContext(self)

    def forward(self, x: Tensor, pad_mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend over ``x`` (B, T, D), with no KV cache.

        ``pad_mask`` is an optional boolean (B, T) array, True at padding
        positions that must not be attended to.  Cached decoding is a
        whole-model forward (``LlamaModel.forward_ragged``), which runs the
        runtime's ragged kernel over this module's weights.
        """
        return _attention_kernel(self._runtime_ctx, 0, x, pad_mask=pad_mask)
