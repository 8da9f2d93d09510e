"""A Llama-2-style decoder-only language model.

Architecture (matching Figure 4 of the paper): token embedding, N decoder
blocks of pre-RMSNorm self-attention with RoPE followed by pre-RMSNorm
SwiGLU MLP, final RMSNorm, and an (untied by default) LM head.  Every
decomposable weight tensor carries one of the paper's role names
(``w_q, w_k, w_v, w_so, w_g, w_u, w_d``).

Both forward flavors (stateless, and ragged cached — of which single-sequence
cached decoding is the one-row case) and the greedy generation loop are
executed by the shared runtime layer
(:mod:`repro.runtime`): the model owns weights and wires them into a
:class:`~repro.runtime.context.CanonicalBlocksContext`, and the runtime
driver runs the layer program over it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.models.config import LLAMA_TENSOR_ROLES, ModelConfig
from repro.nn import (
    Embedding,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    RMSNorm,
    RotaryEmbedding,
    SwiGluMLP,
)
from repro.nn.kv_cache import ModelKVCache
from repro.nn.linear import block_edges, blocked_project
from repro.runtime.context import CanonicalBlocksContext
from repro.runtime.decode import DecodeSession
from repro.runtime.driver import ModelRuntime
from repro.runtime.program import build_model_program
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class LlamaBlock(Module):
    """One decoder layer's weights: attention, MLP and their pre-norms.

    The runtime driver runs the layer (x += attn(norm(x)); x += mlp(norm(x)))
    through :class:`~repro.runtime.context.CanonicalBlocksContext`.
    """

    def __init__(
        self,
        config: ModelConfig,
        rope: RotaryEmbedding,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.attn_norm = RMSNorm(config.dim)
        self.attn = MultiHeadAttention(
            config.dim,
            config.n_heads,
            causal=True,
            rope=rope,
            bias=False,
            rng=rng,
            n_kv_heads=config.kv_heads,
        )
        self.mlp_norm = RMSNorm(config.dim)
        self.mlp = SwiGluMLP(
            config.dim, config.mlp_hidden, rng=rng, n_blocks=config.n_heads
        )

    def tensor_slot(self, role: str):
        """Return (owner module, attribute name) for a decomposable role."""
        if role in ("w_q", "w_k", "w_v", "w_so"):
            return self.attn, role
        if role in ("w_g", "w_u", "w_d"):
            return self.mlp, role
        raise ConfigError(f"unknown Llama tensor role {role!r}")


class LlamaModel(Module):
    """Decoder-only causal language model."""

    tensor_roles = LLAMA_TENSOR_ROLES

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if config.family != "llama":
            raise ConfigError(f"LlamaModel requires a llama config, got {config.family!r}")
        self.config = config
        self.embed = Embedding(config.vocab_size, config.dim, rng=rng)
        rope = RotaryEmbedding(config.head_dim, config.max_seq_len, theta=config.rope_theta)
        self.rope = rope
        self.blocks = ModuleList(
            LlamaBlock(config, rope, rng=rng) for _ in range(config.n_layers)
        )
        self.final_norm = RMSNorm(config.dim)
        self.lm_head = None if config.tie_lm_head else Linear(
            config.dim, config.vocab_size, bias=False, rng=rng
        )
        # The LM head projects in n_heads column blocks over the vocabulary
        # — the fixed reduction layout the tensor-parallel executor
        # reproduces when vocab blocks are sharded across ranks.
        self._vocab_edges = block_edges(config.vocab_size, config.n_heads)
        # The shared runtime: the layer program describes this model's ops;
        # the canonical context executes them through the block modules (so
        # decomposition swaps and autograd keep working unchanged).
        self.runtime = ModelRuntime(
            build_model_program(config),
            CanonicalBlocksContext(
                self.blocks,
                embed=self.embed,
                logits_fn=self.logits_from_hidden,
                rope=rope,
                final_norm=self.final_norm,
                lm_head=self.lm_head,
                vocab_edges=self._vocab_edges,
            ),
        )

    @property
    def n_layers(self) -> int:
        return self.config.n_layers

    @property
    def program(self):
        """The :class:`~repro.runtime.program.ModelProgram` this model runs."""
        return self.runtime.program

    def forward(self, tokens: np.ndarray, pad_mask: Optional[np.ndarray] = None) -> Tensor:
        """Map (B, T) token ids to (B, T, vocab) logits."""
        return self.runtime.forward(tokens, pad_mask=pad_mask)

    def logits_from_hidden(self, x: Tensor) -> Tensor:
        """Final norm + (blocked) LM-head projection of (B, T, D) hidden
        states, shared by the plain and cached forward paths."""
        x = self.final_norm(x)
        if self.lm_head is not None:
            return self.lm_head.forward_blocked(x, self._vocab_edges)
        batch, seq_len, _ = x.shape
        flat = x.reshape(batch * seq_len, self.config.dim)
        logits = blocked_project(flat, self.embed.weight.T, self._vocab_edges)
        return logits.reshape(batch, seq_len, self.config.vocab_size)

    def loss(self, tokens: np.ndarray, loss_mask: Optional[np.ndarray] = None) -> Tensor:
        """Next-token cross-entropy over a (B, T) batch.

        ``loss_mask`` optionally marks positions (B, T-1 target positions)
        that contribute to the loss; by default all shifted positions do.
        """
        tokens = np.asarray(tokens)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        batch, seq_len, vocab = logits.shape
        flat_logits = logits.reshape(batch * seq_len, vocab)
        flat_targets = targets.reshape(-1).copy()
        if loss_mask is not None:
            loss_mask = np.asarray(loss_mask, dtype=bool).reshape(-1)
            flat_targets = np.where(loss_mask, flat_targets, -1)
            return F.cross_entropy(flat_logits, flat_targets, ignore_index=-1)
        return F.cross_entropy(flat_logits, flat_targets)

    def tensor_slot(self, layer: int, role: str):
        """Locate a decomposable tensor: returns (owner module, attribute)."""
        if not 0 <= layer < self.n_layers:
            raise ConfigError(f"layer {layer} out of range [0, {self.n_layers})")
        return self.blocks[layer].tensor_slot(role)

    # -- cached decoding surface (what DecodeSession drives) ---------------
    def make_cache(self) -> ModelKVCache:
        """A fresh whole-model KV cache for incremental decoding."""
        return ModelKVCache(self.n_layers)

    def forward_cached(self, tokens: np.ndarray, cache) -> Tensor:
        """Forward over one row of new ``tokens``, extending ``cache`` in
        place: the one-row :meth:`forward_ragged` (ShapeError for more rows).
        """
        return self.forward_ragged(tokens, [cache], [np.shape(tokens)[-1]])

    def greedy_generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        stop_token: Optional[int] = None,
        use_cache: bool = True,
        speculative=None,
    ) -> np.ndarray:
        """Greedy decoding used by the GSM8K-style generative benchmark.

        With ``use_cache`` (default) the prompt is prefilled once and each
        new token runs a single-position forward pass against the KV cache;
        without it, the full window is recomputed per token (kept as the
        reference implementation — both paths produce identical tokens).
        ``speculative`` (a drafter model or
        :class:`~repro.runtime.speculative.SpeculativeConfig`) switches to
        the drafter/verifier loop; the output tokens are unchanged.
        """
        return DecodeSession(self).generate(
            prompt,
            max_new_tokens,
            stop_token=stop_token,
            use_cache=use_cache,
            speculative=speculative,
        )

    def forward_ragged(
        self,
        tokens: np.ndarray,
        caches,
        new_lengths,
    ) -> Tensor:
        """Cached forward over a ragged batch of independent sequences.

        ``tokens`` is a right-padded (B, T_max) batch where row ``b``
        contributes ``new_lengths[b]`` valid new positions appended to
        ``caches[b]`` (a :class:`~repro.nn.kv_cache.ModelKVCache`-compatible
        per-sequence cache, e.g. a paged one).  Rows may sit at
        different depths; each attends its own history only.  Returns
        (B, T_max, vocab) logits — row ``b`` is valid up to position
        ``new_lengths[b] - 1``; padded positions hold garbage.

        This is the forward pass the continuous-batching engine in
        :mod:`repro.serving` drives: prefill chunks and single-token decode
        steps of different requests share one batched pass.
        """
        return self.runtime.forward_ragged(tokens, caches, new_lengths)
