"""Rank-local forward execution of a sharded Llama.

Each rank runs the *same* runtime driver (:func:`repro.runtime.driver.run_model`)
as the canonical model, through a :class:`ShardedContext` with two
substitutions: ``project`` computes only the rank's column blocks of every
projection, and ``gather`` is a real all-gather where the canonical context's
is the identity.  Everything else — RMSNorm, RoPE, softmax, SiLU, residual
adds — is the identical elementwise code on the identical replicated
tensors, so the gathered hidden state after every sublayer matches the
canonical bytes exactly:

    per layer:  gather(merged attention heads)   payload (B, T, dim)
                gather(W_SO output blocks)       payload (B, T, dim)
                gather(silu(W_G x) * W_U x)      payload (B, T, mlp_hidden)
                gather(W_D output blocks)        payload (B, T, dim)
    at the end: gather(logit blocks)             payload (B, T, vocab)

GQA attention runs entirely rank-locally: the rank projects the KV heads
covering its query-head run (replicating any head shared with a neighbor),
so no KV communication is ever needed — the paper-relevant consequence is
that the KV cache shards by *covering* heads, slightly above 1/P.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ParallelError
from repro.nn.kv_cache import RaggedModelCaches
from repro.nn.quantized import dequantize_weight
from repro.nn.rope import RotaryEmbedding
from repro.parallel.sharding import ProjectionShard, RankShard
from repro.runtime.context import ExecutionContext, expand_kv_heads, kv_expand_plan
from repro.runtime.driver import run_head, run_model
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

_RMS_EPS = 1e-6  # matches repro.nn.normalization.RMSNorm's default


def project(shard: ProjectionShard, x: Tensor) -> Tensor:
    """The rank's output columns of a canonical blocked projection.

    Mirrors :func:`repro.nn.linear.blocked_project` block for block: each
    local edge is one basic-slice GEMM, concatenated in block order.  The
    bias chunk is added full-chunk-width afterwards, matching the
    canonical full-width bias add positionally.
    """
    if shard.quantized:
        # Dequantize the rank's chunk on the fly (the Tensor-graph
        # reference arm): per-output-column scales make the chunk's
        # dequantized values equal the same columns of the canonical full
        # dequantized matrix, so the blocked GEMMs below match bit for bit.
        if shard.u1_grid is not None:
            x = (x @ Tensor(dequantize_weight(shard.u1_grid, shard.u1_scales))) @ Tensor(
                dequantize_weight(shard.core_grid, shard.core_scales)
            )
        weight = Tensor(dequantize_weight(shard.grid, shard.scales))
    else:
        if shard.factorized:
            x = (x @ Tensor(shard.u1)) @ Tensor(shard.core)
        weight = Tensor(shard.weight)
    if len(shard.edges) == 1:
        out = x @ weight
    else:
        parts = [x @ weight[:, a:b] for a, b in shard.edges]
        out = Tensor.concatenate(parts, axis=-1)
    if shard.bias is not None:
        out = out + Tensor(shard.bias)
    return out


class ShardedContext(ExecutionContext):
    """One rank's view of the model for the shared runtime driver.

    Geometry attributes are rank-local (this rank's query-head run and its
    covering KV heads); ``gather`` reassembles full-width activations over
    the collective group in the fixed canonical block order.
    """

    causal = True
    fast_kind = "sharded"

    def __init__(self, shard: RankShard, group, rank: int) -> None:
        config = shard.config
        self.shard = shard
        self.group = group
        self.rank = rank
        self.n_layers = len(shard.layers)
        self.n_q_heads = shard.n_q_heads
        self.n_kv_heads = shard.n_kv_heads
        self.head_dim = config.head_dim
        self.kv_group = config.n_heads // config.kv_heads
        # Pipeline placement: middle stages neither embed nor project
        # logits — they map replicated hidden states to hidden states.
        self.has_embedding = shard.has_embedding
        self.has_head = shard.has_head
        self._kv_plan = kv_expand_plan(
            self.n_q_heads,
            self.kv_group,
            q_start=shard.q_span[0],
            kv_start=shard.kv_span[0],
        )
        self._rope = RotaryEmbedding(
            config.head_dim, config.max_seq_len, theta=config.rope_theta
        )
        self.max_positions = config.max_seq_len

    def embed(self, tokens) -> Tensor:
        if self.shard.embed is None:
            raise ParallelError(
                f"stage {self.shard.stage} holds no embedding table"
            )
        return Tensor(self.shard.embed)[np.asarray(tokens)]

    def norm(self, layer: int, which: str, x: Tensor) -> Tensor:
        shard = self.shard.layers[layer]
        weight = shard.attn_norm if which == "attn" else shard.mlp_norm
        return F.rms_norm(x, Tensor(weight), eps=_RMS_EPS)

    def project(self, layer: int, role: str, x: Tensor) -> Tensor:
        return project(getattr(self.shard.layers[layer], role), x)

    def rope(self, x: Tensor, offset) -> Tensor:
        return self._rope.apply(x, offset=offset)

    def expand_kv(self, x: Tensor) -> Tensor:
        # For global query head h the canonical expansion selects KV head
        # h // group; the same selection runs against the rank-local KV
        # tensor (offset by the cover start), producing exactly the
        # canonical expanded tensor's [q_start, q_stop) head slice.
        return expand_kv_heads(
            x,
            self.n_q_heads,
            self.kv_group,
            q_start=self.shard.q_span[0],
            kv_start=self.shard.kv_span[0],
            plan=self._kv_plan,
        )

    def gather(self, local: Tensor) -> Tensor:
        return Tensor(self.group.all_gather(self.rank, local.data, axis=-1))

    def logits(self, x: Tensor) -> Tensor:
        if not self.has_head:
            raise ParallelError(
                f"stage {self.shard.stage} holds no output head"
            )
        x = F.rms_norm(x, Tensor(self.shard.final_norm), eps=_RMS_EPS)
        if self.shard.lm_head is not None:
            return self.gather(project(self.shard.lm_head, x))
        # Tied head: slice the full transposed embedding with the rank's
        # GLOBAL vocab edges — byte-compatible with the canonical
        # ``blocked_project(flat, embed.T, vocab_edges)``.
        batch, seq_len, dim = x.shape
        flat = x.reshape(batch * seq_len, dim)
        table = Tensor(self.shard.embed).T
        parts = [flat @ table[:, a:b] for a, b in self.shard.vocab_edges]
        local = parts[0] if len(parts) == 1 else Tensor.concatenate(parts, axis=-1)
        local = local.reshape(batch, seq_len, self.shard.vocab_hi - self.shard.vocab_lo)
        return self.gather(local)


class RankExecutor:
    """Drives one rank's slice of the model through a collective group.

    A thin facade over the shared runtime driver: both forward flavors are
    :func:`repro.runtime.driver.run_model` over this rank's
    :class:`ShardedContext`.
    """

    def __init__(self, shard: RankShard, group, rank: int) -> None:
        if rank != shard.rank:
            raise ParallelError(f"shard rank {shard.rank} driven as rank {rank}")
        self.shard = shard
        self.group = group
        self.rank = rank
        self.context = ShardedContext(shard, group, rank)

    def forward(
        self,
        tokens: np.ndarray,
        pad_mask: Optional[np.ndarray] = None,
        hidden: Optional[np.ndarray] = None,
        skip_head: bool = False,
    ) -> Tensor:
        """Full uncached forward: (B, T) ids -> replicated (B, T, vocab).

        On a non-first pipeline stage ``hidden`` carries the previous
        stage's replicated (B, T, dim) output in place of the embedding;
        a non-last stage returns the hidden state instead of logits, as
        does a last stage when ``skip_head`` defers the epilogue to one
        full-batch :meth:`head_only` call.
        """
        return run_model(
            self.context, tokens, pad_mask=pad_mask, hidden=hidden,
            skip_head=skip_head,
        )

    def forward_cached(
        self, tokens: np.ndarray, cache, hidden: Optional[np.ndarray] = None
    ) -> Tensor:
        """Forward over new ``tokens`` only, extending the rank-local
        ``cache`` (a :class:`~repro.nn.kv_cache.ModelKVCache` holding this
        rank's covering KV heads) in place."""
        return run_model(self.context, tokens, caches=cache, hidden=hidden)

    def forward_ragged(
        self,
        tokens: np.ndarray,
        caches: Sequence[object],
        new_lengths: np.ndarray,
        hidden: Optional[np.ndarray] = None,
        pad_to: int = 0,
        skip_head: bool = False,
    ) -> Tensor:
        """Ragged cached forward over this rank's KV-head slice.

        ``caches`` are per-sequence caches holding this rank's covering KV
        heads; the driver bundles one
        :class:`~repro.nn.kv_cache.RaggedLayerCaches` per layer, mirroring
        the canonical continuous-batching path.  ``pad_to`` floors the
        padded KV width (see :class:`RaggedModelCaches`) so a pipeline's
        row-microbatches stay bit-identical to the full-batch pass.
        """
        ragged = RaggedModelCaches(list(caches), new_lengths, pad_to=pad_to)
        return run_model(
            self.context, tokens, caches=ragged, hidden=hidden,
            skip_head=skip_head,
        )

    def head_only(self, hidden: np.ndarray) -> Tensor:
        """Final norm + LM head (+ logits gather) over a full hidden batch.

        The completion of a ``skip_head`` forward: the head GEMM against
        the transposed tied-embedding view is the one kernel whose
        low-order bits depend on the row count, so a chunked pipeline runs
        it exactly once with the canonical batch.
        """
        return run_head(self.context, hidden)
