"""Partition a canonical LlamaModel into per-rank weight shards.

Every shard is a plain dataclass of NumPy arrays; one :class:`RankShard`
drives one grid cell of :class:`~repro.parallel.local.ShardedLlama`.

Megatron-style layout over the canonical block grids:

- ``w_q``: column blocks per query head; a rank takes its head run.
- ``w_k`` / ``w_v``: column blocks per KV head; a rank takes the GQA
  *cover* of its query heads (overlapping heads replicate across ranks).
- ``w_so`` / ``w_g`` / ``w_u`` / ``w_d`` / LM head: the canonical
  ``n_heads``-block grid over the output width; a rank takes a contiguous
  block run.  (These are output-column shards of the canonical blocked
  projection, which is what makes the sharded result bit-identical — a
  Megatron row-parallel split of W_SO/W_D would change the reduction
  order of the inner products and therefore the low-order bits.)
- Decomposed tensors (:class:`~repro.nn.factorized.FactorizedLinear`):
  U1 and the core have no contraction-free axis wider than the rank, so
  they replicate; only U2's output columns shard.
- Norm weights, RoPE tables, and the embedding table replicate.  The tied
  LM head keeps the *full* embedding so each rank can slice
  ``embed.T[:, a:b]`` exactly the way the canonical forward does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ParallelError
from repro.models.config import ModelConfig
from repro.nn import (
    FactorizedLinear,
    Linear,
    QuantizedFactorizedLinear,
    QuantizedLinear,
)
from repro.nn.linear import block_edges
from repro.parallel.mesh import DeviceMesh, Span, validate_mesh

Edges = List[Span]


def _localize(edges: Edges, span: Span) -> Tuple[int, int, Edges]:
    """Global column range + rank-local edges for grid blocks ``span``."""
    start_block, stop_block = span
    lo = edges[start_block][0]
    hi = edges[stop_block - 1][1]
    local = [(a - lo, b - lo) for a, b in edges[start_block:stop_block]]
    return lo, hi, local


@dataclass(frozen=True)
class ProjectionShard:
    """One rank's columns of a (possibly factorized/quantized) projection.

    ``weight`` holds the rank's contiguous output-column chunk for a dense
    layer; for a factorized layer ``u1``/``core`` are the replicated
    low-rank prefix and ``weight`` is the U2 column chunk.  ``edges`` are
    the canonical block boundaries *relative to the chunk* — the reduction
    layout the rank must reproduce.

    Quantized-storage projections keep ``weight`` None and carry int8
    grids instead: ``grid`` is the dense (or U2) column chunk with its
    matching per-column fp32 ``scales`` slice — per-output-column scales
    make every chunk self-contained — and a quantized factor chain
    replicates ``u1_grid``/``core_grid`` + scales the same way the fp32
    chain replicates U1/core.
    """

    weight: Optional[np.ndarray] = None
    edges: Edges = field(default_factory=list)
    bias: Optional[np.ndarray] = None
    u1: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    grid: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    u1_grid: Optional[np.ndarray] = None
    u1_scales: Optional[np.ndarray] = None
    core_grid: Optional[np.ndarray] = None
    core_scales: Optional[np.ndarray] = None
    bits: Optional[int] = None

    @property
    def factorized(self) -> bool:
        return self.u1 is not None

    @property
    def quantized(self) -> bool:
        return self.grid is not None

    @property
    def out_width(self) -> int:
        return self.weight.shape[1] if self.weight is not None else self.grid.shape[1]


def _chunk(weight: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A C-contiguous copy of columns ``[lo, hi)`` — the basic-slice copy
    whose GEMM results match the canonical full-width view exactly.

    A zero-copy view would hold less: about 40 MB less resident memory on
    serve-llama at tp=2.  But each rank's GEMMs would then read strided
    half-rows, which cost 4–6 % of decode throughput there, so the
    shards stay copies (EXPERIMENTS.md, "Measured, not adopted")."""
    return np.ascontiguousarray(weight[:, lo:hi])


def shard_projection(module, edges: Edges, span: Span) -> ProjectionShard:
    """Shard a Linear/FactorizedLinear or quantized twin over grid ``span``."""
    lo, hi, local = _localize(edges, span)
    bias = None
    if module.bias is not None:
        bias = np.ascontiguousarray(module.bias.data[lo:hi])
    if isinstance(module, QuantizedFactorizedLinear):
        return ProjectionShard(
            edges=local,
            bias=bias,
            grid=_chunk(module.u2_grid, lo, hi),
            scales=module.u2_scales[lo:hi].copy(),
            u1_grid=module.u1_grid.copy(),
            u1_scales=module.u1_scales.copy(),
            core_grid=module.core_grid.copy(),
            core_scales=module.core_scales.copy(),
            bits=module.bits,
        )
    if isinstance(module, QuantizedLinear):
        return ProjectionShard(
            edges=local,
            bias=bias,
            grid=_chunk(module.grid, lo, hi),
            scales=module.scales[lo:hi].copy(),
            bits=module.bits,
        )
    if isinstance(module, FactorizedLinear):
        return ProjectionShard(
            weight=_chunk(module.u2.data, lo, hi),
            edges=local,
            bias=bias,
            u1=module.u1.data.copy(),
            core=module.core.data.copy(),
        )
    if isinstance(module, Linear):
        return ProjectionShard(
            weight=_chunk(module.weight.data, lo, hi), edges=local, bias=bias
        )
    raise ParallelError(f"cannot shard module of type {type(module).__name__}")


@dataclass(frozen=True)
class LayerShard:
    """One decoder layer's weights as seen by one rank."""

    attn_norm: np.ndarray
    w_q: ProjectionShard
    w_k: ProjectionShard
    w_v: ProjectionShard
    w_so: ProjectionShard
    mlp_norm: np.ndarray
    w_g: ProjectionShard
    w_u: ProjectionShard
    w_d: ProjectionShard


@dataclass(frozen=True)
class RankShard:
    """Everything one rank needs to run its slice of the model.

    On a 2-D mesh a shard is one grid cell: ``rank`` is the *tensor* rank
    within its stage's TP group (``world_size`` is that group's size, i.e.
    ``tp``), and ``stage`` / ``n_stages`` / ``layer_lo`` / ``layer_hi``
    place the cell on the pipeline axis.  ``layers`` holds only the
    stage's own decoder layers; the embedding table is kept where it is
    used (stage 0 for the prologue, the last stage when the head is tied)
    and the output-head fields are populated on the last stage only.
    """

    config: ModelConfig
    rank: int
    world_size: int
    q_span: Span           # query heads [start, stop)
    kv_span: Span          # covering KV heads [start, stop)
    embed: Optional[np.ndarray]  # replicated (vocab, dim) table, where used
    final_norm: Optional[np.ndarray]
    lm_head: Optional[ProjectionShard]  # None when the head is tied
    vocab_lo: int          # global logit columns this rank produces
    vocab_hi: int
    vocab_edges: Edges     # rank's blocks in GLOBAL coordinates: the tied
                           # head slices the full ``embed.T`` with these,
                           # exactly as the canonical forward does
    layers: List[LayerShard] = field(default_factory=list)
    stage: int = 0
    n_stages: int = 1
    layer_lo: int = 0
    layer_hi: int = -1     # set by shard_model; -1 means len(layers)

    @property
    def n_q_heads(self) -> int:
        return self.q_span[1] - self.q_span[0]

    @property
    def n_kv_heads(self) -> int:
        return self.kv_span[1] - self.kv_span[0]

    @property
    def has_embedding(self) -> bool:
        """Does this stage run the token-embedding prologue?"""
        return self.stage == 0

    @property
    def has_head(self) -> bool:
        """Does this stage run the final norm + LM head epilogue?"""
        return self.stage == self.n_stages - 1

    @property
    def n_stage_layers(self) -> int:
        return len(self.layers)

    @property
    def global_rank(self) -> int:
        """Flat stage-major rank on the (pp, tp) grid."""
        return self.stage * self.world_size + self.rank


def shard_model(
    model, mesh: DeviceMesh, cut_points: Optional[Tuple[int, ...]] = None
) -> List[RankShard]:
    """Split a :class:`~repro.models.llama.LlamaModel` into per-rank shards.

    The model itself is untouched (weights are copied), so the canonical
    reference and the sharded execution can run side by side.  The result
    is flat in stage-major grid order (``rank = stage * tp + tp_rank``);
    on a 1-D mesh that is the historical rank list.  ``cut_points``
    overrides the pipeline's interior layer boundaries (see
    :meth:`DeviceMesh.stage_spans`).
    """
    config: ModelConfig = model.config
    validate_mesh(config, mesh)
    group = config.n_heads // config.kv_heads

    q_edges = block_edges(config.dim, config.n_heads)
    kv_edges = block_edges(config.kv_heads * config.head_dim, config.kv_heads)
    out_edges = block_edges(config.dim, config.n_heads)
    hidden_edges = block_edges(config.mlp_hidden, config.n_heads)
    vocab_edges = block_edges(config.vocab_size, config.n_heads)

    out_spans = mesh.block_spans(len(out_edges))
    hidden_spans = mesh.block_spans(len(hidden_edges))
    vocab_spans = mesh.block_spans(len(vocab_edges))
    head_spans = mesh.block_spans(config.n_heads)
    stage_spans = mesh.stage_spans(config.n_layers, cut_points)

    shards: List[RankShard] = []
    for stage, (layer_lo, layer_hi) in enumerate(stage_spans):
        last_stage = stage == mesh.pp - 1
        # The embedding table lives where it is used: the prologue (stage
        # 0) and, when the head is tied, the epilogue (last stage).
        keeps_embed = stage == 0 or (last_stage and model.lm_head is None)
        for rank in range(mesh.tp):
            q_span = head_spans[rank]
            kv_span = DeviceMesh.kv_cover(q_span, group)
            layers: List[LayerShard] = []
            for block in list(model.blocks)[layer_lo:layer_hi]:
                layers.append(
                    LayerShard(
                        attn_norm=block.attn_norm.weight.data.copy(),
                        w_q=shard_projection(block.attn.w_q, q_edges, q_span),
                        w_k=shard_projection(block.attn.w_k, kv_edges, kv_span),
                        w_v=shard_projection(block.attn.w_v, kv_edges, kv_span),
                        w_so=shard_projection(block.attn.w_so, out_edges, out_spans[rank]),
                        mlp_norm=block.mlp_norm.weight.data.copy(),
                        w_g=shard_projection(block.mlp.w_g, hidden_edges, hidden_spans[rank]),
                        w_u=shard_projection(block.mlp.w_u, hidden_edges, hidden_spans[rank]),
                        w_d=shard_projection(block.mlp.w_d, out_edges, out_spans[rank]),
                    )
                )
            vocab_lo = vocab_hi = 0
            rank_vocab_edges: Edges = []
            lm_head = None
            if last_stage:
                vocab_lo, vocab_hi, _ = _localize(vocab_edges, vocab_spans[rank])
                start_block, stop_block = vocab_spans[rank]
                rank_vocab_edges = list(vocab_edges[start_block:stop_block])
                if model.lm_head is not None:
                    lm_head = shard_projection(
                        model.lm_head, vocab_edges, vocab_spans[rank]
                    )
            shards.append(
                RankShard(
                    config=config,
                    rank=rank,
                    world_size=mesh.tp,
                    q_span=q_span,
                    kv_span=kv_span,
                    embed=model.embed.weight.data.copy() if keeps_embed else None,
                    final_norm=(
                        model.final_norm.weight.data.copy() if last_stage else None
                    ),
                    lm_head=lm_head,
                    vocab_lo=vocab_lo,
                    vocab_hi=vocab_hi,
                    vocab_edges=rank_vocab_edges,
                    layers=layers,
                    stage=stage,
                    n_stages=mesh.pp,
                    layer_lo=layer_lo,
                    layer_hi=layer_hi,
                )
            )
    return shards

