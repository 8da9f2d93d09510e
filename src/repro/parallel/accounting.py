"""Analytic communication model for the sharded executor.

The executor's collective schedule is fixed by construction — per layer it
gathers the merged attention heads (width ``dim``), the attention output
(``dim``), the MLP hidden activation (``mlp_hidden``), and the MLP output
(``dim``); after the last layer it gathers the logits (``vocab_size``) —
so its traffic can be predicted exactly from the padded token count:

    calls    = forward_calls * (4 * n_layers + 1)
    payload  = 4 bytes * padded_tokens * (n_layers * (3*dim + mlp_hidden)
                                          + vocab_size)
    wire     = (P - 1) * payload

Gather widths are invariant under decomposition (a factorized projection
changes the GEMMs, not the gathered activations), and the wire identity
``(P-1) * payload`` holds for arbitrarily uneven chunk splits, so the
measured :class:`~repro.parallel.collectives.CommStats` ledger must agree
with this projection byte for byte — the cross-check the serve benchmark
prints.  Projected latency reuses the hardware model's NVLink ring terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwmodel.device import GPUSpec
from repro.models.config import ModelConfig

BYTES_FP32 = 4  # the executor moves float32 activations


@dataclass(frozen=True)
class CommProjection:
    """Predicted collective traffic for a batch of forward passes."""

    world_size: int
    calls: int
    payload_bytes: int
    wire_bytes: int

    def latency_s(self, gpu: GPUSpec) -> float:
        """Ring-style projection: each rank sends/receives its share of the
        wire traffic at NVLink bandwidth, plus one launch per collective."""
        if self.world_size <= 1:
            return 0.0
        per_rank_bytes = self.wire_bytes / self.world_size
        return (
            per_rank_bytes / (gpu.nvlink_bandwidth_gbs * 1e9)
            + self.calls * gpu.kernel_overhead_s
        )

    def to_dict(self) -> dict:
        return {
            "world_size": self.world_size,
            "calls": self.calls,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
        }


def gathered_width(config: ModelConfig) -> int:
    """Columns gathered per padded token over one full forward pass."""
    per_layer = 3 * config.dim + config.mlp_hidden
    return config.n_layers * per_layer + config.vocab_size


def analytic_comm(
    config: ModelConfig,
    padded_tokens: int,
    world_size: int,
    forward_calls: int = 1,
) -> CommProjection:
    """Exact projection of the executor's all-gather traffic.

    ``padded_tokens`` is the total ``batch_rows * max_row_len`` across the
    ``forward_calls`` forward passes (padded slots are gathered too — the
    executor moves rectangular tensors).

    The identity survives pipelining unchanged: each forward crosses the
    pipe in one pass, so every padded token crosses every layer exactly
    once regardless of which stage owns the layer.  A forward's
    ``4 * n_layers`` per-layer gathers are spread over the stages as
    ``sum(4 * stage_layers)``, and the last stage adds one logits gather.
    Callers on a (pp, tp) grid pass ``world_size=tp``: gathers run within
    a stage's TP group.
    """
    payload = BYTES_FP32 * padded_tokens * gathered_width(config)
    calls = forward_calls * (4 * config.n_layers + 1)
    return CommProjection(
        world_size=world_size,
        calls=calls,
        payload_bytes=payload,
        wire_bytes=(world_size - 1) * payload,
    )


def analytic_p2p(
    config: ModelConfig,
    padded_tokens: int,
    pp: int,
    tp: int,
    forward_calls: int = 1,
) -> CommProjection:
    """Exact projection of the pipeline's point-to-point traffic.

    At each of the ``pp - 1`` stage boundaries every TP rank ships the
    replicated (B, T, dim) hidden block of its forward to the same rank
    of the next stage — one hop, so wire == payload:

        calls    = forward_calls * (pp - 1) * tp
        payload  = 4 bytes * padded_tokens * dim * (pp - 1) * tp
        wire     = payload

    ``padded_tokens`` is the total across the ``forward_calls`` forwards,
    exactly as for :func:`analytic_comm`; a 1-stage pipe projects zero
    traffic.
    """
    hops = (pp - 1) * tp
    payload = BYTES_FP32 * padded_tokens * config.dim * hops
    return CommProjection(
        world_size=pp * tp,
        calls=forward_calls * hops,
        payload_bytes=payload,
        wire_bytes=payload,
    )
