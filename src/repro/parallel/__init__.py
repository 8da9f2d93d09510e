"""2-D parallel execution backend (pipeline x tensor, bit-exact).

Public surface:

- :class:`DeviceMesh` / :func:`shard_model` — partition a Llama model over
  a ``(pp, tp)`` grid: contiguous layer runs per stage, Megatron-style
  column shards along the canonical block grids within each stage.
- :class:`LocalGroup` — the collective group of thread ranks over one
  shared heap: a rank-ordered ``all_gather`` plus point-to-point
  ``send``/``recv`` for stage boundaries.
- :class:`ShardedLlama` — the grid facade (serving-capable).
- :func:`analytic_comm` / :func:`analytic_p2p` — exact projections of the
  executor's all-gather and pipeline P2P traffic, validated
  byte-for-byte against the measured :class:`CommStats` channels.
"""

from repro.parallel.accounting import (
    CommProjection,
    analytic_comm,
    analytic_p2p,
    gathered_width,
)
from repro.parallel.collectives import COMM_CHANNELS, CommStats, LocalGroup
from repro.parallel.executor import RankExecutor
from repro.parallel.mesh import DeviceMesh, validate_mesh
from repro.parallel.local import (
    ShardedLlama,
    ShardedPagedStore,
    ShardedSequenceCache,
)
from repro.parallel.sharding import RankShard, shard_model
from repro.runtime.program import StageProgram, partition_program

__all__ = [
    "COMM_CHANNELS",
    "CommProjection",
    "CommStats",
    "DeviceMesh",
    "LocalGroup",
    "RankExecutor",
    "RankShard",
    "ShardedLlama",
    "ShardedPagedStore",
    "ShardedSequenceCache",
    "StageProgram",
    "analytic_comm",
    "analytic_p2p",
    "gathered_width",
    "partition_program",
    "shard_model",
    "validate_mesh",
]
