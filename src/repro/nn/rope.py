"""Rotary positional embedding (RoPE) as used by Llama.

Uses the half-split formulation: the head dimension is split into two
halves (x1, x2) and rotated by position-dependent angles:

    out = concat(x1 * cos - x2 * sin,  x2 * cos + x1 * sin)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor


class RotaryEmbedding:
    """Precomputed cos/sin tables applied to (B, H, T, Dh) query/key tensors."""

    def __init__(self, head_dim: int, max_seq_len: int, theta: float = 10000.0) -> None:
        if head_dim % 2 != 0:
            raise ShapeError(f"RoPE head_dim must be even, got {head_dim}")
        self.head_dim = int(head_dim)
        self.max_seq_len = int(max_seq_len)
        self.theta = float(theta)
        half = head_dim // 2
        inv_freq = 1.0 / (theta ** (np.arange(half, dtype=np.float64) / half))
        angles = np.outer(np.arange(max_seq_len, dtype=np.float64), inv_freq)
        # Shape (T, half); broadcast over batch and head axes at apply time.
        self._cos = np.cos(angles).astype(np.float32)
        self._sin = np.sin(angles).astype(np.float32)

    def apply(self, x: Tensor, offset=0) -> Tensor:
        """Rotate a (B, H, T, Dh) tensor by absolute positions.

        ``offset`` shifts the position index — used by incremental decoding
        where ``x`` holds tokens starting at position ``offset``.  It may be
        a scalar (all rows share the offset) or a length-B integer array of
        per-row offsets (ragged batched decoding, where each sequence sits
        at a different depth).  In the per-row case, positions of *padded*
        tail slots may exceed the table; they are clamped, since their
        values are masked out downstream anyway.  Real tokens never reach
        the clamp: ``run_model`` rejects a ragged batch whose rows run past
        the table before any layer runs.
        """
        if x.ndim != 4:
            raise ShapeError(f"RoPE expects (B, H, T, Dh), got {x.shape}")
        batch, _, seq_len, dim = x.shape
        if dim != self.head_dim:
            raise ShapeError(f"head_dim mismatch: table {self.head_dim}, input {dim}")
        half = dim // 2
        if np.ndim(offset) == 0:
            offset = int(offset)
            if offset < 0 or offset + seq_len > self.max_seq_len:
                raise ShapeError(
                    f"positions [{offset}, {offset + seq_len}) exceed RoPE table "
                    f"{self.max_seq_len}"
                )
            cos = Tensor(self._cos[offset : offset + seq_len][None, None, :, :])
            sin = Tensor(self._sin[offset : offset + seq_len][None, None, :, :])
        else:
            offsets = np.asarray(offset, dtype=np.int64)
            if offsets.shape != (batch,):
                raise ShapeError(
                    f"per-row offsets must have shape ({batch},), got {offsets.shape}"
                )
            if np.any(offsets < 0) or np.any(offsets >= self.max_seq_len):
                raise ShapeError(
                    f"row offsets {offsets} exceed RoPE table {self.max_seq_len}"
                )
            positions = offsets[:, None] + np.arange(seq_len, dtype=np.int64)[None, :]
            positions = np.minimum(positions, self.max_seq_len - 1)
            # (B, T, half) tables broadcast over the head axis.
            cos = Tensor(self._cos[positions][:, None, :, :])
            sin = Tensor(self._sin[positions][:, None, :, :])
        x1 = x[:, :, :, :half]
        x2 = x[:, :, :, half:]
        rotated_first = x1 * cos - x2 * sin
        rotated_second = x2 * cos + x1 * sin
        return Tensor.concatenate([rotated_first, rotated_second], axis=-1)
