"""Composite differentiable functions built from tensor primitives.

These mirror ``torch.nn.functional``: numerically stable softmax /
log-softmax, activations used by BERT (GELU) and Llama (SiLU), layer and RMS
normalization, and the cross-entropy loss used for language-model training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, ensure_tensor

_SQRT_2 = float(np.sqrt(2.0))
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The running maximum is subtracted as a constant; softmax is invariant to
    shifts so the gradient is unaffected.
    """
    shifted = x - x.data.max(axis=axis, keepdims=True)
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU used by BERT.

    ``gelu(x) = x * Phi(x)`` where ``Phi`` is the standard normal CDF.  The
    CDF is computed with :func:`scipy.special.erf`; the backward pass uses
    the analytic derivative ``Phi(x) + x * phi(x)``.  SciPy is imported
    here, not at module load: only BERT uses GELU, and the import costs a
    Llama serving process about 20 MB of resident memory.
    """
    from scipy import special

    data = x.data
    cdf = 0.5 * (1.0 + special.erf(data / _SQRT_2))
    value = data * cdf
    out = Tensor(value, requires_grad=x.requires_grad, _parents=(x,))

    def _backward(grad: np.ndarray) -> None:
        pdf = np.exp(-0.5 * data**2) / np.sqrt(2.0 * np.pi)
        x._accumulate(grad * (cdf + data * pdf))

    out._backward = _backward if out.requires_grad else None
    return out


def gelu_tanh(x: Tensor) -> Tensor:
    """The tanh approximation of GELU (GPT-2 style), kept for completeness."""
    inner = (x + x * x * x * 0.044715) * _SQRT_2_OVER_PI
    return x * (inner.tanh() + 1.0) * 0.5


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation: ``x * sigmoid(x)``, used by Llama's MLP."""
    return x * x.sigmoid()


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * (variance + eps) ** -0.5
    return normalized * weight + bias


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization (no re-centering), used by Llama."""
    mean_square = (x * x).mean(axis=-1, keepdims=True)
    return x * (mean_square + eps) ** -0.5 * weight


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, V) and integer ``targets`` (N,).

    Positions equal to ``ignore_index`` contribute zero loss and zero
    gradient, matching the PyTorch convention used for padded batches.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(targets.shape[0])
    if ignore_index is None:
        picked = log_probs[rows, targets]
        return -picked.mean()
    keep = targets != ignore_index
    if not keep.any():
        raise ShapeError("cross_entropy received a batch with no valid targets")
    safe_targets = np.where(keep, targets, 0)
    picked = log_probs[rows, safe_targets]
    weights = keep.astype(np.float32) / float(keep.sum())
    return -(picked * Tensor(weights)).sum()


def sequence_log_likelihood(
    logits: Tensor, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum of per-token log-probabilities of ``targets`` under ``logits``.

    ``logits`` has shape (B, T, V) giving the distribution for each target
    position; ``targets`` is (B, T).  Returns a (B,) float array.  Used by
    the evaluation harness to score multiple-choice continuations, so it
    operates on raw NumPy (no gradient needed).
    """
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets)
    if data.ndim != 3:
        raise ShapeError(f"expected (B, T, V) logits, got {data.shape}")
    shifted = data - data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    batch, time = targets.shape
    token_lp = (
        shifted[np.arange(batch)[:, None], np.arange(time)[None, :], targets] - log_z
    )
    if mask is not None:
        token_lp = token_lp * np.asarray(mask, dtype=token_lp.dtype)
    return token_lp.sum(axis=-1)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    keep = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(keep)


def ensure_probability_simplex(values: np.ndarray, atol: float = 1e-5) -> bool:
    """Check that ``values`` lie on the probability simplex along the last axis."""
    values = np.asarray(values)
    nonneg = bool((values >= -atol).all())
    sums_to_one = bool(np.allclose(values.sum(axis=-1), 1.0, atol=atol))
    return nonneg and sums_to_one


__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "gelu_tanh",
    "silu",
    "layer_norm",
    "rms_norm",
    "cross_entropy",
    "sequence_log_likelihood",
    "dropout",
    "ensure_probability_simplex",
    "ensure_tensor",
]
