"""Real int8 weight storage for the inference fast path.

:mod:`repro.compression.quantization` simulates quantization: weights are
rounded to an integer grid and immediately dequantized, so serving still
pays full fp32 memory and bandwidth.  The modules here keep the *storage*
quantized — an ``int8`` grid plus one fp32 scale per output column — and
dequantize on the way into each GEMM.

Quantization math
-----------------
:func:`quantize_weight` is symmetric per-output-channel rounding: each
column of an (in_features, out_features) matrix gets the scale
``max_abs / qmax`` (``1.0`` for all-zero columns so the grid stays zero),
and the grid is ``clip(round(weight / scale), -qmax - 1, qmax)``.  The grid
is returned in the narrowest dtype that holds it — ``int8`` for every
supported width.  Scales are kept in fp32 and accounted as 4 bytes per
column by :func:`quantized_weight_bytes`.

Per-output-column scales make every slicing the serving stack performs
self-contained: a Megatron column shard ``grid[:, lo:hi]`` pairs with
``scales[lo:hi]`` and needs nothing from other ranks, and each factor of a
U·Γ·V chain carries its own scales.

Bit-identity contract
---------------------
``forward`` / ``forward_blocked`` here dequantize the full grid and run
the ordinary Tensor-graph projection — this *is* the simulated-quantization
reference.  The fast path in :mod:`repro.runtime.fastpath` calls the same
``dequantize*`` methods once, when its state is built, and runs the same
blocked GEMMs on the result, so the two paths agree bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import DecompositionError
from repro.nn.factorized import FactorizedLinear
from repro.nn.linear import Linear, blocked_project
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

SUPPORTED_BITS = (2, 3, 4, 8)


def quantize_weight(
    weight: np.ndarray, bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel quantization.

    Returns (integer grid in the narrowest dtype that holds it — ``int8``
    for bits <= 8 — and per-column fp32 scales).  ``weight`` is
    (in_features, out_features); each output column gets its own scale,
    the convention GPTQ-style weight quantizers use.
    """
    if bits not in SUPPORTED_BITS:
        raise DecompositionError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    weight = np.asarray(weight, dtype=np.float32)
    if weight.ndim != 2:
        raise DecompositionError(f"expected a matrix, got {weight.shape}")
    qmax = 2 ** (bits - 1) - 1
    max_abs = np.abs(weight).max(axis=0)
    scales = np.where(max_abs > 0, max_abs / qmax, 1.0).astype(np.float32)
    grid = np.clip(np.round(weight / scales[None, :]), -qmax - 1, qmax)
    return grid.astype(np.int8), scales


def dequantize_weight(grid: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Invert :func:`quantize_weight` up to rounding error."""
    # float32 scales already give a float32 product; only wider scales
    # need the cast, so it must not copy a second time.
    return (np.asarray(grid, dtype=np.float32) * np.asarray(scales)[None, :]).astype(
        np.float32, copy=False
    )


def quantized_weight_bytes(shape: Tuple[int, int], bits: int) -> float:
    """Storage of a quantized (H, W) matrix: packed ints + fp32 scales.

    The scale term is 4 bytes per output column, matching the fp32 scales
    :func:`quantize_weight` actually returns and the quantized modules
    actually keep — not the fp16 scales some deployments pack down to.
    """
    height, width = shape
    return height * width * bits / 8.0 + width * 4.0


class QuantizedLinear(Module):
    """A :class:`Linear` whose weight is stored as an int8 grid + scales.

    The grid and scales are plain ndarrays, deliberately *not*
    :class:`Parameter` objects: quantized storage is a post-training
    artifact derived from the dense checkpoint, so it stays out of
    ``state_dict`` / ``named_parameters`` (the bias, if any, remains a
    real Parameter).  The Tensor-path ``forward`` dequantizes the full
    grid — it is the simulated-quantization reference the fast path must
    match bit for bit.
    """

    def __init__(
        self,
        grid: np.ndarray,
        scales: np.ndarray,
        bits: int,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        grid = np.ascontiguousarray(grid)
        if grid.dtype != np.int8:
            raise DecompositionError(f"grid must be int8, got {grid.dtype}")
        if grid.ndim != 2:
            raise DecompositionError(f"expected a matrix grid, got {grid.shape}")
        scales = np.ascontiguousarray(scales, dtype=np.float32)
        if scales.shape != (grid.shape[1],):
            raise DecompositionError(
                f"scales {scales.shape} must be one per output column of {grid.shape}"
            )
        self.grid = grid
        self.scales = scales
        self.bits = int(bits)
        self.in_features, self.out_features = grid.shape
        self.bias = Parameter(bias, name="bias") if bias is not None else None

    @classmethod
    def from_linear(cls, module: Linear, bits: int) -> "QuantizedLinear":
        grid, scales = quantize_weight(module.weight.data, bits)
        bias = module.bias.data.copy() if module.bias is not None else None
        return cls(grid, scales, bits, bias)

    def dequantize(self) -> np.ndarray:
        """Full fp32 (in, out) weight — the reference-path operand."""
        return dequantize_weight(self.grid, self.scales)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ Tensor(self.dequantize())
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_blocked(self, x: Tensor, edges: Sequence[Tuple[int, int]]) -> Tensor:
        out = blocked_project(x, Tensor(self.dequantize()), edges)
        if self.bias is not None:
            out = out + self.bias
        return out

    # -- metadata ---------------------------------------------------------
    def num_weight_parameters(self) -> int:
        return int(self.grid.size)

    def weight_bytes(self) -> float:
        """Actual bytes held for the weight: grid + fp32 scales."""
        return float(self.grid.nbytes + self.scales.nbytes)

    def __repr__(self) -> str:
        return (
            f"QuantizedLinear(in={self.in_features}, out={self.out_features}, "
            f"bits={self.bits})"
        )


class QuantizedFactorizedLinear(Module):
    """A :class:`FactorizedLinear` with every factor stored quantized.

    Each factor (U1, core, U2) keeps its own int8 grid and per-output-
    column fp32 scales, so the chain composes with tensor parallelism the
    same way the fp32 chain does: U1/core replicate whole, U2 shards by
    output columns with matching scale slices.
    """

    def __init__(
        self,
        u1_grid: np.ndarray,
        u1_scales: np.ndarray,
        core_grid: np.ndarray,
        core_scales: np.ndarray,
        u2_grid: np.ndarray,
        u2_scales: np.ndarray,
        bits: int,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        factors = []
        for grid, scales in (
            (u1_grid, u1_scales),
            (core_grid, core_scales),
            (u2_grid, u2_scales),
        ):
            grid = np.ascontiguousarray(grid)
            if grid.dtype != np.int8:
                raise DecompositionError(f"grid must be int8, got {grid.dtype}")
            scales = np.ascontiguousarray(scales, dtype=np.float32)
            if grid.ndim != 2 or scales.shape != (grid.shape[1],):
                raise DecompositionError(
                    f"factor grid {grid.shape} / scales {scales.shape} mismatch"
                )
            factors.append((grid, scales))
        (self.u1_grid, self.u1_scales) = factors[0]
        (self.core_grid, self.core_scales) = factors[1]
        (self.u2_grid, self.u2_scales) = factors[2]
        if (
            self.u1_grid.shape[1] != self.core_grid.shape[0]
            or self.core_grid.shape[1] != self.u2_grid.shape[0]
        ):
            raise DecompositionError(
                "factor chain mismatch: "
                f"{self.u1_grid.shape} @ {self.core_grid.shape} @ {self.u2_grid.shape}"
            )
        self.bits = int(bits)
        self.in_features = self.u1_grid.shape[0]
        self.out_features = self.u2_grid.shape[1]
        self.rank = self.core_grid.shape[0]
        self.bias = Parameter(bias, name="bias") if bias is not None else None

    @classmethod
    def from_factorized(
        cls, module: FactorizedLinear, bits: int
    ) -> "QuantizedFactorizedLinear":
        u1_grid, u1_scales = quantize_weight(module.u1.data, bits)
        core_grid, core_scales = quantize_weight(module.core.data, bits)
        u2_grid, u2_scales = quantize_weight(module.u2.data, bits)
        bias = module.bias.data.copy() if module.bias is not None else None
        return cls(
            u1_grid, u1_scales, core_grid, core_scales, u2_grid, u2_scales, bits, bias
        )

    def dequantize_u1(self) -> np.ndarray:
        return dequantize_weight(self.u1_grid, self.u1_scales)

    def dequantize_core(self) -> np.ndarray:
        return dequantize_weight(self.core_grid, self.core_scales)

    def dequantize_u2(self) -> np.ndarray:
        return dequantize_weight(self.u2_grid, self.u2_scales)

    def prefix(self, x: Tensor) -> Tensor:
        """The shared low-rank prefix ``(x @ U1) @ core`` on dequantized factors."""
        return (x @ Tensor(self.dequantize_u1())) @ Tensor(self.dequantize_core())

    def forward(self, x: Tensor) -> Tensor:
        out = self.prefix(x) @ Tensor(self.dequantize_u2())
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_blocked(self, x: Tensor, edges: Sequence[Tuple[int, int]]) -> Tensor:
        out = blocked_project(self.prefix(x), Tensor(self.dequantize_u2()), edges)
        if self.bias is not None:
            out = out + self.bias
        return out

    # -- metadata ---------------------------------------------------------
    def num_weight_parameters(self) -> int:
        return int(self.u1_grid.size + self.core_grid.size + self.u2_grid.size)

    def weight_bytes(self) -> float:
        return float(
            self.u1_grid.nbytes
            + self.u1_scales.nbytes
            + self.core_grid.nbytes
            + self.core_scales.nbytes
            + self.u2_grid.nbytes
            + self.u2_scales.nbytes
        )

    def reconstruct(self) -> np.ndarray:
        """Dense (H, W) approximation from the dequantized chain."""
        return (
            self.dequantize_u1() @ self.dequantize_core() @ self.dequantize_u2()
        ).astype(np.float32)

    def __repr__(self) -> str:
        return (
            f"QuantizedFactorizedLinear(in={self.in_features}, "
            f"out={self.out_features}, rank={self.rank}, bits={self.bits})"
        )


def quantize_module(module: Module, bits: int) -> Module:
    """Build the quantized twin of a projection module.

    ``Linear`` becomes :class:`QuantizedLinear`; ``FactorizedLinear``
    becomes :class:`QuantizedFactorizedLinear` (each factor quantized
    independently — the compound-compression case).
    """
    if isinstance(module, FactorizedLinear):
        return QuantizedFactorizedLinear.from_factorized(module, bits)
    if isinstance(module, Linear):
        return QuantizedLinear.from_linear(module, bits)
    raise DecompositionError(
        f"cannot quantize {type(module).__name__}; expected Linear or FactorizedLinear"
    )
