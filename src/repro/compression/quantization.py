"""Post-training weight quantization: simulated baseline + real storage.

The paper motivates low-rank decomposition alongside quantization and
sparsity as the memory-footprint levers for LLMs (Section 1); this module
provides the quantization baseline so the two can be compared at matched
memory budgets.

Two modes share one grid/scale representation (the math lives in
:mod:`repro.nn.quantized` so the module layer can use it without importing
this package):

* :func:`quantize_model_weights` — *simulated*: weights are rounded to a
  symmetric per-output-channel integer grid and immediately dequantized,
  so the forward pass runs in float32 but suffers the exact quantization
  error, while memory accounting reflects integer storage (``bits`` per
  weight plus one fp32 scale per output channel).  Works on dense
  ``Linear`` and decomposed ``FactorizedLinear`` targets (each factor is
  quantized independently — the compound-compression case).
* :func:`quantize_model_real` — *real*: the targeted modules are swapped
  for :class:`~repro.nn.QuantizedLinear` /
  :class:`~repro.nn.QuantizedFactorizedLinear` twins that keep only the
  int8 grids + fp32 scales, so serving memory actually shrinks and the
  fast path runs its quantized kernels.  Both modes produce bit-identical
  forward passes: the real modules' Tensor path dequantizes the same
  grids the simulated mode bakes into the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import DecompositionError
from repro.nn import FactorizedLinear, Linear
from repro.nn.quantized import (
    SUPPORTED_BITS,
    QuantizedFactorizedLinear,
    QuantizedLinear,
    dequantize_weight,
    quantize_module,
    quantize_weight,
    quantized_weight_bytes,
)

__all__ = [
    "SUPPORTED_BITS",
    "quantize_weight",
    "dequantize_weight",
    "quantized_weight_bytes",
    "QuantizationReport",
    "QuantizedTensorReport",
    "quantize_model_weights",
    "restore_quantized",
    "RealQuantizedTensor",
    "RealQuantizationReport",
    "quantize_model_real",
    "restore_real_quantized",
]

_FACTOR_ATTRS = ("u1", "core", "u2")


@dataclass
class QuantizedTensorReport:
    layer: int
    role: str
    shape: Tuple[int, int]
    bits: int
    quantization_error: float  # relative Frobenius error

    @property
    def dense_bytes(self) -> float:
        return self.shape[0] * self.shape[1] * 2.0  # FP16 baseline

    @property
    def quantized_bytes(self) -> float:
        return quantized_weight_bytes(self.shape, self.bits)


@dataclass
class QuantizationReport:
    """Aggregate outcome of :func:`quantize_model_weights`."""

    bits: int
    tensors: List[QuantizedTensorReport] = field(default_factory=list)
    _originals: Dict[Tuple[int, str], Union[np.ndarray, Dict[str, np.ndarray]]] = field(
        default_factory=dict, repr=False
    )

    @property
    def weight_bytes_before(self) -> float:
        return sum(t.dense_bytes for t in self.tensors)

    @property
    def weight_bytes_after(self) -> float:
        return sum(t.quantized_bytes for t in self.tensors)

    @property
    def memory_reduction(self) -> float:
        """Fractional byte saving over the quantized tensors (0..1)."""
        before = self.weight_bytes_before
        if before == 0:
            return 0.0
        return 1.0 - self.weight_bytes_after / before

    @property
    def mean_error(self) -> float:
        if not self.tensors:
            return 0.0
        return float(np.mean([t.quantization_error for t in self.tensors]))


def _simulate_on_array(weight: np.ndarray, bits: int) -> np.ndarray:
    grid, scales = quantize_weight(weight, bits)
    return dequantize_weight(grid, scales)


def quantize_model_weights(
    model, layers: Iterable[int], roles: Iterable[str], bits: int
) -> QuantizationReport:
    """Quantize the targeted weight matrices in place (simulated).

    The live weights are replaced by their dequantized grid values; the
    report retains the originals for :func:`restore_quantized`.  Dense
    ``Linear`` targets quantize their weight matrix; ``FactorizedLinear``
    targets quantize each factor of the U·Γ·V chain independently, each
    with its own per-output-column scales.
    """
    from repro.decomposition.metrics import relative_error

    layers = sorted(set(int(l) for l in layers))
    roles = list(dict.fromkeys(roles))
    report = QuantizationReport(bits=bits)
    for layer in layers:
        for role in roles:
            owner, attr = model.tensor_slot(layer, role)
            module = getattr(owner, attr)
            if isinstance(module, FactorizedLinear):
                originals: Dict[str, np.ndarray] = {}
                for factor in _FACTOR_ATTRS:
                    param = getattr(module, factor)
                    original = param.data.copy()
                    param.data = _simulate_on_array(original, bits)
                    originals[factor] = original
                    report.tensors.append(
                        QuantizedTensorReport(
                            layer=layer,
                            role=f"{role}.{factor}",
                            shape=original.shape,
                            bits=bits,
                            quantization_error=relative_error(original, param.data),
                        )
                    )
                report._originals[(layer, role)] = originals
            elif isinstance(module, Linear):
                original = module.weight.data.copy()
                module.weight.data = _simulate_on_array(original, bits)
                report._originals[(layer, role)] = original
                report.tensors.append(
                    QuantizedTensorReport(
                        layer=layer,
                        role=role,
                        shape=original.shape,
                        bits=bits,
                        quantization_error=relative_error(
                            original, module.weight.data
                        ),
                    )
                )
            else:
                raise DecompositionError(
                    f"({layer}, {role}) holds {type(module).__name__}; quantize "
                    "Linear or FactorizedLinear layers only"
                )
    return report


def restore_quantized(model, report: QuantizationReport) -> None:
    """Undo :func:`quantize_model_weights` bit-exactly."""
    for (layer, role), original in report._originals.items():
        owner, attr = model.tensor_slot(layer, role)
        module = getattr(owner, attr)
        if isinstance(original, dict):
            for factor, data in original.items():
                getattr(module, factor).data = data.copy()
        else:
            module.weight.data = original.copy()


# -- real (storage-level) quantization ------------------------------------


@dataclass
class RealQuantizedTensor:
    """Measured byte accounting for one module swapped to quantized storage."""

    layer: int
    role: str
    bits: int
    fp32_bytes: float  # nbytes of the fp32 arrays the grid replaced
    quantized_bytes: float  # nbytes of the int8 grids + fp32 scales kept


@dataclass
class RealQuantizationReport:
    """Aggregate outcome of :func:`quantize_model_real`.

    Byte figures are *measured* (``ndarray.nbytes``), not modeled: the
    fp32 arrays the swap discarded vs. the grids + scales it now holds.
    """

    bits: int
    tensors: List[RealQuantizedTensor] = field(default_factory=list)
    # ``None`` once dropped: the report then holds statistics only.
    _originals: Optional[Dict[Tuple[int, str], object]] = field(
        default_factory=dict, repr=False
    )

    def drop_originals(self) -> "RealQuantizationReport":
        """Release the replaced fp32 modules; keep only the byte accounting.

        A served model never swaps back, so the fp32 weights the grids
        replaced should not stay resident.  Afterwards
        :func:`restore_real_quantized` raises :class:`DecompositionError`.
        Returns ``self``.
        """
        self._originals = None
        return self

    @property
    def weight_bytes_before(self) -> float:
        return sum(t.fp32_bytes for t in self.tensors)

    @property
    def weight_bytes_after(self) -> float:
        return sum(t.quantized_bytes for t in self.tensors)

    @property
    def memory_reduction_x(self) -> float:
        """Multiplicative shrink (e.g. ~3.8x for int8 over fp32)."""
        after = self.weight_bytes_after
        if after == 0:
            return 1.0
        return self.weight_bytes_before / after


def _module_fp32_bytes(module) -> float:
    if isinstance(module, FactorizedLinear):
        return float(sum(getattr(module, f).data.nbytes for f in _FACTOR_ATTRS))
    return float(module.weight.data.nbytes)


def quantize_model_real(
    model,
    bits: int,
    layers: Optional[Iterable[int]] = None,
    roles: Optional[Iterable[str]] = None,
) -> RealQuantizationReport:
    """Swap targeted projections for quantized-storage twins, in place.

    Defaults to every per-layer projection role in the model (the LM head
    and embedding stay fp32 — they dominate accuracy, not weight bytes,
    at the model scales this repo serves).  Dense and factorized targets
    both work; the report keeps the original modules so
    :func:`restore_real_quantized` can swap them back (until
    :meth:`RealQuantizationReport.drop_originals`).
    """
    if bits not in SUPPORTED_BITS:
        raise DecompositionError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    config = model.config
    layers = (
        sorted(set(int(l) for l in layers))
        if layers is not None
        else list(range(config.n_layers))
    )
    roles = (
        list(dict.fromkeys(roles)) if roles is not None else list(config.tensor_roles)
    )
    report = RealQuantizationReport(bits=bits)
    for layer in layers:
        for role in roles:
            owner, attr = model.tensor_slot(layer, role)
            module = getattr(owner, attr)
            if isinstance(module, (QuantizedLinear, QuantizedFactorizedLinear)):
                raise DecompositionError(
                    f"({layer}, {role}) is already quantized"
                )
            fp32_bytes = _module_fp32_bytes(module)
            quantized = quantize_module(module, bits)
            setattr(owner, attr, quantized)
            report._originals[(layer, role)] = module
            report.tensors.append(
                RealQuantizedTensor(
                    layer=layer,
                    role=role,
                    bits=bits,
                    fp32_bytes=fp32_bytes,
                    quantized_bytes=quantized.weight_bytes(),
                )
            )
    model.eval()
    return report


def restore_real_quantized(model, report: RealQuantizationReport) -> None:
    """Undo :func:`quantize_model_real` by swapping the originals back."""
    if report._originals is None:
        raise DecompositionError(
            "report holds statistics only (its original modules were "
            "dropped); cannot restore"
        )
    for (layer, role), module in report._originals.items():
        owner, attr = model.tensor_slot(layer, role)
        setattr(owner, attr, module)
    model.eval()
