"""Model-variant registry: named decomposition recipes over one base model.

A *variant spec* is a short string naming how the base model's weights are
(or are not) decomposed before serving:

- ``"dense"`` — the base model unchanged (identity configuration);
- ``"pr<NN>"`` — the paper's Table 4 recipe for an ``NN``-percent
  parameter-reduction target, scaled to the base model's depth
  (rank 1, all tensors — Section 3.4's best scheme);
- ``"rank<K>"`` — uniform rank ``K`` across *all* layers and tensors;
- ``"<base>-int<B>"`` — any of the above with every per-layer projection
  additionally stored as real int8-grid quantized weights at ``B`` bits
  (e.g. ``"dense-int8"``, ``"rank8-int8"``, ``"rank1-int8"`` — the
  compound rank × bits operating points the QoS ladder walks).

The registry materializes variants lazily, each as a freshly built model
whose parameters alias the base model's arrays (zero copy), with
:func:`~repro.decomposition.apply.decompose_model` applied, so several
variants can be served side by side without mutating the base model.
Only the factor-structured U·Γ·V replacements and the quantized grids are
private (:class:`~repro.nn.factorized.FactorizedLinear` re-lays factors
out C-contiguously, which makes them fresh arrays by construction).
Holding the whole quality ladder resident then costs one dense model plus
the factor deltas — the LoTR-style layout that lets the serving engine
switch a live request's decode variant between steps without checkpoint
reloads.  Each :class:`ModelVariant` records its ``private_bytes`` (what a
hot-swap actually touches) next to the full footprint.  A variant holds
only what it serves: its reports keep statistics, not the modules
decomposition and quantization replaced, so ``restore`` on them raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.compression.quantization import (
    RealQuantizationReport,
    quantize_model_real,
)
from repro.decomposition.apply import DecompositionReport, decompose_model
from repro.decomposition.config import DecompositionConfig
from repro.decomposition.recipes import PAPER_TABLE4, scale_recipe
from repro.errors import ServingError
from repro.models import build_model
from repro.models.config import ModelConfig

_PR_PATTERN = re.compile(r"^pr(\d+)$")
_RANK_PATTERN = re.compile(r"^rank(\d+)$")
_QUANT_PATTERN = re.compile(r"^(.+)-int(\d+)$")


def parse_variant_spec(spec: str, config: ModelConfig) -> DecompositionConfig:
    """Translate a variant spec string into a :class:`DecompositionConfig`."""
    spec = spec.strip().lower()
    match = _QUANT_PATTERN.match(spec)
    if match:
        base = parse_variant_spec(match.group(1), config)
        bits = int(match.group(2))
        try:
            return replace(base, bits=bits)
        except Exception as exc:  # ConfigError on unsupported widths
            raise ServingError(f"bad quantized variant spec {spec!r}: {exc}") from exc
    if spec == "dense":
        return DecompositionConfig.identity()
    match = _PR_PATTERN.match(spec)
    if match:
        percent = int(match.group(1))
        if percent not in PAPER_TABLE4:
            raise ServingError(
                f"no Table 4 recipe for {percent}%; "
                f"available: {sorted(PAPER_TABLE4)}"
            )
        layers = scale_recipe(PAPER_TABLE4[percent], config.n_layers)
        return DecompositionConfig.all_tensors(config, layers, rank=1)
    match = _RANK_PATTERN.match(spec)
    if match:
        rank = int(match.group(1))
        return DecompositionConfig.all_tensors(
            config, range(config.n_layers), rank=rank
        )
    raise ServingError(
        f"unknown variant spec {spec!r}; expected 'dense', 'pr<NN>', "
        "'rank<K>', or '<base>-int<B>'"
    )


@dataclass
class ModelVariant:
    """A materialized (possibly decomposed) copy of the base model."""

    spec: str
    model: object
    decomposition: DecompositionConfig
    report: Optional[DecompositionReport]  # None for the dense variant
    private_bytes: int = 0   # parameter bytes not aliased from the base
    total_bytes: int = 0     # full parameter footprint of this variant
    quant: Optional[RealQuantizationReport] = None  # set for -int<B> specs

    @property
    def parameter_reduction(self) -> float:
        return 0.0 if self.report is None else self.report.parameter_reduction

    @property
    def bits(self) -> Optional[int]:
        return self.decomposition.bits

    def describe(self) -> str:
        suffix = ""
        if self.quant is not None:
            suffix = (
                f" [int{self.quant.bits}: "
                f"{self.quant.memory_reduction_x:.2f}x weight shrink]"
            )
        if self.report is None:
            return (
                f"{self.spec}: dense baseline "
                f"({self.model.num_parameters():,} params){suffix}"
            )
        return f"{self.spec}: {self.report.summary()}{suffix}"


class VariantRegistry:
    """Lazily materializes decomposed variants of one base model.

    Undecomposed parameters alias the base arrays, so the marginal memory
    of each extra ladder variant is just its factor deltas
    (``ModelVariant.private_bytes``).  Aliasing is read-only by contract —
    serving never mutates weights — and decomposition replaces target
    modules wholesale, so the base model is never written through.
    """

    def __init__(self, base_model) -> None:
        self.base_model = base_model
        self.config: ModelConfig = base_model.config
        self._variants: Dict[str, ModelVariant] = {}

    def specs(self) -> List[str]:
        """Specs materialized so far, in materialization order."""
        return list(self._variants)

    def get(self, spec: str) -> ModelVariant:
        key = spec.strip().lower()
        if key not in self._variants:
            self._variants[key] = self._materialize(key)
        return self._variants[key]

    def ladder(self, specs) -> Dict[str, object]:
        """Materialize a whole quality ladder: spec -> servable model."""
        return {spec: self.get(spec).model for spec in specs}

    def _materialize(self, spec: str) -> ModelVariant:
        decomposition = parse_variant_spec(spec, self.config)
        model = build_model(self.config)
        base_params = dict(self.base_model.named_parameters())
        for name, param in model.named_parameters():
            param.data = base_params[name].data
        model.eval()
        # Served, never restored: free the modules each step replaced.
        report = None
        if not decomposition.is_identity:
            report = decompose_model(model, decomposition).drop_originals()
        quant = None
        if decomposition.bits is not None:
            quant = quantize_model_real(model, decomposition.bits).drop_originals()
        model.eval()
        base_ids = {id(p.data) for _, p in self.base_model.named_parameters()}
        private = total = 0
        for _, param in model.named_parameters():
            total += param.data.nbytes
            if id(param.data) not in base_ids:
                private += param.data.nbytes
        if quant is not None:
            # The int8 grids + scales are plain arrays (not Parameters):
            # count their measured bytes in by hand.  They are private by
            # construction — quantization never aliases base storage.
            grid_bytes = int(quant.weight_bytes_after)
            private += grid_bytes
            total += grid_bytes
        return ModelVariant(
            spec=spec,
            model=model,
            decomposition=decomposition,
            report=report,
            private_bytes=private,
            total_bytes=total,
            quant=quant,
        )
