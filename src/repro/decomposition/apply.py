"""Apply (and undo) a decomposition configuration on a live model.

``decompose_model`` swaps each targeted :class:`~repro.nn.Linear` for a
:class:`~repro.nn.FactorizedLinear` built from the Tucker-2 factors of its
trained weight.  The returned report records per-tensor reconstruction
errors and parameter movement, and retains the original layers so
``restore`` can undo the surgery bit-exactly — until
:meth:`DecompositionReport.drop_originals` turns it into statistics only,
as a served variant does so the dense weights it replaced are freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.decomposition.config import DecompositionConfig
from repro.decomposition.metrics import relative_error
from repro.decomposition.tucker import tucker2
from repro.errors import DecompositionError
from repro.nn import FactorizedLinear, Linear


@dataclass
class TensorReport:
    """Outcome of decomposing a single weight tensor."""

    layer: int
    role: str
    shape: Tuple[int, int]
    rank: int
    dense_parameters: int
    factorized_parameters: int
    reconstruction_error: float

    @property
    def parameters_saved(self) -> int:
        return self.dense_parameters - self.factorized_parameters


@dataclass
class DecompositionReport:
    """Aggregate outcome of :func:`decompose_model`."""

    config: DecompositionConfig
    tensors: List[TensorReport] = field(default_factory=list)
    model_parameters_before: int = 0
    model_parameters_after: int = 0
    # ``None`` once dropped: the report then holds statistics only.
    _originals: Optional[Dict[Tuple[int, str], Linear]] = field(
        default_factory=dict, repr=False
    )

    def drop_originals(self) -> "DecompositionReport":
        """Release the replaced dense layers; keep only the statistics.

        A model that is served, never restored, should not keep its dense
        weights alive next to the factors that replaced them.  Afterwards
        :func:`restore` raises :class:`DecompositionError`.  Returns
        ``self``.
        """
        self._originals = None
        return self

    @property
    def parameters_saved(self) -> int:
        return self.model_parameters_before - self.model_parameters_after

    @property
    def parameter_reduction(self) -> float:
        """Fractional reduction in total model parameters (0..1)."""
        if self.model_parameters_before == 0:
            return 0.0
        return self.parameters_saved / self.model_parameters_before

    @property
    def mean_reconstruction_error(self) -> float:
        if not self.tensors:
            return 0.0
        return float(np.mean([t.reconstruction_error for t in self.tensors]))

    def summary(self) -> str:
        return (
            f"decomposed {len(self.tensors)} tensors "
            f"({self.config.describe()}): "
            f"params {self.model_parameters_before:,} -> "
            f"{self.model_parameters_after:,} "
            f"({100 * self.parameter_reduction:.1f}% reduction), "
            f"mean rel. error {self.mean_reconstruction_error:.3f}"
        )


def decompose_model(model, config: DecompositionConfig) -> DecompositionReport:
    """Decompose ``model`` in place according to ``config``.

    ``model`` must expose ``config`` (a :class:`ModelConfig`) and
    ``tensor_slot(layer, role)``; both :class:`LlamaModel` and
    :class:`BertModel` do.  Returns a report that can later be passed to
    :func:`restore`.
    """
    config.validate(model.config)
    report = DecompositionReport(
        config=config, model_parameters_before=model.num_parameters()
    )
    for layer, role in config.pairs():
        owner, attribute = model.tensor_slot(layer, role)
        layer_module = getattr(owner, attribute)
        if isinstance(layer_module, FactorizedLinear):
            raise DecompositionError(
                f"tensor ({layer}, {role}) is already decomposed; restore first"
            )
        if not isinstance(layer_module, Linear):
            raise DecompositionError(
                f"tensor slot ({layer}, {role}) holds {type(layer_module).__name__}, "
                "expected Linear"
            )
        rank = config.rank_for(layer, role)
        weight = layer_module.weight.data
        u1, core, u2 = tucker2(weight, rank, method=config.method)
        bias = None if layer_module.bias is None else layer_module.bias.data.copy()
        factorized = FactorizedLinear(u1, core, u2, bias=bias)
        setattr(owner, attribute, factorized)
        report._originals[(layer, role)] = layer_module
        report.tensors.append(
            TensorReport(
                layer=layer,
                role=role,
                shape=(layer_module.in_features, layer_module.out_features),
                rank=rank,
                dense_parameters=layer_module.num_weight_parameters(),
                factorized_parameters=factorized.num_weight_parameters(),
                reconstruction_error=relative_error(weight, factorized.reconstruct()),
            )
        )
    report.model_parameters_after = model.num_parameters()
    return report


def shape_model_spectrum(model, decay: float = 0.5) -> int:
    """Impose an exponentially decaying singular spectrum on every
    decomposable weight of ``model``, in place; returns the tensor count.

    See :func:`~repro.decomposition.svd.impose_spectrum` — this puts a
    randomly initialized model into the "draftable" regime where its
    low-rank variants track it closely, as trained weights do.  Must run
    *before* any variant is materialized (slots must still hold dense
    :class:`~repro.nn.Linear` layers).
    """
    from repro.decomposition.svd import impose_spectrum

    shaped = 0
    for layer in range(model.config.n_layers):
        for role in model.tensor_roles:
            owner, attribute = model.tensor_slot(layer, role)
            module = getattr(owner, attribute)
            if not isinstance(module, Linear):
                raise DecompositionError(
                    f"tensor slot ({layer}, {role}) holds "
                    f"{type(module).__name__}; shape the spectrum before "
                    "decomposing"
                )
            weight = module.weight.data
            weight[...] = impose_spectrum(weight, decay).astype(weight.dtype)
            shaped += 1
    return shaped


def restore(model, report: DecompositionReport) -> None:
    """Undo :func:`decompose_model`, reinstating the original dense layers.

    Raises :class:`DecompositionError` when ``report`` no longer holds them
    (:meth:`DecompositionReport.drop_originals`).
    """
    if report._originals is None:
        raise DecompositionError(
            "report holds statistics only (its original layers were "
            "dropped); cannot restore"
        )
    for (layer, role), original in report._originals.items():
        owner, attribute = model.tensor_slot(layer, role)
        current = getattr(owner, attribute)
        if not isinstance(current, FactorizedLinear):
            raise DecompositionError(
                f"tensor ({layer}, {role}) is not decomposed; cannot restore"
            )
        setattr(owner, attribute, original)


class decomposed:
    """Context manager: decompose on entry, restore on exit.

    Example
    -------
    >>> with decomposed(model, config) as report:
    ...     accuracy = evaluate(model, tasks)
    """

    def __init__(self, model, config: DecompositionConfig) -> None:
        self._model = model
        self._config = config
        self.report: DecompositionReport = None

    def __enter__(self) -> DecompositionReport:
        self.report = decompose_model(self._model, self._config)
        return self.report

    def __exit__(self, exc_type, exc, tb) -> None:
        restore(self._model, self.report)
