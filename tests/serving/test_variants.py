"""Variant spec parsing and the lazy variant registry."""

import gc
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.serving.variants as variants_module

from repro.compression import restore_real_quantized
from repro.decomposition import restore
from repro.errors import DecompositionError, ServingError
from repro.models import build_model
from repro.nn import FactorizedLinear
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    VariantRegistry,
    parse_variant_spec,
)


class TestParseVariantSpec:
    def test_dense_is_identity(self, smoke_config):
        assert parse_variant_spec("dense", smoke_config).is_identity

    def test_pr_spec_scales_table4(self, smoke_config):
        config = parse_variant_spec("pr33", smoke_config)
        assert not config.is_identity
        assert config.rank == 1
        assert config.roles == smoke_config.tensor_roles
        assert all(0 <= layer < smoke_config.n_layers for layer in config.layers)

    def test_rank_spec_covers_all_layers(self, smoke_config):
        config = parse_variant_spec("rank2", smoke_config)
        assert config.layers == tuple(range(smoke_config.n_layers))
        assert config.rank == 2

    def test_spec_is_case_and_space_insensitive(self, smoke_config):
        assert parse_variant_spec(" Dense ", smoke_config).is_identity

    def test_unknown_spec_rejected(self, smoke_config):
        with pytest.raises(ServingError):
            parse_variant_spec("turbo", smoke_config)

    def test_unknown_pr_target_rejected(self, smoke_config):
        with pytest.raises(ServingError):
            parse_variant_spec("pr37", smoke_config)


class TestVariantRegistry:
    def test_dense_variant_shares_weights_not_identity(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("dense")
        assert variant.model is not smoke_model
        assert variant.report is None
        assert variant.parameter_reduction == 0.0
        base = smoke_model.state_dict()
        copy = variant.model.state_dict()
        for key in base:
            np.testing.assert_array_equal(base[key], copy[key])

    def test_decomposed_variant_reduces_parameters(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("pr33")
        assert variant.report is not None
        assert variant.parameter_reduction > 0.0
        assert variant.model.num_parameters() < smoke_model.num_parameters()
        # The base model must be untouched by the surgery.
        assert smoke_model.num_parameters() == registry.get("dense").model.num_parameters()

    def test_variants_cached_by_spec(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        assert registry.get("pr33") is registry.get(" PR33 ")
        assert registry.specs() == ["pr33"]

    def test_describe_mentions_spec(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        assert "dense" in registry.get("dense").describe()
        assert "decomposed" in registry.get("rank1").describe()


class TestSharedBaseRegistry:
    def test_dense_variant_aliases_base_arrays(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("dense")
        base = dict(smoke_model.named_parameters())
        for name, param in variant.model.named_parameters():
            assert np.shares_memory(param.data, base[name].data), name
        assert variant.private_bytes == 0
        assert variant.total_bytes > 0

    def test_decomposed_factors_are_private(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("rank8")
        base_ids = {
            id(p.data) for _, p in smoke_model.named_parameters()
        }
        private = [
            name
            for name, p in variant.model.named_parameters()
            if id(p.data) not in base_ids
        ]
        assert private, "decomposition must introduce private factor arrays"
        assert 0 < variant.private_bytes < variant.total_bytes

    def test_ladder_materializes_all_specs(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        ladder = registry.ladder(("dense", "rank8", "rank1"))
        assert set(ladder) == {"dense", "rank8", "rank1"}
        assert ladder["dense"] is registry.get("dense").model


class TestQuantizedSpecs:
    def test_int_suffix_parses_recursively(self, smoke_config):
        config = parse_variant_spec("rank2-int8", smoke_config)
        assert config.rank == 2 and config.bits == 8
        assert config.layers == tuple(range(smoke_config.n_layers))

    def test_dense_int_is_identity_with_bits(self, smoke_config):
        config = parse_variant_spec("dense-int4", smoke_config)
        assert config.is_identity and config.bits == 4

    def test_unsupported_width_rejected(self, smoke_config):
        with pytest.raises(ServingError, match="quantized variant"):
            parse_variant_spec("dense-int7", smoke_config)

    def test_unknown_base_rejected(self, smoke_config):
        with pytest.raises(ServingError):
            parse_variant_spec("turbo-int8", smoke_config)

    def test_quantized_variant_materializes_real_storage(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("dense-int8")
        assert variant.bits == 8
        assert variant.quant is not None
        assert variant.quant.memory_reduction_x > 3.0
        assert "int8" in variant.describe()

    def test_quantized_chain_compounds_both_reductions(self, smoke_model):
        registry = VariantRegistry(smoke_model)
        variant = registry.get("rank1-int8")
        assert variant.parameter_reduction > 0.0
        assert variant.quant is not None and variant.quant.bits == 8

    def test_base_model_untouched_by_quantized_variant(self, smoke_model):
        before = {
            name: param.data.copy()
            for name, param in smoke_model.named_parameters()
        }
        VariantRegistry(smoke_model).get("dense-int8")
        for name, param in smoke_model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])


def _watch_replaced_weights(monkeypatch) -> list:
    """Wrap the registry's decomposition and quantization calls so each
    first takes a weakref to every weight array it is about to replace."""
    refs = []

    def watch(model, pairs):
        for layer, role in pairs:
            owner, attribute = model.tensor_slot(layer, role)
            module = getattr(owner, attribute)
            if isinstance(module, FactorizedLinear):
                arrays = [module.u1.data, module.core.data, module.u2.data]
            else:
                arrays = [module.weight.data]
            refs.extend(weakref.ref(array) for array in arrays)

    decompose = variants_module.decompose_model
    quantize = variants_module.quantize_model_real

    def watched_decompose(model, config):
        watch(model, config.pairs())
        return decompose(model, config)

    def watched_quantize(model, bits):
        roles = model.config.tensor_roles
        watch(model, [(layer, role) for layer in range(model.config.n_layers) for role in roles])
        return quantize(model, bits)

    monkeypatch.setattr(variants_module, "decompose_model", watched_decompose)
    monkeypatch.setattr(variants_module, "quantize_model_real", watched_quantize)
    return refs


@pytest.mark.parametrize("read_only_base", [False, True])
@pytest.mark.parametrize("spec", ["rank8-int8", "dense-int8"])
def test_a_variant_frees_every_weight_it_replaced(
    spec, read_only_base, smoke_config, monkeypatch
):
    """A served variant holds only its compressed weights: once the base
    model and the registry are gone, no replaced dense or fp32-factor array
    survives, and the statistics-only reports refuse to restore. This holds
    whether or not the base arrays are writable."""
    refs = _watch_replaced_weights(monkeypatch)
    base = build_model(smoke_config, rng=np.random.default_rng(0))
    if read_only_base:
        for _, param in base.named_parameters():
            param.data.setflags(write=False)
    registry = VariantRegistry(base)
    variant = registry.get(spec)
    tokens = np.arange(6, dtype=np.int64)[None, :] % 11
    logits = variant.model.forward(tokens).data.copy()
    del base, registry
    gc.collect()
    layers, roles = smoke_config.n_layers, len(smoke_config.tensor_roles)
    assert len(refs) == layers * roles * (4 if spec.startswith("rank") else 1)
    assert all(ref() is None for ref in refs)
    np.testing.assert_array_equal(variant.model.forward(tokens).data, logits)
    with pytest.raises(DecompositionError, match="statistics only"):
        restore_real_quantized(variant.model, variant.quant)
    if variant.report is not None:
        with pytest.raises(DecompositionError, match="statistics only"):
            restore(variant.model, variant.report)


@pytest.mark.parametrize("spec", ["dense", "rank8", "rank8-int8", "dense-int8"])
def test_variants_serve_from_a_read_only_base(spec, smoke_config):
    """Variants alias the base model's arrays, so neither materializing nor
    serving may write to them: with every base array read-only, each spec
    still materializes and its engine output matches greedy decoding."""
    base = build_model(smoke_config, rng=np.random.default_rng(0))
    for _, param in base.named_parameters():
        param.data.setflags(write=False)
    model = VariantRegistry(base).get(spec).model
    engine = InferenceEngine(
        model, EngineConfig(max_batch=4, token_budget=24, n_blocks=24, block_tokens=8)
    )
    rng = np.random.default_rng(1)
    requests = [
        engine.submit(rng.integers(0, smoke_config.vocab_size, size=length), 6)
        for length in (5, 11, 3)
    ]
    while engine.has_work:
        engine.step()
    for request in requests:
        expected = model.greedy_generate(request.prompt, max_new_tokens=6)
        np.testing.assert_array_equal(
            np.asarray(expected).reshape(-1), request.tokens
        )


_SERVE_RANK8_INT8 = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.models import build_model
    from repro.models.config import ModelConfig
    from repro.serving import VariantRegistry

    config = ModelConfig(
        name="tiny", family="llama", vocab_size=64, dim=32, n_layers=2,
        n_heads=4, n_kv_heads=2, mlp_hidden=64, max_seq_len=32,
    )
    base = build_model(config, rng=np.random.default_rng(0))
    VariantRegistry(base).get("rank8-int8")
    assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
    """
)


def test_materializing_a_decomposed_variant_never_imports_scipy_linalg():
    """Importing ``scipy.linalg`` costs about 6 MB of resident memory, so
    the serving path, decomposition included, keeps to NumPy's linalg."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _SERVE_RANK8_INT8],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


_IMPORT_SERVING_STACK = textwrap.dedent(
    """
    import sys

    import repro.models, repro.parallel, repro.runtime, repro.serving

    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"scipy modules imported: {loaded[:5]}"
    """
)


def test_importing_the_serving_stack_never_imports_scipy():
    """SciPy costs a serving process about 20 MB of resident memory; only
    BERT's GELU uses it, so it is imported there, when first called."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_SERVING_STACK],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
