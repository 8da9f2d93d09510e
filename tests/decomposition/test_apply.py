"""Model surgery: decompose_model / restore / decomposed context manager."""

import numpy as np
import pytest

from repro.decomposition import (
    DecompositionConfig,
    decompose_model,
    decomposed,
    restore,
)
from repro.errors import ConfigError, DecompositionError
from repro.nn import FactorizedLinear, Linear


def _tokens(tokenizer, shape=(2, 8), seed=0):
    return np.random.default_rng(seed).integers(1, tokenizer.vocab_size, size=shape)


class TestDecomposeModel:
    def test_swaps_targeted_slots(self, micro_llama):
        config = DecompositionConfig.uniform([1], ["w_q", "w_d"], rank=1)
        decompose_model(micro_llama, config)
        owner, attr = micro_llama.tensor_slot(1, "w_q")
        assert isinstance(getattr(owner, attr), FactorizedLinear)
        owner, attr = micro_llama.tensor_slot(1, "w_d")
        assert isinstance(getattr(owner, attr), FactorizedLinear)
        owner, attr = micro_llama.tensor_slot(0, "w_q")
        assert isinstance(getattr(owner, attr), Linear)

    def test_report_parameter_accounting(self, micro_llama, micro_llama_config):
        before = micro_llama.num_parameters()
        config = DecompositionConfig.all_tensors(micro_llama_config, [2], rank=1)
        report = decompose_model(micro_llama, config)
        assert report.model_parameters_before == before
        assert report.model_parameters_after == micro_llama.num_parameters()
        assert report.parameters_saved > 0
        assert 0.0 < report.parameter_reduction < 1.0

    def test_report_matches_analytic_reduction(self, micro_llama, micro_llama_config):
        from repro.models.params import parameter_reduction

        config = DecompositionConfig.all_tensors(micro_llama_config, [1, 3], rank=1)
        report = decompose_model(micro_llama, config)
        analytic = parameter_reduction(
            micro_llama_config, [1, 3], micro_llama_config.tensor_roles, 1
        )
        assert report.parameter_reduction == pytest.approx(analytic, abs=1e-9)

    def test_per_tensor_reports(self, micro_llama, micro_llama_config):
        config = DecompositionConfig.uniform([0], ["w_q"], rank=2)
        report = decompose_model(micro_llama, config)
        (tensor_report,) = report.tensors
        assert tensor_report.layer == 0
        assert tensor_report.role == "w_q"
        assert tensor_report.rank == 2
        assert tensor_report.shape == (micro_llama_config.dim, micro_llama_config.dim)
        assert 0.0 <= tensor_report.reconstruction_error <= 1.0
        assert tensor_report.parameters_saved > 0

    def test_double_decomposition_rejected(self, micro_llama):
        config = DecompositionConfig.uniform([0], ["w_q"])
        decompose_model(micro_llama, config)
        with pytest.raises(DecompositionError):
            decompose_model(micro_llama, config)

    def test_invalid_config_rejected_before_surgery(self, micro_llama):
        config = DecompositionConfig.uniform([99], ["w_q"])
        with pytest.raises(ConfigError):
            decompose_model(micro_llama, config)
        owner, attr = micro_llama.tensor_slot(0, "w_q")
        assert isinstance(getattr(owner, attr), Linear)

    def test_forward_still_works_after_surgery(self, micro_llama, tokenizer, micro_llama_config):
        config = DecompositionConfig.all_tensors(micro_llama_config, [1], rank=1)
        decompose_model(micro_llama, config)
        logits = micro_llama(_tokens(tokenizer))
        assert np.isfinite(logits.data).all()

    def test_bert_surgery(self, micro_bert, micro_bert_config):
        config = DecompositionConfig.all_tensors(micro_bert_config, [1], rank=1)
        report = decompose_model(micro_bert, config)
        assert len(report.tensors) == 6

    def test_higher_rank_lower_error(self, micro_llama, micro_llama_config):
        low = decompose_model(
            micro_llama, DecompositionConfig.uniform([0], ["w_q"], rank=1)
        )
        restore(micro_llama, low)
        high = decompose_model(
            micro_llama, DecompositionConfig.uniform([0], ["w_q"], rank=32)
        )
        assert high.tensors[0].reconstruction_error < low.tensors[0].reconstruction_error

    def test_svd_method_surgery(self, micro_llama, micro_llama_config):
        """γ.method='svd' routes through the closed-form factorization and
        yields the same subspace quality as HOI."""
        hoi_report = decompose_model(
            micro_llama, DecompositionConfig.uniform([0], ["w_q"], rank=2, method="hoi")
        )
        hoi_error = hoi_report.tensors[0].reconstruction_error
        restore(micro_llama, hoi_report)
        svd_report = decompose_model(
            micro_llama, DecompositionConfig.uniform([0], ["w_q"], rank=2, method="svd")
        )
        assert svd_report.tensors[0].reconstruction_error == pytest.approx(
            hoi_error, abs=1e-6
        )

    def test_summary_readable(self, micro_llama, micro_llama_config):
        config = DecompositionConfig.all_tensors(micro_llama_config, [1], rank=1)
        report = decompose_model(micro_llama, config)
        text = report.summary()
        assert "reduction" in text and "tensors" in text


class TestRestore:
    def test_bit_exact_restoration(self, micro_llama, tokenizer, micro_llama_config):
        tokens = _tokens(tokenizer)
        before = micro_llama(tokens).data.copy()
        config = DecompositionConfig.all_tensors(micro_llama_config, [0, 2], rank=1)
        report = decompose_model(micro_llama, config)
        during = micro_llama(tokens).data.copy()
        restore(micro_llama, report)
        after = micro_llama(tokens).data
        assert np.array_equal(before, after)
        assert not np.allclose(before, during, atol=1e-3)

    def test_restore_without_decomposition_rejected(self, micro_llama, micro_llama_config):
        config = DecompositionConfig.uniform([0], ["w_q"])
        report = decompose_model(micro_llama, config)
        restore(micro_llama, report)
        with pytest.raises(DecompositionError):
            restore(micro_llama, report)

    def test_restore_after_drop_originals_raises(self, micro_llama, micro_llama_config):
        config = DecompositionConfig.all_tensors(micro_llama_config, [0], rank=1)
        report = decompose_model(micro_llama, config)
        assert report.drop_originals() is report
        assert report.tensors and report.parameter_reduction > 0.0
        with pytest.raises(DecompositionError, match="statistics only"):
            restore(micro_llama, report)

    def test_parameter_count_restored(self, micro_llama, micro_llama_config):
        before = micro_llama.num_parameters()
        config = DecompositionConfig.all_tensors(micro_llama_config, [1], rank=1)
        report = decompose_model(micro_llama, config)
        restore(micro_llama, report)
        assert micro_llama.num_parameters() == before


class TestContextManager:
    def test_restores_on_exit(self, micro_llama, tokenizer, micro_llama_config):
        tokens = _tokens(tokenizer)
        before = micro_llama(tokens).data.copy()
        config = DecompositionConfig.all_tensors(micro_llama_config, [1], rank=1)
        with decomposed(micro_llama, config) as report:
            assert report.parameters_saved > 0
        assert np.array_equal(micro_llama(tokens).data, before)

    def test_restores_on_exception(self, micro_llama, tokenizer, micro_llama_config):
        tokens = _tokens(tokenizer)
        before = micro_llama(tokens).data.copy()
        config = DecompositionConfig.all_tensors(micro_llama_config, [1], rank=1)
        with pytest.raises(RuntimeError, match="boom"):
            with decomposed(micro_llama, config):
                raise RuntimeError("boom")
        assert np.array_equal(micro_llama(tokens).data, before)
