"""Weight-quantization baseline."""

import numpy as np
import pytest

from repro.compression import (
    dequantize_weight,
    quantize_model_real,
    quantize_model_weights,
    quantize_weight,
    quantized_weight_bytes,
    restore_quantized,
    restore_real_quantized,
)
from repro.errors import DecompositionError
from repro.models import build_model


class TestQuantizeWeight:
    def test_grid_within_range(self):
        weight = np.random.default_rng(0).normal(size=(16, 8)).astype(np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        assert grid.max() <= 127 and grid.min() >= -128
        assert scales.shape == (8,)

    def test_round_trip_error_small_at_8_bits(self):
        weight = np.random.default_rng(1).normal(size=(64, 32)).astype(np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        restored = dequantize_weight(grid, scales)
        relative = np.abs(restored - weight).max() / np.abs(weight).max()
        assert relative < 0.01

    def test_lower_bits_higher_error(self):
        weight = np.random.default_rng(2).normal(size=(64, 32)).astype(np.float32)
        errors = []
        for bits in (8, 4, 3, 2):
            grid, scales = quantize_weight(weight, bits=bits)
            errors.append(float(np.linalg.norm(dequantize_weight(grid, scales) - weight)))
        assert errors == sorted(errors)
        assert len(set(errors)) == len(errors)  # strictly monotone in bits

    def test_zero_column_handled(self):
        weight = np.zeros((4, 3), dtype=np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        assert np.all(dequantize_weight(grid, scales) == 0.0)

    def test_zero_column_scale_falls_back_to_one(self):
        weight = np.ones((4, 3), dtype=np.float32)
        weight[:, 1] = 0.0
        grid, scales = quantize_weight(weight, bits=8)
        assert scales[1] == 1.0  # not 0, so dequantization never divides by 0
        assert np.all(grid[:, 1] == 0)
        np.testing.assert_array_equal(dequantize_weight(grid, scales)[:, 1], 0.0)

    @pytest.mark.parametrize("scale_dtype", [np.float32, np.float64])
    def test_dequantize_matches_the_two_copy_formula(self, scale_dtype):
        """One cast at most: same values and dtype as multiply-then-astype."""
        weight = np.random.default_rng(3).normal(size=(24, 40)).astype(np.float32)
        grid, scales = quantize_weight(weight, bits=8)
        scales = scales.astype(scale_dtype)
        expected = (grid.astype(np.float32) * scales[None, :]).astype(np.float32)
        restored = dequantize_weight(grid, scales)
        assert restored.dtype == np.float32
        np.testing.assert_array_equal(restored, expected)

    def test_per_channel_scales(self):
        weight = np.ones((4, 2), dtype=np.float32)
        weight[:, 1] = 100.0
        _, scales = quantize_weight(weight, bits=8)
        assert scales[1] > scales[0]

    def test_unsupported_bits(self):
        with pytest.raises(DecompositionError):
            quantize_weight(np.ones((2, 2)), bits=7)

    def test_non_matrix_rejected(self):
        with pytest.raises(DecompositionError):
            quantize_weight(np.ones(5), bits=8)


class TestQuantizedBytes:
    # quantized_weight_bytes accounts exactly what the runtime stores: a
    # bits-wide grid plus one fp32 scale per output column (H*W*bits/8 + W*4).

    def test_int8_exact_grid_plus_fp32_scales(self):
        assert quantized_weight_bytes((100, 100), 8) == 100 * 100 * 8 / 8 + 100 * 4

    def test_int4_exact_grid_plus_fp32_scales(self):
        assert quantized_weight_bytes((100, 100), 4) == 100 * 100 * 4 / 8 + 100 * 4

    def test_scale_overhead_vanishes_for_tall_matrices(self):
        grid_only = 4096 * 100 * 4 / 8
        assert quantized_weight_bytes((4096, 100), 4) == pytest.approx(
            grid_only, rel=0.01
        )


class TestQuantizeModel:
    def test_in_place_and_restorable(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(0).integers(1, tokenizer.vocab_size, size=(1, 6))
        before = micro_llama(tokens).data.copy()
        report = quantize_model_weights(micro_llama, [0, 1], ["w_q", "w_d"], bits=4)
        during = micro_llama(tokens).data.copy()
        assert not np.array_equal(before, during)
        restore_quantized(micro_llama, report)
        assert np.array_equal(micro_llama(tokens).data, before)

    def test_memory_reduction_matches_bits(self, micro_llama):
        report = quantize_model_weights(micro_llama, [0], ["w_q"], bits=8)
        assert report.memory_reduction == pytest.approx(0.5, abs=0.05)
        restore_quantized(micro_llama, report)

    def test_report_errors_bounded(self, micro_llama):
        report = quantize_model_weights(micro_llama, [0, 2], ["w_q", "w_so"], bits=8)
        assert 0.0 <= report.mean_error < 0.02
        restore_quantized(micro_llama, report)

    def test_restore_bit_exact_over_repeated_cycles(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(7).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        before = micro_llama(tokens).data.copy()
        originals = {
            name: param.data.copy()
            for name, param in micro_llama.named_parameters()
        }
        for bits in (8, 4, 2):
            report = quantize_model_weights(
                micro_llama, [0, 1], ["w_q", "w_u", "w_d"], bits=bits
            )
            restore_quantized(micro_llama, report)
        for name, param in micro_llama.named_parameters():
            np.testing.assert_array_equal(param.data, originals[name])
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_factorized_targets_quantize_per_factor(self, micro_llama, tokenizer):
        from repro.decomposition import DecompositionConfig, decompose_model

        decompose_model(
            micro_llama,
            DecompositionConfig(layers=(0,), roles=("w_q",), rank=2),
        )
        tokens = np.random.default_rng(8).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        before = micro_llama(tokens).data.copy()
        report = quantize_model_weights(micro_llama, [0], ["w_q"], bits=8)
        assert sorted(t.role for t in report.tensors) == [
            "w_q.core",
            "w_q.u1",
            "w_q.u2",
        ]
        assert not np.array_equal(micro_llama(tokens).data, before)
        restore_quantized(micro_llama, report)
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_int8_nearly_lossless_on_trained_model(self, trained_llama):
        """The classic result: 8-bit weight quantization barely moves
        accuracy — the gentleness decomposition is compared against."""
        from repro.eval import build_suite, evaluate_suite
        from repro.experiments import get_world

        model, tokenizer = trained_llama
        suite = build_suite(get_world(), names=("arc_easy",))
        baseline = evaluate_suite(model, tokenizer, suite, limit=40).mean_accuracy
        all_layers = range(model.config.n_layers)
        report = quantize_model_weights(
            model, all_layers, model.config.tensor_roles, bits=8
        )
        try:
            quantized = evaluate_suite(model, tokenizer, suite, limit=40).mean_accuracy
        finally:
            restore_quantized(model, report)
        assert quantized >= baseline - 0.05


class TestRealQuantization:
    def test_simulated_and_real_logits_bit_identical(self, micro_llama_config, tokenizer):
        """The contract the fast path's bit-identity rests on: real
        quantized storage dequantizes to exactly the weights simulated
        quantization bakes in."""
        simulated = build_model(micro_llama_config, rng=np.random.default_rng(5))
        real = build_model(micro_llama_config, rng=np.random.default_rng(5))
        real.load_state_dict(simulated.state_dict())
        quantize_model_weights(
            simulated,
            range(micro_llama_config.n_layers),
            micro_llama_config.tensor_roles,
            bits=8,
        )
        quantize_model_real(real, 8)
        simulated.eval()
        tokens = np.random.default_rng(9).integers(
            1, tokenizer.vocab_size, size=(2, 6)
        )
        from repro.runtime import fastpath

        with fastpath.disabled():
            np.testing.assert_array_equal(
                simulated(tokens).data, real(tokens).data
            )

    def test_restore_swaps_original_modules_back(self, micro_llama, tokenizer):
        tokens = np.random.default_rng(10).integers(
            1, tokenizer.vocab_size, size=(1, 5)
        )
        micro_llama.eval()
        before = micro_llama(tokens).data.copy()
        report = quantize_model_real(micro_llama, 8)
        assert not np.array_equal(micro_llama(tokens).data, before)
        restore_real_quantized(micro_llama, report)
        np.testing.assert_array_equal(micro_llama(tokens).data, before)

    def test_restore_after_drop_originals_raises(self, micro_llama):
        report = quantize_model_real(micro_llama, 8)
        assert report.drop_originals() is report
        assert report.memory_reduction_x > 3.0
        with pytest.raises(DecompositionError, match="statistics only"):
            restore_real_quantized(micro_llama, report)

    def test_memory_reduction_measured_above_3x_at_int8(self, micro_llama):
        report = quantize_model_real(micro_llama, 8)
        try:
            assert report.memory_reduction_x > 3.0
            assert report.weight_bytes_after < report.weight_bytes_before
        finally:
            restore_real_quantized(micro_llama, report)

    def test_double_quantization_rejected(self, micro_llama):
        report = quantize_model_real(micro_llama, 8)
        try:
            with pytest.raises(DecompositionError, match="already quantized"):
                quantize_model_real(micro_llama, 8)
        finally:
            restore_real_quantized(micro_llama, report)
