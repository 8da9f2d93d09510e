"""Algorithm 1 (HOI), HOSVD, and the mode-product algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    best_rank_k_approximation,
    fold,
    hoi,
    hosvd,
    mode_product,
    multi_mode_product,
    relative_error,
    tucker2,
    unfold,
)
from repro.errors import DecompositionError


def _random_tensor(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def _low_rank_tensor(shape, ranks, seed=0):
    """A tensor with exact multilinear rank ``ranks``."""
    rng = np.random.default_rng(seed)
    core = rng.normal(size=ranks)
    result = core
    for mode, dim in enumerate(shape):
        factor = rng.normal(size=(dim, ranks[mode]))
        result = mode_product(result, factor, mode)
    return result


class TestUnfoldFold:
    def test_round_trip_every_mode(self):
        tensor = _random_tensor((3, 4, 5))
        for mode in range(3):
            matrix = unfold(tensor, mode)
            assert matrix.shape == (tensor.shape[mode], tensor.size // tensor.shape[mode])
            assert np.array_equal(fold(matrix, mode, tensor.shape), tensor)

    def test_unfold_mode0_is_reshape(self):
        tensor = _random_tensor((3, 4, 5))
        assert np.array_equal(unfold(tensor, 0), tensor.reshape(3, 20))

    def test_invalid_mode_rejected(self):
        with pytest.raises(DecompositionError):
            unfold(_random_tensor((2, 2)), 5)


class TestModeProduct:
    def test_matches_einsum_mode0(self):
        tensor = _random_tensor((3, 4, 5))
        matrix = _random_tensor((7, 3), seed=1)
        got = mode_product(tensor, matrix, 0)
        expected = np.einsum("ij,jkl->ikl", matrix, tensor)
        assert np.allclose(got, expected)

    def test_matches_einsum_mode2(self):
        tensor = _random_tensor((3, 4, 5))
        matrix = _random_tensor((2, 5), seed=2)
        got = mode_product(tensor, matrix, 2)
        expected = np.einsum("ij,klj->kli", matrix, tensor)
        assert np.allclose(got, expected)

    def test_identity_matrix_is_noop(self):
        tensor = _random_tensor((3, 4, 5))
        assert np.allclose(mode_product(tensor, np.eye(4), 1), tensor)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DecompositionError):
            mode_product(_random_tensor((3, 4)), _random_tensor((2, 5)), 0)

    def test_matrix_mode_product_is_matmul(self):
        matrix = _random_tensor((4, 6))
        left = _random_tensor((3, 4), seed=1)
        assert np.allclose(mode_product(matrix, left, 0), left @ matrix)

    def test_multi_mode_skips_none(self):
        tensor = _random_tensor((3, 4))
        out = multi_mode_product(tensor, [None, np.eye(4)])
        assert np.allclose(out, tensor)


class TestHOSVD:
    def test_exact_at_full_rank(self):
        tensor = _random_tensor((4, 5, 3))
        result = hosvd(tensor, (4, 5, 3))
        assert result.error(tensor) < 1e-10

    def test_factor_orthonormality(self):
        tensor = _random_tensor((6, 7, 5))
        result = hosvd(tensor, (2, 3, 2))
        for factor in result.factors:
            gram = factor.T @ factor
            assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_core_shape(self):
        result = hosvd(_random_tensor((6, 7, 5)), (2, 3, 4))
        assert result.ranks == (2, 3, 4)


class TestHOI:
    def test_recovers_exact_low_rank_tensor(self):
        tensor = _low_rank_tensor((8, 9, 7), (2, 3, 2))
        result = hoi(tensor, (2, 3, 2))
        assert result.error(tensor) < 1e-8

    def test_exact_at_full_rank(self):
        tensor = _random_tensor((4, 5, 3), seed=3)
        result = hoi(tensor, (4, 5, 3))
        assert result.error(tensor) < 1e-10

    def test_error_monotone_in_rank(self):
        tensor = _random_tensor((10, 10, 10), seed=4)
        errors = [hoi(tensor, (r, r, r)).error(tensor) for r in (1, 3, 5, 8, 10)]
        for lower, higher in zip(errors, errors[1:]):
            assert higher <= lower + 1e-12

    def test_factors_orthonormal(self):
        result = hoi(_random_tensor((8, 6, 7), seed=5), (3, 2, 3))
        for factor in result.factors:
            gram = factor.T @ factor
            assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)

    def test_converges_and_reports_history(self):
        result = hoi(_random_tensor((6, 6, 6), seed=6), (2, 2, 2))
        assert result.converged
        assert result.iterations >= 1
        assert len(result.fit_history) == result.iterations
        # Fit history is non-decreasing (alternating optimization property).
        fits = result.fit_history
        assert all(b >= a - 1e-9 for a, b in zip(fits, fits[1:]))

    def test_random_init_close_to_hosvd_init_quality(self):
        """HOI is a local method: random orthonormal init (the paper's
        Algorithm 1 line 1) may land in a slightly different optimum than
        the HOSVD warm start, but the fits must be close."""
        tensor = _random_tensor((8, 8, 8), seed=7)
        a = hoi(tensor, (3, 3, 3), init="hosvd").error(tensor)
        b = hoi(
            tensor, (3, 3, 3), init="random", rng=np.random.default_rng(0),
            max_iterations=100,
        ).error(tensor)
        assert abs(a - b) < 0.05

    def test_order4_tensor(self):
        tensor = _random_tensor((4, 3, 5, 2), seed=8)
        result = hoi(tensor, (2, 2, 2, 2))
        assert result.core.shape == (2, 2, 2, 2)
        assert 0.0 <= result.error(tensor) <= 1.0

    def test_parameters_accounting(self):
        result = hoi(_random_tensor((10, 12, 8), seed=9), (2, 3, 2))
        expected = 2 * 3 * 2 + 10 * 2 + 12 * 3 + 8 * 2
        assert result.parameters() == expected

    def test_rank_bounds_validated(self):
        with pytest.raises(DecompositionError):
            hoi(_random_tensor((4, 4)), (5, 1))
        with pytest.raises(DecompositionError):
            hoi(_random_tensor((4, 4)), (0, 1))

    def test_rank_count_validated(self):
        with pytest.raises(DecompositionError):
            hoi(_random_tensor((4, 4, 4)), (2, 2))

    def test_unknown_init_rejected(self):
        with pytest.raises(DecompositionError):
            hoi(_random_tensor((4, 4)), (2, 2), init="zeros")


class TestTucker2:
    def test_hoi_matches_optimal_svd_error(self):
        """For matrices, HOI converges to the truncated-SVD subspaces."""
        matrix = _random_tensor((20, 30), seed=10)
        u1, core, u2 = tucker2(matrix, 5, method="hoi")
        optimal = relative_error(matrix, best_rank_k_approximation(matrix, 5))
        got = relative_error(matrix, u1 @ core @ u2)
        assert got == pytest.approx(optimal, abs=1e-8)

    def test_svd_method_shapes(self):
        matrix = _random_tensor((12, 7), seed=11)
        u1, core, u2 = tucker2(matrix, 3, method="svd")
        assert u1.shape == (12, 3)
        assert core.shape == (3, 3)
        assert u2.shape == (3, 7)

    def test_full_rank_exact(self):
        matrix = _random_tensor((6, 9), seed=12)
        u1, core, u2 = tucker2(matrix, 6, method="hoi")
        assert relative_error(matrix, u1 @ core @ u2) < 1e-10

    def test_methods_agree(self):
        matrix = _random_tensor((15, 10), seed=13)
        for rank in (1, 4, 9):
            _, _, _ = tucker2(matrix, rank, method="svd")
            err_svd = relative_error(
                matrix, np.linalg.multi_dot(tucker2(matrix, rank, method="svd"))
            )
            err_hoi = relative_error(
                matrix, np.linalg.multi_dot(tucker2(matrix, rank, method="hoi"))
            )
            assert err_hoi == pytest.approx(err_svd, abs=1e-7)

    def test_rejects_tensors(self):
        with pytest.raises(DecompositionError):
            tucker2(_random_tensor((3, 3, 3)), 1)

    def test_unknown_method_rejected(self):
        with pytest.raises(DecompositionError):
            tucker2(_random_tensor((4, 4)), 2, method="cp")


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_hoi_checks_each_rank_against_the_other_ranks_before_any_sweep(
    shape, seed, data
):
    """HOI needs r_n <= prod(r_m, m != n) for every mode n; it says which
    mode breaks that up front, where HOSVD accepts any in-range ranks."""
    tensor = _random_tensor(tuple(shape), seed=seed)
    # Ranks HOSVD takes: each within its dimension and its unfolding's width.
    ranks = tuple(
        data.draw(st.integers(1, min(dim, math.prod(shape) // dim))) for dim in shape
    )
    assert hosvd(tensor, ranks).core.shape == ranks
    bounds = [math.prod(ranks[:n] + ranks[n + 1 :]) for n in range(len(ranks))]
    broken = [n for n, (r, b) in enumerate(zip(ranks, bounds)) if r > b]
    if not broken:
        assert hoi(tensor, ranks, max_iterations=3).core.shape == ranks
        return
    mode = broken[0]
    with pytest.raises(DecompositionError) as info:
        hoi(tensor, ranks, max_iterations=3)
    message = str(info.value)
    assert f"mode {mode}" in message
    assert f"rank {ranks[mode]}" in message
    assert f"exceeds {bounds[mode]}" in message


@pytest.mark.parametrize(
    "shape, ranks, mode, bound",
    [((10, 12), (5, 3), 0, 3), ((4, 4, 4), (1, 1, 2), 2, 1)],
)
def test_hoi_rejects_a_rank_above_the_other_ranks_product(shape, ranks, mode, bound):
    tensor = _random_tensor(shape, seed=1)
    hosvd(tensor, ranks)
    match = rf"rank {ranks[mode]} of mode {mode} exceeds {bound}\b"
    with pytest.raises(DecompositionError, match=match):
        hoi(tensor, ranks)



def test_hosvd_rejects_a_rank_above_its_unfolding_width():
    with pytest.raises(DecompositionError, match=r"rank 2 of mode 1 exceeds 1\b"):
        hosvd(np.ones((1, 2)), (1, 2))
