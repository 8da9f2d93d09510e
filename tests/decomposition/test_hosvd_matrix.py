"""The order-2 HOSVD path: both factors from one Gram eigendecomposition.

For a matrix, ``hosvd`` takes the leading eigenvectors of the smaller-side
Gram and the leading left singular basis of the thin projection instead of
one SVD per unfolding.  These tests pin it to the SVD subspaces it replaces
and check that tensors of order 3 and higher still take the per-mode
unfolding SVDs bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.decomposition import (
    best_rank_k_approximation,
    hoi,
    hosvd,
    multi_mode_product,
    relative_error,
    truncated_svd,
    tucker2,
    unfold,
)
from repro.decomposition.svd import leading_left_singular_vectors
from repro.models import LLAMA_TENSOR_ROLES, build_model, get_config

_dim = st.integers(1, 12)
_seed = st.integers(0, 2**16)
_kind = st.sampled_from(["gaussian", "deficient", "zero"])


def _matrix(kind, m, n, seed):
    """Tall, wide or square; full rank, rank-deficient, or all zeros."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "deficient":
        inner = max(1, min(m, n) // 2)
        return rng.normal(size=(m, inner)) @ rng.normal(size=(inner, n))
    return rng.normal(size=(m, n))


def _orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


@st.composite
def _matrix_and_ranks(draw):
    m, n = draw(_dim), draw(_dim)
    top = min(m, n)
    ranks = (draw(st.integers(1, top)), draw(st.integers(1, top)))
    return _matrix(draw(_kind), m, n, draw(_seed)), ranks


@settings(max_examples=60, deadline=None)
@given(case=_matrix_and_ranks())
def test_factors_are_orthonormal(case):
    matrix, ranks = case
    result = hosvd(matrix, ranks)
    for factor, dim, rank in zip(result.factors, matrix.shape, ranks):
        assert factor.shape == (dim, rank)
        np.testing.assert_allclose(factor.T @ factor, np.eye(rank), atol=1e-10)
    assert result.core.shape == ranks


@settings(max_examples=60, deadline=None)
@given(
    m=_dim, n=_dim, seed=_seed, decay=st.floats(0.3, 0.8), data=st.data()
)
def test_projectors_match_truncated_svd_when_the_gap_is_clear(m, n, seed, decay, data):
    """A geometric spectrum leaves a clear gap at every rank, so the
    leading subspaces are unique and the projectors must agree."""
    rng = np.random.default_rng(seed)
    top = min(m, n)
    spectrum = decay ** np.arange(top)
    matrix = (_orthonormal(rng, m, top) * spectrum) @ _orthonormal(rng, n, top).T
    r0, r1 = data.draw(st.integers(1, top)), data.draw(st.integers(1, top))
    u, v = hosvd(matrix, (r0, r1)).factors
    u_ref = truncated_svd(matrix, r0)[0]
    v_ref = truncated_svd(matrix, r1)[2].T
    np.testing.assert_allclose(u @ u.T, u_ref @ u_ref.T, atol=1e-8)
    np.testing.assert_allclose(v @ v.T, v_ref @ v_ref.T, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(m=_dim, n=_dim, kind=_kind, seed=_seed, data=st.data())
def test_tucker2_hoi_error_is_the_eckart_young_optimum(m, n, kind, seed, data):
    matrix = _matrix(kind, m, n, seed)
    rank = data.draw(st.integers(1, min(m, n)))
    u1, core, u2 = tucker2(matrix, rank, "hoi")
    optimal = relative_error(matrix, best_rank_k_approximation(matrix, rank))
    assert abs(relative_error(matrix, u1 @ core @ u2) - optimal) <= 1e-10


def _per_mode_hoi(tensor, ranks, max_iterations=50, tolerance=1e-8):
    """Algorithm 1 with one unfolding SVD per mode for the initialization."""
    factors = [
        leading_left_singular_vectors(unfold(tensor, mode), rank)
        for mode, rank in enumerate(ranks)
    ]
    norm_t = np.linalg.norm(tensor)
    previous_fit = -np.inf
    fits = []
    for _ in range(max_iterations):
        for mode in range(tensor.ndim):
            projections = [f.T if m != mode else None for m, f in enumerate(factors)]
            partial = multi_mode_product(tensor, projections)
            factors[mode] = leading_left_singular_vectors(
                unfold(partial, mode), ranks[mode]
            )
        core = multi_mode_product(tensor, [f.T for f in factors])
        residual_sq = max(norm_t**2 - np.linalg.norm(core) ** 2, 0.0)
        fit = 1.0 if norm_t == 0.0 else 1.0 - np.sqrt(residual_sq) / norm_t
        fits.append(float(fit))
        if abs(fit - previous_fit) < tolerance:
            break
        previous_fit = fit
    return core, factors, fits


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    seed=_seed,
    data=st.data(),
)
def test_order3_hoi_is_bit_identical_to_the_per_mode_path(shape, seed, data):
    tensor = np.random.default_rng(seed).normal(size=shape)
    ranks = tuple(data.draw(st.integers(1, min(dim, 3))) for dim in shape)
    # Each mode's rank is bounded by the width of its projected unfolding.
    assume(all(r * r <= np.prod(ranks) for r in ranks))
    init = hosvd(tensor, ranks)
    for mode, (factor, rank) in enumerate(zip(init.factors, ranks)):
        expected = leading_left_singular_vectors(unfold(tensor, mode), rank)
        assert np.array_equal(factor, expected)
    result = hoi(tensor, ranks)
    core, factors, fits = _per_mode_hoi(tensor, ranks)
    assert np.array_equal(result.core, core)
    assert all(np.array_equal(a, b) for a, b in zip(result.factors, factors))
    assert result.fit_history == fits


def _model_matrices(model):
    for layer in range(model.config.n_layers):
        for role in LLAMA_TENSOR_ROLES:
            owner, attribute = model.tensor_slot(layer, role)
            yield f"{layer}.{role}", getattr(owner, attribute).weight.data.astype(np.float64)


@pytest.mark.parametrize("model_name", ["serve-llama", "tiny-llama"])
def test_fit_matches_two_svd_hosvd_on_every_model_matrix(model_name, request):
    """HOI's fit on every decomposable matrix at ranks 1, 8 and 32 matches
    the HOSVD fit computed from two full unfolding SVDs."""
    if model_name == "serve-llama":
        model = build_model(get_config("serve-llama"), np.random.default_rng(0))
    else:
        model, _ = request.getfixturevalue("trained_llama")
    for name, weight in _model_matrices(model):
        ranks = sorted({min(r, *weight.shape) for r in (1, 8, 32)})
        left = truncated_svd(weight, ranks[-1])[0]
        right = truncated_svd(weight.T, ranks[-1])[0]
        norm = np.linalg.norm(weight)
        for rank in ranks:
            core = left[:, :rank].T @ weight @ right[:, :rank]
            reference = 1.0 - np.sqrt(max(norm**2 - np.linalg.norm(core) ** 2, 0.0)) / norm
            fit = hoi(weight, (rank, rank)).fit_history[-1]
            assert abs(fit - reference) <= 1e-6 * abs(reference), (name, rank)
