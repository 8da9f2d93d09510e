"""Truncated singular value decomposition used inside Algorithm 1.

``A = SVD(k, B)`` in the paper's notation computes the k leading left
singular vectors of B.  :func:`truncated_svd` runs NumPy's LAPACK-backed
thin SVD and slices it.  When Algorithm 1 decomposes a weight matrix, it
only sees thin inputs: the HOI sweeps factor ``dim x rank`` projections,
and the order-2 HOSVD initialization (:func:`repro.decomposition.tucker.hosvd`)
replaces the two full unfolding SVDs with one eigendecomposition of the
smaller-side Gram plus one SVD of a ``dim x rank`` projection.  Tensors of
order 3 and higher still take one full SVD per mode unfolding.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DecompositionError


def truncated_svd(matrix: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``rank`` truncated SVD: returns (U_k, s_k, Vt_k).

    ``U_k`` is (m, k) with orthonormal columns, ``s_k`` the k largest
    singular values in descending order, ``Vt_k`` is (k, n).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DecompositionError(f"truncated_svd expects a matrix, got {matrix.shape}")
    max_rank = min(matrix.shape)
    if not 1 <= rank <= max_rank:
        raise DecompositionError(
            f"rank {rank} out of range [1, {max_rank}] for shape {matrix.shape}"
        )
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :rank], s[:rank], vt[:rank, :]


def leading_left_singular_vectors(matrix: np.ndarray, rank: int) -> np.ndarray:
    """The ``A = SVD(k, B)`` primitive of Algorithm 1."""
    u, _, _ = truncated_svd(matrix, rank)
    return u


def best_rank_k_approximation(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Eckart-Young optimal rank-k approximation of ``matrix``."""
    u, s, vt = truncated_svd(matrix, rank)
    return (u * s) @ vt


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values of ``matrix`` in descending order."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DecompositionError(f"expected a matrix, got shape {matrix.shape}")
    return np.linalg.svd(matrix, compute_uv=False)


def randomized_svd(
    matrix: np.ndarray,
    rank: int,
    oversampling: int = 10,
    power_iterations: int = 2,
    rng: "np.random.Generator" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized truncated SVD (Halko, Martinsson & Tropp 2011).

    Projects onto a random range sketch of width ``rank + oversampling``
    with a few power iterations, then takes an exact SVD of the small
    projected matrix.  Orders of magnitude faster than LAPACK for the
    4096-wide matrices of paper-scale models, at negligible accuracy cost
    for the low ranks decomposition uses.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DecompositionError(f"randomized_svd expects a matrix, got {matrix.shape}")
    max_rank = min(matrix.shape)
    if not 1 <= rank <= max_rank:
        raise DecompositionError(
            f"rank {rank} out of range [1, {max_rank}] for shape {matrix.shape}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    sketch_width = min(rank + max(oversampling, 0), max_rank)
    sketch = rng.normal(size=(matrix.shape[1], sketch_width))
    sample = matrix @ sketch
    for _ in range(max(power_iterations, 0)):
        sample = matrix @ (matrix.T @ sample)
    basis, _ = np.linalg.qr(sample)
    small = basis.T @ matrix
    u_small, s, vt = np.linalg.svd(small, full_matrices=False)
    u = basis @ u_small
    return u[:, :rank], s[:rank], vt[:rank, :]


def impose_spectrum(matrix: np.ndarray, decay: float) -> np.ndarray:
    """Rebuild ``matrix`` with an exponentially decaying singular spectrum.

    Keeps the singular *vectors* but replaces the singular values with
    ``s_1 * exp(-decay * i)`` (``i`` zero-based), modelling the fast
    spectral decay trained transformer weights exhibit (the regime where
    low-rank decomposition is near-exact — the paper's premise).  Randomly
    initialized weights have a flat spectrum, so rank-k variants of them
    agree with the dense model on almost nothing; shaped weights make a
    rank-8 drafter a faithful proxy, which is what the speculative-decoding
    benchmark needs to measure a realistic acceptance rate.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DecompositionError(f"impose_spectrum expects a matrix, got {matrix.shape}")
    if decay < 0.0:
        raise DecompositionError(f"decay must be non-negative, got {decay}")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    top = s[0] if s.size and s[0] > 0.0 else 1.0
    shaped = top * np.exp(-decay * np.arange(s.size))
    return (u * shaped) @ vt


def effective_rank(matrix: np.ndarray, energy: float = 0.99) -> int:
    """Smallest rank capturing ``energy`` of the squared spectral mass.

    A diagnostic used when characterizing how compressible a trained weight
    matrix is before choosing a pruned rank.
    """
    if not 0.0 < energy <= 1.0:
        raise DecompositionError(f"energy must be in (0, 1], got {energy}")
    values = singular_values(matrix) ** 2
    total = values.sum()
    if total == 0.0:
        return 1
    cumulative = np.cumsum(values) / total
    return int(np.searchsorted(cumulative, energy) + 1)
