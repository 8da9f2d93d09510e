"""Tucker decomposition via Higher-Order Orthogonal Iteration (Algorithm 1).

Implements the general N-mode machinery (unfolding, mode products, HOSVD)
and the paper's Algorithm 1 (HOI), plus the Tucker-2 specialization used on
transformer weight matrices:

    T(n1, n2) ~= U1(n1, pr) @ core(pr, pr) @ U2(pr, n2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.decomposition.metrics import relative_error
from repro.decomposition.svd import leading_left_singular_vectors
from repro.errors import DecompositionError
from repro.tensor.random import orthonormal_columns


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: move ``mode`` to the front and flatten the rest."""
    tensor = np.asarray(tensor)
    if not 0 <= mode < tensor.ndim:
        raise DecompositionError(f"mode {mode} out of range for ndim {tensor.ndim}")
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold` for a target tensor ``shape``."""
    shape = tuple(shape)
    moved_shape = (shape[mode],) + shape[:mode] + shape[mode + 1 :]
    return np.moveaxis(np.asarray(matrix).reshape(moved_shape), 0, mode)


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """The i-mode product ``T x_i M`` from Section 2.1.

    ``matrix`` has shape (rows, tensor.shape[mode]); the result replaces the
    ``mode`` dimension by ``rows``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DecompositionError(f"mode_product needs a matrix, got {matrix.shape}")
    if matrix.shape[1] != tensor.shape[mode]:
        raise DecompositionError(
            f"mode-{mode} product mismatch: matrix {matrix.shape} vs tensor "
            f"{tensor.shape}"
        )
    unfolded = unfold(tensor, mode)
    result = matrix @ unfolded
    new_shape = list(tensor.shape)
    new_shape[mode] = matrix.shape[0]
    return fold(result, mode, new_shape)


def multi_mode_product(
    tensor: np.ndarray, matrices: Sequence[Optional[np.ndarray]]
) -> np.ndarray:
    """Apply one matrix per mode (entries may be None to skip a mode)."""
    result = np.asarray(tensor)
    for mode, matrix in enumerate(matrices):
        if matrix is not None:
            result = mode_product(result, matrix, mode)
    return result


@dataclass
class TuckerResult:
    """Core tensor, factor matrices, and convergence diagnostics."""

    core: np.ndarray
    factors: List[np.ndarray]
    iterations: int
    converged: bool
    fit_history: List[float]

    @property
    def ranks(self) -> Tuple[int, ...]:
        return self.core.shape

    def reconstruct(self) -> np.ndarray:
        """``core x_1 U1 x_2 U2 ... x_N UN`` — the approximation K."""
        result = self.core
        for mode, factor in enumerate(self.factors):
            result = mode_product(result, factor, mode)
        return result

    def parameters(self) -> int:
        return self.core.size + sum(f.size for f in self.factors)

    def error(self, original: np.ndarray) -> float:
        return relative_error(original, self.reconstruct())


def _validate_ranks(shape: Tuple[int, ...], ranks: Sequence[int]) -> Tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise DecompositionError(
            f"need one rank per mode: shape {shape}, ranks {ranks}"
        )
    for mode, (dim, rank) in enumerate(zip(shape, ranks)):
        if not 1 <= rank <= dim:
            raise DecompositionError(f"rank {rank} out of range [1, {dim}]")
        # The mode's unfolding is dim x prod(other dims): no more leading
        # singular vectors than its narrower side.
        width = math.prod(shape[:mode] + shape[mode + 1 :])
        if rank > width:
            raise DecompositionError(
                f"rank {rank} of mode {mode} exceeds {width}, the width of "
                "the mode's unfolding (the product of the other dimensions)"
            )
    return ranks


def _matrix_factors(matrix: np.ndarray, ranks: Tuple[int, int]) -> List[np.ndarray]:
    """Both HOSVD factors of a matrix from one symmetric eigendecomposition.

    A matrix's mode-0 and mode-1 unfoldings are T and Tᵀ, so two unfolding
    SVDs would compute the same decomposition twice.  Instead, the
    k = max(ranks) leading eigenvectors of the smaller-side Gram (T Tᵀ or
    Tᵀ T) give one side's leading singular basis, and the leading left
    singular basis of the thin projection (Tᵀ Q or T Q, at most
    max(m, n) × k) gives the other side's.  Each is then truncated to its
    mode's rank.
    """
    k = max(ranks)
    wide = matrix.shape[0] <= matrix.shape[1]
    gram = matrix @ matrix.T if wide else matrix.T @ matrix
    _, vectors = np.linalg.eigh(gram)  # ascending eigenvalues
    near = vectors[:, ::-1][:, :k]
    far = leading_left_singular_vectors((matrix.T if wide else matrix) @ near, k)
    left, right = (near, far) if wide else (far, near)
    return [left[:, : ranks[0]], right[:, : ranks[1]]]


def hosvd(tensor: np.ndarray, ranks: Sequence[int]) -> TuckerResult:
    """Truncated higher-order SVD: the standard non-iterative initialization.

    Each factor is the leading left singular basis of the mode unfolding;
    the core is the projection of T onto those bases.  A matrix gets both
    bases from one Gram eigendecomposition (:func:`_matrix_factors`);
    tensors of order 3 and higher take one SVD per mode unfolding.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    ranks = _validate_ranks(tensor.shape, ranks)
    if tensor.ndim == 2:
        factors = _matrix_factors(tensor, ranks)
    else:
        factors = [
            leading_left_singular_vectors(unfold(tensor, mode), rank)
            for mode, rank in enumerate(ranks)
        ]
    core = multi_mode_product(tensor, [f.T for f in factors])
    return TuckerResult(
        core=core, factors=factors, iterations=0, converged=True, fit_history=[]
    )


def hoi(
    tensor: np.ndarray,
    ranks: Sequence[int],
    max_iterations: int = 50,
    tolerance: float = 1e-8,
    init: str = "hosvd",
    rng: Optional[np.random.Generator] = None,
) -> TuckerResult:
    """Algorithm 1: Tucker decomposition via Higher-Order Orthogonal Iteration.

    Parameters
    ----------
    tensor:
        The input tensor T of any order >= 2.
    ranks:
        Decomposition ranks (r_1, ..., r_N), one per mode.
    max_iterations:
        Upper bound on alternating sweeps.
    tolerance:
        Convergence criterion on the change in reconstruction fit between
        sweeps.
    init:
        ``"hosvd"`` (default, deterministic) or ``"random"`` — the paper's
        "initialize with orthonormal columns" step.
    rng:
        Required for ``init="random"``.

    A sweep refreshes mode n from the unfolding of T projected onto every
    other factor, which has only prod(r_m, m != n) columns, so each rank
    must satisfy r_n <= prod(r_m, m != n).  :class:`DecompositionError`
    names the first mode that does not, before any sweep runs.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim < 2:
        raise DecompositionError("HOI requires a tensor of order >= 2")
    ranks = _validate_ranks(tensor.shape, ranks)
    for mode, rank in enumerate(ranks):
        bound = math.prod(ranks[:mode] + ranks[mode + 1 :])
        if rank > bound:
            raise DecompositionError(
                f"HOI rank {rank} of mode {mode} exceeds {bound}, the product "
                "of the other modes' ranks"
            )

    if init == "hosvd":
        factors = hosvd(tensor, ranks).factors
    elif init == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        factors = [
            orthonormal_columns(rng, dim, rank)
            for dim, rank in zip(tensor.shape, ranks)
        ]
    else:
        raise DecompositionError(f"unknown init {init!r}")

    norm_t = np.linalg.norm(tensor)
    previous_fit = -np.inf
    fit_history: List[float] = []
    converged = False
    iterations = 0
    core = None

    for iterations in range(1, max_iterations + 1):
        for mode in range(tensor.ndim):
            # Project onto every factor except ``mode``, then refresh that
            # factor from the leading singular basis of the projection.
            projections = [
                factors[m].T if m != mode else None for m in range(tensor.ndim)
            ]
            partial = multi_mode_product(tensor, projections)
            factors[mode] = leading_left_singular_vectors(
                unfold(partial, mode), ranks[mode]
            )
        core = multi_mode_product(tensor, [f.T for f in factors])
        # For orthonormal factors, ||T - K||^2 = ||T||^2 - ||core||^2, so the
        # fit can be tracked without reconstructing K.
        core_norm = np.linalg.norm(core)
        if norm_t == 0.0:
            fit = 1.0
        else:
            residual_sq = max(norm_t**2 - core_norm**2, 0.0)
            fit = 1.0 - np.sqrt(residual_sq) / norm_t
        fit_history.append(float(fit))
        if abs(fit - previous_fit) < tolerance:
            converged = True
            break
        previous_fit = fit

    if core is None:  # no sweep ran; otherwise the last one built the core
        core = multi_mode_product(tensor, [f.T for f in factors])
    return TuckerResult(
        core=core,
        factors=factors,
        iterations=iterations,
        converged=converged,
        fit_history=fit_history,
    )


def tucker2(
    matrix: np.ndarray,
    rank: int,
    method: str = "hoi",
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order Tucker decomposition of a weight matrix (Section 2.3).

    Returns (U1, core, U2) with shapes (H, PR), (PR, PR), (PR, W) such that
    ``U1 @ core @ U2`` approximates ``matrix``.  ``method`` may be ``"hoi"``
    (Algorithm 1, initialized by the one-eigendecomposition matrix HOSVD of
    :func:`hosvd`) or ``"svd"`` (direct truncated SVD, the closed-form
    optimum for matrices); both yield the same subspaces for order-2
    tensors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DecompositionError(f"tucker2 expects a matrix, got {matrix.shape}")
    if method == "svd":
        from repro.decomposition.svd import truncated_svd

        u, s, vt = truncated_svd(matrix, rank)
        return u, np.diag(s), vt
    if method == "hoi":
        result = hoi(
            matrix, (rank, rank), max_iterations=max_iterations, tolerance=tolerance
        )
        u1, u2 = result.factors
        # Orientation: T ~= U1 @ core @ U2 with U2 of shape (PR, W).
        return u1, result.core, u2.T
    raise DecompositionError(f"unknown tucker2 method {method!r}")
