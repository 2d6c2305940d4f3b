"""Gaussian kernel evaluation and the kernel-space distances built on a Gram matrix.

Distances never materialize the feature map psi.  Pairwise distances use
||psi(p) - psi(q)||^2 = 2 - 2 K(p, q) (the Gaussian kernel has unit
diagonal), and distances to a centroid C of m samples use the Gram-sum
expansion

    ||psi(x) - C||^2 = K(x,x) - (2/m) sum_i K(x, x_i) + (1/m^2) sum_ij K(x_i, x_j).

The fuzzy scoring in `membership` evaluates the Gram matrix once and derives
both from it.  Squared distances are clamped at zero before taking roots:
floating-point cancellation can leave tiny negatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel K(p, q) = exp(-||p - q||^2 / (2 width^2))."""

    width: float

    def __post_init__(self):
        if not 0 < self.width < np.inf:  # an infinite width makes every K_ij = 1
            raise ValueError("kernel width must be positive and finite")


def _check_dims(A: np.ndarray, B: np.ndarray):
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(
            f"sample matrices must share the feature dimension, got {A.shape} vs {B.shape}"
        )


def gram_values(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Raw p x q matrix of kernel evaluations between rows of A and rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    _check_dims(A, B)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((A.shape[0], B.shape[0]))
    d2 = cdist(A, B, metric="sqeuclidean")
    return np.exp(-d2 / (2.0 * spec.width**2))


def center_sq_dists_from_gram(K_qc: np.ndarray, K_cc_mean: float,
                              k_qq_diag: np.ndarray) -> np.ndarray:
    """Squared distances from query points to a class centroid, given Gram pieces.

    Parameters
    ----------
    K_qc : (q, c) kernel evaluations between queries and class members.
    K_cc_mean : scalar mean of the class self-Gram (the cached pairwise term).
    k_qq_diag : (q,) self-kernel values K(x, x) of the queries.
    """
    sq = k_qq_diag - 2.0 * K_qc.mean(axis=1) + K_cc_mean
    return np.maximum(sq, 0.0)


def kernel_space_distances(K: np.ndarray) -> np.ndarray:
    """Pairwise feature-space distances sqrt(2 - 2 K_ij) from a unit-diagonal Gram."""
    return np.sqrt(np.maximum(2.0 - 2.0 * K, 0.0))
