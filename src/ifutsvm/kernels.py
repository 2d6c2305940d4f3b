"""Gaussian kernel evaluation.

`gram_values` evaluates K(p, q) = exp(-||p - q||^2 / (2 width^2)) between the
rows of two sample matrices.  The kernel-space geometry the fuzzy scores rest
on (pairwise distances and centroid distances from one Gram matrix) lives in
`membership`, its only user.
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
        # an infinite width makes every K_ij = 1, and gram_values divides by
        # 2 width^2, which is inf above about 9.5e153 and 0 below about 1.6e-162
        try:
            divisor = 2.0 * float(self.width) ** 2
        except OverflowError:  # float ** raises where numpy would return inf
            divisor = np.inf
        if not (0 < self.width < np.inf and 0.0 < divisor < np.inf):
            raise ValueError("kernel width must be positive and finite, and so must 2 width^2")


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
