"""Squared Euclidean distances and Gaussian kernel evaluation.

`sq_distances` is the package's one pairwise-distance routine: the fuzzy
scores read it through `Dataset.pairwise_sq_dists` in linear mode and through
`gram_values` in kernel mode.  `gram_values` evaluates K(p, q) =
exp(-||p - q||^2 / (2 width^2)) between the rows of two sample matrices.  The
kernel-space geometry the fuzzy scores rest on (pairwise distances and
centroid distances from one Gram matrix) lives in `membership`, its only user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """p x q matrix of squared Euclidean distances between the rows of the
    float64 matrices A (p x n) and B (q x n).

    Each entry sums (a_f - b_f)^2 one feature at a time, in feature order,
    which is scipy's cdist(A, B, "sqeuclidean") bit for bit; so an entry
    depends only on its two rows, a block of the matrix equals the matrix of
    its rows, and d_ij = d_ji exactly.  No features give all zeros.  Features
    whose differences square past the float range (magnitudes near 1e154 and
    above) give inf entries and numpy's overflow RuntimeWarning, which cdist
    does not raise.
    """
    d2 = np.zeros((A.shape[0], B.shape[0]))
    diff = np.empty_like(d2)
    for a, b in zip(A.T, B.T):
        np.subtract.outer(a, b, out=diff)
        d2 += np.multiply(diff, diff, out=diff)
    return d2


def gram_values(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Raw p x q matrix of kernel evaluations between rows of A and rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    _check_dims(A, B)
    return np.exp(-sq_distances(A, B) / (2.0 * spec.width**2))
