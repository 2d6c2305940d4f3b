"""Intuitionistic fuzzy sample weighting.

Each training sample receives a membership degree (closeness to its own class
centroid), a non-membership degree (heterogeneity of its neighborhood), and a
combined score used to weight its slack penalty during training.
`assign_scores` is the one entry point: it returns all three in a
ScoreWeights.  Both degrees rest on one geometry step.  Without a kernel it
uses Euclidean distances in input space.  With a Gaussian kernel it evaluates
the Gram matrix K of the training set once and never forms the feature map
psi: pairwise distances are sqrt(2 - 2 K_ij), and a member x of a class of m
samples lies at ||psi(x) - C||^2 = 1 - (2/m) sum_i K(x, x_i) +
(1/m^2) sum_ij K(x_i, x_j) from the class centroid C (the class's diagonal
block of K).  Squared distances are clamped at zero before the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset
from .kernels import KernelSpec, gram_values

# Smoothing default when the user supplies no eta: a small multiple of the
# class radius keeps the minimum membership strictly positive at any scale.
ETA_SCALE_DEFAULT = 1e-4


@dataclass(frozen=True)
class FuzzyParams:
    """Tuning knobs of the fuzzy scheme.

    eta : membership smoothing added to the class radius; None picks
        ETA_SCALE_DEFAULT * (radius + 1) per class.
    rho : neighborhood radius for the non-membership ratio, measured in
        feature-space distance; None picks the median pairwise distance
        over the training set.
    """

    eta: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive")


@dataclass(frozen=True)
class ScoreWeights:
    """Per-sample fuzzy quantities, partitioned into the two classes.

    memberships / nonmemberships / scores are aligned with the dataset row
    order; s1 and s2 hold the scores of the +1 and -1 samples respectively.
    """

    s1: np.ndarray
    s2: np.ndarray
    memberships: np.ndarray
    nonmemberships: np.ndarray
    scores: np.ndarray
    rho: float


def _geometry(ds: Dataset, kspec: KernelSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise distances and each sample's distance to its own class centroid.

    In kernel mode both come from the one Gram matrix K of the training set;
    a class's centroid distances use its diagonal block of K.
    """
    X = ds.features
    if kspec is None:
        dists = np.sqrt(cdist(X, X, "sqeuclidean"))
    else:
        K = gram_values(X, X, kspec)
        dists = np.sqrt(np.maximum(2.0 - 2.0 * K, 0.0))
    center = np.empty(ds.m)
    for label in (1, -1):
        idx = np.flatnonzero(ds.labels == label)
        if idx.size == 0:
            raise ValueError(f"class {label:+d} is empty")
        if kspec is None:
            rows = X[idx]
            center[idx] = np.linalg.norm(rows - rows.mean(axis=0), axis=1)
        else:
            K_cc = K[np.ix_(idx, idx)]
            sq = 1.0 - 2.0 * K_cc.mean(axis=1) + float(K_cc.mean())
            center[idx] = np.sqrt(np.maximum(sq, 0.0))
    return dists, center


def _resolve_eta(radius: float, params: FuzzyParams) -> float:
    if params.eta is not None:
        return params.eta
    return ETA_SCALE_DEFAULT * (radius + 1.0)


def _memberships(labels: np.ndarray, center: np.ndarray, params: FuzzyParams) -> np.ndarray:
    """Membership degree 1 - d_i / (r + eta) per sample, toward its own class."""
    theta = np.empty(labels.shape[0])
    for label in (1, -1):
        idx = np.flatnonzero(labels == label)
        d = center[idx]
        radius = float(d.max())
        theta[idx] = 1.0 - d / (radius + _resolve_eta(radius, params))
    return theta


def _resolve_rho(dists: np.ndarray, params: FuzzyParams) -> float:
    if params.rho is not None:
        return params.rho
    # _geometry guarantees two nonempty classes, so there is at least one pair
    return float(np.median(dists[np.triu_indices(dists.shape[0], k=1)]))


def _nonmemberships(labels: np.ndarray, dists: np.ndarray, rho: float,
                    theta: np.ndarray) -> np.ndarray:
    """Non-membership (1 - theta_i) * mu_i, mu_i the heterogeneous-neighbor ratio
    in the closed rho-ball around sample i, which counts i itself."""
    within = dists <= rho
    opposite = labels[:, None] != labels[None, :]
    mu = (within & opposite).sum(axis=1) / within.sum(axis=1)
    return (1.0 - theta) * mu


def score_vector(theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Combined weight in [0, 1] per sample: theta where sigma = 0, else 0 where
    theta <= sigma, else (1 - sigma) / (2 - theta - sigma)."""
    third = (1.0 - sigma) / (2.0 - theta - sigma)
    return np.where(sigma == 0.0, theta, np.where(theta <= sigma, 0.0, third))


def assign_scores(ds: Dataset, kspec: KernelSpec | None,
                  params: FuzzyParams = FuzzyParams()) -> ScoreWeights:
    """Run the full membership -> non-membership -> score pipeline on a dataset."""
    dists, center = _geometry(ds, kspec)
    theta = _memberships(ds.labels, center, params)
    rho = _resolve_rho(dists, params)
    sigma = _nonmemberships(ds.labels, dists, rho, theta)
    scores = score_vector(theta, sigma)
    return ScoreWeights(
        s1=scores[ds.labels == 1],
        s2=scores[ds.labels == -1],
        memberships=theta,
        nonmemberships=sigma,
        scores=scores,
        rho=rho,
    )


def uniform_scores(ds: Dataset) -> ScoreWeights:
    """All-ones weighting, the ablation that switches the fuzzy scheme off."""
    ones = np.ones(ds.m)
    return ScoreWeights(
        s1=ones[ds.labels == 1].copy(),
        s2=ones[ds.labels == -1].copy(),
        memberships=ones.copy(),
        nonmemberships=np.zeros(ds.m),
        scores=ones,
        rho=float("nan"),
    )
