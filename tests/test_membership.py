import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ifutsvm import (
    Dataset,
    FuzzyParams,
    KernelSpec,
    assign_scores,
    score_vector,
    uniform_scores,
)

from oracle_utils import gaussian, score


def two_cluster_dataset(seed=0, n_pos=6, n_neg=10, gap=4.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.4, (n_pos, 2)), rng.normal(gap, 0.4, (n_neg, 2))])
    y = np.array([1] * n_pos + [-1] * n_neg)
    return Dataset("two", X, y)


def memberships(ds, spec, params=FuzzyParams()):
    return assign_scores(ds, spec, params).memberships


def brute_center_dist(x, cls, spec):
    """Kernel-space distance from x to the centroid of cls, one kernel value at a time."""
    k_xc = np.mean([gaussian(x, c, spec) for c in cls])
    k_cc = np.mean([[gaussian(a, b, spec) for b in cls] for a in cls])
    return np.sqrt(max(1.0 - 2.0 * k_xc + k_cc, 0.0))


class TestMembership:
    def test_single_member_class_scores_one(self):
        X = np.array([[0.0, 0.0], [3.0, 3.0], [3.1, 2.9]])
        y = np.array([1, -1, -1])
        theta = memberships(Dataset("d", X, y), KernelSpec(1.0))
        assert theta[0] == 1.0

    def test_radius_achieving_sample(self):
        # colinear negatives: the extreme points attain the class radius
        X = np.array([[0.0], [10.0], [0.0], [1.0], [2.0]])
        y = np.array([1, 1, -1, -1, -1])
        eta = 0.5
        spec = KernelSpec(1.0)
        theta = memberships(Dataset("d", X, y), spec, FuzzyParams(eta=eta))

        neg = X[2:]
        d = np.array([brute_center_dist(x, neg, spec) for x in neg])
        r = d.max()
        worst = 2 + int(np.argmax(d))
        assert_allclose(theta[worst], eta / (r + eta), rtol=1e-12)

    def test_matches_gram_expansion_oracle(self):
        # six-point class, eta = 0.5: brute-force the expansion by hand
        rng = np.random.default_rng(1)
        pos = rng.normal(0, 1, (6, 3))
        neg = rng.normal(5, 1, (8, 3))
        X = np.vstack([pos, neg])
        y = np.array([1] * 6 + [-1] * 8)
        spec = KernelSpec(1.3)
        theta = memberships(Dataset("d", X, y), spec, FuzzyParams(eta=0.5))

        dists = np.array([brute_center_dist(x, pos, spec) for x in pos])
        r = dists.max()
        assert_allclose(theta[:6], 1.0 - dists / (r + 0.5), atol=1e-10)

    def test_empty_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(3, 2))
        single_class = Dataset("d", X, np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            assign_scores(single_class, KernelSpec(1.0))
        with pytest.raises(ValueError):
            assign_scores(single_class, None)


class TestNonmembership:
    def test_homogeneous_neighborhood_gives_zero(self):
        ds = two_cluster_dataset(gap=50.0)
        # rho below the inter-cluster kernel distance: only same-label neighbors
        sigma = assign_scores(ds, KernelSpec(1.0), FuzzyParams(rho=0.5)).nonmemberships
        assert_array_equal(sigma, 0.0)

    def test_full_membership_forces_zero(self):
        # each class is one repeated point, so every membership is 1; rho spans
        # both classes, so every neighborhood is mixed, yet sigma must be 0
        X = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 5)
        ds = Dataset("d", X, np.array([1] * 3 + [-1] * 5))
        sw = assign_scores(ds, KernelSpec(1.0), FuzzyParams(rho=10.0))
        assert_array_equal(sw.memberships, 1.0)
        assert_array_equal(sw.nonmemberships, 0.0)

    def test_ratio_matches_direct_counting(self):
        # eight points, rho spanning everything: mu = opposite / total exactly
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 2))
        y = np.array([1, 1, 1, -1, -1, -1, -1, -1])
        ds = Dataset("d", X, y)
        rho = 10.0  # kernel distances are bounded by sqrt(2)
        sw = assign_scores(ds, KernelSpec(1.0), FuzzyParams(rho=rho))
        theta, sigma = sw.memberships, sw.nonmemberships
        for i in range(8):
            opposite = np.sum(y != y[i])
            assert_allclose(sigma[i], (1.0 - theta[i]) * opposite / 8.0, atol=1e-12)


def score_one(theta, sigma):
    return float(score_vector(np.array([theta]), np.array([sigma]))[0])


class TestScore:
    def test_zero_nonmembership_branch(self):
        assert score_one(0.7, 0.0) == 0.7

    def test_dominated_membership_branch(self):
        assert score_one(0.2, 0.3) == 0.0

    def test_third_branch_value(self):
        assert_allclose(score_one(0.8, 0.1), 0.9 / 1.1, rtol=1e-15)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, 1, 50)
        sigma = rng.uniform(0, 1, 50) * (1 - theta)
        sigma[::7] = 0.0
        vec = score_vector(theta, sigma)
        for t, s, v in zip(theta, sigma, vec):
            assert v == score(t, s)


class TestAssignScores:
    def test_separated_clusters_scores_equal_membership(self):
        ds = two_cluster_dataset(gap=50.0)
        sw = assign_scores(ds, KernelSpec(1.0), FuzzyParams(rho=0.5))
        assert_array_equal(sw.nonmemberships, 0.0)
        assert_array_equal(sw.scores, sw.memberships)
        assert sw.s1.shape == (ds.m1,) and sw.s2.shape == (ds.m2,)

    def test_outlier_flip_decreases_score(self):
        ds = two_cluster_dataset(seed=5, n_pos=6, n_neg=10, gap=4.0)
        sw_before = assign_scores(ds, KernelSpec(1.0))
        # flip the last negative into a positive-labeled outlier
        labels = ds.labels.copy()
        flip = ds.m - 1
        labels[flip] = 1
        flipped = Dataset("flip", ds.features, labels)
        sw_after = assign_scores(flipped, KernelSpec(1.0))
        assert sw_after.scores[flip] < sw_before.scores[flip]

    def test_permutation_equivariance(self):
        ds = two_cluster_dataset(seed=6)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.m)
        shuffled = Dataset("p", ds.features[perm], ds.labels[perm])
        a = assign_scores(ds, KernelSpec(1.0), FuzzyParams(eta=0.3, rho=0.8))
        b = assign_scores(shuffled, KernelSpec(1.0), FuzzyParams(eta=0.3, rho=0.8))
        assert_allclose(b.scores, a.scores[perm], atol=1e-12)

    def test_linear_mode_uses_euclidean_geometry(self):
        ds = two_cluster_dataset(seed=7)
        sw = assign_scores(ds, None, FuzzyParams(eta=0.5, rho=1.0))
        assert np.all(sw.scores >= 0) and np.all(sw.scores <= 1)

    def test_uniform_scores_ablation(self):
        ds = two_cluster_dataset()
        sw = uniform_scores(ds)
        assert_array_equal(sw.scores, 1.0)
        assert_array_equal(sw.s1, 1.0)


@given(st.integers(0, 10_000),
       st.floats(0.05, 2.0),
       st.floats(0.1, 1.5))
@settings(max_examples=40, deadline=None)
def test_fuzzy_invariants_random(seed, eta, rho):
    rng = np.random.default_rng(seed)
    n_pos = int(rng.integers(2, 8))
    n_neg = int(rng.integers(n_pos, 20))
    X = np.vstack([rng.normal(0, 1, (n_pos, 3)), rng.normal(1.5, 1, (n_neg, 3))])
    y = np.array([1] * n_pos + [-1] * n_neg)
    ds = Dataset("h", X, y)
    kspec = KernelSpec(float(rng.uniform(0.5, 3.0))) if seed % 2 else None
    sw = assign_scores(ds, kspec, FuzzyParams(eta=eta, rho=rho))
    theta, sigma, s = sw.memberships, sw.nonmemberships, sw.scores
    assert np.all(theta > 0) and np.all(theta <= 1)
    assert np.all(sigma >= 0) and np.all(sigma <= 1 - theta + 1e-12)
    assert np.all(s >= 0) and np.all(s <= 1)
    # branch exactness
    exact_first = sigma == 0
    assert_array_equal(s[exact_first], theta[exact_first])
    dominated = (~exact_first) & (theta <= sigma)
    assert_array_equal(s[dominated], 0.0)
    # non-membership is (1 - theta) * counting ratio, bitwise
    from ifutsvm.membership import _geometry

    dists, _ = _geometry(ds, kspec)
    within = dists <= rho
    mu = (within & (y[:, None] != y[None, :])).sum(axis=1) / within.sum(axis=1)
    assert_array_equal(sigma, (1.0 - theta) * mu)
    # membership is 1 - d_i / (r + eta) over each class's centroid distances,
    # and the score composes the two degrees, bit for bit
    _, center = _geometry(ds, kspec)
    for label in (1, -1):
        d = center[y == label]
        assert_array_equal(theta[y == label], 1.0 - d / (d.max() + eta))
    assert_array_equal(s, score_vector(theta, sigma))


@given(st.integers(0, 10_000), st.integers(2, 120), st.booleans())
@settings(max_examples=40, deadline=None)
def test_default_rho_is_the_median_of_the_upper_triangle(seed, m, kernel):
    from ifutsvm.membership import _geometry, _resolve_rho

    rng = np.random.default_rng(seed)
    n_pos = int(rng.integers(1, m))
    X = rng.normal(size=(m, int(rng.integers(1, 8)))) * rng.uniform(0.1, 10.0)
    ds = Dataset("rho", X, np.array([1] * n_pos + [-1] * (m - n_pos)))
    kspec = KernelSpec(float(rng.uniform(0.2, 4.0))) if kernel else None
    dists, _ = _geometry(ds, kspec)
    expected = float(np.median(dists[np.triu_indices(m, k=1)]))
    assert _resolve_rho(dists, FuzzyParams()).hex() == expected.hex()


@pytest.mark.parametrize("odd_pairs", [False, True], ids=["even-pairs", "odd-pairs"])
@given(st.integers(0, 10_000), st.integers(0, 9), st.integers(0, 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_default_rho_equals_the_condensed_median(odd_pairs, seed, q, r, kernel):
    # the one-partition median of the square matrix against np.median of
    # squareform's condensed vector, with duplicate rows tying pair distances
    from scipy.spatial.distance import squareform

    from ifutsvm.membership import _geometry, _resolve_rho

    # m (m - 1) / 2 is odd exactly when m is 2 or 3 modulo 4
    m = 4 * q + (2 if odd_pairs else 4) + r
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(int(rng.integers(1, m + 1)), int(rng.integers(1, 6))))
    X = distinct[rng.integers(0, distinct.shape[0], size=m)]
    n_pos = int(rng.integers(1, m))
    ds = Dataset("rho", X, np.array([1] * n_pos + [-1] * (m - n_pos)))
    dists, _ = _geometry(ds, KernelSpec(float(rng.uniform(0.2, 4.0))) if kernel else None)
    assert (m * (m - 1) // 2) % 2 == odd_pairs
    expected = float(np.median(squareform(dists, checks=False)))
    assert _resolve_rho(dists, FuzzyParams()).hex() == expected.hex()


@pytest.mark.parametrize("kspec, calls", [(KernelSpec(1.0), 1), (None, 0)],
                         ids=["kernel", "linear"])
def test_one_gram_per_scoring_call(monkeypatch, kspec, calls):
    # the package re-exports a function named like the module, so fetch the module
    mod = importlib.import_module("ifutsvm.membership")
    seen = []
    real = mod.gram_values

    def counting(*args, **kwargs):
        seen.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(mod, "gram_values", counting)
    assign_scores(two_cluster_dataset(seed=8), kspec)
    assert len(seen) == calls
