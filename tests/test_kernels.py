import numpy as np
import pytest
from numpy.testing import assert_allclose

from ifutsvm import Dataset, FuzzyParams, KernelSpec, assign_scores, gram_values
from ifutsvm.membership import _geometry

from oracle_utils import gaussian


def with_far_class(cls):
    """Dataset with cls as its +1 class and a far-away -1 class."""
    far = np.full((2, cls.shape[1]), 1e3)
    return Dataset("c", np.vstack([cls, far]), np.array([1] * len(cls) + [-1, -1]))


def member_centroid_dists(cls, spec):
    """Kernel-space distance from each member of cls to the centroid of cls."""
    return _geometry(with_far_class(cls), spec)[1][:len(cls)]


def brute_centroid_dist(x, cls, spec):
    k_xc = np.mean([gaussian(x, c, spec) for c in cls])
    k_cc = np.mean([[gaussian(a, b, spec) for b in cls] for a in cls])
    return np.sqrt(max(1.0 - 2.0 * k_xc + k_cc, 0.0))


def class_memberships(cls, spec, eta):
    """Memberships of cls as the +1 class of a dataset with a far-away -1 class."""
    return assign_scores(with_far_class(cls), spec, FuzzyParams(eta=eta)).memberships[:len(cls)]


def test_kernel_spec_requires_positive_width():
    with pytest.raises(ValueError):
        KernelSpec(0.0)


@pytest.mark.parametrize("width", [np.inf, np.nan, 1e200, 1.5e154, 1e-200])
def test_kernel_spec_requires_finite_width(width):
    # an infinite width would make every kernel value 1; gram_values divides
    # by 2 width^2, which overflows for the next two and underflows to 0 for the last
    with pytest.raises(ValueError, match="finite"):
        KernelSpec(width)


@pytest.mark.parametrize("width", [1e150, 1e-150])
def test_extreme_widths_inside_float_range_keep_unit_diagonal(width):
    A = np.array([[0.0, 1.0], [2.0, -1.0]])
    assert np.all(np.diag(gram_values(A, A, KernelSpec(width))) == 1.0)


class TestGaussian:
    """Single kernel values, as 1 x 1 Gram matrices."""

    def test_zero_distance_is_one(self):
        x = np.array([[0.3, -1.2, 4.0]])
        for width in (0.1, 1.0, 32.0):
            K = gram_values(x, x, KernelSpec(width))
            assert K.shape == (1, 1) and K[0, 0] == 1.0

    def test_unit_distance_value(self):
        val = gram_values(np.array([[0.0]]), np.array([[1.0]]), KernelSpec(1.0))[0, 0]
        assert_allclose(val, np.exp(-0.5))
        assert_allclose(val, 0.6065307, atol=1e-7)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(0)
        spec = KernelSpec(1.7)
        for _ in range(100):
            p, q = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
            assert gram_values(p, q, spec)[0, 0] == gram_values(q, p, spec)[0, 0]
        A, B = rng.normal(size=(9, 4)), rng.normal(size=(6, 4))
        assert np.array_equal(gram_values(A, B, spec), gram_values(B, A, spec).T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram_values(np.zeros((1, 2)), np.zeros((1, 3)), KernelSpec(1.0))


class TestGram:
    def test_self_gram_unit_diagonal(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(7, 3))
        K = gram_values(A, A, KernelSpec(0.9))
        assert_allclose(np.diag(K), 1.0)

    def test_duplicate_rows_all_ones(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        K = gram_values(A, A, KernelSpec(1.0))
        assert_allclose(K, 1.0)

    def test_rectangular_matches_entrywise(self):
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        spec = KernelSpec(1.3)
        K = gram_values(A, B, spec)
        assert K.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert_allclose(K[i, j], gaussian(A[i], B[j], spec), rtol=1e-12)

    @pytest.mark.parametrize("width", [2.0**k for k in range(-5, 6)])
    def test_self_gram_symmetric_and_psd(self, width):
        # data spread scales with the width so exp() stays above the f64
        # underflow threshold and strict positivity is observable
        rng = np.random.default_rng(3)
        A = width * rng.normal(size=(20, 4))
        K = gram_values(A, A, KernelSpec(width))
        assert np.max(np.abs(K - K.T)) <= 1e-12
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-8 * K.shape[0]
        assert np.all(K > 0.0) and np.all(K <= 1.0)


class TestCentroidDistance:
    def test_single_member_class_is_zero(self):
        x = np.array([[1.0, 2.0]])
        assert member_centroid_dists(x, KernelSpec(1.0))[0] == 0.0

    def test_two_member_class_is_half_the_pairwise_distance(self):
        # psi(x) - (psi(x) + psi(y)) / 2 = (psi(x) - psi(y)) / 2
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=3), rng.normal(size=3)
        spec = KernelSpec(1.1)
        expected = np.sqrt(2.0 - 2.0 * gaussian(x, y, spec)) / 2.0
        assert_allclose(member_centroid_dists(np.stack([x, y]), spec), expected, rtol=1e-12)

    def test_empty_class_rejected(self):
        # the fuzzy geometry refuses an empty class before any distance is taken
        ds = Dataset("d", np.zeros((2, 2)) + np.arange(2)[:, None], np.array([1, 1]))
        with pytest.raises(ValueError, match="empty"):
            assign_scores(ds, KernelSpec(1.0))


class TestClassRadius:
    def test_singleton_and_duplicates_are_zero(self):
        # radius 0 leaves every member at full membership, whatever eta is
        spec = KernelSpec(1.0)
        assert class_memberships(np.array([[1.0, 2.0]]), spec, 1e-9)[0] == 1.0
        dup = class_memberships(np.array([[1.0, 2.0], [1.0, 2.0]]), spec, 1e-9)
        assert np.all(dup == 1.0)

    def test_equals_brute_force_member_max(self):
        # the radius is the largest member distance: the farthest member
        # scores eta / (r + eta)
        rng = np.random.default_rng(6)
        spec = KernelSpec(1.4)
        eta = 0.5
        for _ in range(5):
            cls = rng.normal(size=(rng.integers(2, 50), 3))
            r = max(brute_centroid_dist(m, cls, spec) for m in cls)
            theta = class_memberships(cls, spec, eta)
            assert_allclose(theta.min(), eta / (r + eta), rtol=1e-12)

    def test_batch_distances_match_singles(self):
        # one Gram matrix serves every member and the pairwise distances;
        # each must equal its own brute-force kernel sum
        rng = np.random.default_rng(7)
        spec = KernelSpec(1.0)
        cls = rng.normal(size=(12, 2))
        dists, center = _geometry(with_far_class(cls), spec)
        assert_allclose(center[:12], [brute_centroid_dist(q, cls, spec) for q in cls],
                        atol=1e-12)
        pairwise = [[np.sqrt(max(2.0 - 2.0 * gaussian(p, q, spec), 0.0)) for q in cls]
                    for p in cls]
        assert_allclose(dists[:12, :12], pairwise, atol=1e-12)
