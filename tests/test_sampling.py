import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ifutsvm import (
    Dataset,
    build_plan,
    generate_universum,
)


def dataset_with_counts(m1, m2, seed=0, n=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m1 + m2, n))
    y = np.array([1] * m1 + [-1] * m2)
    return Dataset("counts", X, y)


class TestUndersample:
    """build_plan's draw of m1 distinct negative rows."""

    def test_equal_classes_yield_permutation(self):
        plan = build_plan(dataset_with_counts(5, 5), seed=1)
        assert sorted(plan.x2_star_indices.tolist()) == list(range(5))

    def test_indices_distinct_and_in_range(self):
        idx = build_plan(dataset_with_counts(4, 12), seed=3).x2_star_indices
        assert idx.shape == (4,) and len(set(idx.tolist())) == 4
        assert idx.min() >= 0 and idx.max() < 12

    def test_deterministic(self):
        ds = dataset_with_counts(4, 12)
        a = build_plan(ds, seed=7).x2_star_indices
        b = build_plan(ds, seed=7).x2_star_indices
        assert_array_equal(a, b)

    def test_majority_positive_rejected(self):
        ds = Dataset("bad", np.zeros((3, 1)) + np.arange(3)[:, None],
                     np.array([1, 1, -1]))
        with pytest.raises(ValueError, match="positive class larger than negative class"):
            build_plan(ds, seed=0)


class TestGenerateUniversum:
    def test_single_pair_midpoint(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        y = np.array([1, -1])
        pts, pairs = generate_universum(Dataset("d", X, y), count=1, seed=0)
        assert_array_equal(pts, [[1.0, 1.0]])
        assert pairs.shape == (1, 2)

    def test_count_zero_empty(self):
        ds = dataset_with_counts(2, 3)
        pts, pairs = generate_universum(ds, count=0, seed=0)
        assert pts.shape == (0, 2) and pairs.shape == (0, 2)

    def test_pair_log_replay(self):
        ds = dataset_with_counts(4, 9, seed=3)
        pts, pairs = generate_universum(ds, count=20, seed=5)
        pos, neg = ds.positives(), ds.negatives()
        for row, (pi, ni) in zip(pts, pairs):
            np.testing.assert_allclose(2.0 * row - pos[pi], neg[ni], atol=1e-12)


@pytest.mark.parametrize("ds, count, message", [
    (dataset_with_counts(3, 5), -1, "count must be nonnegative"),
    (Dataset("one-class", np.zeros((4, 2)), [-1] * 4), 2, "both classes must be nonempty"),
], ids=["negative-count", "empty-class"])
def test_generate_universum_rejects(ds, count, message):
    with pytest.raises(ValueError, match=message):
        generate_universum(ds, count, seed=0)


class TestReduceUniversum:
    """build_plan's draw of ceil(m1 / 2) distinct universum rows when u >= g."""

    def test_full_size_is_permutation(self):
        # m1 = 4, m2 = 6: u = g = 2, so G* keeps every universum row
        plan = build_plan(dataset_with_counts(4, 6), seed=0)
        assert sorted(plan.universum_star_indices.tolist()) == [0, 1]

    def test_indices_distinct_and_in_range(self):
        idx = build_plan(dataset_with_counts(9, 40), seed=2).universum_star_indices
        assert idx.shape == (5,) and len(set(idx.tolist())) == 5
        assert idx.min() >= 0 and idx.max() < 31

    def test_rows_come_from_input(self):
        plan = build_plan(dataset_with_counts(7, 16, seed=1, n=3), seed=2)
        assert_array_equal(plan.universum_star,
                           plan.universum[plan.universum_star_indices])


class TestBuildPlan:
    def test_counts_follow_imbalance(self):
        plan = build_plan(dataset_with_counts(4, 10), seed=0)
        assert plan.x2_star_indices.shape == (4,)
        assert plan.universum.shape == (6, 2)
        assert plan.universum_star.shape == (2, 2)

    def test_ceiling_of_half(self):
        plan = build_plan(dataset_with_counts(5, 20), seed=0)
        assert plan.universum_star.shape[0] == 3

    def test_balanced_fallback(self):
        plan = build_plan(dataset_with_counts(6, 6), seed=0)
        assert plan.universum.shape == (0, 2)
        assert plan.universum_star.shape == (0, 2)
        assert plan.universum_star_indices.shape == (0,)

    def test_mild_imbalance_tops_up_reduced_set(self):
        # m1=8, m2=10: u=2 < g=4, so two extra averaged points are appended
        plan = build_plan(dataset_with_counts(8, 10), seed=0)
        assert plan.universum.shape == (2, 2)
        assert plan.universum_star.shape == (4, 2)
        assert_array_equal(plan.universum_star[:2], plan.universum)
        assert plan.extra_pair_log.shape == (2, 2)
        assert plan.universum_star_indices.shape == (0,)

    def test_reduced_rows_membership_in_strict_path(self):
        plan = build_plan(dataset_with_counts(6, 20), seed=4)
        for row in plan.universum_star:
            assert any(np.array_equal(row, u) for u in plan.universum)

    def test_bit_reproducible(self):
        ds = dataset_with_counts(5, 17, seed=9)
        a = build_plan(ds, seed=123)
        b = build_plan(ds, seed=123)
        for field in dataclasses.fields(a):
            assert_array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_tiny_positive_class_rejected(self):
        with pytest.raises(ValueError):
            build_plan(dataset_with_counts(1, 6), seed=0)
