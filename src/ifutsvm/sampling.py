"""Undersampling and universum construction for imbalanced twin-SVM training.

The plan built here pairs an undersampled majority subset (one negative row
per positive sample) with a universum set generated by random averaging of
cross-class pairs, plus a reduced universum subset used by the minority-class
plane.  `build_plan` makes every random draw of the plan; the sub-seeds of
its streams are derived from the master seed by fixed offsets so the streams
are independently reproducible, and the plan records each draw once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

# master-seed offsets: undersampling, pair averaging, subset reduction,
# top-up pairs for the mildly imbalanced regime
_OFF_UNDERSAMPLE = 0
_OFF_PAIRS = 1
_OFF_REDUCE = 2
_OFF_EXTRA = 3


@dataclass(frozen=True)
class SamplingPlan:
    """Materialized sampling decisions for one training run.

    x2_star_indices picks m1 distinct rows of the negative class; universum
    holds the m2 - m1 averaged points with their source pair indices
    (positive idx, negative idx) in pair_log; universum_star holds the
    ceil(m1 / 2) rows used by the minority plane.  Those are the universum
    rows at universum_star_indices or, when the universum has fewer rows, the
    whole universum followed by the averaged points of extra_pair_log (and
    universum_star_indices is empty).  Balanced classes (m1 == m2) leave the
    universum and universum_star empty.
    """

    x2_star_indices: np.ndarray
    universum: np.ndarray
    universum_star: np.ndarray
    pair_log: np.ndarray
    extra_pair_log: np.ndarray
    universum_star_indices: np.ndarray


def generate_universum(ds: Dataset, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random averaging: each row is the midpoint of a random (+, -) sample pair.

    Returns the points and a (count, 2) log of the source indices (into the
    positive and negative class respectively).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    pos, neg = ds.positives(), ds.negatives()
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("both classes must be nonempty")
    rng = np.random.default_rng(seed)
    pi = rng.integers(0, pos.shape[0], size=count)
    ni = rng.integers(0, neg.shape[0], size=count)
    points = 0.5 * (pos[pi] + neg[ni]).reshape(count, ds.n)
    return points, np.column_stack([pi, ni]).astype(np.int64)


def build_plan(ds: Dataset, seed: int) -> SamplingPlan:
    """Construct the full sampling plan for one fit.

    m1 distinct negative rows are drawn uniformly without replacement.  With
    u = m2 - m1 and g = ceil(m1 / 2): the universum gets u averaged points and
    the reduced set g of them, drawn without replacement.  When 0 < u < g,
    extra averaged points (from a separate seed stream) top the reduced set up
    to g rows.  When the classes are balanced (u = 0) no universum is
    generated, so training degrades to a weighted twin SVM.
    """
    if ds.m1 < 2:
        raise ValueError("positive class needs at least 2 samples")
    if ds.m1 > ds.m2:
        raise ValueError("positive class larger than negative class")
    x2_idx = np.random.default_rng(seed + _OFF_UNDERSAMPLE).choice(ds.m2, size=ds.m1,
                                                                    replace=False)
    u, g = ds.m2 - ds.m1, math.ceil(ds.m1 / 2)
    no_pairs, none_kept = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    if u == 0:
        empty = np.zeros((0, ds.n))
        return SamplingPlan(x2_idx, empty, empty, no_pairs, no_pairs, none_kept)
    universum, pairs = generate_universum(ds, u, seed + _OFF_PAIRS)
    if u >= g:
        kept = np.random.default_rng(seed + _OFF_REDUCE).choice(u, size=g, replace=False)
        return SamplingPlan(x2_idx, universum, universum[kept], pairs, no_pairs, kept)
    extra, extra_pairs = generate_universum(ds, g - u, seed + _OFF_EXTRA)
    return SamplingPlan(x2_idx, universum, np.vstack([universum, extra]), pairs,
                        extra_pairs, none_kept)
