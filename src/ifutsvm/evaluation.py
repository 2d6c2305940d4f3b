"""Confusion metrics, cross-validated grid search, and rank statistics.

The grid search reports its table in a fixed lattice order (c1 outermost,
then c3, cu, epsilon, width) and keeps the first best point in that order,
so model selection is reproducible.  It fits the points in another order,
width -> fold -> c3 -> (c1, cu, epsilon), so that each fold's fuzzy scores,
sampling plan and Gram blocks are prepared once per width and its dual
Hessians once per c3.  Every fit still computes the same bits as a
standalone fit, so the table does not depend on that order.  Rank
aggregation uses average ranks with tie averaging (best accuracy = rank 1)
and feeds the Friedman chi-square, its F-form correction, and the Nemenyi
critical difference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import Dataset, DatasetError
from .kernels import KernelSpec
from .membership import FuzzyParams
from .models import (MODEL_KINDS, FitStages, Hyperparams, TrainingError, fit_ifutsvm_id,
                     fit_utsvm, predict)
from .qp import NumericalError
from .sampling import generate_universum
from .seeds import mix_seed


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    """Count prediction outcomes; +1 is the positive class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must have equal length")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == -1))),
        fp=int(np.sum((y_true == -1) & (y_pred == 1))),
        tn=int(np.sum((y_true == -1) & (y_pred == -1))),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Standard rates; a rate whose denominator is zero is None, never 0."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None


def _rate(num: int, den: int) -> float | None:
    return num / den if den else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    return MetricsReport(
        accuracy=_rate(cm.tp + cm.tn, cm.total),
        sensitivity=_rate(cm.tp, cm.tp + cm.fn),
        specificity=_rate(cm.tn, cm.tn + cm.fp),
        precision=_rate(cm.tp, cm.tp + cm.fp),
    )


# ---------------------------------------------------------------------------
# cross-validated grid search

# published search ranges: penalties over 10^-5..10^5, tube over four values,
# Gaussian widths over 2^-5..2^5
PENALTY_RANGE = tuple(10.0**k for k in range(-5, 6))
EPSILON_RANGE = (0.1, 0.3, 0.5, 0.6)
WIDTH_RANGE = tuple(2.0**k for k in range(-5, 6))


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter lattice; c2 is tied to c1 and c4 to c3 when expanded."""

    c1: tuple = PENALTY_RANGE
    c3: tuple = PENALTY_RANGE
    cu: tuple = PENALTY_RANGE
    epsilon: tuple = EPSILON_RANGE
    width: tuple | None = WIDTH_RANGE  # None -> linear models
    fuzzy: FuzzyParams = FuzzyParams()

    def __post_init__(self):
        # each axis value must pass the Hyperparams/KernelSpec checks on its own,
        # with the other settings held at valid values
        valid = {"c1": 1.0, "c3": 1.0, "cu": 1.0, "epsilon": 0.1, "width": None}
        for name, values in zip(valid, self.axes()):
            if not values:
                raise ValueError(f"grid axis {name} is empty")
            for value in values:
                make_hyperparams(**{**valid, name: value})

    def axes(self) -> tuple[list, ...]:
        """Sorted (c1, c3, cu, epsilon, width) values; the lattice is their product."""
        widths = sorted(self.width) if self.width is not None else [None]
        return (sorted(self.c1), sorted(self.c3), sorted(self.cu), sorted(self.epsilon),
                widths)

    def size(self) -> int:
        w = len(self.width) if self.width is not None else 1
        return len(self.c1) * len(self.c3) * len(self.cu) * len(self.epsilon) * w


def make_hyperparams(c1: float, c3: float, cu: float, epsilon: float,
                     width: float | None, fuzzy: FuzzyParams = FuzzyParams(),
                     seed: int = 0, delta: float | None = None) -> Hyperparams:
    kernel = KernelSpec(width) if width is not None else None
    return Hyperparams(c1=c1, c2=c1, c3=c3, c4=c3, cu=cu, epsilon=epsilon,
                       kernel=kernel, delta=delta, fuzzy=fuzzy, seed=seed)


def stratified_kfold(ds: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded stratified folds: per-class shuffle, round-robin assignment.

    Returns (train_idx, val_idx) pairs into the dataset rows.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(ds.m, dtype=np.int64)
    for label in (1, -1):
        idx = np.flatnonzero(ds.labels == label)
        perm = rng.permutation(idx.size)
        assignment[idx[perm]] = np.arange(idx.size) % k
    folds = []
    for fold in range(k):
        val = np.flatnonzero(assignment == fold)
        train = np.flatnonzero(assignment != fold)
        folds.append((train, val))
    return folds


def fit_model(kind: str, train: Dataset, hp: Hyperparams, *,
              universum_seed: int | None = None, stages: FitStages | None = None):
    """Train one model of the requested kind.

    For the UTSVM baseline the universum is generated here by random
    averaging, m2 - m1 points, from its own seed stream.  `stages` is an
    internal memo that consecutive fits share (see models.FitStages).
    """
    if kind == "ifutsvm-id":
        return fit_ifutsvm_id(train, hp, stages=stages)
    if kind == "utsvm":
        count = train.m2 - train.m1
        seed = universum_seed if universum_seed is not None else mix_seed(hp.seed, "universum")
        univ, _ = generate_universum(train, count, seed)
        return fit_utsvm(train, univ, hp, stages=stages)
    raise ValueError(f"unknown model kind: {kind!r}")


def _subset(ds: Dataset, idx: np.ndarray, tag: str) -> Dataset:
    return Dataset(f"{ds.name}/{tag}", ds.features[idx], ds.labels[idx])


def _fold_score(kind: str, j: int, tr: Dataset, va: Dataset, hp: Hyperparams,
                stages: FitStages) -> tuple[float, str | None]:
    """Validation accuracy of one fold fit (NaN if it failed) and its flag."""
    if tr.m1 == 0 or tr.m2 == 0:
        return np.nan, f"fold{j}:single-class"
    try:
        model = fit_model(kind, tr, hp, stages=stages)
    except (NumericalError, TrainingError) as exc:
        return np.nan, f"fold{j}:{type(exc).__name__}"
    flag = None
    if model.dual_report is not None and model.dual_report.balanced_fallback:
        flag = f"fold{j}:balanced-fallback"
    return float(np.mean(predict(model, va.features) == va.labels)), flag


def grid_search_cv(train: Dataset, kind: str, grid: GridSpec, k: int,
                   seed: int) -> tuple[Hyperparams, list[dict]]:
    """Mean CV accuracy per lattice point; argmax with first-in-lattice ties.

    Folds that cannot be trained (single-class training part, solver failure)
    score NaN and are flagged; a point's mean ignores NaN folds.  Points whose
    folds all fail are never selected.

    The table rows follow the lattice order of `GridSpec.axes` (c1 outermost,
    width innermost) and ties go to the first row.  The fits run width ->
    fold -> c3 -> (c1, cu, epsilon) instead, sharing one stage memo: each
    (fold, width) preparation (scores, sampling plan, Gram blocks, universum)
    is built once and each (fold, width, c3) pair of dual Hessians is formed
    once, and only the current ones are kept.  Every fold fit is still one
    call to `fit_model` and computes the same bits as a standalone fit.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    if min(train.m1, train.m2) < k:
        raise ValueError("each class needs at least k samples for k folds")
    folds = stratified_kfold(train, k, mix_seed(seed, "folds"))
    fold_sets = [( _subset(train, tr, f"cv{j}t"), _subset(train, va, f"cv{j}v"))
                 for j, (tr, va) in enumerate(folds)]
    fold_seeds = [mix_seed(seed, "fit", j) for j in range(k)]

    axes = grid.axes()
    shape = tuple(len(axis) for axis in axes)
    accs = np.full((*shape, k), np.nan)
    flags: dict[tuple, str] = {}
    stages = FitStages()
    n1, n3, nu, ne, nw = shape
    for iw, j, i3, i1, iu, ie in np.ndindex(nw, k, n3, n1, nu, ne):
        point = (i1, i3, iu, ie, iw)
        c1, c3, cu, eps, width = (axis[i] for axis, i in zip(axes, point))
        hp = make_hyperparams(c1, c3, cu, eps, width, grid.fuzzy, seed=fold_seeds[j])
        tr, va = fold_sets[j]
        accs[(*point, j)], flag = _fold_score(kind, j, tr, va, hp, stages)
        if flag is not None:
            flags[point, j] = flag

    table: list[dict] = []
    best_row = None
    best_hp = None
    for point in np.ndindex(shape):
        c1, c3, cu, eps, width = (axis[i] for axis, i in zip(axes, point))
        fold_accs = accs[point]
        mean = float(np.nanmean(fold_accs)) if np.any(~np.isnan(fold_accs)) else float("-inf")
        row = {
            "c1": c1, "c3": c3, "cu": cu, "epsilon": eps, "width": width,
            "mean_accuracy": mean,
            "fold_accuracies": [None if np.isnan(a) else float(a) for a in fold_accs],
            "flags": [flags[point, j] for j in range(k) if (point, j) in flags],
        }
        table.append(row)
        if best_row is None or mean > best_row["mean_accuracy"]:
            best_row = row
            best_hp = make_hyperparams(c1, c3, cu, eps, width, grid.fuzzy,
                                       seed=mix_seed(seed, "refit"))
    return best_hp, table


# ---------------------------------------------------------------------------
# rank statistics


@dataclass(frozen=True)
class RankTable:
    """Per-dataset ranks of each model (1 = best accuracy, ties averaged)."""

    ranks: np.ndarray
    average_ranks: np.ndarray


def average_ranks(accuracies: np.ndarray) -> RankTable:
    """Rank each row, 1 = highest accuracy; a run of t tied entries shares the
    mean of its t ranks: 1 + (#better) + (t - 1) / 2."""
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 2 or acc.shape[0] < 1 or acc.shape[1] < 2:
        raise ValueError("need an N x p accuracy matrix with p >= 2")
    if np.any(np.isnan(acc)):
        raise ValueError("accuracy matrix contains NaN")
    others, own = acc[:, None, :], acc[:, :, None]
    better = (others > own).sum(axis=2)
    tied = (others == own).sum(axis=2)
    ranks = 1.0 + better + (tied - 1) / 2.0
    return RankTable(ranks, ranks.mean(axis=0))


@dataclass(frozen=True)
class FriedmanResult:
    chi_sq: float
    f_stat: float | None  # None when the correction's denominator vanishes


def friedman(avg_ranks: np.ndarray, N: int, p: int) -> FriedmanResult:
    """Friedman chi-square over average ranks, plus the F-form correction."""
    R = np.asarray(avg_ranks, dtype=np.float64)
    if p < 2 or N < 2:
        raise ValueError("need p >= 2 models and N >= 2 datasets")
    if R.shape != (p,):
        raise ValueError("average ranks must have length p")
    if np.any(R < 1.0) or np.any(R > p):
        raise ValueError("average ranks must lie in [1, p]")
    chi_sq = 12.0 * N / (p * (p + 1)) * (float(np.sum(R**2)) - p * (p + 1) ** 2 / 4.0)
    denom = N * (p - 1) - chi_sq
    f_stat = (N - 1) * chi_sq / denom if denom > 0 else None
    return FriedmanResult(chi_sq, f_stat)


def nemenyi_cd(p: int, N: int, q_alpha: float) -> float:
    """Critical difference q_alpha * sqrt(p (p+1) / (6 N))."""
    if p <= 0 or N <= 0 or q_alpha < 0:
        raise ValueError("arguments must be positive (q_alpha nonnegative)")
    return q_alpha * float(np.sqrt(p * (p + 1) / (6.0 * N)))


def pairwise_significance(avg_ranks: np.ndarray, cd: float) -> np.ndarray:
    """Boolean matrix: |R_i - R_j| > cd."""
    R = np.asarray(avg_ranks, dtype=np.float64)
    return np.abs(R[:, None] - R[None, :]) > cd


def read_accuracy_matrix(path) -> tuple[list[str], list[str], np.ndarray]:
    """CSV with a header row naming the models and one row per dataset.

    Returns (dataset names, model names, accuracy matrix); raises DatasetError
    on a missing header, a row of the wrong length or a non-numeric or
    non-finite value.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 3:
        raise DatasetError("accuracy matrix needs a header and at least 2 columns")
    models = rows[0][1:]
    names, data = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(models) + 1:
            raise DatasetError(f"line {lineno}: expected {len(models) + 1} fields")
        names.append(row[0])
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise DatasetError(f"line {lineno}: accuracies must be finite numbers")
        data.append(values)
    return names, models, np.asarray(data)


def load_benchmark_matrix() -> tuple[list[str], list[str], np.ndarray]:
    """Bundled 46-dataset KEEL accuracy table of the six published classifiers.

    Returns (dataset names, model names, accuracy matrix in percent).
    """
    ref = resources.files("ifutsvm.resources") / "keel_benchmark_accuracies.csv"
    with resources.as_file(ref) as path:
        return read_accuracy_matrix(path)
