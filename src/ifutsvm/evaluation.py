"""Confusion metrics, cross-validated grid search, and rank statistics.

The grid search reports its table in a fixed lattice order (AXES: c1
outermost, then c3, cu, epsilon, width) and keeps the first best point in
that order, so model selection is reproducible; the order in which it fits
the points, and what each fit reuses, is told in `grid_search_cv`.  Every fit
computes the same bits as a standalone fit, so the table does not depend on
that order.  Rank aggregation uses average ranks with tie averaging (best
accuracy = rank 1) and feeds the Friedman chi-square, its F-form correction,
and the Nemenyi critical difference; both critical values are the alpha =
0.05 ones for the number of models and datasets (Demsar, JMLR 2006).
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
# predict is not called here: it stays importable for perfbench's evaluation.predict
from .models import (MODEL_KINDS, FitStages, Hyperparams, TrainingError, fit_ifutsvm_id,
                     fit_utsvm, map_rows, mapped_labels, predict)
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

# the lattice axes in table order, c1 outermost; c2 is tied to c1 and c4 to c3
AXES = ("c1", "c3", "cu", "epsilon", "width")


def repeated_values(values) -> list:
    """The values that occur more than once, sorted."""
    values = list(values)
    return sorted({v for v in values if values.count(v) > 1})


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter lattice over AXES; a None width is the linear model."""

    c1: tuple = PENALTY_RANGE
    c3: tuple = PENALTY_RANGE
    cu: tuple = PENALTY_RANGE
    epsilon: tuple = EPSILON_RANGE
    width: tuple | None = WIDTH_RANGE
    fuzzy: FuzzyParams = FuzzyParams()

    def __post_init__(self):
        if self.width is not None and None in self.width:
            raise ValueError("grid axis width holds None: width=None is the linear model, "
                             "otherwise give a tuple of kernel widths")
        # each axis value must pass the Hyperparams/KernelSpec checks on its own,
        # with the other axes at make_hyperparams' defaults
        for name, values in zip(AXES, self.axes()):
            if not values:
                raise ValueError(f"grid axis {name} is empty")
            for value in values:
                make_hyperparams(**{name: value})
            # a repeated value would fit the same lattice point twice
            if repeated := repeated_values(values):
                raise ValueError(f"grid axis {name} repeats {', '.join(map(str, repeated))}")

    def axes(self) -> tuple[list, ...]:
        """Sorted values of each axis in AXES order; the lattice is their product."""
        return tuple([None] if values is None else sorted(values)
                     for values in (getattr(self, name) for name in AXES))

    def size(self) -> int:
        return math.prod(map(len, self.axes()))


def make_hyperparams(c1: float = 1.0, c3: float = 1.0, cu: float = 1.0,
                     epsilon: float = 0.1, width: float | None = None,
                     fuzzy: FuzzyParams = FuzzyParams(), seed: int = 0,
                     delta: float | None = None) -> Hyperparams:
    """One lattice point, c2 = c1 and c4 = c3; the defaults are [train]'s."""
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


def fit_model(kind: str, train: Dataset, hp: Hyperparams, *, stages: FitStages | None = None):
    """Train one model of the requested kind.

    For the UTSVM baseline the universum is generated here by random
    averaging, m2 - m1 points, from the seed stream mix_seed(hp.seed,
    "universum"); fold fits and refits alike draw it there.  `stages` is an
    internal memo that consecutive fits share (see models.FitStages).
    """
    if kind == "ifutsvm-id":
        return fit_ifutsvm_id(train, hp, stages=stages)
    if kind == "utsvm":
        univ, _ = generate_universum(train, train.m2 - train.m1, mix_seed(hp.seed, "universum"))
        return fit_utsvm(train, univ, hp, stages=stages)
    raise ValueError(f"unknown model kind: {kind!r}")


def selected_row(table: list[dict]) -> dict:
    """The row a search selects: the first with the highest mean_accuracy.

    Raises TrainingError when no row trained on any fold (every mean is
    -inf), naming the causes the folds were flagged with.
    """
    best = max(table, key=lambda row: row["mean_accuracy"])  # the first of equal rows
    if best["mean_accuracy"] == -np.inf:
        causes = sorted({flag.split(":", 1)[1] for row in table for flag in row["flags"]})
        raise TrainingError(f"no lattice point of {len(table)} trained on any fold: every "
                            f"fold fit failed ({', '.join(causes)})")
    return best


def grid_search_cv(train: Dataset, kind: str, grid: GridSpec, k: int,
                   seed: int) -> tuple[Hyperparams, list[dict]]:
    """Mean CV accuracy per lattice point; argmax with first-in-lattice ties.

    Folds that cannot be trained (solver failure, degenerate plane) score NaN
    and are flagged; a point's mean ignores NaN folds, and a point whose folds
    all fail has mean -inf and is never selected.  A search in which no point
    trained on any fold raises TrainingError (see `selected_row`): no CV
    accuracy backs any point, so refitting one would only look like a result.

    The table rows follow the lattice order of `GridSpec.axes` (c1 outermost,
    width innermost), each keyed by the AXES names, and ties go to the first
    row.  The fits run as a loop nest instead: the outer loop walks the
    (width, fold) slabs, and each slab fits its points c3 -> c1 -> (cu,
    epsilon) through its own stage memo.  So a slab builds its preparation
    (scores, sampling plan, Gram blocks, universum) once and forms each c3's
    pair of dual Hessians once, and IFUTSVM-ID's plane-2 class-row dual, which
    reads neither cu nor epsilon (see models), is solved once per (c3, c1):
    its (cu, epsilon) points solve plane 1 each, and plane 2's full dual only
    where its universum binds.  A fold whose minority scores all collapse to
    zero fails before any Hessian (see models).  A slab maps its validation
    rows once, at its first point that trains.  A training part is a
    `Dataset.take` of `train`, so linear-mode scores read their pairwise
    distances as blocks of `train`'s one matrix.  UTSVM reads neither c3 nor
    c4, so it fits the first c3 only and every other c3 row repeats that
    row's folds.  Every fold fit is still one call to `fit_model` and
    computes the same bits as a standalone fit.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {kind!r}")
    if min(train.m1, train.m2) < k:
        raise ValueError("each class needs at least k samples for k folds")
    folds = stratified_kfold(train, k, mix_seed(seed, "folds"))

    axes = grid.axes()
    shape = tuple(len(axis) for axis in axes)
    accs = np.full((*shape, k), np.nan)
    flags: dict[tuple, str] = {}
    n1, n3, nu, ne, nw = shape
    fitted_c3 = 1 if kind == "utsvm" else n3
    for iw, j in np.ndindex(nw, k):
        tr_idx, va_idx = folds[j]
        tr = train.take(tr_idx, f"{train.name}/cv{j}t")
        va = train.take(va_idx, f"{train.name}/cv{j}v")
        fit_seed = mix_seed(seed, "fit", j)
        stages, mapped = FitStages(), None  # the slab's stage memo and validation map
        for i3, i1, iu, ie in np.ndindex(fitted_c3, n1, nu, ne):
            point = (i1, i3, iu, ie, iw)
            values = {name: axis[i] for name, axis, i in zip(AXES, axes, point)}
            hp = make_hyperparams(**values, fuzzy=grid.fuzzy, seed=fit_seed)
            try:
                model = fit_model(kind, tr, hp, stages=stages)
            except (NumericalError, TrainingError) as exc:
                flags[point, j] = f"fold{j}:{type(exc).__name__}"
                continue
            if model.dual_report.balanced_fallback:
                flags[point, j] = f"fold{j}:balanced-fallback"
            if mapped is None:
                mapped = map_rows(model, va.features)
            accs[(*point, j)] = np.mean(mapped_labels(model, mapped) == va.labels)

    table: list[dict] = []
    for point in np.ndindex(shape):
        values = {name: axis[i] for name, axis, i in zip(AXES, axes, point)}
        fitted = (point[0], 0, *point[2:]) if kind == "utsvm" else point
        fold_accs = accs[fitted]
        mean = float(np.nanmean(fold_accs)) if np.any(~np.isnan(fold_accs)) else float("-inf")
        table.append({
            **values,
            "mean_accuracy": mean,
            "fold_accuracies": [None if np.isnan(a) else float(a) for a in fold_accs],
            "flags": [flags[fitted, j] for j in range(k) if (fitted, j) in flags],
        })
    best = selected_row(table)
    best_hp = make_hyperparams(**{name: best[name] for name in AXES}, fuzzy=grid.fuzzy,
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


# two-tailed Nemenyi critical values q at alpha = 0.05, by number of models
# (Demsar, JMLR 2006, Table 5a)
NEMENYI_Q = {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
             9: 3.102, 10: 3.164}


def friedman_f_critical(p: int, N: int) -> float:
    """The alpha = 0.05 critical value F(p - 1, (p - 1)(N - 1)) of the F form,
    for p >= 2 models and N >= 2 datasets."""
    from scipy.special import fdtri  # only a statistics block loads scipy.special

    return float(fdtri(p - 1, (p - 1) * (N - 1), 0.95))


def nemenyi_q(p: int) -> float:
    """The tabulated alpha = 0.05 Nemenyi q for p models; ValueError outside
    2 to 10 models."""
    if p not in NEMENYI_Q:
        raise ValueError(f"the Nemenyi q is tabulated for 2 to {max(NEMENYI_Q)} models, "
                         f"not {p}")
    return NEMENYI_Q[p]


def nemenyi_cd(p: int, N: int) -> float:
    """Critical difference q_alpha * sqrt(p (p+1) / (6 N)) at alpha = 0.05,
    with q_alpha = `nemenyi_q(p)`."""
    q_alpha = nemenyi_q(p)
    if N <= 0:
        raise ValueError("the number of datasets must be positive")
    return q_alpha * float(np.sqrt(p * (p + 1) / (6.0 * N)))


def pairwise_significance(avg_ranks: np.ndarray, cd: float) -> np.ndarray:
    """Boolean matrix: |R_i - R_j| > cd."""
    R = np.asarray(avg_ranks, dtype=np.float64)
    return np.abs(R[:, None] - R[None, :]) > cd


def read_accuracy_matrix(path) -> tuple[list[str], list[str], np.ndarray]:
    """CSV with a header row naming the models and one row per dataset.

    Returns (dataset names, model names, accuracy matrix); raises DatasetError
    on a file that is not valid UTF-8, a missing header, a row of the wrong
    length, a non-numeric or non-finite value, or an empty or repeated dataset
    or model name.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"accuracy matrix is not valid UTF-8: {exc}") from None
    if len(rows) < 2 or len(rows[0]) < 3:
        raise DatasetError("accuracy matrix needs a header and at least 2 columns")
    models = rows[0][1:]
    if not all(name.strip() for name in models):
        raise DatasetError("line 1: empty model name")
    names, data = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(models) + 1:
            raise DatasetError(f"line {lineno}: expected {len(models) + 1} fields")
        if not row[0].strip():
            raise DatasetError(f"line {lineno}: empty dataset name")
        names.append(row[0])
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise DatasetError(f"line {lineno}: accuracies must be finite numbers")
        data.append(values)
    # a repeated dataset would be ranked twice and a repeated model reported twice
    for what, labels in (("dataset", names), ("model", models)):
        if repeated := repeated_values(labels):
            raise DatasetError(f"repeated {what} name: {', '.join(repeated)}")
    return names, models, np.asarray(data)


def load_benchmark_matrix() -> tuple[list[str], list[str], np.ndarray]:
    """Bundled 46-dataset KEEL accuracy table of the six published classifiers.

    Returns (dataset names, model names, accuracy matrix in percent).
    """
    ref = resources.files("ifutsvm.resources") / "keel_benchmark_accuracies.csv"
    with resources.as_file(ref) as path:
        return read_accuracy_matrix(path)
