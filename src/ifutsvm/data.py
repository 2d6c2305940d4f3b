"""Binary classification datasets with a minority-positive label convention.

Class tokens are re-encoded so the less frequent token becomes +1 (ties go to
the lexicographically smaller token), which keeps the +1 class the minority
(or equal) class everywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    """Base class for dataset construction and transformation errors."""


class ParseError(DatasetError):
    """Malformed dataset file content."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidDatasetError(DatasetError):
    """Structurally invalid dataset (empty, single-class, ...)."""


class SplitError(DatasetError):
    """A requested split would leave a class without train or test samples."""


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus {+1, -1} labels; +1 is the minority class after encoding.

    Immutable after construction: the arrays are marked read-only so instances
    can be shared freely across workers.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] < 1:
            raise InvalidDatasetError("features must be a 2-D matrix with >= 1 column")
        if labels.shape != (features.shape[0],):
            raise InvalidDatasetError("labels must be one per feature row")
        if not np.all(np.abs(labels) == 1):
            raise InvalidDatasetError("labels must be +1 or -1")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def m1(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def m2(self) -> int:
        return int(np.sum(self.labels == -1))

    def positives(self) -> np.ndarray:
        return self.features[self.labels == 1]

    def negatives(self) -> np.ndarray:
        return self.features[self.labels == -1]


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption level: flip round(fraction * m) labels, seeded."""

    fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 0.5:
            raise ValueError("noise fraction must lie in [0, 0.5]")


def encode_labels(tokens: list[str]) -> np.ndarray:
    """Map raw class tokens to {+1, -1}: minority token -> +1, ties by lexicographic order."""
    distinct = sorted(set(tokens))
    if len(distinct) != 2:
        raise InvalidDatasetError(
            f"expected exactly 2 distinct class tokens, found {len(distinct)}"
        )
    a, b = distinct  # a < b lexicographically
    counts = {a: tokens.count(a), b: tokens.count(b)}
    positive = a if counts[a] <= counts[b] else b
    return np.array([1 if t == positive else -1 for t in tokens], dtype=np.int64)


def _parse_row(line: str, lineno: int, arity: int | None):
    fields = [f.strip() for f in line.split(",")]
    if arity is not None and len(fields) != arity:
        raise ParseError(f"expected {arity} fields, found {len(fields)}", lineno)
    if len(fields) < 2:
        raise ParseError("row needs at least one feature and a class token", lineno)
    try:
        values = [float(f) for f in fields[:-1]]
    except ValueError as exc:
        raise ParseError(f"non-numeric feature value: {exc}", lineno) from None
    for token, value in zip(fields, values):
        if not math.isfinite(value):
            raise ParseError(f"non-finite feature value {token!r}", lineno)
    return values, fields[-1]


def parse_keel(text: str, name: str = "dataset") -> Dataset:
    """Parse a KEEL '.dat' file: '@' metadata lines, an '@data' sentinel, CSV rows.

    Attribute declarations are treated permissively (names ignored); only row
    arity is enforced, against the first data row.
    """
    rows, tokens = [], []
    arity = None
    in_data = False
    saw_sentinel = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("@"):
            if line.lower().startswith("@data"):
                in_data = True
                saw_sentinel = True
            continue
        if not in_data:
            raise ParseError("data row before '@data' sentinel", lineno)
        values, token = _parse_row(line, lineno, arity)
        arity = arity if arity is not None else len(values) + 1
        rows.append(values)
        tokens.append(token)
    if not saw_sentinel:
        raise ParseError("missing '@data' sentinel")
    if not rows:
        raise InvalidDatasetError("empty '@data' section")
    labels = encode_labels(tokens)
    return Dataset(name, np.array(rows, dtype=np.float64), labels)


def parse_csv(text: str, name: str = "dataset") -> Dataset:
    """Parse headerless CSV whose trailing column is the class token."""
    rows, tokens = [], []
    arity = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        values, token = _parse_row(line, lineno, arity)
        arity = arity if arity is not None else len(values) + 1
        rows.append(values)
        tokens.append(token)
    if not rows:
        raise InvalidDatasetError("empty dataset")
    labels = encode_labels(tokens)
    return Dataset(name, np.array(rows, dtype=np.float64), labels)


def load_dataset(path) -> Dataset:
    """Read a dataset file, dispatching on extension ('.dat' -> KEEL, else CSV)."""
    import pathlib

    p = pathlib.Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".dat":
        return parse_keel(text, name=p.stem)
    return parse_csv(text, name=p.stem)


def stratified_split(
    ds: Dataset, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split per class: round(train_fraction * class size) rows go to train.

    Deterministic for a fixed seed; row order within each split follows the
    original dataset order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise SplitError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in (1, -1):
        idx = np.flatnonzero(ds.labels == label)
        if idx.size < 2:
            raise SplitError(f"class {label:+d} has fewer than 2 samples")
        k = _round_half_up(train_fraction * idx.size)
        if k == 0 or k == idx.size:
            raise SplitError(
                f"class {label:+d} would receive 0 "
                f"{'train' if k == 0 else 'test'} samples"
            )
        perm = rng.permutation(idx.size)
        train_idx.append(np.sort(idx[perm[:k]]))
        test_idx.append(np.sort(idx[perm[k:]]))
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    train = Dataset(ds.name + "/train", ds.features[tr], ds.labels[tr])
    test = Dataset(ds.name + "/test", ds.features[te], ds.labels[te])
    return train, test


def inject_label_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Flip exactly round(fraction * m) labels, chosen uniformly without replacement.

    Features are untouched. If the flips leave +1 as the majority class, all
    labels are negated afterwards to restore the minority-positive convention
    (in that rare case the total number of changed positions is m - k).
    """
    k = _round_half_up(spec.fraction * ds.m)
    labels = ds.labels.copy()
    if k > 0:
        rng = np.random.default_rng(spec.seed)
        flip = rng.choice(ds.m, size=k, replace=False)
        labels[flip] = -labels[flip]
    if np.sum(labels == 1) > np.sum(labels == -1):
        labels = -labels
    return Dataset(ds.name, ds.features, labels)


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Center and scale each feature column to train mean 0 / population std 1.

    Zero-variance columns pass through unchanged; the test set is transformed
    with the training statistics.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)  # population (ddof=0) convention
    keep = std == 0.0
    mean = np.where(keep, 0.0, mean)
    scale = np.where(keep, 1.0, std)
    tr = Dataset(train.name, (train.features - mean) / scale, train.labels)
    te = Dataset(test.name, (test.features - mean) / scale, test.labels)
    return tr, te
