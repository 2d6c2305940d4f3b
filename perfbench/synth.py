"""Seeded synthetic data shaped like the small imbalanced KEEL sets.

KEEL's imbalanced binary sets have 70-340 rows, 3-9 real features on unrelated
scales, and a minority class (+1 here) that is 2-15 times smaller than the
majority.  `keel_blobs` draws a compact minority cloud, a wider majority
cloud offset along a random direction and a few minority rows on the bridge
between them (so held-out accuracy stays below 1), then puts every feature
on its own scale and offset so that standardization matters.  `write_keel` writes the
set in KEEL `.dat` form for the command-line workload.
"""

from __future__ import annotations

import numpy as np

import ifutsvm as iu

# Geometry before feature scaling.  With these values nearly every fold of
# the cv-kernel lattice loses all minority fuzzy scores at width 0.5 (the
# score collapse of ROADMAP item 4) and none at widths 2 and 8; with more
# overlap width-2 folds collapse too and the selected point's refit can fail.
MINORITY_SPREAD = 0.45
MAJORITY_SPREAD = 1.0
CENTRE_GAP = 4.0
BRIDGE_SHARE = 0.1  # of the minority rows, drawn halfway to the majority centre
BRIDGE_SPREAD = 0.7


def class_sizes(rows: int, ir: float) -> tuple[int, int]:
    """(minority, majority) row counts for `rows` rows at imbalance ratio `ir`."""
    m1 = max(2, int(round(rows / (ir + 1.0))))
    return m1, rows - m1


def keel_blobs(rng: np.random.Generator, rows: int, features: int, ir: float,
               name: str):
    """One KEEL-shaped binary set with a minority +1 class, rows shuffled."""
    m1, m2 = class_sizes(rows, ir)
    direction = rng.normal(size=features)
    direction /= np.linalg.norm(direction)
    bridge = int(round(BRIDGE_SHARE * m1))
    pos = np.vstack([rng.normal(0.0, MINORITY_SPREAD, (m1 - bridge, features)),
                     rng.normal(0.5 * CENTRE_GAP * direction, BRIDGE_SPREAD,
                                (bridge, features))])
    neg = rng.normal(CENTRE_GAP * direction, MAJORITY_SPREAD, (m2, features))
    scale = 10.0 ** rng.uniform(-1.0, 2.0, features)
    offset = rng.uniform(-5.0, 50.0, features)
    X = np.vstack([pos, neg]) * scale + offset
    # KEEL stores a handful of significant digits; round so that the .dat
    # text round-trips exactly
    X = np.round(X, 4)
    y = np.array([1] * m1 + [-1] * m2, dtype=np.int64)
    order = rng.permutation(rows)
    return iu.Dataset(name, X[order], y[order])


def write_keel(ds, path) -> None:
    """Write `ds` as a KEEL .dat file; +1 rows get the class token 'positive'."""
    lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
    names = [f"f{j + 1}" for j in range(ds.n)]
    lines = [f"@relation {ds.name}"]
    lines += [f"@attribute {nm} real [{a:.4f}, {b:.4f}]"
              for nm, a, b in zip(names, lo, hi)]
    lines += ["@attribute Class {positive, negative}",
              f"@inputs {', '.join(names)}", "@outputs Class", "@data"]
    for row, label in zip(ds.features, ds.labels):
        token = "positive" if label == 1 else "negative"
        lines.append(", ".join(f"{v:.4f}" for v in row) + f", {token}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
