"""Digest of a fixed set of UTSVM and IFUTSVM-ID fits, to show that a change
to the fitting code keeps every bit.

Run it from the repository root on two checkouts and compare the output:

    PYTHONPATH=src python tests/fit_digest.py

It fits both models over three kernels (linear, Gaussian widths 0.5 and 2),
three training sets per seed (balanced, so the plan has no universum; mildly
imbalanced, so the reduced universum is topped up; imbalanced), with and
without a universum for UTSVM, with fuzzy and uniform scores for IFUTSVM-ID,
with delta set and unset, at five lattice points that share one stage memo.
Each fit feeds w, b, the multipliers, the dual objectives, the KKT
residuals, the sweep counts, the duality gaps, its mode, its balanced-fallback
flag and the bytes `save_model` writes into one SHA-256; an IFUTSVM-ID fit
also feeds its sampling plan's draws (PLAN_FIELDS).  A failed fit feeds its
exception type and text.

A second digest covers the search protocol: `grid_search_cv` of both kinds on
three sets (one balanced, so its folds fall back to a universum-free plan),
over a lattice at two Gaussian widths and over a linear one, then the refit
of the selected point through `evaluation.fit_model`.  It hashes each CV
table, each selected point and each refit as above (a failed refit feeds its
exception).  Every lattice here has points that train, so no search raises.

The script prints, for each digest, the fit or search count, the failure
count and the SHA-256.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import tempfile
from pathlib import Path

import numpy as np

from conftest import make_blobs
from ifutsvm import (GridSpec, Hyperparams, KernelSpec, NumericalError, TrainingError,
                     duality_gaps, fit_ifutsvm_id, fit_utsvm, generate_universum,
                     grid_search_cv, save_model)
from ifutsvm.evaluation import fit_model
from ifutsvm.models import MODEL_KINDS, FitStages

SEEDS = (0, 1, 2)
SHAPES = ((12, 12), (12, 16), (8, 28))  # (m1, m2): balanced, top-up, imbalanced
KERNELS = (None, KernelSpec(0.5), KernelSpec(2.0))
DELTAS = (None, 1e-4)
POINTS = (  # (c1, c3, cu, epsilon), c2 = c1 and c4 = c3
    (1.0, 0.1, 0.5, 0.1),
    (0.01, 1.0, 0.1, 0.2),
    (100.0, 0.01, 1.0, 0.1),
    (1.0, 1e-3, 0.0, 0.4),
    (10.0, 10.0, 2.0, 0.1),
)
SEARCH_SETS = ((10, 25, 0), (12, 12, 1), (9, 40, 2))  # (m1, m2, seed); one balanced
SEARCH_GRIDS = tuple(GridSpec(c1=(0.1, 10.0), c3=(0.01, 1.0), cu=(0.1, 1.0), epsilon=(0.1,),
                              width=width) for width in ((0.5, 2.0), None))
SEARCH_FOLDS = 3
# the plan members every version of SamplingPlan has, so that one run of this
# script on two checkouts compares the plans too
PLAN_FIELDS = ("x2_star_indices", "universum", "universum_star", "pair_log", "extra_pair_log",
               "universum_star_indices")


def _fit(kind, train, hp, universum, uniform, stages):
    if kind == "utsvm":
        return fit_utsvm(train, universum, hp, stages=stages)
    return fit_ifutsvm_id(train, hp, uniform=uniform, stages=stages)


def digest(seeds=SEEDS, points=POINTS) -> tuple[int, int, str]:
    """(fits, failures, SHA-256 hex) over the fits of the given seeds and points."""
    h = hashlib.sha256()
    fits = failures = 0
    for seed, (m1, m2), kernel, delta in itertools.product(seeds, SHAPES, KERNELS, DELTAS):
        train = make_blobs(m1, m2, seed=seed, d=3, gap=2.0)
        universum = generate_universum(train, max(m2 - m1, 4), seed=seed + 7)[0]
        variants = [("utsvm", None, False), ("utsvm", universum, False),
                    ("ifutsvm-id", None, False), ("ifutsvm-id", None, True)]
        for kind, univ, uniform in variants:
            stages = FitStages()
            for c1, c3, cu, eps in points:
                hp = Hyperparams(c1=c1, c2=c1, c3=c3, c4=c3, cu=cu, epsilon=eps,
                                 kernel=kernel, delta=delta, seed=seed)
                fits += 1
                h.update(repr((seed, m1, m2, kernel, delta, kind, univ is None, uniform,
                               c1, c3, cu, eps)).encode())
                try:
                    model = _fit(kind, train, hp, univ, uniform, stages)
                except (NumericalError, TrainingError) as exc:
                    failures += 1
                    h.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                _update(h, model, train)
    return fits, failures, h.hexdigest()


def _update(h, model, train) -> None:
    """Feed one trained model into the hash."""
    rep = model.dual_report
    for array in (model.w1, model.w2, rep.alpha, rep.beta, rep.eta, rep.theta):
        h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    h.update(struct.pack(
        "<8d2q", model.b1, model.b2, rep.dual_objective_1, rep.dual_objective_2,
        rep.kkt_residual_1, rep.kkt_residual_2, *duality_gaps(model, train),
        rep.iterations_1, rep.iterations_2))
    h.update(repr((model.mode, rep.balanced_fallback)).encode())
    if rep.plan is not None:
        for name in PLAN_FIELDS:
            array = np.ascontiguousarray(getattr(rep.plan, name))
            h.update(repr((name, array.dtype.str, array.shape)).encode())
            h.update(array.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.twinsvm"
        save_model(model, path)
        h.update(path.read_bytes())


def search_digest() -> tuple[int, int, str]:
    """(searches, failed fold fits, SHA-256 hex) over the search section."""
    h = hashlib.sha256()
    searches = failures = 0
    for (m1, m2, seed), grid, kind in itertools.product(SEARCH_SETS, SEARCH_GRIDS, MODEL_KINDS):
        train = make_blobs(m1, m2, seed=seed, d=3, gap=2.0)
        hp, table = grid_search_cv(train, kind, grid, SEARCH_FOLDS, seed)
        searches += 1
        failures += sum(a is None for row in table for a in row["fold_accuracies"])
        h.update(repr((m1, m2, seed, kind, grid, hp, table)).encode())
        try:
            _update(h, fit_model(kind, train, hp), train)
        except (NumericalError, TrainingError) as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return searches, failures, h.hexdigest()


if __name__ == "__main__":
    fits, failures, sha = digest()
    print(f"{fits} fits, {failures} failures, sha256 {sha}")
    searches, failures, sha = search_digest()
    print(f"{searches} searches, {failures} failed fold fits, sha256 {sha}")
