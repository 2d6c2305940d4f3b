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

A change that moves the optimum's last bits moves the digests, so two more
modes compare two checkouts fit by fit:

    PYTHONPATH=src python tests/fit_digest.py --dump before.json   # one checkout
    PYTHONPATH=src python tests/fit_digest.py --dump after.json    # the other
    PYTHONPATH=src python tests/fit_digest.py --compare before.json after.json

--dump prints the two lines as well and writes, per fit and per search refit,
b1, b2, both dual objectives, w1 and w2 (or the failure text), and per search
a hash of its CV table.  --compare prints how many fits are bit-identical,
the worst relative coefficient difference (max |a - b| / max(|a|, |b|) over
one plane's (w; b)) with the fit and plane it is in and that plane's box
scale max(1, largest box bound), by which the models scale the solver
tolerance (the fit is trained again to find it), the worst relative
dual-objective difference, every fit that trained on one side only, how many
fits solved IFUTSVM-ID's plane-2 full dual after screening its universum rows
and how many of those are bit-identical, and how many CV tables are
identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import make_blobs
from ifutsvm import (GridSpec, Hyperparams, KernelSpec, NumericalError, TrainingError,
                     duality_gaps, fit_ifutsvm_id, fit_utsvm, generate_universum,
                     grid_search_cv, save_model)
from ifutsvm.evaluation import fit_model
from ifutsvm.models import MODEL_KINDS, FitStages

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import _box_scales  # noqa: E402

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


def _record(model) -> dict:
    """The numbers --compare reads of one trained model."""
    rep = model.dual_report
    return {"b1": model.b1, "b2": model.b2, "w1": model.w1.tolist(), "w2": model.w2.tolist(),
            "dual_objective_1": rep.dual_objective_1, "dual_objective_2": rep.dual_objective_2,
            # a checkout without plane-2 screening has no such flag
            "universum_bound_2": getattr(rep, "universum_bound_2", None)}


NUMBERS = ("b1", "b2", "w1", "w2", "dual_objective_1", "dual_objective_2")


def _same(a, b) -> bool:
    """Whether two records hold the same failure text or the same numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        return all(a[name] == b[name] for name in NUMBERS)
    return a == b


def _fits(seeds=SEEDS, points=POINTS):
    """(key, train, fit) of each digest fit, in digest order; fit() trains it.
    The fits of one variant share one stage memo."""
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
                key = repr((seed, m1, m2, kernel, delta, kind, univ is None, uniform,
                            c1, c3, cu, eps))
                yield key, train, functools.partial(_fit, kind, train, hp, univ, uniform, stages)


def digest(seeds=SEEDS, points=POINTS, records=None) -> tuple[int, int, str]:
    """(fits, failures, SHA-256 hex) over the fits of the given seeds and points;
    each fit's `_record` or failure text goes into `records` when given."""
    h = hashlib.sha256()
    fits = failures = 0
    records = {} if records is None else records
    for key, train, fit in _fits(seeds, points):
        fits += 1
        h.update(key.encode())
        try:
            model = fit()
        except (NumericalError, TrainingError) as exc:
            failures += 1
            records[key] = f"{type(exc).__name__}: {exc}"
            h.update(records[key].encode())
            continue
        records[key] = _record(model)
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


def _searches():
    """(fields, kind, train, search) of each search, in digest order; search()
    returns grid_search_cv's (selected point, CV table)."""
    for (m1, m2, seed), grid, kind in itertools.product(SEARCH_SETS, SEARCH_GRIDS, MODEL_KINDS):
        train = make_blobs(m1, m2, seed=seed, d=3, gap=2.0)
        yield ((m1, m2, seed, kind, grid), kind, train,
               functools.partial(grid_search_cv, train, kind, grid, SEARCH_FOLDS, seed))


def search_digest(records=None) -> tuple[int, int, str]:
    """(searches, failed fold fits, SHA-256 hex) over the search section; each
    refit's `_record` or failure text, and each CV table's SHA-256, go into
    `records` when given."""
    h = hashlib.sha256()
    searches = failures = 0
    records = {} if records is None else records
    for fields, kind, train, search in _searches():
        hp, table = search()
        searches += 1
        failures += sum(a is None for row in table for a in row["fold_accuracies"])
        records[f"table {fields!r}"] = hashlib.sha256(repr((hp, table)).encode()).hexdigest()
        h.update(repr((*fields, hp, table)).encode())
        try:
            model = fit_model(kind, train, hp)
        except (NumericalError, TrainingError) as exc:
            records[f"refit {fields!r}"] = f"{type(exc).__name__}: {exc}"
            h.update(records[f"refit {fields!r}"].encode())
            continue
        records[f"refit {fields!r}"] = _record(model)
        _update(h, model, train)
    return searches, failures, h.hexdigest()


def _refit(key: str):
    """The model of one fit or search refit of the digest, trained again."""
    for name, _, fit in _fits():
        if name == key:
            return fit()
    for fields, kind, train, search in _searches():
        if key == f"refit {fields!r}":
            return fit_model(kind, train, search()[0])
    raise KeyError(key)


def _relative(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over the entries, 0 where both are 0."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale if scale else 0.0


def compare(before: dict, after: dict) -> list[str]:
    """The lines --compare prints for two --dump files' records."""
    fits = sorted(key for key in before if not key.startswith("table "))
    tables = [key for key in before if key.startswith("table ")]
    trained = [key for key in fits if isinstance(before[key], dict)
               and isinstance(after.get(key), dict)]
    one_side = [key for key in sorted(set(before) | set(after)) if not key.startswith("table ")
                and isinstance(before.get(key), dict) != isinstance(after.get(key), dict)]
    coef = objective = 0.0
    worst = None  # (key, plane) of the worst coefficient difference
    for key in trained:
        a, b = before[key], after[key]
        for plane in ("1", "2"):
            diff = _relative([*a["w" + plane], a["b" + plane]], [*b["w" + plane], b["b" + plane]])
            if diff > coef:
                coef, worst = diff, (key, plane)
            name = "dual_objective_" + plane
            objective = max(objective, _relative(a[name], b[name]))
    identical = sum(_same(before[key], after.get(key)) for key in fits)
    bound = [key for key in trained if before[key]["universum_bound_2"]
             or after[key]["universum_bound_2"]]
    lines = [f"{identical} of {len(fits)} fits bit-identical ({len(trained)} trained on both)",
             f"worst relative coefficient difference {coef:.3g}" + (
                 f" in plane {worst[1]} of {worst[0]}, box scale "
                 f"{_box_scales(_refit(worst[0]))[int(worst[1]) - 1]:.3g}" if worst else ""),
             f"worst relative dual-objective difference {objective:.3g}",
             f"{len(one_side)} fits trained on one side only"]
    lines += [f"  {key}: {'before' if isinstance(before.get(key), dict) else 'after'} only"
              for key in one_side]
    lines.append(f"{len(bound)} fits solved plane 2's full dual after screening, "
                 f"{sum(_same(before[key], after[key]) for key in bound)} of them bit-identical")
    lines.append(f"{sum(before[key] == after.get(key) for key in tables)} of {len(tables)} "
                 "CV tables identical")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--dump", metavar="FILE", help="also write every fit's numbers as JSON")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two --dump files instead of fitting")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(Path(path).read_text()) for path in args.compare)
        print("\n".join(compare(before, after)))
        return
    records: dict = {}
    fits, failures, sha = digest(records=records)
    print(f"{fits} fits, {failures} failures, sha256 {sha}")
    searches, failures, sha = search_digest(records)
    print(f"{searches} searches, {failures} failed fold fits, sha256 {sha}")
    if args.dump:
        Path(args.dump).write_text(json.dumps(records, indent=0, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
