"""Per-layer spans around calls into ifutsvm, installed from outside the package.

A traced run replaces names that one ifutsvm module looks up in another (for
example `ifutsvm.models.solve_box_qp` or `ifutsvm.evaluation.fit_model`) with
wrappers that time each call; nothing under `src/` changes.  A span holds its
name, start, end, the name of the span that was open when it began, and the
time its child spans cover, so a layer's self time is its duration minus that
covered time.  Spans are kept in memory.  Worker processes of the CLI's pool
(forked, so they inherit the wrappers) append their spans to one file per
process after each cell; the parent merges those files at the end.

Layer names follow the modules: kernels, membership, sampling, qp, models,
evaluation, data and cli.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Recorder:
    """Spans of the current process, plus the spool directory workers write to."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def begin(self, name: str) -> dict:
        if os.getpid() != self.pid:
            # first span in a forked worker: drop what the parent had recorded
            self._reset()
        span = {"name": name, "parent": self.stack[-1]["name"] if self.stack else None,
                "t0": time.perf_counter(), "child": 0.0}
        self.stack.append(span)
        return span

    def end(self, span: dict, attrs: dict) -> None:
        span["t1"] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child"] += span["t1"] - span["t0"]
        span.update(attrs)
        self.spans.append(span)

    def spool(self) -> None:
        """Append this process's spans to its own file and forget them."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spool_dir / f"{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> tuple[list[dict], int]:
        """Spans of this process and of every worker that spooled; process count."""
        spans = list(self.spans)
        files = sorted(self.spool_dir.glob("*.jsonl")) if self.spool_dir.is_dir() else []
        for path in files:
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        workers = sum(1 for path in files if path.stem != str(self.pid))
        return spans, 1 + workers


class Patches:
    """Module attributes replaced for the duration of a traced unit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _timed(rec: Recorder, name, describe=None, after=None):
    """Wrapper factory: one span per call; `name` may depend on the arguments."""

    def make(fn):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span = rec.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                attrs = {"error": type(exc).__name__, "message": str(exc)[:120]}
                if describe is not None:
                    attrs.update(describe(args, kwargs, None, exc))
                rec.end(span, attrs)
                raise
            rec.end(span, describe(args, kwargs, out, None) if describe else {})
            if after is not None:
                after()
            return out
        return wrapper
    return make


def _gram(args, kwargs, out, exc):
    return {"evals": int(out.size)} if out is not None else {}


def _scores(args, kwargs, out, exc):
    if out is None:
        return {}
    return {"zero": int(np.sum(out.scores == 0.0)),
            "minority_collapsed": int(not np.any(out.s1 > 0.0))}


def _solve(args, kwargs, out, exc):
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-6)
    sol = out if out is not None else getattr(exc, "best", None)
    if sol is None:
        return {}
    return {"sweeps": int(sol.iterations), "kkt_tol": float(sol.kkt_residual) / tol}


def _predict(args, kwargs, out, exc):
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _cv(args, kwargs, out, exc):
    if out is None:
        return {}
    flags = defaultdict(int)
    for row in out[1]:
        for flag in row["flags"]:
            flags[flag.split(":", 1)[1]] += 1
    return {"flags": dict(flags)}


def _load(args, kwargs, out, exc):
    return {"rows": int(out.m)} if out is not None else {}


def _cell(args, kwargs, out, exc):
    return {"ok": bool(out["ok"])} if out is not None else {}


def install(rec: Recorder, patches: Patches) -> None:
    """Wrap every layer boundary the workloads cross."""
    # the package re-exports functions named like some of its modules
    # (`ifutsvm.membership`), so fetch the modules themselves
    cli, evaluation, membership, models, sampling = (
        importlib.import_module(f"ifutsvm.{name}")
        for name in ("cli", "evaluation", "membership", "models", "sampling"))

    def wrap(module, attr, name, describe=None, after=None):
        patches.replace(module, attr, _timed(rec, name, describe, after))

    def cho_name(args):
        # a matrix right-hand side forms the dual Hessian, a vector recovers (w; b)
        return "models.hessian" if np.ndim(args[1]) == 2 else "models.recover"

    wrap(models, "gram_values", "kernels.gram", _gram)
    wrap(membership, "gram_values", "kernels.gram", _gram)
    wrap(models, "assign_scores", "membership.scores", _scores)
    wrap(models, "build_plan", "sampling.plan")
    wrap(sampling, "generate_universum", "sampling.universum")
    wrap(evaluation, "generate_universum", "sampling.universum")
    wrap(models, "spd_factor", "qp.factor")
    wrap(models, "BoxQP", "qp.boxqp")
    wrap(models, "solve_box_qp", "qp.solve", _solve)
    wrap(models, "cho_solve", cho_name)
    wrap(evaluation, "fit_ifutsvm_id", "models.fit")
    wrap(evaluation, "fit_utsvm", "models.fit")
    wrap(evaluation, "predict", "models.predict", _predict)
    wrap(cli, "predict", "models.predict", _predict)
    wrap(evaluation, "fit_model", "evaluation.fit")
    wrap(evaluation, "grid_search_cv", "evaluation.cv", _cv)
    wrap(cli, "grid_search_cv", "evaluation.cv", _cv)
    wrap(cli, "load_dataset", "data.load", _load)
    wrap(cli, "_run_cells", "cli.pool")
    wrap(cli, "_run_dataset_model", "cli.cell", _cell, after=rec.spool)


# ---------------------------------------------------------------------------
# per-layer metrics

FLAG_CAUSES = ("TrainingError", "NonConvergenceError", "FactorizationError",
               "single-class", "balanced-fallback")

def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms." in name:
        return "ms"
    return {"qp.solve.kkt_max": "tol", "cli.parallel_eff": "ratio"}.get(name, "count")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict], processes: int, threads: int,
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, zero where a workload does not cross a layer."""
    by = defaultdict(list)
    for span in spans:
        by[span["name"]].append(span)

    def busy(name):
        return sum(s["t1"] - s["t0"] for s in by[name])

    def self_time(name):
        return sum(s["t1"] - s["t0"] - s["child"] for s in by[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by[name])

    def errors(name, needle):
        return sum(1 for s in by[name] if needle in s.get("message", ""))

    folds = [s for s in by["evaluation.fit"] if s["parent"] == "evaluation.cv"]
    fold_ms = [1e3 * (s["t1"] - s["t0"]) for s in folds]
    flags = defaultdict(int)
    for s in by["evaluation.cv"]:
        for cause, count in s.get("flags", {}).items():
            flags[cause] += count
    cells = [s["t1"] - s["t0"] for s in by["cli.cell"]]
    pool = busy("cli.pool")
    out = {
        "kernels.gram.calls": len(by["kernels.gram"]),
        "kernels.gram.busy_s": busy("kernels.gram"),
        "kernels.gram.evals": total("kernels.gram", "evals"),
        "membership.scores.calls": len(by["membership.scores"]),
        "membership.scores.busy_s": busy("membership.scores"),
        "membership.zero_scores": total("membership.scores", "zero"),
        "membership.minority_collapsed": total("membership.scores", "minority_collapsed"),
        "sampling.plan.calls": len(by["sampling.plan"]),
        "sampling.plan.busy_s": busy("sampling.plan"),
        "sampling.universum.calls": len(by["sampling.universum"]),
        "sampling.universum.busy_s": busy("sampling.universum"),
        "qp.factor.calls": len(by["qp.factor"]),
        "qp.factor.busy_s": busy("qp.factor"),
        "qp.factor.failed": sum(1 for s in by["qp.factor"] if "error" in s),
        "qp.boxqp.busy_s": busy("qp.boxqp"),
        "qp.solve.calls": len(by["qp.solve"]),
        "qp.solve.busy_s": busy("qp.solve"),
        "qp.solve.sweeps": total("qp.solve", "sweeps"),
        "qp.solve.sweeps_max": max((s.get("sweeps", 0) for s in by["qp.solve"]), default=0),
        "qp.solve.nonconverged": sum(1 for s in by["qp.solve"] if "error" in s),
        "qp.solve.kkt_max": max((s["kkt_tol"] for s in by["qp.solve"]
                                 if "error" not in s and "kkt_tol" in s), default=0.0),
        "models.hessian.calls": len(by["models.hessian"]),
        "models.hessian.busy_s": busy("models.hessian"),
        "models.recover.busy_s": busy("models.recover"),
        "models.fit.calls": len(by["models.fit"]),
        "models.fit.busy_s": busy("models.fit"),
        "models.fit.self_s": self_time("models.fit"),
        "models.fail.degenerate_1": errors("models.fit", "degenerate plane 1"),
        "models.fail.degenerate_2": errors("models.fit", "degenerate plane 2"),
        "models.predict.busy_s": busy("models.predict"),
        "models.predict.rows": total("models.predict", "rows"),
        "evaluation.cv.calls": len(by["evaluation.cv"]),
        "evaluation.cv.busy_s": busy("evaluation.cv"),
        "evaluation.cv.self_s": self_time("evaluation.cv"),
        "evaluation.fold_fits": len(folds),
        "evaluation.fold_fit_ms.p50": _percentile(fold_ms, 50),
        "evaluation.fold_fit_ms.p98": _percentile(fold_ms, 98),
        **{f"evaluation.flags.{c}": flags.get(c, 0) for c in FLAG_CAUSES},
        "data.load.calls": len(by["data.load"]),
        "data.load.busy_s": busy("data.load"),
        "data.load.rows": total("data.load", "rows"),
        "cli.cells": len(cells),
        "cli.cells_failed": sum(1 for s in by["cli.cell"] if not s.get("ok", False)),
        "cli.cell_s.max": max(cells, default=0.0),
        "cli.cell_s.sum": sum(cells),
        "cli.parallel_eff": sum(cells) / (threads * pool) if pool > 0 else 0.0,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
        "trace.processes": processes,
    }
    return out


def fit_accounting(spans: list[dict]) -> str:
    """One line splitting models.fit time into its child layers and self time."""
    fit_total = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "models.fit")
    parts = defaultdict(float)
    for s in spans:
        if s["parent"] == "models.fit":
            parts[s["name"]] += s["t1"] - s["t0"]
    self_s = fit_total - sum(parts.values())
    body = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
    return f"models.fit {fit_total:.3f}s = {body}, self {self_s:.3f}s"
