"""The benchmark's workloads: inputs from a seed, timed units, output checks.

Each workload builds a list of inputs in `setup` (data generation, file
writes and one warm-up fit).  `run(i)` is one timed unit on input i; it makes
only calls into ifutsvm.  `check(i, raw, audit)` inspects what came back,
outside the timed region, and returns an `Outcome`: what was attempted, which
attempts failed and why, held-out accuracy, the problems the checks found,
and a record of the selected hyperparameters and output digests, which must
be the same every time input i runs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ifutsvm as iu
from ifutsvm import cli, evaluation
from synth import class_sizes, keel_blobs, write_keel

KKT_TOL = 1e-6  # the solver's default tolerance, scaled by the box as the models do
GAP_TOL = 1e-4  # relative duality gap allowed by acceptance criterion 4 (penalties <= 5)


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, int.from_bytes(tag.encode(), "little")])


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def failure_cause(text: str) -> str:
    """Named cause of a failed fit, from its exception type and message."""
    for needle, cause in (("degenerate plane 1", "degenerate_plane_1"),
                          ("degenerate plane 2", "degenerate_plane_2"),
                          ("NonConvergenceError", "nonconvergence"),
                          ("did not converge", "nonconvergence"),
                          ("FactorizationError", "factorization"),
                          ("not positive definite", "factorization")):
        if needle in text:
            return cause
    return "other"


def _box_scales(model) -> tuple[float, float]:
    """max(1, largest box bound) of each plane's dual, the factor by which the
    models scale the solver tolerance."""
    hp, rep = model.hyperparams, model.dual_report
    if model.kind == "ifutsvm-id":
        s2_sel = rep.scores.s2[rep.plan.x2_star_indices]
        box1 = [hp.c1 * s2_sel.max(initial=0.0)] + [hp.cu] * bool(rep.plan.universum_star.shape[0])
        box2 = [hp.c2 * rep.scores.s1.max(initial=0.0)] + [hp.cu] * bool(rep.plan.universum.shape[0])
    else:
        with_universum = bool(rep.universum.shape[0])
        box1 = [hp.c1] + [hp.cu] * with_universum
        box2 = [hp.c2] + [hp.cu] * with_universum
    return max(1.0, *box1), max(1.0, *box2)


def kkt_ratio(model) -> float:
    """Worst dual KKT residual of a fit over its box-scaled solver tolerance."""
    rep = model.dual_report
    scale1, scale2 = _box_scales(model)
    return max(rep.kkt_residual_1 / (KKT_TOL * scale1), rep.kkt_residual_2 / (KKT_TOL * scale2))


def gap_ratio(model, train) -> float:
    """Worst relative duality gap of a fit over GAP_TOL, scaled by the box as
    the KKT tolerance is (a residual allowed to grow with the penalty lets the
    gap grow with it)."""
    g1, g2 = iu.duality_gaps(model, train)
    rep = model.dual_report
    scale1, scale2 = _box_scales(model)
    return max(g1 / (1.0 + abs(rep.dual_objective_1)) / (GAP_TOL * scale1),
               g2 / (1.0 + abs(rep.dual_objective_2)) / (GAP_TOL * scale2))


class FitAudit:
    """Check hook on `ifutsvm.evaluation.fit_model`: KKT of every returned fit
    (fold fits and refits alike), cause of every failed one.  It costs
    microseconds per fit and keeps no model alive, so it stays on in untraced
    runs."""

    def __init__(self):
        self.kkt_worst = 0.0
        self.failures: Counter = Counter()

    def __call__(self, fit_model):
        @functools.wraps(fit_model, updated=())
        def audited(*args, **kwargs):
            try:
                model = fit_model(*args, **kwargs)
            except (iu.NumericalError, iu.TrainingError) as exc:
                self.failures[failure_cause(f"{type(exc).__name__}: {exc}")] += 1
                raise
            self.kkt_worst = max(self.kkt_worst, kkt_ratio(model))
            return model
        return audited


@dataclass
class Outcome:
    operations: int  # calls the unit made into the program
    failed_operations: int  # of those, calls that raised or exited non-zero
    attempts: int  # fits or cells the failure ratio counts
    failures: Counter  # cause -> failed attempts
    accuracy: float  # mean held-out accuracy of the final models
    record: dict  # selected hyperparameters and output digests of this input
    problems: list[str] = field(default_factory=list)


class CvKernel:
    """grid_search_cv of IFUTSVM-ID over a 108-point Gaussian lattice, refit, test.

    Each unit searches the next of `sets` independent sets, so a run's median
    covers several sets and no single set's slow QPs or collapsed folds set it.
    """

    name = "cv-kernel"
    sets = 4
    rows, features, ir = 200, 7, 6.0
    folds = 5
    grid = iu.GridSpec(c1=(1e-2, 1.0, 1e2), c3=(1e-3, 1e-1, 10.0), cu=(1e-2, 1.0),
                       epsilon=(0.1, 0.5), width=(0.5, 2.0, 8.0))

    def setup(self, seed: int, workdir: Path) -> None:
        rng = _rng(seed, self.name)
        self.inputs = []
        for j in range(self.sets):
            ds = keel_blobs(rng, self.rows, self.features, self.ir, f"cvk{j}")
            train, test = iu.stratified_split(ds, 0.7, int(rng.integers(2**31)))
            self.inputs.append((*iu.standardize(train, test), int(rng.integers(2**31))))
        train, _, cv_seed = self.inputs[0]
        evaluation.fit_model("ifutsvm-id", train,
                             iu.make_hyperparams(1.0, 0.1, 1.0, 0.1, 2.0, seed=cv_seed))

    def run(self, i: int):
        train, test, cv_seed = self.inputs[i]
        hp, table = evaluation.grid_search_cv(train, "ifutsvm-id", self.grid, self.folds,
                                              cv_seed)
        model = evaluation.fit_model("ifutsvm-id", train, hp)
        return hp, table, model, evaluation.predict(model, test.features)

    def check(self, i: int, raw, audit: FitAudit) -> Outcome:
        train, test, _ = self.inputs[i]
        hp, table, model, pred = raw
        problems = []
        if len(table) != self.grid.size():
            problems.append(f"CV table has {len(table)} rows, expected {self.grid.size()}")
        flags = Counter(f.split(":", 1)[1] for row in table for f in row["flags"])
        failures = audit.failures + Counter({"single_class": flags["single-class"]})
        flagged = sum(flags[c] for c in ("TrainingError", "NumericalError",
                                         "NonConvergenceError", "FactorizationError"))
        if flagged != sum(audit.failures.values()):
            problems.append(f"{flagged} fold fits flagged but {sum(audit.failures.values())} raised")
        if audit.kkt_worst > 1.0:
            problems.append(f"a fit's KKT residual is {audit.kkt_worst:.2f}x its tolerance")
        if gap_ratio(model, train) > 1.0:
            problems.append(f"refit duality gap is {gap_ratio(model, train):.2f}x its tolerance")
        record = {
            "selected": {"c1": hp.c1, "c3": hp.c3, "cu": hp.cu, "epsilon": hp.epsilon,
                         "width": hp.kernel.width},
            "cv_digest": _digest(table),
            "failures": dict(failures),
        }
        return Outcome(operations=3, failed_operations=0,
                       attempts=len(table) * self.folds, failures=failures,
                       accuracy=float(np.mean(pred == test.labels)),
                       record=record, problems=problems)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process in MB, from /proc; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_recording_pool(peaks_mb: list[float]):
    """The CLI's pool class, extended to append the summed peak RSS of its
    workers to `peaks_mb` just before they are joined."""

    class PeakRecordingPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, **kwargs):
            pids = list(self._processes or ())
            peaks_mb.append(sum(vm_hwm_mb(pid) for pid in pids))
            super().shutdown(wait, **kwargs)

    return PeakRecordingPool


def keel_shapes(count: int) -> list[tuple[str, int, int, float]]:
    """(stem, rows, features, imbalance ratio) of `count` files spread over the
    KEEL range: 80-300 rows, 3-9 features, IR 2-15, with at least 8 minority
    rows in a 70 % training split so that 5-fold CV survives label noise."""
    shapes = [("syn-00", 100, 4, 3.0), ("syn-01", 140, 5, 6.0)]
    for i in range(2, count):
        rows = 80 + (i * 47) % 221
        ir = min(2.0 + (i * 5) % 14, round(0.7 * rows / 8.0 - 1.0, 1))
        shapes.append((f"syn-{i:02d}", rows, 3 + (i * 3) % 7, ir))
    return shapes


class CliNoise:
    """`ifutsvm noise-study` through cli.main on KEEL files, with a process pool."""

    name = "cli-noise"
    threads = 2
    files = keel_shapes(40)
    # UTSVM is left out: one of its linear duals in a few hundred can take
    # thousands of sweeps, so the slowest cell, and with it the wall time,
    # varied 1-16 s across seeds (see utsvm-fits)
    models = ("ifutsvm-id",)
    levels = (0.1, 0.2)
    config = """\
[experiment]
datasets = {datasets}
models = {models}
noise_levels = {levels}
standardize = true
folds = 5
seed = {seed}

[grid]
c1 = 0.01 1
c3 = 0.1
cu = 0.1 1
epsilon = 0.1
width = linear
"""

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rng = _rng(seed, self.name)
        paths = []
        self.test_rows = {}
        for stem, rows, features, ir in self.files:
            ds = keel_blobs(rng, rows, features, ir, stem)
            write_keel(ds, self.dir / f"{stem}.dat")
            paths.append(str(self.dir / f"{stem}.dat"))
            m1, m2 = class_sizes(rows, ir)
            self.test_rows[stem] = rows - _round_half_up(0.7 * m1) - _round_half_up(0.7 * m2)
        self.ini = self.dir / "noise.ini"
        self.ini.write_text(self.config.format(
            datasets=", ".join(paths), models=", ".join(self.models),
            levels=", ".join(map(str, self.levels)), seed=int(rng.integers(2**31))))
        self.out = self.dir / "out"
        self.inputs = [self.ini]
        warm = iu.load_dataset(paths[0])
        evaluation.fit_model("ifutsvm-id", warm, iu.make_hyperparams(1.0, 0.1, 0.1, 0.1, None))
        self.worker_peaks_mb: list[float] = []
        cli.ProcessPoolExecutor = peak_recording_pool(self.worker_peaks_mb)

    def run(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["noise-study", "--config", str(self.ini),
                             "--threads", str(self.threads), "--out", str(self.out)])
        return code, (self.out / "report.json").read_bytes()

    def check(self, i: int, raw, audit: FitAudit) -> Outcome:
        code, report_bytes = raw
        problems = [] if code == 0 else [f"cli.main exited with {code}"]
        results = json.loads(report_bytes)["results"]
        cells = len(self.files) * len(self.models) * len(self.levels)
        if len(results) != cells:
            problems.append(f"report has {len(results)} cells, expected {cells}")
        failures = Counter()
        accuracies = []
        for r in results:
            if not r["ok"]:
                failures["cell:" + failure_cause(r["error"])] += 1
                continue
            acc = r["metrics"]["accuracy"]
            accuracies.append(acc)
            if sum(r["confusion"].values()) != self.test_rows[r["dataset"]] or not 0 <= acc <= 1:
                problems.append(f"cell {r['dataset']}/{r['kind']}/{r['noise_level']} "
                                "reports an impossible confusion matrix")
        # the report holds every cell's selected hyperparameters
        record = {"report_digest": _digest(report_bytes), "failures": dict(failures)}
        return Outcome(operations=1, failed_operations=int(code != 0), attempts=len(results),
                       failures=failures,
                       accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
                       record=record, problems=problems)


class UtsvmFits:
    """A stream of independent UTSVM fits, each on its own standardized set.

    Not a gated workload: the box-QP sweep count of a kernel fit varies about
    tenfold between sets of one shape, so no run length that fits the time
    budget makes its wall time steady across seeds.
    """

    name = "utsvm-fits"
    features, ir = 7, 6.0
    kernel_rows = (100, 140, 210)  # train m about 70, 98 and 147
    linear_rows = (100, 140, 210)
    linear_penalties = ((1.0, 0.1), (100.0, 0.1))  # (c1, cu)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = _rng(seed, self.name)
        specs = [(rows, 2.0, 1.0, 0.1) for rows in self.kernel_rows]
        specs += [(rows, None, c1, cu) for rows in self.linear_rows
                 for c1, cu in self.linear_penalties]
        jobs = []
        for rows, width, c1, cu in specs:
            ds = keel_blobs(rng, rows, self.features, self.ir, f"u{rows}")
            train, test = iu.standardize(*iu.stratified_split(ds, 0.7, int(rng.integers(2**31))))
            hp = iu.make_hyperparams(c1, 1.0, cu, 0.1, width, seed=int(rng.integers(2**31)))
            jobs.append((train, test, hp))
        self.inputs = [jobs]
        # warm up on the smallest linear set with the mildest penalties: a
        # crawling warm-up fit would take tens of seconds
        train, _, _ = jobs[len(self.kernel_rows)]
        evaluation.fit_model("utsvm", train, iu.make_hyperparams(1.0, 1.0, 0.1, 0.1, None))

    def run(self, i: int):
        out = []
        for train, test, hp in self.inputs[i]:
            try:
                model = evaluation.fit_model("utsvm", train, hp)
            except (iu.NumericalError, iu.TrainingError) as exc:
                out.append(failure_cause(f"{type(exc).__name__}: {exc}"))
                continue
            out.append((model, evaluation.predict(model, test.features)))
        return out

    def check(self, i: int, raw, audit: FitAudit) -> Outcome:
        jobs = self.inputs[i]
        failures = Counter(r for r in raw if isinstance(r, str))
        problems, accuracies, sweeps = [], [], []
        for (train, test, _), r in zip(jobs, raw):
            if isinstance(r, str):
                continue
            model, pred = r
            accuracies.append(float(np.mean(pred == test.labels)))
            sweeps.append(model.dual_report.iterations_1 + model.dual_report.iterations_2)
            if kkt_ratio(model) > 1.0 or gap_ratio(model, train) > 1.0:
                problems.append(f"UTSVM fit on {train.name} misses its KKT or gap tolerance")
        record = {"sweeps": sweeps, "failures": dict(failures)}
        return Outcome(operations=2 * len(jobs), failed_operations=sum(failures.values()),
                       attempts=len(jobs), failures=failures,
                       accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
                       record=record, problems=problems)


WORKLOADS = {w.name: w for w in (CvKernel, CliNoise, UtsvmFits)}
