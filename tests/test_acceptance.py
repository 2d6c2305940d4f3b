"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they happen.  Criterion 7 needs the five public KEEL datasets on disk
(data/keel/*.dat or $IFUTSVM_KEEL_DIR); it fails with a diagnostic when they
are absent.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import ifutsvm as iu
from ifutsvm.cli import main as cli_main

from conftest import make_blobs
from oracle_utils import grid_box_qp_oracle, random_box_qp
from test_cli import BENCH_CONFIG, write_dataset
from test_models import reference_twin_svm

PUBLISHED_RANKS = np.array([3.71, 4.24, 4.47, 4.33, 2.76, 1.54])
PUBLISHED_AVG_ACC = np.array([83.52, 81.15, 80.61, 79.44, 86.19, 87.70])


def report(criterion, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_statistics_reproduction():
    t0 = time.perf_counter()
    _, _, acc = iu.load_benchmark_matrix()
    table = iu.average_ranks(acc)
    rank_dev = float(np.max(np.abs(table.average_ranks - PUBLISHED_RANKS)))
    # the published chi-square / F values are computed from the rank vector
    # printed with the table (ranking the rounded accuracy matrix shifts the
    # tie pattern slightly, which the +-0.05 rank tolerance absorbs)
    fr = iu.friedman(PUBLISHED_RANKS, N=46, p=6)
    fr_chain = iu.friedman(table.average_ranks, N=46, p=6)
    cd = iu.nemenyi_cd(6, 46)
    elapsed = time.perf_counter() - t0
    ok = (rank_dev <= 0.05
          and abs(fr.chi_sq - 91.48) <= 0.05
          and abs(fr.f_stat - 29.72) <= 0.05
          and abs(cd - 1.11) <= 0.005
          and fr_chain.f_stat > 2.2542  # same rejection at the 5% critical value
          and elapsed < 1.0)
    report(1, ok,
           f"rank dev {rank_dev:.3f}, chi2 {fr.chi_sq:.2f}, F {fr.f_stat:.2f}, "
           f"CD {cd:.4f} (chained chi2 {fr_chain.chi_sq:.2f}, F {fr_chain.f_stat:.2f}), "
           f"{elapsed:.2f}s")


def test_criterion_2_average_accuracy_reproduction():
    _, _, acc = iu.load_benchmark_matrix()
    means = acc.mean(axis=0)
    dev = float(np.max(np.abs(means - PUBLISHED_AVG_ACC)))
    report(2, dev <= 0.01, f"average-ACC row max deviation {dev:.4f}")


def test_criterion_3_qp_solver_oracle_equivalence():
    t0 = time.perf_counter()
    worst_dev, worst_kkt = 0.0, 0.0
    for t in range(200):
        rng = np.random.default_rng(3000 + t)
        Q, c, upper = random_box_qp(rng)
        sol = iu.solve_box_qp(iu.BoxQP(Q, c, upper), tol=1e-6)
        z_ref = grid_box_qp_oracle(Q, c, upper)
        worst_dev = max(worst_dev, float(np.max(np.abs(sol.z - z_ref))))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 2e-3 and worst_kkt <= 1e-6 and elapsed < 30.0
    report(3, ok, f"200 instances: worst coordinate deviation {worst_dev:.2e}, "
                  f"worst KKT {worst_kkt:.2e}, {elapsed:.1f}s")


def test_criterion_4_duality_gap():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for t in range(50):
        rng = np.random.default_rng(100 + t)
        m1 = int(rng.integers(4, 12))
        m2 = int(rng.integers(12, min(40, 60 - m1)))
        gap = rng.uniform(2.0, 3.5)
        X = np.vstack([rng.normal(0, 0.6, (m1, 3)), rng.normal(gap, 0.8, (m2, 3))])
        y = np.array([1] * m1 + [-1] * m2)
        ds = iu.Dataset(f"gap{t}", X, y)
        kernel = iu.KernelSpec(float(rng.uniform(1.0, 4.0))) if t % 2 else None
        c = float(rng.uniform(0.05, 5.0))
        fuzzy = iu.FuzzyParams(eta=float(rng.uniform(0.2, 1.0)),
                               rho=float(rng.uniform(0.3, 1.0)))
        hp = iu.Hyperparams(c1=c, c2=c, c3=c / 10, c4=c / 10,
                            cu=float(rng.uniform(0.0, 2.0)),
                            epsilon=float(rng.choice([0.1, 0.3, 0.5])),
                            kernel=kernel, fuzzy=fuzzy, seed=t)
        model = iu.fit_ifutsvm_id(ds, hp)
        g1, g2 = iu.duality_gaps(model, ds)
        rep = model.dual_report
        worst_rel = max(worst_rel,
                        g1 / (1.0 + abs(rep.dual_objective_1)),
                        g2 / (1.0 + abs(rep.dual_objective_2)))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and elapsed < 60.0
    report(4, ok, f"50 fits: worst relative gap {worst_rel:.2e}, {elapsed:.1f}s")


def test_criterion_5_fuzzy_invariants():
    total = 0
    branch_counts = np.zeros(3, dtype=int)
    ok = True
    rng_master = np.random.default_rng(7)
    while total < 1000:
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        m1 = int(rng.integers(3, 10))
        m2 = int(rng.integers(m1, 25))
        gap = rng.uniform(0.5, 4.0)  # overlapping through separated layouts
        X = np.vstack([rng.normal(0, 1, (m1, 2)), rng.normal(gap, 1, (m2, 2))])
        y = np.array([1] * m1 + [-1] * m2)
        ds = iu.Dataset("fz", X, y)
        kernel = iu.KernelSpec(float(rng.uniform(0.5, 3.0))) if seed % 2 else None
        params = iu.FuzzyParams(eta=float(rng.uniform(0.05, 2.0)),
                                rho=float(rng.uniform(0.1, 1.4)))
        sw = iu.assign_scores(ds, kernel, params)
        th, sg, s = sw.memberships, sw.nonmemberships, sw.scores
        ok &= bool(np.all(th > 0) and np.all(th <= 1))
        ok &= bool(np.all(sg >= 0) and np.all(sg <= 1 - th + 1e-12))
        ok &= bool(np.all(s >= 0) and np.all(s <= 1))
        first = sg == 0
        second = (~first) & (th <= sg)
        third = ~(first | second)
        ok &= bool(np.all(s[first] == th[first]))          # branch 1 exact
        ok &= bool(np.all(s[second] == 0.0))               # branch 2 exact
        ok &= bool(np.all(s[third] == (1 - sg[third]) / (2 - th[third] - sg[third])))
        branch_counts += [first.sum(), second.sum(), third.sum()]
        total += ds.m
    ok = ok and bool(np.all(branch_counts > 0))
    report(5, ok, f"{total} samples; branch hits {branch_counts.tolist()}")


def test_criterion_6_degeneration_checks():
    ds = make_blobs(6, 16, seed=3)
    hp = iu.Hyperparams(c1=1.0, c2=1.0, c3=0.1, c4=0.1, cu=0.0, epsilon=0.1,
                        seed=11)
    model = iu.fit_ifutsvm_id(ds, hp, uniform=True)
    exact_zero = bool(np.all(model.dual_report.beta == 0.0)
                      and np.all(model.dual_report.theta == 0.0))
    z1_ref, z2_ref = reference_twin_svm(ds, iu.build_plan(ds, hp.seed), hp)
    dev1 = float(np.max(np.abs(np.append(model.w1, model.b1) - z1_ref)))
    dev2 = float(np.max(np.abs(np.append(model.w2, model.b2) - z2_ref)))
    ok = exact_zero and dev1 <= 1e-6 and dev2 <= 1e-6
    report(6, ok, f"universum multipliers exactly zero: {exact_zero}; "
                  f"reduction deviation {max(dev1, dev2):.2e}")


KEEL_EXPECTED = {
    # reported accuracies of the fuzzy-universum model on five small sets
    "ecoli-0-1_vs_5": 97.22,
    "haber": 75.82,
    "new-thyroid1": 96.88,
    "glass5": 96.88,
    "ecoli-0-3-4-6_vs_5": 85.47,
}

ACCEPTANCE_GRID = iu.GridSpec(
    c1=tuple(10.0**k for k in (-5, -3, -1, 1, 3, 5)),
    c3=tuple(10.0**k for k in (-5, -3, -1, 1, 3, 5)),
    cu=tuple(10.0**k for k in (-4, -2, 0, 2)),
    epsilon=(0.1, 0.5),
    width=tuple(2.0**k for k in (-3, -1, 1, 3, 5)),
)


def keel_data_dir() -> Path:
    env = os.environ.get("IFUTSVM_KEEL_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "keel"


def run_keel_protocol(path: Path, seeds=(0, 1, 2, 3, 4)) -> float:
    """Median test accuracy (percent) over seeded 70:30 splits with CV search."""
    ds = iu.load_dataset(path)
    accs = []
    for seed in seeds:
        train, test = iu.stratified_split(ds, 0.7, seed=seed)
        train, test = iu.standardize(train, test)
        best, _ = iu.grid_search_cv(train, "ifutsvm-id", ACCEPTANCE_GRID,
                                    k=5, seed=seed)
        model = iu.fit_model("ifutsvm-id", train, best)
        accs.append(100.0 * float(np.mean(iu.predict(model, test.features)
                                          == test.labels)))
    return float(np.median(accs))


def test_criterion_7_keel_benchmark_envelope():
    root = keel_data_dir()
    missing = [name for name in KEEL_EXPECTED if not (root / f"{name}.dat").is_file()]
    if missing:
        report(7, False,
               f"KEEL datasets not available in this environment: {missing}; "
               f"place the .dat files under {root} or set IFUTSVM_KEEL_DIR "
               "(no public mirror is reachable from the sandbox)")
    hits = 0
    details = []
    for name, expected in KEEL_EXPECTED.items():
        t0 = time.perf_counter()
        median_acc = run_keel_protocol(root / f"{name}.dat")
        elapsed = time.perf_counter() - t0
        within = abs(median_acc - expected) <= 5.0
        hits += within
        details.append(f"{name}: {median_acc:.2f} vs {expected} "
                       f"({'ok' if within else 'off'}, {elapsed:.0f}s)")
        assert elapsed < 600.0, f"{name}: pipeline exceeded 10 minutes"
    report(7, hits >= 3, "; ".join(details))


def test_criterion_8_noise_robustness_direction():
    accs_fuzzy, accs_uniform = [], []
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        train = make_blobs(15, 60, seed=1000 + s, gap=3.0,
                           spread_pos=0.6, spread_neg=0.9)
        test = make_blobs(40, 80, seed=5000 + s, gap=3.0,
                          spread_pos=0.6, spread_neg=0.9)
        noisy = iu.inject_label_noise(train, iu.NoiseSpec(0.15, seed=2000 + s))
        hp = iu.Hyperparams(c1=2.0, c2=2.0, c3=0.1, c4=0.1, cu=0.1, epsilon=0.1,
                            seed=s)
        accs_fuzzy.append(np.mean(
            iu.predict(iu.fit_ifutsvm_id(noisy, hp), test.features) == test.labels))
        accs_uniform.append(np.mean(
            iu.predict(iu.fit_ifutsvm_id(noisy, hp, uniform=True), test.features)
            == test.labels))
    med_f = float(np.median(accs_fuzzy))
    med_u = float(np.median(accs_uniform))
    report(8, med_f >= med_u,
           f"median ACC over 20 seeds: fuzzy {med_f:.3f} vs all-ones {med_u:.3f}")


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    a = make_blobs(10, 30, seed=0, gap=6.0, spread_pos=0.3, spread_neg=0.3)
    b = make_blobs(12, 24, seed=1, gap=6.0, spread_pos=0.3, spread_neg=0.3)
    outputs = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        root.mkdir()
        write_dataset(root / "alpha.dat", a)
        write_dataset(root / "beta.dat", b)
        cfg = root / "bench.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets="alpha.dat, beta.dat", models="ifutsvm-id, utsvm",
            out="runs/acc", extra="noise_levels = 0.0, 0.1\n"))
        monkeypatch.chdir(root)
        assert cli_main(["benchmark", "--config", "bench.ini"]) == 0
        assert cli_main(["noise-study", "--config", "bench.ini",
                         "--out", "runs/noise"]) == 0
        outputs.append((
            (root / "runs/acc/report.json").read_bytes(),
            (root / "runs/acc/accuracies.csv").read_bytes(),
            (root / "runs/noise/report.json").read_bytes(),
        ))
    identical = outputs[0] == outputs[1]
    report(9, identical, "benchmark and noise-study reports byte-identical "
                         "across reruns" if identical else "reports differ")
