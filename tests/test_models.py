import contextlib
import copy
import dataclasses
import functools
import itertools
import pickle
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_factor, cho_solve

from ifutsvm import (
    BoxQP,
    Dataset,
    FuzzyParams,
    Hyperparams,
    KernelSpec,
    ParseError,
    TrainingError,
    TwinModel,
    build_plan,
    decision_distances,
    duality_gaps,
    fit_ifutsvm_id,
    fit_utsvm,
    generate_universum,
    gram_values,
    load_model,
    predict,
    save_model,
    solve_box_qp,
)
from ifutsvm import GridSpec, evaluation, grid_search_cv, models, qp
from ifutsvm.models import _blocks
from ifutsvm.membership import assign_scores, uniform_scores

import fit_digest
from conftest import make_blobs, read_model_file, write_model_file
from oracle_utils import gaussian, kkt_residual, primal_value, reference_plane_solve, whole_duals


HP = dict(c1=1.0, c2=1.0, c3=0.1, c4=0.1, cu=0.5, epsilon=0.1)


class TestFitUTSVM:
    def test_separable_clusters_perfect_training_accuracy(self, separable):
        hp = Hyperparams(**HP, seed=0)
        model = fit_utsvm(separable, None, hp)
        assert_array_equal(predict(model, separable.features), separable.labels)

    def test_zero_cu_matches_empty_universum_fit(self, blobs):
        ds = blobs(6, 14, seed=1)
        U = np.vstack([ds.positives()[:3], ds.negatives()[:3]]) / 2.0
        hp0 = Hyperparams(**{**HP, "cu": 0.0}, seed=0)
        with_u = fit_utsvm(ds, U, hp0)
        without = fit_utsvm(ds, None, hp0)
        assert np.all(with_u.dual_report.beta == 0.0)
        assert np.all(with_u.dual_report.theta == 0.0)
        assert_allclose(with_u.w1, without.w1, atol=1e-8)
        assert_allclose(with_u.b1, without.b1, atol=1e-8)
        assert_allclose(with_u.w2, without.w2, atol=1e-8)
        assert_allclose(with_u.b2, without.b2, atol=1e-8)

    def test_label_swap_exchanges_planes(self):
        rng = np.random.default_rng(2)
        Xa, Xb = rng.normal(0, 0.5, (6, 3)), rng.normal(2, 0.5, (6, 3))
        X = np.vstack([Xa, Xb])
        y = np.array([1] * 6 + [-1] * 6)
        U = 0.5 * (Xa[:4] + Xb[:4])
        hp = Hyperparams(**HP, delta=1e-6, seed=0)
        direct = fit_utsvm(Dataset("d", X, y), U, hp)
        swapped = fit_utsvm(Dataset("s", X, -y), U, hp)

        def normalized(w, b):
            s = np.sign(w[np.argmax(np.abs(w))])
            return w * s, b * s

        w_sw, b_sw = normalized(swapped.w1, swapped.b1)
        w_or, b_or = normalized(direct.w2, direct.b2)
        assert_allclose(w_sw, w_or, atol=1e-6)
        assert_allclose(b_sw, b_or, atol=1e-6)

    def test_duality_gaps_close(self):
        # criterion 4's sets and bound, on UTSVM: linear and kernel, a
        # universum of m2 - m1 rows or none, the trace-scaled or a fixed delta
        worst = 0.0
        for t in range(40):
            rng = np.random.default_rng(100 + t)
            m1 = int(rng.integers(4, 12))
            m2 = int(rng.integers(12, min(40, 60 - m1)))
            gap = rng.uniform(2.0, 3.5)
            X = np.vstack([rng.normal(0, 0.6, (m1, 3)), rng.normal(gap, 0.8, (m2, 3))])
            ds = Dataset(f"gap{t}", X, np.array([1] * m1 + [-1] * m2))
            kernel = KernelSpec(float(rng.uniform(1.0, 4.0))) if t % 2 else None
            universum = generate_universum(ds, m2 - m1, seed=t)[0] if t % 4 < 2 else None
            c = float(rng.uniform(0.05, 5.0))
            hp = Hyperparams(c1=c, c2=c, c3=1.0, c4=1.0, cu=float(rng.uniform(0.0, 1.0)),
                             epsilon=float(rng.choice([0.1, 0.3, 0.5])), kernel=kernel,
                             delta=None if t % 8 < 4 else 1e-3, seed=t)
            model = fit_utsvm(ds, universum, hp)
            g1, g2 = duality_gaps(model, ds)
            rep = model.dual_report
            worst = max(worst, g1 / (1.0 + abs(rep.dual_objective_1)),
                        g2 / (1.0 + abs(rep.dual_objective_2)))
        assert worst <= 1e-4

    def test_degenerate_plane_message(self):
        # a failed refit writes this text into report.json
        X = np.zeros((8, 2))  # all-zero features force w = 0
        y = np.array([1, 1] + [-1] * 6)
        with pytest.raises(TrainingError) as info:
            fit_utsvm(Dataset("z", X, y), None, Hyperparams(**HP, seed=0))
        assert str(info.value) == "degenerate plane 1: ||w|| < 1e-12"

    def test_empty_class_rejected(self):
        ds = Dataset("one", np.zeros((3, 2)) + np.arange(3)[:, None],
                     np.array([1, 1, 1]))
        with pytest.raises(TrainingError):
            fit_utsvm(ds, None, Hyperparams(**HP, seed=0))


def reference_twin_svm(train, plan, hp):
    """Independent assembly of the score-free, universum-free reduction.

    Plane 1: proximal to X1, constraints from the undersampled negatives.
    Plane 2: proximal to X2, constraints from the full positive class.
    Solves the duals directly from first principles.
    """
    def aug(X):
        return np.hstack([X, np.ones((X.shape[0], 1))])

    E = aug(train.positives())
    F = aug(train.negatives())
    Fs = aug(train.negatives()[plan.x2_star_indices])
    m1 = E.shape[0]

    def solve(M, ridge, H, lin, upper, sign):
        fac = cho_factor(M.T @ M + ridge * np.eye(M.shape[1]))
        Q = H @ cho_solve(fac, H.T)
        sol = solve_box_qp(BoxQP(0.5 * (Q + Q.T), lin, upper), tol=1e-10)
        return sign * cho_solve(fac, H.T @ sol.z)

    z1 = solve(E, hp.c3, Fs, np.ones(m1), hp.c1 * np.ones(m1), -1.0)
    z2 = solve(F, hp.c4, E, np.ones(m1), hp.c2 * np.ones(m1), +1.0)
    return z1, z2


@pytest.fixture
def solver_calls(monkeypatch):
    """The names of the Hessian, factor and solve stages a fit called, in order."""
    calls = []
    for name in ("_hessian", "spd_factor", "solve_box_qp"):
        def spy(*args, _name=name, _original=getattr(models, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(models, name, spy)
    return calls


class TestFitIFUTSVM:
    def test_all_ones_scores_and_zero_cu_reduce_to_twin_svm(self, blobs):
        ds = blobs(6, 16, seed=3)
        hp = Hyperparams(**{**HP, "cu": 0.0}, seed=11)
        model = fit_ifutsvm_id(ds, hp, uniform=True)
        z1_ref, z2_ref = reference_twin_svm(ds, build_plan(ds, hp.seed), hp)
        assert_allclose(np.append(model.w1, model.b1), z1_ref, atol=1e-6)
        assert_allclose(np.append(model.w2, model.b2), z2_ref, atol=1e-6)

    def test_outliers_get_low_scores_and_fuzzy_fit_helps(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            Xp = rng.normal([0, 0], 0.4, (5, 2))
            Xn = rng.normal([3, 0], 0.6, (50, 2))
            Xo = rng.normal([3, 0], 0.3, (3, 2))  # mislabeled, deep in the negatives
            X = np.vstack([Xp, Xo, Xn])
            y = np.array([1] * 8 + [-1] * 50)
            ds = Dataset("out", X, y)
            hp = Hyperparams(c1=10, c2=10, c3=0.1, c4=0.1, cu=0.1,
                             epsilon=0.1, seed=seed)
            fuzzy = fit_ifutsvm_id(ds, hp)
            sw = fuzzy.dual_report.scores
            assert np.all(sw.scores[5:8] < np.median(sw.scores[:5]))
            ablation = fit_ifutsvm_id(ds, hp, uniform=True)
            clean_pos = rng.normal([0, 0], 0.4, (30, 2))
            acc_f = np.mean(predict(fuzzy, clean_pos) == 1)
            acc_a = np.mean(predict(ablation, clean_pos) == 1)
            wins += acc_f >= acc_a
        assert wins > 10  # majority of seeds

    def test_wide_kernel_matches_linear_predictions(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal([0, 0], 0.3, (8, 2)),
                       rng.normal([6, 0], 0.3, (18, 2))])
        y = np.array([1] * 8 + [-1] * 18)
        ds = Dataset("sep", X, y)
        Xt = np.vstack([rng.normal([0, 0], 0.3, (25, 2)),
                        rng.normal([6, 0], 0.3, (45, 2))])
        kw = dict(c1=100.0, c2=100.0, c3=1e-6, c4=1e-6, cu=0.1, epsilon=0.1)
        linear = fit_ifutsvm_id(ds, Hyperparams(**kw, seed=3))
        kernel = fit_ifutsvm_id(ds, Hyperparams(**kw, kernel=KernelSpec(32.0), seed=3))
        assert_array_equal(predict(kernel, Xt), predict(linear, Xt))

    def test_balanced_data_fallback(self, blobs):
        ds = blobs(8, 8, seed=4)
        model = fit_ifutsvm_id(ds, Hyperparams(**HP, seed=0))
        assert model.dual_report.balanced_fallback
        assert model.dual_report.beta.size == 0
        assert model.dual_report.theta.size == 0
        assert np.mean(predict(model, ds.features) == ds.labels) == 1.0

    def test_duality_gap_closes(self, blobs):
        for seed, kernel in [(0, None), (1, KernelSpec(1.5))]:
            ds = blobs(5, 18, seed=seed)
            hp = Hyperparams(**HP, kernel=kernel,
                             fuzzy=FuzzyParams(eta=0.5, rho=0.8), seed=seed)
            model = fit_ifutsvm_id(ds, hp)
            g1, g2 = duality_gaps(model, ds)
            rep = model.dual_report
            assert g1 <= 1e-4 * (1 + abs(rep.dual_objective_1))
            assert g2 <= 1e-4 * (1 + abs(rep.dual_objective_2))

    def test_complementary_slackness_interior_duals(self, blobs):
        ds = blobs(8, 30, seed=5, gap=2.0)
        hp = Hyperparams(**HP, fuzzy=FuzzyParams(eta=0.5, rho=0.8), seed=2)
        model = fit_ifutsvm_id(ds, hp)
        rep = model.dual_report
        plane1, plane2 = whole_duals(_blocks(ds, hp.kernel, plan=rep.plan, scores=rep.scores), hp,
                                     "ifutsvm-id")
        z1 = np.append(model.w1, model.b1)
        margins = plane1.lin - plane1.sign * (plane1.H @ z1)
        lam = np.concatenate([rep.alpha, rep.beta])
        interior = (lam > 1e-5) & (lam < plane1.upper - 1e-5)
        if np.any(interior):
            assert np.max(np.abs(margins[interior])) <= 1e-4

    def test_scores_partition_matches_bounds(self, blobs):
        # upper bound of each class multiplier is the weighted score
        ds = blobs(6, 20, seed=6)
        hp = Hyperparams(**HP, fuzzy=FuzzyParams(eta=0.5, rho=0.8), seed=3)
        model = fit_ifutsvm_id(ds, hp)
        rep = model.dual_report
        s2_sel = rep.scores.s2[rep.plan.x2_star_indices]
        assert np.all(rep.alpha <= hp.c1 * s2_sel + 1e-12)
        assert np.all(rep.eta <= hp.c2 * rep.scores.s1 + 1e-12)

    def test_raising_score_bound_weakly_increases_dual_room(self, blobs):
        # box monotonicity of the solver: enlarging one upper bound cannot
        # reduce the attainable dual objective
        ds = blobs(6, 20, seed=8)
        hp = Hyperparams(**HP, seed=4)
        plan = build_plan(ds, hp.seed)
        sw = uniform_scores(ds)
        plane1, _ = whole_duals(_blocks(ds, hp.kernel, plan=plan, scores=sw), hp, "ifutsvm-id")
        fac = cho_factor(plane1.M.T @ plane1.M + plane1.ridge * np.eye(plane1.M.shape[1]))
        Q = plane1.H @ cho_solve(fac, plane1.H.T)
        Q = 0.5 * (Q + Q.T)
        base = solve_box_qp(BoxQP(Q, plane1.lin, plane1.upper), tol=1e-10)
        bigger = plane1.upper.copy()
        bigger[0] *= 2.0
        grown = solve_box_qp(BoxQP(Q, plane1.lin, bigger), tol=1e-10)
        assert grown.objective >= base.objective - 1e-9

    def test_minority_must_be_positive(self, blobs):
        ds = blobs(10, 4, seed=9)  # majority labeled +1
        with pytest.raises(TrainingError):
            fit_ifutsvm_id(ds, Hyperparams(**HP, seed=0))

    def test_degenerate_plane_raises(self):
        X = np.zeros((8, 2))  # all-zero features force w = 0
        y = np.array([1, 1] + [-1] * 6)
        with pytest.raises(TrainingError, match="degenerate"):
            fit_ifutsvm_id(Dataset("z", X, y), Hyperparams(**HP, seed=0))

    def test_collapsed_minority_scores_leave_plane_2_degenerate(self, solver_calls):
        # at width 0.5 every minority fuzzy score of this set is 0, so plane 2
        # has no class multiplier left and its w vanishes: the fit says so
        # before any Hessian or solve (TestZeroWeightPlanes)
        hp = Hyperparams(**HP, kernel=KernelSpec(0.5))
        assert not np.any(assign_scores(KEEL_SHAPED, hp.kernel, hp.fuzzy).s1 > 0)
        with pytest.raises(TrainingError) as info:
            fit_ifutsvm_id(KEEL_SHAPED, hp)
        assert str(info.value) == "degenerate plane 2: ||w|| < 1e-12"
        assert solver_calls == []


class TestZeroWeightPlanes:
    """A plane whose class weights are all zero fails at the prepared blocks,
    before any Hessian, factor or solve, with the text its solve would end in
    (plane 2: TestFitIFUTSVM's collapsed-scores test)."""

    @pytest.mark.parametrize("zeroed", [("s2",), ("s1", "s2")], ids=["plane-1", "both"])
    def test_plane_1_is_checked_first(self, monkeypatch, solver_calls, zeroed):
        def zero_scores(*args, **kwargs):
            sw = assign_scores(*args, **kwargs)
            return dataclasses.replace(sw, **{name: np.zeros_like(getattr(sw, name))
                                              for name in zeroed})
        monkeypatch.setattr(models, "assign_scores", zero_scores)
        with pytest.raises(TrainingError) as info:
            fit_ifutsvm_id(KEEL_SHAPED, Hyperparams(**HP, kernel=KernelSpec(2.0)))
        assert str(info.value) == "degenerate plane 1: ||w|| < 1e-12"
        assert solver_calls == []

    @pytest.mark.parametrize("cu, epsilon", [(0.0, 0.1), (0.01, 0.5), (100.0, 0.9)])
    def test_the_solve_it_skips_ends_at_zero(self, cu, epsilon):
        # what the early exit stands for: z = 0 after one sweep, so w = 0
        hp = Hyperparams(**{**HP, "cu": cu, "epsilon": epsilon}, kernel=KernelSpec(0.5))
        blocks = _blocks(KEEL_SHAPED, hp.kernel, plan=build_plan(KEEL_SHAPED, hp.seed),
                         scores=assign_scores(KEEL_SHAPED, hp.kernel, hp.fuzzy))
        plane = whole_duals(blocks, hp, "ifutsvm-id")[1]
        fac = cho_factor(plane.M.T @ plane.M + plane.ridge * np.eye(plane.M.shape[1]))
        Q = plane.H @ cho_solve(fac, plane.H.T)
        sol = solve_box_qp(BoxQP(0.5 * (Q + Q.T), plane.lin, plane.upper))
        assert not sol.z.any() and sol.iterations == 1 and sol.kkt_residual == 0.0


class TestOneGramPerPrepare:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        calls = []
        gram = models.gram_values

        def counted(A, B, spec):
            calls.append((A.shape, B.shape))
            return gram(A, B, spec)

        monkeypatch.setattr(models, "gram_values", counted)
        return calls

    # a balanced plan, a universum topped up to ceil(m1 / 2) = 10 rows, and
    # one that the reduced universum is drawn from
    @pytest.mark.parametrize("m2", [20, 24, 34])
    @pytest.mark.parametrize("kind", ["ifutsvm-id", "utsvm"])
    def test_one_kernel_evaluation_per_fit(self, gram_calls, kind, m2):
        ds = make_blobs(20, m2, seed=1, d=3)
        hp = Hyperparams(**HP, kernel=KernelSpec(2.0), seed=1)
        if kind == "ifutsvm-id":
            model = fit_ifutsvm_id(ds, hp)
            assert model.dual_report.universum is None  # the plan holds it
            # each G* row is a universum row or a top-up row, mapped once
            u = m2 - 20
            extra = max(u, 10) if u else 0
        else:
            model = fit_utsvm(ds, generate_universum(ds, m2 - 20, seed=1)[0], hp)
            extra = m2 - 20
        assert gram_calls == [((ds.m + extra, 3), (ds.m, 3))]
        duality_gaps(model, ds)  # rebuilds the blocks with one more evaluation
        assert len(gram_calls) == 2

    @pytest.mark.parametrize("m2", [8, 20])
    @pytest.mark.parametrize("kernel", [None, KernelSpec(2.0)])
    def test_blocks_equal_one_evaluation_per_row_set(self, kernel, m2):
        # each preset's rows, plane 2's universum sign (UTSVM -U, IFUTSVM-ID
        # +G), class weights and ridges
        ds = make_blobs(8, m2, seed=3, d=3)
        X1, X2 = ds.positives(), ds.negatives()

        def block(X):
            R = X if kernel is None else gram_values(X, np.vstack([X1, X2]), kernel)
            return np.hstack([R, np.ones((R.shape[0], 1))])

        plan = build_plan(ds, 3)
        scores = assign_scores(ds, kernel, FuzzyParams())
        E, F, Fs, G, Gs = map(block, (X1, X2, X2[plan.x2_star_indices], plan.universum,
                                      plan.universum_star))
        hp = Hyperparams(**{**HP, "c4": 0.3}, kernel=kernel)
        with_delta = dataclasses.replace(hp, delta=0.25)

        def ridges(blocks, hp, kind):
            return [plane.ridge for plane in whole_duals(blocks, hp, kind)]

        blocks = _blocks(ds, kernel, plan=plan, scores=scores)
        for got, want in zip((*blocks.M, *blocks.H),
                             (E, F, np.vstack([Fs, -Gs]), np.vstack([E, G]))):
            assert_array_equal(got, want)
        assert_array_equal(blocks.weights[0], scores.s2[plan.x2_star_indices])
        assert_array_equal(blocks.weights[1], scores.s1)
        assert ridges(blocks, hp, "ifutsvm-id") == [0.1, 0.3]
        assert ridges(blocks, with_delta, "ifutsvm-id") == [0.1, 0.3]

        blocks = _blocks(ds, kernel, plan.universum)
        for got, want in zip((*blocks.M, *blocks.H),
                             (E, F, np.vstack([F, -G]), np.vstack([E, -G]))):
            assert_array_equal(got, want)
        assert_array_equal(blocks.weights[0], np.ones(m2))
        assert_array_equal(blocks.weights[1], np.ones(8))
        scale = 1e-7 if kernel is None else 1e-3
        assert ridges(blocks, hp, "utsvm") == [scale * float(np.sum(M * M)) / M.shape[1]
                                               for M in (E, F)]
        assert ridges(blocks, with_delta, "utsvm") == [0.25, 0.25]

    @pytest.mark.parametrize("kind", ["ifutsvm-id", "utsvm"])
    def test_no_kernel_evaluation_in_linear_mode(self, gram_calls, kind):
        ds = make_blobs(8, 20, seed=2, d=3)
        hp = Hyperparams(**HP, seed=2)
        model = fit_ifutsvm_id(ds, hp) if kind == "ifutsvm-id" else fit_utsvm(ds, None, hp)
        duality_gaps(model, ds)
        assert gram_calls == []


class TestOneBoxQPPerHessian:
    """Q is checked, symmetrised and sliced into sweep rows once per dual
    Hessian; each lattice point attaches only its own linear term and box."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"BoxQP": 0, "spd_factor": 0, "solve_box_qp": 0, "fit_model": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("BoxQP", "spd_factor", "solve_box_qp"):
            counted(models, name)
        counted(evaluation, "fit_model")
        return calls

    @pytest.mark.parametrize("kind", ["ifutsvm-id", "utsvm"])
    def test_one_problem_per_hessian_in_a_kernel_search(self, calls, monkeypatch, kind):
        signs = []  # of each plane solved: -1 plane 1, +1 plane 2
        c_calls = []  # of the C plane solve behind each
        solve, c_solve = models.solve_box_qp, qp._solve_plane

        def observed(plane, *args, **kwargs):
            signs.append(plane.sign)
            return solve(plane, *args, **kwargs)

        monkeypatch.setattr(models, "solve_box_qp", observed)
        monkeypatch.setattr(qp, "_solve_plane", lambda *args: c_calls.append(1) or c_solve(*args))
        grid = GridSpec(c1=(0.1, 10.0), c3=(0.01, 1.0), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                        width=(1.0, 4.0))
        k = 3
        _, table = grid_search_cv(make_blobs(10, 40, seed=0, d=4), kind, grid, k=k, seed=4)
        assert not any(row["flags"] for row in table)
        assert calls["BoxQP"] == calls["spd_factor"]
        assert calls["solve_box_qp"] == len(signs) == len(c_calls)
        # plane 1 solves once per fold fit; IFUTSVM-ID's screened plane 2
        # solves its class rows, whose dual reads neither cu nor epsilon, once
        # per (fold, width, c3, c1), and no universum row of this clean set binds
        fits = calls["fit_model"]
        slabs = k * len(grid.width) * len(grid.c3) * len(grid.c1)
        assert signs.count(-1.0) == fits
        assert signs.count(1.0) == (slabs if kind == "ifutsvm-id" else fits)
        assert calls["BoxQP"] < calls["solve_box_qp"]

    def test_lattice_points_share_one_checked_q(self, monkeypatch):
        problems = []
        solve = models.solve_box_qp

        def observed(plane, *args, **kwargs):
            problems.append(plane.problem)
            return solve(plane, *args, **kwargs)

        monkeypatch.setattr(models, "solve_box_qp", observed)
        ds = make_blobs(10, 30, seed=5, d=3)
        stages = models.FitStages()
        points = [dict(HP, c1=c1, c2=c1, cu=cu, epsilon=eps)
                  for c1, cu, eps in ((0.1, 0.5, 0.1), (10.0, 0.0, 0.4), (1.0, 2.0, 0.2))]
        fits = [fit_ifutsvm_id(ds, Hyperparams(**point, kernel=KernelSpec(2.0), seed=5),
                               stages=stages) for point in points]
        for plane in (0, 1):
            first, *rest = problems[plane::2]
            for problem in rest:
                assert problem.Q is first.Q and problem._diagonals is first._diagonals
        # and the shared Q gives the bits of a fit that checks its own
        for point, shared in zip(points, fits):
            alone = fit_ifutsvm_id(ds, Hyperparams(**point, kernel=KernelSpec(2.0), seed=5))
            for name in ("w1", "b1", "w2", "b2"):
                assert_array_equal(getattr(shared, name), getattr(alone, name))


def noisy_blobs(seed: int, flips: int = 3, m1: int = 10, m2: int = 40) -> Dataset:
    """make_blobs with `flips` labels of each class swapped, so the class sizes stay."""
    ds = make_blobs(m1, m2, seed=seed, d=3, gap=2.0)
    rng = np.random.default_rng(seed)
    y = ds.labels.copy()
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == -1)
    y[rng.choice(pos, flips, replace=False)] = -1
    y[rng.choice(neg, flips, replace=False)] = 1
    return Dataset("noisy", ds.features, y)


def full_plane_2(model, ds):
    """IFUTSVM-ID's plane 2 of a fit, with all its rows."""
    rep, hp = model.dual_report, model.hyperparams
    return whole_duals(_blocks(ds, hp.kernel, plan=rep.plan, scores=rep.scores), hp,
                       "ifutsvm-id")[1]


def full_hessian_2(model, ds):
    """The Hessian context of IFUTSVM-ID's plane 2 of a fit over all its rows."""
    rep, hp = model.dual_report, model.hyperparams
    return models._hessian(_blocks(ds, hp.kernel, plan=rep.plan, scores=rep.scores), 1, hp.c4,
                           False)


class TestScreenedPlane2:
    """IFUTSVM-ID's plane 2 solves its class rows, checks its universum rows
    on the recovered plane and solves its full dual only when one binds."""

    @pytest.fixture
    def hessian_rows(self, monkeypatch):
        """(sign, rows) of every dual Hessian formed: -1 plane 1, +1 plane 2."""
        rows = []
        hessian = models._hessian

        def observed(*args):
            plane = hessian(*args)
            rows.append((plane.sign, plane.size))
            return plane

        monkeypatch.setattr(models, "_hessian", observed)
        return rows

    @pytest.mark.parametrize("width", [1.0, 4.0])
    def test_clean_kernel_fit_forms_no_full_plane_2_hessian(self, hessian_rows, width):
        model = fit_ifutsvm_id(make_blobs(10, 40, seed=0, d=4),
                               Hyperparams(**HP, kernel=KernelSpec(width), seed=1))
        # plane 1: m1 undersampled rows and ceil(m1 / 2) reduced universum rows;
        # plane 2: its m1 class rows, not its m2 - m1 universum rows
        assert hessian_rows == [(-1.0, 15), (1.0, 10)]
        rep = model.dual_report
        assert not rep.universum_bound_2
        assert_array_equal(rep.theta, np.zeros(30))

    @pytest.mark.parametrize("seed, flips, kernel", [(4, 3, None), (17, 5, KernelSpec(2.0))])
    def test_binding_universum_takes_the_full_dual(self, hessian_rows, seed, flips, kernel):
        # label noise and a wide tube: a universum row asks for
        # G_j (w2; b2) >= epsilon - 1 = -0.4, and one of this set's does not get it
        ds = noisy_blobs(seed, flips)
        hp = Hyperparams(**{**HP, "c1": 10.0, "c2": 10.0, "cu": 1.0, "epsilon": 0.6},
                         kernel=kernel, seed=seed)
        model = fit_ifutsvm_id(ds, hp)
        rep = model.dual_report
        assert rep.universum_bound_2 and np.any(rep.theta > 0)
        assert hessian_rows == [(-1.0, 15), (1.0, 10), (1.0, 40)]
        plane2 = full_plane_2(model, ds)
        sol = models.solve_box_qp(full_hessian_2(model, ds), hp.c2, hp.cu, hp.epsilon,
                                  tol=qp.DEFAULT_TOL * max(1.0, float(plane2.upper.max())))
        assert_array_equal(model.w2, sol.coefficients[:-1])
        assert model.b2 == sol.coefficients[-1]
        assert_array_equal(rep.theta, sol.z[rep.eta.size:])
        assert (rep.kkt_residual_2, rep.dual_objective_2, rep.iterations_2) == (
            sol.kkt_residual, sol.objective, sol.iterations)

    @pytest.mark.parametrize("kernel", [None, KernelSpec(2.0)])
    def test_cu_and_epsilon_share_one_plane_2_solve(self, monkeypatch, kernel):
        sizes = []
        solve = models.solve_box_qp

        def observed(plane, *args, **kwargs):
            sizes.append(plane.size)
            return solve(plane, *args, **kwargs)

        monkeypatch.setattr(models, "solve_box_qp", observed)
        ds = make_blobs(10, 40, seed=0, d=4)
        stages = models.FitStages()
        hps = [Hyperparams(**{**HP, "cu": cu, "epsilon": eps}, kernel=kernel, seed=1)
               for cu in (0.1, 1.0) for eps in (0.1, 0.5)]
        shared = [fit_ifutsvm_id(ds, hp, stages=stages) for hp in hps]
        # plane 1's dual has m1 + ceil(m1 / 2) = 15 coordinates, plane 2's
        # class-row dual m1 = 10
        assert sizes == [15, 10, 15, 15, 15]
        for hp, fit in zip(hps, shared):
            alone = fit_ifutsvm_id(ds, hp)
            for name in ("w1", "b1", "w2", "b2"):
                assert_array_equal(getattr(fit, name), getattr(alone, name))
            for name in ("eta", "theta", "kkt_residual_2", "dual_objective_2"):
                assert_array_equal(getattr(fit.dual_report, name),
                                   getattr(alone.dual_report, name))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), m1=st.integers(4, 10), extra=st.integers(0, 20),
           flips=st.integers(0, 3), width=st.sampled_from([None, 0.5, 2.0]),
           c1=st.sampled_from([0.01, 1.0, 100.0]), c3=st.sampled_from([1e-3, 1.0]),
           cu=st.sampled_from([0.0, 0.1, 10.0]), epsilon=st.sampled_from([0.1, 0.6]))
    def test_plane_2_solves_its_full_dual(self, seed, m1, extra, flips, width, c1, c3, cu,
                                          epsilon):
        ds = noisy_blobs(seed, min(flips, m1 - 2), m1, m1 + extra)
        hp = Hyperparams(c1=c1, c2=c1, c3=c3, c4=c3, cu=cu, epsilon=epsilon,
                         kernel=None if width is None else KernelSpec(width), seed=seed)
        try:
            model = fit_ifutsvm_id(ds, hp)
        except (qp.NumericalError, TrainingError):
            assume(False)
        rep = model.dual_report
        plane2 = full_plane_2(model, ds)
        problem = BoxQP(full_hessian_2(model, ds).problem.Q, plane2.lin, plane2.upper)
        tol = qp.DEFAULT_TOL * max(1.0, float(plane2.upper.max()))
        assert kkt_residual(problem, np.concatenate([rep.eta, rep.theta])) <= tol
        assert rep.kkt_residual_2 <= tol


@pytest.mark.parametrize("kind, width, case", [
    ("utsvm", None, "blobs"), ("utsvm", 2.0, "blobs"), ("ifutsvm-id", None, "blobs"),
    ("ifutsvm-id", 2.0, "blobs"), ("ifutsvm-id", None, "balanced"), ("ifutsvm-id", None, "bound")])
def test_duality_gaps_are_the_reference_primals_bit_for_bit(kind, width, case):
    # the digest hashes these gaps: each is |primal - dual| with the primal
    # summed as primal_value sums it over the whole dual of whole_duals
    hp = Hyperparams(**HP, kernel=None if width is None else KernelSpec(width), seed=3)
    if case == "balanced":  # no universum: the plan falls back to the balanced classes
        ds = make_blobs(12, 12, seed=3, d=3)
    elif case == "bound":  # plane 2's universum binds (TestScreenedPlane2)
        ds = noisy_blobs(4, 3)
        hp = Hyperparams(**{**HP, "c1": 10.0, "c2": 10.0, "cu": 1.0, "epsilon": 0.6}, seed=4)
    else:
        ds = make_blobs(8, 30, seed=3, d=3)
    model = evaluation.fit_model(kind, ds, hp)
    rep = model.dual_report
    assert rep.balanced_fallback == (case == "balanced")
    assert rep.universum_bound_2 == (case == "bound")
    blocks = _blocks(ds, hp.kernel, rep.universum, rep.plan, rep.scores)
    want = [abs(primal_value(dual, np.append(w, b)) - objective).hex()
            for dual, w, b, objective in zip(
                whole_duals(blocks, hp, kind), (model.w1, model.w2), (model.b1, model.b2),
                (rep.dual_objective_1, rep.dual_objective_2))]
    assert [gap.hex() for gap in duality_gaps(model, ds)] == want


def point(**values):
    """A lattice point the solve stage reads, unchecked, so that it can hold
    bounds Hyperparams rejects."""
    return SimpleNamespace(**{**HP, "c2": values.get("c1", HP["c1"]), "c4": values.get(
        "c3", HP["c3"]), "delta": None, "kernel": None, **values})


def plane_bits(blocks, index, hp, kind, reference=False, max_iter=qp.DEFAULT_MAX_ITER):
    """Everything the solve stage of one plane reports, as exact bytes: (w; b),
    z over every row, the objective and the full dual's KKT residual in hex,
    the counts and whether the universum bound; or the error's type and text
    (a NonConvergenceError's with its best iterate).  max_iter reaches the
    reference only."""
    try:
        if reference:
            coefficients, sol, bound = reference_plane_solve(blocks, index, hp, kind, max_iter)
            kkt = sol.kkt_residual
        else:
            stages = models.FitStages()
            stages.blocks(blocks, (), lambda: blocks)
            ridge = models._ridges(blocks, hp, kind)[index]
            sol, kkt, bound = stages.solve(index, ridge, (hp.c1, hp.c2)[index], hp.cu,
                                           hp.epsilon)
            coefficients = sol.coefficients
    except qp.NonConvergenceError as exc:
        best = exc.best
        return (type(exc), str(exc), best.z.tobytes(), best.objective.hex(),
                best.kkt_residual.hex(), best.iterations, best.checks, best.refinements,
                best.accepted, best.least_squares)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)
    return (coefficients.tobytes(), sol.z.tobytes(), sol.objective.hex(), kkt.hex(),
            sol.iterations, sol.checks, sol.refinements, sol.accepted, sol.least_squares, bound)


def random_blocks(rng, classes, universum, zero_share=0.0, d=3):
    """Two planes on random blocks, IFUTSVM-ID's shape: plane 1 solves all its
    rows, plane 2 only its class rows (screened); `zero_share` of the weights
    are zero."""
    def plane(k, u):
        M = np.hstack([rng.normal(size=(k + 2, d)), np.ones((k + 2, 1))])
        H = np.hstack([rng.normal(size=(k + u, d)) * rng.uniform(0.5, 3.0), np.ones((k + u, 1))])
        H[k:] *= rng.choice([-1.0, 1.0])
        weights = rng.uniform(0.0, 1.0, size=k)
        weights[rng.random(k) < zero_share] = 0.0
        return M, H, weights

    (M1, H1, w1), (M2, H2, w2) = plane(classes, universum), plane(classes, universum)
    return models._Blocks(D=None, M=(M1, M2), H=(H1, H2), weights=(w1, w2),
                          screened=(False, True))


def fitted_blocks(ds, kind, kernel, seed):
    """The prepare stage of a fit of either kind."""
    if kind == "utsvm":
        universum, _ = generate_universum(ds, ds.m2 - ds.m1, seed)
        return _blocks(ds, kernel, universum)
    return _blocks(ds, kernel, plan=build_plan(ds, seed),
                   scores=assign_scores(ds, kernel, FuzzyParams()))


class TestOnePlaneCall:
    """The solve stage of a plane is one C call (qp.solve_plane) that builds the
    box, solves, recovers (w; b) and screens a screened plane's universum; it
    gives the bits of the numpy path (reference_plane_solve) it replaced."""

    @pytest.mark.parametrize("kind", ["utsvm", "ifutsvm-id"])
    @pytest.mark.parametrize("width", [None, 0.5, 2.0])
    def test_fitted_planes_match_the_reference(self, kind, width):
        kernel = None if width is None else KernelSpec(width)
        rng = np.random.default_rng(int(1000 * (width or 0)) + len(kind))
        bound = set()
        # the two noisy sets bind plane 2's universum at c1 = 10, cu = 1 and
        # epsilon = 0.6 (see test_binding_universum_takes_the_full_dual)
        for seed, ds in ((4, noisy_blobs(4, 3)), (17, noisy_blobs(17, 5)),
                         (0, noisy_blobs(0, 0, 6, 24)), (1, noisy_blobs(1, 2, 7, 24))):
            blocks = fitted_blocks(ds, kind, kernel, seed)
            points = [point(c1=10.0, cu=1.0, epsilon=0.6, kernel=kernel)]
            points += [point(c1=float(10.0 ** rng.uniform(-2, 2)),
                             c3=float(10.0 ** rng.uniform(-3, 0)),
                             cu=float(rng.choice([0.0, 0.1, 1.0])),
                             epsilon=float(rng.choice([0.1, 0.6])), kernel=kernel)
                       for _ in range(2)]
            for hp in points:
                for index in (0, 1):
                    bits = plane_bits(blocks, index, hp, kind)
                    assert bits == plane_bits(blocks, index, hp, kind, reference=True)
                    if blocks.screened[index] and len(bits) == 10:
                        bound.add(bits[-1])
        if kind == "ifutsvm-id" and width != 0.5:
            assert bound == {False, True}  # screened planes that bind and that do not

    @pytest.mark.parametrize("classes, universum, zero_share, cu_max", [
        (6, 1, 0.0, 3.0), (5, 9, 0.0, 3.0), (8, 3, 0.5, 3.0), (1, 4, 0.0, 3.0),
        (7, 0, 0.3, 3.0), (4, 6, 1.0, 3.0), (12, 12, 0.0, 1e3)],
        ids=["one-universum-row", "universum-heavy", "zero-weights", "one-class-row",
             "no-universum", "all-weights-zero", "cu-sets-the-tolerance"])
    def test_random_planes_match_the_reference(self, classes, universum, zero_share, cu_max):
        rng = np.random.default_rng(100 * classes + universum)
        for _ in range(6):
            blocks = random_blocks(rng, classes, universum, zero_share)
            for epsilon in (0.1, 0.6, 0.95):
                hp = point(c1=float(10.0 ** rng.uniform(-2, 2)), cu=float(rng.uniform(0, cu_max)),
                           epsilon=epsilon)
                for index in (0, 1):
                    assert plane_bits(blocks, index, hp, "ifutsvm-id") == plane_bits(
                        blocks, index, hp, "ifutsvm-id", reference=True)

    def test_a_screened_plane_rescreens_a_shared_solve_per_cu_and_epsilon(self):
        # the class-row solve is held for every (cu, epsilon) with its penalty;
        # each point screens the held plane again, as the reference screens it
        rng = np.random.default_rng(7)
        blocks = random_blocks(rng, 6, 12)
        stages = models.FitStages()
        stages.blocks(blocks, (), lambda: blocks)
        seen = set()
        for cu in (0.0, 0.1, 1.0, 3.0):
            for epsilon in (0.1, 0.5, 0.9):
                hp = point(c1=2.0, cu=cu, epsilon=epsilon)
                sol, kkt, bound = stages.solve(1, hp.c4, hp.c2, cu, epsilon)
                coefficients, expected, expected_bound = reference_plane_solve(
                    blocks, 1, hp, "ifutsvm-id")
                assert (sol.coefficients.tobytes(), sol.z.tobytes(), kkt.hex(), bound) == (
                    coefficients.tobytes(), expected.z.tobytes(), expected.kkt_residual.hex(),
                    expected_bound)
                seen.add(bound)
        assert seen == {False, True}

    @pytest.mark.parametrize("values, error", [
        (dict(c1=np.inf), qp.NonFiniteError), (dict(cu=np.inf), qp.NonFiniteError),
        (dict(epsilon=np.nan), qp.NonFiniteError), (dict(cu=-0.5), ValueError)],
        ids=["infinite-penalty", "infinite-cu", "nan-epsilon", "negative-cu"])
    def test_rejected_bounds_raise_the_reference_errors(self, values, error):
        blocks = random_blocks(np.random.default_rng(3), 6, 4)
        hp = point(**values)
        for index in (0, 1):
            bits = plane_bits(blocks, index, hp, "ifutsvm-id")
            assert bits == plane_bits(blocks, index, hp, "ifutsvm-id", reference=True)
        # plane 1's dual holds its universum rows; screened plane 2's holds
        # its class rows only, so only the penalty reaches its box there
        assert plane_bits(blocks, 0, hp, "ifutsvm-id")[0] is error
        assert len(plane_bits(blocks, 1, hp, "ifutsvm-id")) == (2 if "c1" in values else 10)

    def test_the_sweep_limit_raises_with_the_reference_best(self, monkeypatch):
        blocks = fitted_blocks(noisy_blobs(17, 5), "ifutsvm-id", KernelSpec(2.0), 17)
        hp = point(c1=10.0, cu=1.0, epsilon=0.6, kernel=KernelSpec(2.0))
        monkeypatch.setattr(models, "solve_box_qp", functools.partial(qp.solve_plane,
                                                                      max_iter=2))
        for index in (0, 1):
            bits = plane_bits(blocks, index, hp, "ifutsvm-id")
            assert bits[0] is qp.NonConvergenceError and "did not converge in 2 sweeps" in bits[1]
            assert bits == plane_bits(blocks, index, hp, "ifutsvm-id", reference=True,
                                      max_iter=2)

    def test_a_degenerate_plane_fails_as_the_reference_does(self):
        blocks = random_blocks(np.random.default_rng(5), 5, 3, zero_share=1.0)
        hp = point(cu=0.0)
        for index, which in ((0, "1"), (1, "2")):
            errors = []
            for reference in (False, True):
                bits = plane_bits(blocks, index, hp, "ifutsvm-id", reference)
                with pytest.raises(TrainingError) as err:
                    models._split_coefficients(np.frombuffer(bits[0]), which)
                errors.append(str(err.value))
            assert errors == [f"degenerate plane {which}: ||w|| < {models.DEGENERATE_NORM}"] * 2

    def test_the_context_holds_addresses_and_cannot_be_copied(self):
        blocks = random_blocks(np.random.default_rng(9), 4, 2)
        plane = models._hessian(blocks, 0, 0.1, False)
        for copy_of in (pickle.dumps, copy.deepcopy):
            with pytest.raises(TypeError, match="raw addresses"):
                copy_of(plane)


@pytest.mark.parametrize("call, error, message", [
    (lambda ds, hp: fit_utsvm(ds, np.zeros((3, ds.n + 1)), hp), ValueError,
     "universum feature dimension does not match the data"),
    (lambda ds, hp: fit_ifutsvm_id(Dataset("one", ds.features[5:], ds.labels[5:]), hp),
     TrainingError, "positive class needs at least 2 samples"),
    (lambda ds, hp: duality_gaps(dataclasses.replace(fit_ifutsvm_id(ds, hp), dual_report=None),
                                 ds), ValueError, "model carries no dual report"),
], ids=["universum-width", "one-positive", "no-dual-report"])
def test_fit_boundaries_reject_what_they_cannot_use(call, error, message):
    with pytest.raises(error, match=message):
        call(make_blobs(6, 14, seed=0), Hyperparams(**HP, seed=0))


def test_fit_digest_compare_names_the_worst_fit_and_its_box_scale():
    # the third fit of the digest is a UTSVM fit at c1 = 100 without a universum
    key, _, fit = list(itertools.islice(fit_digest._fits(), 3))[2]
    assert "100.0" in key
    record = fit_digest._record(fit())
    moved = dict(record, b2=record["b2"] + 1.0)
    worst = fit_digest.compare({key: record}, {key: moved})[1]
    assert worst.startswith("worst relative coefficient difference ")
    assert worst.endswith(f" in plane 2 of {key}, box scale 100")


def test_fit_digest_subset_is_repeatable():
    # fit_digest.py run by hand gives the digest that shows a change keeps
    # every bit; here one seed at one lattice point, run twice
    first = fit_digest.digest(seeds=(0,), points=fit_digest.POINTS[:1])
    assert first[0] == 72
    assert fit_digest.digest(seeds=(0,), points=fit_digest.POINTS[:1]) == first


class TestDecision:
    @pytest.fixture
    def model(self, blobs):
        ds = blobs(6, 14, seed=10)
        return fit_ifutsvm_id(ds, Hyperparams(**HP, seed=5))

    def test_point_on_plane_has_zero_distance(self, model):
        w, b = model.w1, model.b1
        x0 = np.zeros_like(w)
        x = x0 - (w @ x0 + b) / (w @ w) * w  # project onto plane 1
        d1, _ = decision_distances(model, x)
        assert d1 <= 1e-10

    def test_distance_invariant_under_plane_rescaling(self, model):
        scaled = dataclasses.replace(model, w1=3.0 * model.w1, b1=3.0 * model.b1)
        x = np.array([0.7, -0.2])
        assert_allclose(decision_distances(scaled, x)[0],
                        decision_distances(model, x)[0], rtol=1e-12)

    def test_mirror_planes_are_equidistant_and_tie_to_positive(self):
        w = np.array([1.0, -2.0])
        model = TwinModel(kind="utsvm", w1=w, b1=0.5,
                          w2=-w, b2=-0.5, reference=None,
                          hyperparams=Hyperparams(**HP, seed=0))
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 2))
        d1, d2 = decision_distances(model, X)
        assert_allclose(d1, d2, rtol=1e-12)
        assert_array_equal(predict(model, X), 1)

    def test_dimension_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            predict(model, np.zeros(5))

    def test_rkhs_norm_flag(self, tmp_path, blobs):
        # plane distances always use ||w||, kernel mode included, so a model
        # file asking for the RKHS norm cannot be honoured
        ds = blobs(5, 12, seed=12)
        for kernel in (None, KernelSpec(1.0)):
            model = fit_ifutsvm_id(ds, Hyperparams(**HP, kernel=kernel, seed=1))
            x = ds.features[0]
            phi = x if kernel is None else np.array(
                [gaussian(x, r, kernel) for r in model.reference])
            assert_allclose(decision_distances(model, x),
                            (abs(phi @ model.w1 + model.b1) / np.linalg.norm(model.w1),
                             abs(phi @ model.w2 + model.b2) / np.linalg.norm(model.w2)),
                            rtol=1e-12)
            path = tmp_path / f"model-{model.mode}.bin"
            save_model(model, path)
            header, payload = read_model_file(path)
            assert header["rkhs_norm"] is False
            header["rkhs_norm"] = True
            write_model_file(path, header, payload)
            with pytest.raises(ParseError, match="rkhs_norm"):
                load_model(path)


class TestSerialization:
    @pytest.mark.parametrize("kernel", [None, KernelSpec(1.5)])
    def test_binary_round_trip(self, tmp_path, blobs, kernel):
        ds = blobs(5, 12, seed=13)
        hp = Hyperparams(**HP, kernel=kernel, fuzzy=FuzzyParams(eta=0.4), seed=6)
        model = fit_ifutsvm_id(ds, hp)
        path = tmp_path / "model.twinsvm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind and loaded.mode == model.mode
        assert_array_equal(loaded.w1, model.w1)
        assert loaded.b1 == model.b1
        assert_array_equal(loaded.w2, model.w2)
        if kernel is not None:
            assert_array_equal(loaded.reference, model.reference)
        assert loaded.hyperparams == model.hyperparams
        assert_array_equal(predict(loaded, ds.features), predict(model, ds.features))

    def test_refit_same_seed_byte_identical(self, tmp_path, blobs):
        ds = blobs(5, 12, seed=14)
        hp = Hyperparams(**HP, seed=7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(fit_ifutsvm_id(ds, hp), p1)
        save_model(fit_ifutsvm_id(ds, hp), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kernel", [None, KernelSpec(1.5)])
    def test_header_and_payload_rewritten_unchanged(self, tmp_path, blobs, kernel):
        # the test helpers reproduce save_model's bytes, so the mutations
        # below change only what they name
        path = tmp_path / "model.bin"
        save_model(fit_ifutsvm_id(blobs(5, 12, seed=13), Hyperparams(**HP, kernel=kernel)),
                   path)
        header, payload = read_model_file(path)
        assert header["rkhs_norm"] is False
        copy = tmp_path / "copy.bin"
        write_model_file(copy, header, payload)
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kernel, mutation", [
        (None, {"kind": "banana"}),
        (None, {"mode": "Kernel"}),
        (None, {"coef_len": -1}),
        (None, {"coef_len": 1}),
        (None, {"coef_len": 2.0}),
        (None, {"n": -2}),
        (None, {"m": "3"}),
        (None, {"m": 3}),
        (None, {"mode": "kernel"}),
        (None, "trailing"),
        (KernelSpec(0.7), {"coef_len": 2}),
        (KernelSpec(0.7), {"m": 16}),
        (KernelSpec(0.7), {"mode": "linear"}),
        (KernelSpec(0.7), {"n": True}),
        (KernelSpec(0.7), {"hyperparams": {"width": None}}),
        (KernelSpec(0.7), {"hyperparams": {"width": float("inf")}}),
        (KernelSpec(0.7), {"hyperparams": {"width": 1e200}}),
        (KernelSpec(0.7), {"hyperparams": {"width": 1e-200}}),
        (KernelSpec(0.7), "trailing"),
        (None, {"hyperparams": {"seed": -1}}),
        (None, {"hyperparams": {"seed": 1.5}}),
        (None, "zero-w1"),
        (KernelSpec(0.7), "zero-w2"),
    ], ids=["kind", "mode-case", "negative-coef-len", "coef-len-not-n", "float-coef-len",
            "negative-n", "string-m", "linear-with-m", "linear-as-kernel", "trailing-linear",
            "coef-len-not-m", "m-not-coef-len", "kernel-as-linear", "bool-n",
            "kernel-without-width", "infinite-width", "overflowing-width",
            "underflowing-width", "trailing-kernel", "negative-seed", "float-seed",
            "degenerate-plane-1", "degenerate-kernel-plane-2"])
    def test_header_it_cannot_honour_rejected(self, tmp_path, blobs, kernel, mutation):
        path = tmp_path / "model.bin"
        save_model(fit_ifutsvm_id(blobs(5, 12, seed=16), Hyperparams(**HP, kernel=kernel)),
                   path)
        header, payload = read_model_file(path)
        if mutation == "trailing":
            payload += b"\0" * 8
        elif mutation in ("zero-w1", "zero-w2"):  # a plane with no direction
            values = np.frombuffer(payload, dtype="<f8").copy()
            start = 0 if mutation == "zero-w1" else header["coef_len"] + 1
            values[start:start + header["coef_len"]] = 0.0
            payload = values.tobytes()
        else:
            header.update({key: {**header[key], **value} if isinstance(value, dict) else value
                           for key, value in mutation.items()})
        write_model_file(path, header, payload)
        with pytest.raises(ParseError, match="corrupt model file"):
            load_model(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize("cut", ["header", "payload", "length"])
    def test_truncated_file_rejected(self, tmp_path, blobs, cut):
        ds = blobs(5, 12, seed=16)
        path = tmp_path / "model.bin"
        save_model(fit_ifutsvm_id(ds, Hyperparams(**HP, kernel=KernelSpec(0.7), seed=9)), path)
        blob = path.read_bytes()
        keep = {"header": 20, "payload": len(blob) - 5, "length": 10}[cut]
        path.write_bytes(blob[:keep])
        with pytest.raises(ParseError, match="corrupt model file"):
            load_model(path)


class TestHyperparams:
    @pytest.mark.parametrize("field, value", [
        ("c1", np.nan), ("c1", np.inf), ("c3", np.inf), ("c4", -1.0), ("c2", 0.0),
        ("cu", np.nan), ("cu", np.inf), ("cu", -1.0),
        ("delta", np.nan), ("delta", np.inf), ("delta", 0.0), ("delta", -1e-6),
        ("seed", -1), ("seed", 1.5), ("seed", True),
    ])
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{**HP, field: value})

    def test_boundary_values_accepted(self):
        Hyperparams(**{**HP, "cu": 0.0}, delta=1e-12)
        Hyperparams(**{**HP, "c1": 1e300})


def blas_counts():
    return qp._one_blas_thread.counts()


@contextlib.contextmanager
def blas_counts_set_to(count):
    controls = qp._find_openblas()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(count)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


@pytest.fixture
def start_counts():
    counts = blas_counts()
    if not counts:
        pytest.skip("no OpenBLAS found in this process")
    return counts


@pytest.fixture
def counts_in_solves(monkeypatch):
    """The OpenBLAS thread counts seen by every box-QP solve of a fit."""
    seen = []
    solve = models.solve_box_qp

    def observed(*args, **kwargs):
        seen.append(blas_counts())
        return solve(*args, **kwargs)

    monkeypatch.setattr(models, "solve_box_qp", observed)
    return seen


# train m = 140 with 7 features and IR 6, like one cv-kernel training split:
# its kernel products pass OpenBLAS's threading thresholds
KEEL_SHAPED = make_blobs(20, 120, seed=0, d=7)


class TestOneBlasThread:
    def test_fit_runs_on_one_thread_and_restores(self, start_counts, counts_in_solves):
        fit_ifutsvm_id(KEEL_SHAPED, Hyperparams(**HP, kernel=KernelSpec(2.0)))
        assert counts_in_solves and all(c == [1] * len(start_counts) for c in counts_in_solves)
        assert blas_counts() == start_counts

    def test_restored_after_a_fit_that_raises(self, start_counts, counts_in_solves):
        # all-zero features leave w = 0 after both solves; collapsed scores
        # would raise before any solve (TestZeroWeightPlanes)
        X, y = np.zeros((8, 2)), np.array([1, 1] + [-1] * 6)
        with pytest.raises(TrainingError, match="degenerate plane 1"):
            fit_ifutsvm_id(Dataset("z", X, y), Hyperparams(**HP, seed=0))
        assert counts_in_solves  # it raised after the solves, inside the scope
        assert blas_counts() == start_counts

    def test_restored_after_a_nested_fit(self, start_counts):
        with qp._one_blas_thread:
            fit_ifutsvm_id(KEEL_SHAPED, Hyperparams(**HP))
            assert blas_counts() == [1] * len(start_counts)  # the outer scope still holds
        assert blas_counts() == start_counts

    def test_restored_after_concurrent_fits(self, monkeypatch, start_counts,
                                            counts_in_solves):
        # the two fits meet at their first solve, so both are inside the scope
        # at once; the kernel fit makes its second solve only after the linear
        # fit has left, so it sees the counts one scope leaves to the other
        both_inside = threading.Barrier(2, timeout=60)
        linear_left = threading.Event()
        solves = {"linear": 0, "kernel": 0}
        solve = models.solve_box_qp

        def meet_then_solve(*args, **kwargs):
            name = threading.current_thread().name
            solves[name] += 1
            if solves[name] == 1:
                both_inside.wait()
            elif name == "kernel":
                linear_left.wait(timeout=60)
            return solve(*args, **kwargs)

        def fit(kernel):
            fit_utsvm(KEEL_SHAPED, None, Hyperparams(**HP, kernel=kernel))
            if kernel is None:
                linear_left.set()

        monkeypatch.setattr(models, "solve_box_qp", meet_then_solve)
        threads = [threading.Thread(target=fit, args=(kernel,), name=name)
                   for name, kernel in (("linear", None), ("kernel", KernelSpec(2.0)))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert linear_left.is_set() and solves == {"linear": 2, "kernel": 2}
        assert counts_in_solves == [[1] * len(start_counts)] * 4
        assert blas_counts() == start_counts

    @pytest.mark.parametrize("kind", ["ifutsvm-id", "utsvm"])
    @pytest.mark.parametrize("kernel", [None, KernelSpec(2.0)])
    def test_outputs_independent_of_the_callers_thread_count(self, tmp_path, monkeypatch,
                                                             start_counts, kind, kernel):
        hp = Hyperparams(**HP, kernel=kernel, seed=3)
        universum, _ = generate_universum(KEEL_SHAPED, 28, seed=3)
        test = make_blobs(10, 60, seed=100, d=7)

        def fit():
            if kind == "ifutsvm-id":
                return fit_ifutsvm_id(KEEL_SHAPED, hp)
            return fit_utsvm(KEEL_SHAPED, universum, hp)

        def outputs(model):
            save_model(model, tmp_path / "model.bin")
            rep = model.dual_report
            return ((tmp_path / "model.bin").read_bytes(), rep.iterations_1, rep.iterations_2,
                    [z.tobytes() for z in (rep.alpha, rep.beta, rep.eta, rep.theta)])

        scoped = fit()
        monkeypatch.setattr(models, "_one_blas_thread", contextlib.nullcontext())
        with blas_counts_set_to(1):
            one_thread = fit()
        callers = fit()
        assert outputs(scoped) == outputs(one_thread)
        if kernel is None or max(start_counts) == 1:
            assert outputs(scoped) == outputs(callers)
        else:
            # OpenBLAS factors an order >= 64 matrix (here M'M, order 141) with
            # its threaded blocked Cholesky when it has more than one thread,
            # which rounds differently: the same sweeps and labels, last bits apart
            a, b = scoped.dual_report, callers.dual_report
            assert (a.iterations_1, a.iterations_2) == (b.iterations_1, b.iterations_2)
            assert_array_equal(predict(scoped, test.features), predict(callers, test.features))
            for x, y in [(scoped.w1, callers.w1), (scoped.w2, callers.w2),
                         (a.alpha, b.alpha), (a.beta, b.beta), (a.eta, b.eta),
                         (a.theta, b.theta)]:
                assert_allclose(x, y, rtol=1e-9, atol=1e-9)
