import dataclasses

import numpy as np
import pytest
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
    load_model,
    predict,
    save_model,
    solve_box_qp,
)
from ifutsvm.models import _ifutsvm_blocks, _planes
from ifutsvm.membership import uniform_scores

from conftest import make_blobs, read_model_file, write_model_file
from oracle_utils import gaussian


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
    Fs = aug(plan.x2_star)
    m1 = E.shape[0]

    def solve(M, ridge, H, lin, upper, sign):
        fac = cho_factor(M.T @ M + ridge * np.eye(M.shape[1]))
        Q = H @ cho_solve(fac, H.T)
        sol = solve_box_qp(BoxQP(0.5 * (Q + Q.T), lin, upper), tol=1e-10)
        return sign * cho_solve(fac, H.T @ sol.z)

    z1 = solve(E, hp.c3, Fs, np.ones(m1), hp.c1 * np.ones(m1), -1.0)
    z2 = solve(F, hp.c4, E, np.ones(m1), hp.c2 * np.ones(m1), +1.0)
    return z1, z2


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
        plane1, plane2 = _planes(_ifutsvm_blocks(ds, rep.plan, rep.scores, hp.kernel), hp)
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
        plane1, _ = _planes(_ifutsvm_blocks(ds, plan, sw, hp.kernel), hp)
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
        model = TwinModel(kind="utsvm", mode="linear", w1=w, b1=0.5,
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
    ], ids=["kind", "mode-case", "negative-coef-len", "coef-len-not-n", "float-coef-len",
            "negative-n", "string-m", "linear-as-kernel", "trailing-linear",
            "coef-len-not-m", "m-not-coef-len", "kernel-as-linear", "bool-n",
            "kernel-without-width", "infinite-width", "overflowing-width",
            "underflowing-width", "trailing-kernel"])
    def test_header_it_cannot_honour_rejected(self, tmp_path, blobs, kernel, mutation):
        path = tmp_path / "model.bin"
        save_model(fit_ifutsvm_id(blobs(5, 12, seed=16), Hyperparams(**HP, kernel=kernel)),
                   path)
        header, payload = read_model_file(path)
        if mutation == "trailing":
            payload += b"\0" * 8
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
    ])
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{**HP, field: value})

    def test_boundary_values_accepted(self):
        Hyperparams(**{**HP, "cu": 0.0}, delta=1e-12)
        Hyperparams(**{**HP, "c1": 1e300})
