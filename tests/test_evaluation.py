import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import ifutsvm.data as data
import ifutsvm.evaluation as evaluation
import ifutsvm.kernels as kernels
import ifutsvm.models as models
from ifutsvm import (
    NEMENYI_Q,
    ConfusionMatrix,
    Dataset,
    GridSpec,
    Hyperparams,
    KernelSpec,
    NumericalError,
    TrainingError,
    average_ranks,
    confusion,
    fit_ifutsvm_id,
    friedman,
    friedman_f_critical,
    grid_search_cv,
    load_benchmark_matrix,
    metrics,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
    predict,
    stratified_kfold,
)
from ifutsvm.evaluation import fit_model, make_hyperparams
from ifutsvm.seeds import mix_seed

from conftest import make_blobs

# published comparison row: average ranks of the six classifiers over the
# 46-dataset table, and the statistics derived from them
PUBLISHED_RANKS = np.array([3.71, 4.24, 4.47, 4.33, 2.76, 1.54])
PUBLISHED_AVG_ACC = np.array([83.52, 81.15, 80.61, 79.44, 86.19, 87.70])


class TestMetrics:
    def test_direct_formulas(self):
        rep = metrics(ConfusionMatrix(tp=2, fn=1, fp=0, tn=3))
        assert_allclose(rep.accuracy, 5 / 6)
        assert_allclose(rep.sensitivity, 2 / 3)
        assert rep.specificity == 1.0
        assert rep.precision == 1.0

    def test_perfect_prediction(self):
        rep = metrics(ConfusionMatrix(tp=4, fn=0, fp=0, tn=6))
        assert (rep.accuracy, rep.sensitivity, rep.specificity, rep.precision) == \
            (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominators_flag_undefined(self):
        rep = metrics(ConfusionMatrix(tp=0, fn=3, fp=0, tn=5))
        assert rep.precision is None
        assert rep.sensitivity == 0.0

    def test_all_zero_matrix(self):
        rep = metrics(ConfusionMatrix(0, 0, 0, 0))
        assert rep.accuracy is None and rep.precision is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(-1, 0, 0, 0)

    def test_confusion_counting(self):
        y = np.array([1, 1, -1, -1, 1])
        p = np.array([1, -1, -1, 1, 1])
        cm = confusion(y, p)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 1)
        assert cm.total == 5

    def test_sensitivity_identity(self):
        cm = ConfusionMatrix(tp=7, fn=3, fp=2, tn=8)
        rep = metrics(cm)
        assert rep.sensitivity * (cm.tp + cm.fn) == cm.tp


class TestAverageRanks:
    def test_plain_ordering(self):
        table = average_ranks(np.array([[0.9, 0.8, 0.7]]))
        assert_array_equal(table.ranks[0], [1, 2, 3])

    def test_tie_averaging(self):
        table = average_ranks(np.array([[0.9, 0.9, 0.7]]))
        assert_array_equal(table.ranks[0], [1.5, 1.5, 3])
        table = average_ranks(np.array([[0.7, 0.9, 0.7, 0.9, 0.7],
                                        [0.4, 0.4, 0.4, 0.4, 0.4]]))
        assert_array_equal(table.ranks, [[4, 1.5, 4, 1.5, 4], [3, 3, 3, 3, 3]])

    def test_matches_scipy_rankdata_bytes(self):
        # scipy is the test-side reference only; the package does not import
        # scipy.stats
        from scipy.stats import rankdata

        rng = np.random.default_rng(8)
        for _ in range(500):
            n, p = int(rng.integers(1, 8)), int(rng.integers(2, 9))
            acc = rng.integers(-2, 3, size=(n, p)) * rng.choice([0.25, 1.0, 1e-300])
            acc[rng.random(acc.shape) < 0.3] = 0.0
            acc[rng.random(acc.shape) < 0.3] = -0.0
            expected = np.vstack([rankdata(-row, method="average") for row in acc])
            ranks = average_ranks(acc).ranks
            assert ranks.dtype == expected.dtype
            assert ranks.tobytes() == expected.tobytes()

    def test_row_sums_invariant(self):
        rng = np.random.default_rng(0)
        acc = rng.uniform(0, 1, (12, 5))
        acc[3, 1] = acc[3, 2]  # inject a tie
        table = average_ranks(acc)
        assert_allclose(table.ranks.sum(axis=1), 5 * 6 / 2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            average_ranks(np.array([[0.5, np.nan]]))

    def test_published_table_reproduces_rank_row(self):
        _, _, acc = load_benchmark_matrix()
        table = average_ranks(acc)
        assert np.max(np.abs(table.average_ranks - PUBLISHED_RANKS)) <= 0.05

    def test_published_rank_differences(self):
        # pairwise gaps to the top model, as printed alongside the table;
        # the last gap is 2.76 - 1.54 = 1.22 (one source lists 2.76, an
        # arithmetic slip: it is not consistent with the stated ranks)
        gaps = PUBLISHED_RANKS[:-1] - PUBLISHED_RANKS[-1]
        assert_allclose(gaps, [2.17, 2.70, 2.93, 2.79, 1.22], atol=1e-12)


class TestFriedman:
    def test_published_statistics(self):
        res = friedman(PUBLISHED_RANKS, N=46, p=6)
        assert abs(res.chi_sq - 91.48) <= 0.05
        assert abs(res.f_stat - 29.72) <= 0.05

    def test_null_configuration(self):
        res = friedman(np.full(4, 2.5), N=10, p=4)
        assert_allclose(res.chi_sq, 0.0, atol=1e-12)

    def test_two_model_hand_value(self):
        # direct formula: 12*2/(2*3) * [(1 + 4) - 2*9/4] = 4 * 0.5 = 2,
        # and the F correction's denominator N(p-1) - chi2 = 0 -> undefined
        res = friedman(np.array([1.0, 2.0]), N=2, p=2)
        assert_allclose(res.chi_sq, 2.0)
        assert res.f_stat is None

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        acc = rng.uniform(0, 1, (9, 4))
        base = average_ranks(acc)
        res = friedman(base.average_ranks, 9, 4)
        perm = rng.permutation(4)
        res_p = friedman(average_ranks(acc[:, perm]).average_ranks, 9, 4)
        assert_allclose(res.chi_sq, res_p.chi_sq)

    def test_rank_bounds_validated(self):
        with pytest.raises(ValueError):
            friedman(np.array([0.5, 2.0]), N=5, p=2)

    def test_published_f_critical(self):
        from scipy.special import fdtri

        assert friedman_f_critical(6, 46) == fdtri(5, 225, 0.95)
        assert abs(friedman_f_critical(6, 46) - 2.2542) <= 1e-4


class TestNemenyi:
    def test_published_value(self):
        assert abs(nemenyi_cd(6, 46) - 1.11) <= 0.005
        assert nemenyi_cd(6, 46) == 2.850 * float(np.sqrt(6 * 7 / (6.0 * 46)))

    def test_inverse_sqrt_scaling(self):
        assert_allclose(nemenyi_cd(6, 92), nemenyi_cd(6, 46) / np.sqrt(2.0))

    def test_pairwise_matrix(self):
        sig = pairwise_significance(PUBLISHED_RANKS, nemenyi_cd(6, 46))
        assert sig.shape == (6, 6)
        assert not sig[0, 0]
        assert sig[-1, 2]  # 4.47 vs 1.54 clears the 1.11 threshold

    def test_tabulated_q(self):
        # Demsar (JMLR 2006), Table 5a, two-tailed at alpha = 0.05
        assert NEMENYI_Q == {2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949,
                             8: 3.031, 9: 3.102, 10: 3.164}
        assert [nemenyi_q(p) for p in range(2, 11)] == list(NEMENYI_Q.values())

    @pytest.mark.parametrize("p", [0, 1, 11])
    def test_untabulated_model_count_rejected(self, p):
        with pytest.raises(ValueError, match="2 to 10 models"):
            nemenyi_q(p)
        with pytest.raises(ValueError, match="2 to 10 models"):
            nemenyi_cd(p, 46)


class TestStratifiedKFold:
    def test_fold_class_balance(self):
        ds = make_blobs(10, 25, seed=0)
        folds = stratified_kfold(ds, 5, seed=1)
        assert len(folds) == 5
        all_val = np.concatenate([va for _, va in folds])
        assert_array_equal(np.sort(all_val), np.arange(ds.m))
        for _, va in folds:
            pos = int(np.sum(ds.labels[va] == 1))
            assert pos == 2  # 10 positives over 5 folds

    def test_deterministic(self):
        ds = make_blobs(8, 16, seed=2)
        a = stratified_kfold(ds, 4, seed=9)
        b = stratified_kfold(ds, 4, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            assert_array_equal(ta, tb)
            assert_array_equal(va, vb)


SMALL_GRID = GridSpec(c1=(1.0,), c3=(0.1,), cu=(0.1,), epsilon=(0.1,), width=None)


@pytest.mark.parametrize("call, message", [
    (lambda ds: stratified_kfold(ds, 1, seed=0), "need at least 2 folds"),
    (lambda ds: fit_model("svm", ds, make_hyperparams()), "unknown model kind: 'svm'"),
    (lambda ds: GridSpec(width=(None, 2.0)), "width=None is the linear model"),
], ids=["one-fold", "unknown-kind", "none-in-width"])
def test_protocol_boundaries_reject(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_blobs(6, 14, seed=0))


class TestGridSearchCV:
    def test_one_point_grid(self):
        ds = make_blobs(10, 30, seed=3)
        best, table = grid_search_cv(ds, "ifutsvm-id", SMALL_GRID, k=5, seed=0)
        assert len(table) == 1
        assert best.c1 == 1.0 and best.kernel is None
        assert 0.0 <= table[0]["mean_accuracy"] <= 1.0

    def test_repeated_axis_value_is_rejected(self):
        # a repeated value would fit the same lattice point twice and give the
        # CV table a duplicate row
        with pytest.raises(ValueError, match="grid axis c1 repeats 1.0"):
            GridSpec(c1=(1.0, 0.1, 1.0), c3=(0.1,), cu=(0.1,), epsilon=(0.1,), width=None)
        with pytest.raises(ValueError, match="grid axis width repeats 0.5, 2.0"):
            GridSpec(c1=(1.0,), c3=(0.1,), cu=(0.1,), epsilon=(0.1,),
                     width=(2.0, 0.5, 8.0, 0.5, 2.0))
        assert GridSpec(c1=(1.0, 0.1), c3=(0.1,), cu=(0.1,), epsilon=(0.1,),
                        width=(2.0, 0.5)).size() == 4

    def test_separable_data_reaches_perfect_test_accuracy(self):
        from ifutsvm import fit_model, predict, stratified_split

        ds = make_blobs(12, 36, seed=4, gap=6.0, spread_pos=0.3, spread_neg=0.3)
        train, test = stratified_split(ds, 0.7, seed=1)
        grid = GridSpec(c1=(0.1, 1.0), c3=(0.1,), cu=(0.1,), epsilon=(0.1,),
                        width=(1.0, 8.0))
        best, _ = grid_search_cv(train, "ifutsvm-id", grid, k=3, seed=5)
        model = fit_model("ifutsvm-id", train, best)
        assert np.mean(predict(model, test.features) == test.labels) == 1.0

    def test_lattice_tie_break_order(self):
        # all points score identically on this easy set: the smallest lattice
        # point must win
        ds = make_blobs(8, 24, seed=5, gap=8.0, spread_pos=0.2, spread_neg=0.2)
        grid = GridSpec(c1=(2.0, 1.0), c3=(0.3, 0.1), cu=(0.1,), epsilon=(0.1,),
                        width=None)
        best, table = grid_search_cv(ds, "ifutsvm-id", grid, k=4, seed=6)
        top = max(r["mean_accuracy"] for r in table)
        firsts = [r for r in table if r["mean_accuracy"] == top][0]
        assert best.c1 == firsts["c1"] and best.c3 == firsts["c3"]
        assert best.c1 == min(g["c1"] for g in table if g["mean_accuracy"] == top)

    def test_utsvm_kind_supported(self):
        ds = make_blobs(10, 25, seed=6)
        best, table = grid_search_cv(ds, "utsvm", SMALL_GRID, k=5, seed=0)
        assert len(table) == 1 and best is not None

    def test_too_few_samples_per_class_rejected(self):
        ds = make_blobs(3, 30, seed=7)
        with pytest.raises(ValueError):
            grid_search_cv(ds, "ifutsvm-id", SMALL_GRID, k=5, seed=0)

    def test_unknown_kind_rejected(self):
        ds = make_blobs(10, 25, seed=8)
        with pytest.raises(ValueError):
            grid_search_cv(ds, "svm", SMALL_GRID, k=5, seed=0)

    def test_search_in_which_no_point_trains_raises(self):
        # 3 minority rows per 2-fold training part, at most n + 1 = 5:
        # every linear UTSVM plane-1 dual stalls, so no point has a CV
        # accuracy and none may be selected for a refit
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (6, 4)), rng.normal(1, 1, (14, 4))])
        ds = Dataset("stiff", X, [1] * 6 + [-1] * 14)
        grid = GridSpec(c1=(1.0, 10.0), c3=(0.1,), cu=(0.1,), epsilon=(0.1,), width=None)
        with pytest.raises(TrainingError, match=r"no lattice point of 2 trained on any fold: "
                                                r"every fold fit failed \(NonConvergenceError\)"):
            grid_search_cv(ds, "utsvm", grid, k=2, seed=0)

    def test_balanced_training_parts_are_flagged(self):
        # stratified folds of a 10 + 10 set leave 5 + 5 rows to train on, so
        # every fold fit falls back to a universum-free plan
        ds = make_blobs(10, 10, seed=9)
        for width in (None, (2.0,)):
            grid = GridSpec(c1=(0.1, 1.0), c3=(0.1,), cu=(0.1,), epsilon=(0.1,),
                            width=width)
            _, table = grid_search_cv(ds, "ifutsvm-id", grid, k=2, seed=0)
            assert len(table) == 2
            for row in table:
                assert row["flags"] == ["fold0:balanced-fallback", "fold1:balanced-fallback"]
                assert None not in row["fold_accuracies"]


def reference_grid_search(train, kind, grid, k, seed):
    """Per-point loop over the lattice, each fold fit on its own (no stages)."""
    folds = stratified_kfold(train, k, mix_seed(seed, "folds"))
    fold_sets = [(train.take(tr, f"{train.name}/cv{j}t"),
                  train.take(va, f"{train.name}/cv{j}v"))
                 for j, (tr, va) in enumerate(folds)]
    table, best_row, best_hp = [], None, None
    for c1, c3, cu, eps, width in itertools.product(*grid.axes()):
        accs = np.full(k, np.nan)
        flags = []
        for j, (tr, va) in enumerate(fold_sets):
            if tr.m1 == 0 or tr.m2 == 0:
                flags.append(f"fold{j}:single-class")
                continue
            fold_seed = mix_seed(seed, "fit", j)
            hp = make_hyperparams(c1, c3, cu, eps, width, grid.fuzzy, seed=fold_seed)
            try:
                model = fit_model(kind, tr, hp)
            except (NumericalError, TrainingError) as exc:
                flags.append(f"fold{j}:{type(exc).__name__}")
                continue
            if model.dual_report.balanced_fallback:
                flags.append(f"fold{j}:balanced-fallback")
            accs[j] = float(np.mean(predict(model, va.features) == va.labels))
        mean = float(np.nanmean(accs)) if np.any(~np.isnan(accs)) else float("-inf")
        row = {"c1": c1, "c3": c3, "cu": cu, "epsilon": eps, "width": width,
               "mean_accuracy": mean,
               "fold_accuracies": [None if np.isnan(a) else float(a) for a in accs],
               "flags": flags}
        table.append(row)
        if best_row is None or mean > best_row["mean_accuracy"]:
            best_row = row
            best_hp = make_hyperparams(c1, c3, cu, eps, width, grid.fuzzy,
                                       seed=mix_seed(seed, "refit"))
    return best_hp, table


class TestStagedGridSearch:
    """The staged search must equal the per-point loop exactly, not approximately."""

    @pytest.mark.parametrize("kind, ds_args, grid", [
        # width 0.5 collapses the fuzzy scores of some folds: degenerate planes
        ("ifutsvm-id", (10, 40, 2, 5),
         GridSpec(c1=(10.0, 0.1), c3=(1.0, 0.01), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                  width=(2.0, 0.5))),
        ("ifutsvm-id", (10, 30, 3, 2),
         GridSpec(c1=(0.1, 10.0), c3=(0.01, 1.0), cu=(0.1,), epsilon=(0.1, 0.5),
                  width=None)),
        ("ifutsvm-id", (10, 30, 4, 3),
         GridSpec(c1=(0.1, 10.0), c3=(0.1, 1.0), cu=(0.1, 1.0), epsilon=(0.1,),
                  width=(1.0, 4.0))),
        ("utsvm", (8, 24, 3, 3),
         GridSpec(c1=(0.1, 1.0), c3=(0.1, 1.0), cu=(0.1,), epsilon=(0.1,),
                  width=(2.0, 4.0))),
        ("utsvm", (10, 30, 5, 3),
         GridSpec(c1=(0.1, 10.0), c3=(1.0, 0.01, 0.1), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                  width=None)),
    ], ids=["ifutsvm-kernel-collapse", "ifutsvm-linear", "ifutsvm-kernel", "utsvm-kernel",
            "utsvm-linear"])
    def test_equals_per_point_reference(self, kind, ds_args, grid):
        n1, n2, seed, d = ds_args
        ds = make_blobs(n1, n2, seed=seed, d=d)
        best, table = grid_search_cv(ds, kind, grid, k=3, seed=4)
        ref_best, ref_table = reference_grid_search(ds, kind, grid, 3, 4)
        assert table == ref_table
        assert best == ref_best
        if grid.width is not None and 0.5 in grid.width:
            assert any("TrainingError" in f for row in table for f in row["flags"])

    @pytest.mark.parametrize("kind, ds_args, grid", [
        ("ifutsvm-id", (10, 40, 2, 5),
         GridSpec(c1=(10.0, 0.1), c3=(1.0, 0.01), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                  width=(2.0, 0.5))),
        ("utsvm", (10, 30, 5, 3),
         GridSpec(c1=(0.1, 10.0), c3=(1.0, 0.01, 0.1), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                  width=None)),
    ], ids=["ifutsvm-kernel-collapse", "utsvm-linear"])
    def test_every_fold_fit_passes_through_fit_model(self, monkeypatch, kind, ds_args, grid):
        # a check hook on evaluation.fit_model sees every fold fit: each flagged
        # failure raised through it, and each returned fit met the solver's
        # box-scaled KKT tolerance on both planes
        raised, residuals = [], []
        fit = evaluation.fit_model

        def audited(*args, **kwargs):
            try:
                model = fit(*args, **kwargs)
            except (NumericalError, TrainingError) as exc:
                raised.append(type(exc).__name__)
                raise
            rep, hp = model.dual_report, model.hyperparams
            if model.kind == "ifutsvm-id":
                weights = (rep.scores.s2[rep.plan.x2_star_indices], rep.scores.s1)
            else:
                weights = (np.ones(1), np.ones(1))
            for residual, penalty, w, univ in ((rep.kkt_residual_1, hp.c1, weights[0], rep.beta),
                                               (rep.kkt_residual_2, hp.c2, weights[1], rep.theta)):
                box = max(1.0, penalty * w.max(initial=0.0), hp.cu if univ.size else 0.0)
                residuals.append(residual / (1e-6 * box))
            return model

        monkeypatch.setattr(evaluation, "fit_model", audited)
        n1, n2, seed, d = ds_args
        _, table = grid_search_cv(make_blobs(n1, n2, seed=seed, d=d), kind, grid, k=3, seed=4)
        # UTSVM fits the first c3 only; the other c3 rows repeat its folds
        fitted = [row for row in table if kind != "utsvm" or row["c3"] == min(grid.c3)]
        flagged = [flag.split(":", 1)[1] for row in fitted for flag in row["flags"]
                   if not flag.endswith(":balanced-fallback")]
        assert raised and sorted(raised) == sorted(flagged)
        assert residuals and max(residuals) <= 1.0

    def test_each_validation_fold_is_mapped_once_per_fold_and_width(self, monkeypatch):
        # the Gram rows of a validation fold against its training rows are
        # evaluated once per (fold, width) that trains, not once per fold fit;
        # width 0.5 collapses the scores of some folds, so they never train
        maps = []
        gram = models.gram_values

        def spy(A, B, spec):
            if A.shape[0] < B.shape[0]:  # a fit's blocks stack at least B's rows
                maps.append((A.shape[0], B.shape[0], spec.width))
            return gram(A, B, spec)

        monkeypatch.setattr(models, "gram_values", spy)
        ds, k, seed = make_blobs(10, 40, seed=2, d=5), 3, 4
        grid = GridSpec(c1=(10.0, 0.1), c3=(1.0, 0.01), cu=(0.1, 1.0), epsilon=(0.1, 0.5),
                        width=(2.0, 0.5))
        _, table = grid_search_cv(ds, "ifutsvm-id", grid, k=k, seed=seed)
        folds = stratified_kfold(ds, k, mix_seed(seed, "folds"))
        trained = {(row["width"], j) for row in table
                   for j, acc in enumerate(row["fold_accuracies"]) if acc is not None}
        assert 0 < len(trained) < k * len(grid.width)
        assert sorted(maps) == sorted((folds[j][1].size, folds[j][0].size, width)
                                      for width, j in trained)

    def test_linear_scoring_reads_one_matrix_per_search_set(self, monkeypatch):
        # a linear search evaluates its set's pairwise matrix once: each fold's
        # training part takes its block, the refit reads the matrix itself and
        # no validation part evaluates one
        evaluated, scored = [], []
        evaluate, score = data.sq_distances, models.assign_scores

        def spy_evaluate(A, B):
            evaluated.append(A)
            return evaluate(A, B)

        def spy_score(ds, *args):
            scored.append(ds)
            return score(ds, *args)

        monkeypatch.setattr(data, "sq_distances", spy_evaluate)
        monkeypatch.setattr(models, "assign_scores", spy_score)
        ds = make_blobs(10, 30, seed=3, d=4)
        grid = GridSpec(c1=(0.1, 10.0), c3=(0.01, 1.0), cu=(0.1, 1.0), epsilon=(0.1,),
                        width=None)
        best, _ = grid_search_cv(ds, "ifutsvm-id", grid, k=3, seed=4)
        fit_model("ifutsvm-id", ds, best)
        assert len(evaluated) == 1 and evaluated[0] is ds.features
        parts, refit = scored[:-1], scored[-1]
        assert len(parts) == 3 and refit is ds
        for part in parts:
            fresh = kernels.sq_distances(part.features, part.features)
            assert part.pairwise_sq_dists.tobytes() == fresh.tobytes()

    def test_kernel_search_evaluates_no_full_set_matrix(self, monkeypatch):
        evaluated, shapes = [], []
        evaluate, kernel = data.sq_distances, kernels.sq_distances

        def spy_kernel(A, B):
            shapes.append((A.shape[0], B.shape[0]))
            return kernel(A, B)

        monkeypatch.setattr(data, "sq_distances", lambda A, B: evaluated.append(A))
        monkeypatch.setattr(kernels, "sq_distances", spy_kernel)
        ds = make_blobs(10, 30, seed=3, d=4)
        grid = GridSpec(c1=(0.1, 10.0), c3=(0.01,), cu=(0.1,), epsilon=(0.1,),
                        width=(1.0, 4.0))
        grid_search_cv(ds, "ifutsvm-id", grid, k=3, seed=4)
        assert not evaluated and shapes and (ds.m, ds.m) not in shapes

    def test_shared_memo_fits_are_bit_identical(self, blobs):
        # two training sets with one seed: only the set tells their stages apart
        sets = (blobs(8, 30, seed=11), blobs(8, 30, seed=12))
        stages = models.FitStages()
        for c1, c3, width, ds in itertools.product((0.1, 10.0), (0.01, 1.0), (None, 2.0), sets):
            hp = Hyperparams(c1=c1, c2=c1, c3=c3, c4=c3, cu=0.5,
                             kernel=KernelSpec(width) if width else None, seed=3)
            shared = fit_ifutsvm_id(ds, hp, stages=stages)
            alone = fit_ifutsvm_id(ds, hp)
            for name in ("w1", "b1", "w2", "b2"):
                assert_array_equal(getattr(shared, name), getattr(alone, name))

    def test_each_stage_runs_once_per_key(self, monkeypatch):
        calls = {"assign_scores": 0, "spd_factor": 0, "fit_model": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(models, "assign_scores")
        counted(models, "spd_factor")
        counted(evaluation, "fit_model")
        grid = GridSpec(c1=(0.1, 10.0), c3=(0.01, 1.0), cu=(0.1, 1.0), epsilon=(0.1,),
                        width=(1.0, 4.0))
        k = 3
        _, table = grid_search_cv(make_blobs(10, 40, seed=0, d=4), "ifutsvm-id", grid,
                                  k=k, seed=4)
        assert not any(row["flags"] for row in table)
        folds_widths = k * len(grid.width)
        assert calls["assign_scores"] == folds_widths
        assert calls["spd_factor"] == 2 * folds_widths * len(grid.c3)
        assert calls["fit_model"] == grid.size() * k

    def test_utsvm_fits_one_c3(self, monkeypatch):
        # fit_utsvm reads neither c3 nor c4, so the other c3 rows reuse the first's folds
        calls = 0
        original = evaluation.fit_model

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(evaluation, "fit_model", counted)
        grid = GridSpec(c1=(0.1, 10.0), c3=(0.01, 0.1, 1.0), cu=(0.1, 1.0), epsilon=(0.1,),
                        width=(1.0, 4.0))
        k = 3
        _, table = grid_search_cv(make_blobs(10, 30, seed=2, d=3), "utsvm", grid, k=k, seed=4)
        assert len(table) == grid.size()
        assert calls == grid.size() // len(grid.c3) * k
