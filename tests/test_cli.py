import csv
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import ifutsvm
from ifutsvm import (FuzzyParams, GridSpec, build_plan, cli, grid_search_cv, load_dataset,
                     standardize, stratified_split)
from ifutsvm.cli import main, read_accuracy_matrix
from ifutsvm.evaluation import AXES, load_benchmark_matrix
from ifutsvm.seeds import mix_seed

from conftest import make_blobs, read_model_file, write_model_file


def write_dataset(path, ds):
    lines = ["@relation toy", "@data"]
    for row, label in zip(ds.features, ds.labels):
        token = "pos" if label == 1 else "neg"
        lines.append(",".join(f"{v:.6f}" for v in row) + f",{token}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def toy_files(tmp_path):
    a = make_blobs(10, 30, seed=0, gap=6.0, spread_pos=0.3, spread_neg=0.3, name="alpha")
    b = make_blobs(12, 24, seed=1, gap=6.0, spread_pos=0.3, spread_neg=0.3, name="beta")
    pa, pb = tmp_path / "alpha.dat", tmp_path / "beta.dat"
    write_dataset(pa, a)
    write_dataset(pb, b)
    return pa, pb


BENCH_CONFIG = """\
[experiment]
datasets = {datasets}
models = {models}
split_fraction = 0.7
folds = 3
seed = 77
out = {out}
{extra}
[grid]
c1 = 0.1, 1
c3 = 0.1
cu = 0.1
epsilon = 0.1
width = linear
"""

TRAIN_CONFIG = """\
[experiment]
seed = 9

[train]
model = ifutsvm-id
dataset = {dataset}
c1 = 1.0
c3 = 0.1
cu = 0.1
epsilon = 0.1
"""


class TestTrainEval:
    def test_round_trip_perfect_accuracy(self, tmp_path, toy_files, capsys):
        pa, _ = toy_files
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa))
        model_path = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--out", str(model_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == str(model_path)
        assert "plane 2 universum bound (full dual solved): no" in captured.err
        assert model_path.is_file()
        assert model_path.with_suffix(".bin.log.json").is_file()

        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model_path), "--data", str(pa),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["accuracy"] == 1.0

    def test_threads_flag_is_a_usage_error(self, tmp_path, toy_files):
        # train fits one model in process: only benchmark and noise-study
        # take a worker count
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=toy_files[0]))
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(cfg), "--threads", "2"])
        assert info.value.code == 2

    def test_rerun_byte_identical_model(self, tmp_path, toy_files):
        pa, _ = toy_files
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa))
        m1, m2 = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["train", "--config", str(cfg), "--out", str(m1)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_dump_scores_and_plan(self, tmp_path, toy_files):
        pa, _ = toy_files
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa))
        scores_csv = tmp_path / "scores.csv"
        plan_csv = tmp_path / "plan.csv"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin"),
                     "--dump-scores", str(scores_csv),
                     "--dump-plan", str(plan_csv)]) == 0
        assert scores_csv.read_text().startswith("index,label,membership")
        assert "universum" in plan_csv.read_text()

    @pytest.mark.parametrize("flag", ["--dump-scores", "--dump-plan"])
    def test_dump_flag_on_utsvm_exits_4_before_reading_the_data(self, tmp_path, monkeypatch,
                                                                capsys, flag):
        # UTSVM has neither fuzzy scores nor a sampling plan to dump
        def no_load(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=tmp_path / "alpha.dat")
                       .replace("model = ifutsvm-id", "model = utsvm"))
        (tmp_path / "alpha.dat").write_text("")
        out, dump = tmp_path / "m.bin", tmp_path / "dump.csv"
        assert main(["train", "--config", str(cfg), "--out", str(out), flag, str(dump)]) == 4
        assert f"config error: {flag} needs model ifutsvm-id" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    def test_missing_dataset_exits_4(self, tmp_path):
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=tmp_path / "nope.dat"))
        assert main(["train", "--config", str(cfg)]) == 4

    def test_malformed_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("@data\n1.0,zzz,pos\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=bad))
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_dataset_not_utf8_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.dat"
        bad.write_bytes(b"\xff\xfe")
        cfg = tmp_path / "run.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=bad) if command == "train" else
                       BENCH_CONFIG.format(datasets=bad, models="ifutsvm-id",
                                           out=tmp_path / "out", extra=""))
        assert main([command, "--config", str(cfg)]) == 2
        assert "parse error: not valid UTF-8" in capsys.readouterr().err

    def test_non_finite_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("@data\n1.0,2.0,pos\n1.0,nan,neg\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=bad))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_degenerate_training_exits_3(self, tmp_path):
        zeros = tmp_path / "zeros.dat"
        rows = ["0,0,pos"] * 2 + ["0,0,neg"] * 6
        zeros.write_text("@data\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=zeros))
        assert main(["train", "--config", str(cfg)]) == 3

    def test_non_finite_dual_exits_3(self, tmp_path, toy_files, capsys):
        # features near 1e155 are finite, but their squares overflow in the
        # linear dual Hessian: the dual is reported as a numerical failure at
        # once, with no sweep and no traceback
        big = tmp_path / "big.dat"
        ds = make_blobs(10, 30, seed=0, gap=6.0, spread_pos=0.3, spread_neg=0.3)
        write_dataset(big, ifutsvm.Dataset("big", ds.features * 1e155, ds.labels))
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=big))
        with pytest.warns(RuntimeWarning):
            code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin")])
        assert code == 3
        assert "numerical error: Q, c and upper must be finite" in capsys.readouterr().err

    def test_missing_seed_exits_4(self, tmp_path, toy_files):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(f"[train]\nmodel = ifutsvm-id\ndataset = {pa}\n")
        assert main(["train", "--config", str(cfg)]) == 4

    def test_corrupt_model_file_exits_2(self, tmp_path, toy_files):
        pa, _ = toy_files
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTAMODEL")
        assert main(["eval", "--model", str(bad), "--data", str(pa)]) == 2

    @pytest.mark.parametrize("index, value", [(0, np.nan), (2, np.inf)],
                             ids=["nan-coefficient", "infinite-intercept"])
    def test_non_finite_model_file_exits_2(self, tmp_path, toy_files, capsys, index, value):
        # a NaN in w1 makes every distance to plane 1 NaN, so every row would
        # be labelled -1 and eval would report that with exit code 0
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        header, payload = read_model_file(model_path)
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[index] = value
        write_model_file(model_path, header, values.tobytes())
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model_path), "--data", str(pa),
                     "--out", str(out)]) == 2
        assert ("corrupt model file: ValueError: a coefficient, intercept or reference value "
                "is not finite") in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_plane_in_model_file_exits_2(self, tmp_path, toy_files, capsys):
        # ||w1|| = 0 divides every distance to plane 1 by zero: every row
        # would be labelled -1 and eval would report that with exit code 0
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        header, payload = read_model_file(model_path)
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[:header["coef_len"]] = 0.0
        write_model_file(model_path, header, values.tobytes())
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model_path), "--data", str(pa),
                     "--out", str(out)]) == 2
        assert ("corrupt model file: ValueError: degenerate plane 1: ||w|| < 1e-12"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["model", "data"])
    def test_eval_missing_file_exits_4(self, tmp_path, toy_files, capsys, missing):
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        paths = {"model": model_path, "data": pa, missing: tmp_path / "nope"}
        assert main(["eval", "--model", str(paths["model"]), "--data", str(paths["data"])]) == 4
        what = "model file" if missing == "model" else "dataset file"
        assert f"config error: {what} not found: {tmp_path / 'nope'}" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, argv, message", [
        ("[train]", "[other]", ["--data", "{dataset}"],
         "cmd_train needs a [train] section with fixed hyperparameters"),
        ("model = ifutsvm-id", "model = svm", [], "unknown model kind: 'svm'"),
        ("c1 = 1.0", "c1 = 1, 2", [], "[train] c1 takes one number, got '1, 2'"),
        ("dataset = {dataset}", "", [], "no dataset given (--data or [train] dataset)"),
    ], ids=["no-train-section", "unknown-model", "two-c1-values", "no-dataset"])
    def test_train_config_it_cannot_run_exits_4(self, tmp_path, toy_files, capsys, old, new,
                                               argv, message):
        pa, _ = toy_files
        text = TRAIN_CONFIG.replace(old, new)
        if old == "[train]":  # no [train] section at all, the dataset comes from --data
            text = text[:text.index("[other]")]
        cfg = tmp_path / "t.ini"
        cfg.write_text(text.format(dataset=pa))
        out = tmp_path / "m.bin"
        argv = [arg.format(dataset=pa) for arg in argv]
        assert main(["train", "--config", str(cfg), "--out", str(out), *argv]) == 4
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(cli.CONFIG_KEYS["experiment"] - {"seed"}))
    def test_experiment_key_train_does_not_read_exits_4(self, tmp_path, toy_files, capsys,
                                                        monkeypatch, key):
        # train reads only [experiment] seed: any other key would be ignored,
        # and an `out` there would not move the model file
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=toy_files[0])
                       .replace("seed = 9\n", f"seed = 9\n{key} = 1\n"))
        assert main(["train", "--config", str(cfg)]) == 4
        assert f"config error: train does not read [experiment] {key}" in capsys.readouterr().err
        assert not (tmp_path / "model.twinsvm").exists()

    def test_grid_section_in_a_train_config_exits_4(self, tmp_path, toy_files, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=toy_files[0]) + "[grid]\nc1 = 5\n")
        assert main(["train", "--config", str(cfg)]) == 4
        assert "config error: train does not read a [grid] section" in capsys.readouterr().err
        assert not (tmp_path / "model.twinsvm").exists()

    def test_dump_plan_lists_the_top_up_pairs(self, tmp_path):
        # 10 + 13 rows: the 3 averaged rows are fewer than ceil(10 / 2) = 5,
        # so two extra pairs top the reduced universum up
        data = tmp_path / "mild.dat"
        write_dataset(data, make_blobs(10, 13, seed=4, gap=6.0, name="mild"))
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=data))
        plan_csv = tmp_path / "plan.csv"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin"),
                     "--dump-plan", str(plan_csv)]) == 0
        with open(plan_csv, newline="") as fh:
            roles = [row["role"] for row in csv.DictReader(fh)]
        assert roles == ["undersampled"] * 10 + ["universum"] * 3 + ["universum_extra"] * 2

    def test_dump_plan_rebuilds_the_reduced_universum(self, tmp_path):
        # 10 + 30 rows: the 20 averaged rows are at least ceil(10 / 2) = 5, so
        # the reduced universum G* is 5 of them, listed by their universum row
        data = tmp_path / "strict.dat"
        write_dataset(data, make_blobs(10, 30, seed=4, gap=6.0, name="strict"))
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=data))
        plan_csv = tmp_path / "plan.csv"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin"),
                     "--dump-plan", str(plan_csv)]) == 0
        with open(plan_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        pairs = [(int(r["source_a"]), int(r["source_b"])) for r in rows
                 if r["role"] == "universum"]
        kept = [int(r["source_a"]) for r in rows if r["role"] == "universum_star"]
        ds = load_dataset(data)
        pos, neg = ds.positives(), ds.negatives()
        rebuilt = np.array([0.5 * (pos[pairs[k][0]] + neg[pairs[k][1]]) for k in kept])
        seed = json.loads((tmp_path / "m.bin.log.json").read_text())["sampling_plan"]["seed"]
        np.testing.assert_array_equal(rebuilt, build_plan(ds, seed).universum_star)

    def trained_model(self, tmp_path, dataset):
        cfg = tmp_path / "train.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=dataset))
        model_path = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--out", str(model_path)]) == 0
        return model_path

    @pytest.mark.parametrize("cut", ["header", "payload"])
    def test_truncated_model_file_exits_2(self, tmp_path, toy_files, capsys, cut):
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        blob = model_path.read_bytes()
        model_path.write_bytes(blob[:20] if cut == "header" else blob[:-3])
        assert main(["eval", "--model", str(model_path), "--data", str(pa)]) == 2
        assert "corrupt model file" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("kind", "banana"), ("coef_len", -1)])
    def test_header_it_cannot_honour_exits_2(self, tmp_path, toy_files, capsys, field,
                                             value):
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        header, payload = read_model_file(model_path)
        write_model_file(model_path, {**header, field: value}, payload)
        assert main(["eval", "--model", str(model_path), "--data", str(pa)]) == 2
        assert "corrupt model file" in capsys.readouterr().err

    def test_feature_count_mismatch_exits_2(self, tmp_path, toy_files, capsys):
        pa, _ = toy_files
        model_path = self.trained_model(tmp_path, pa)
        wide = tmp_path / "wide.dat"
        write_dataset(wide, make_blobs(10, 20, seed=3, d=3, name="wide"))
        assert main(["eval", "--model", str(model_path), "--data", str(wide)]) == 2
        assert "dataset has 3 features, the model expects 2" in capsys.readouterr().err


class TestBenchmark:
    def run(self, tmp_path, toy_files, models="ifutsvm-id, utsvm", out="runs/x",
            command="benchmark"):
        pa, pb = toy_files
        cfg = tmp_path / "bench.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets=f"{pa}, {pb}", models=models, out=tmp_path / out, extra=""))
        code = main([command, "--config", str(cfg)])
        assert code == 0
        return json.loads((tmp_path / out / "report.json").read_text())

    def test_two_by_two_rank_rows(self, tmp_path, toy_files):
        report = self.run(tmp_path, toy_files)
        stats = report["aggregate"]["statistics"]
        ranks = np.asarray(stats["ranks"])
        assert ranks.shape == (2, 2)
        np.testing.assert_allclose(ranks.sum(axis=1), 3.0)
        assert len(report["results"]) == 4
        # alpha = 0.05 values for p = 2 models over N = 2 datasets
        assert stats["q_alpha"] == 1.96
        np.testing.assert_allclose(stats["critical_difference"], 1.96 * np.sqrt(1 / 2))
        np.testing.assert_allclose(stats["f_critical"], 161.4476, rtol=1e-6)
        assert stats["significant"] is (stats["f_stat"] > stats["f_critical"])

    def test_failing_cell_is_reported_and_leaves_the_statistics(self, tmp_path, toy_files):
        # 3 minority rows keep 2 after the 70 % split, fewer than the 3 folds
        few = tmp_path / "few.dat"
        write_dataset(few, make_blobs(3, 20, seed=2, gap=6.0, name="few"))
        cfg = tmp_path / "bench.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=f"{toy_files[0]}, {few}",
                                           models="ifutsvm-id, utsvm", out=tmp_path / "f",
                                           extra=""))
        assert main(["benchmark", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "f" / "report.json").read_text())
        error = "ValueError: each class needs at least k samples for k folds"
        failed = [r for r in report["results"] if r["dataset"] == "few"]
        assert [(r["kind"], r["ok"], r["error"]) for r in failed] == [
            ("ifutsvm-id", False, error), ("utsvm", False, error)]
        assert all(r["ok"] for r in report["results"] if r["dataset"] == "alpha")
        aggregate = report["aggregate"]
        assert aggregate["complete_datasets"] == ["alpha"]
        assert aggregate["notice"] == ("statistics block omitted: "
                                       "needs at least 2 complete datasets")
        assert "statistics" not in aggregate
        with open(tmp_path / "f" / "accuracies.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["dataset"] == "few"]
        assert [(row["accuracy"], row["error"]) for row in rows] == [("", error)] * 2
        assert not (tmp_path / "f" / "ranks.csv").exists()

    def test_search_in_which_no_point_trains_fails_its_cell(self, tmp_path):
        # 3 or 4 minority rows in each 2-fold training part of this 4-feature
        # set: every linear UTSVM fold fit stalls, while the refit on all 6
        # would converge.  Refitting the first point anyway would report
        # "cv_accuracy": -Infinity, which is not JSON
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (8, 4)), rng.normal(1, 1, (20, 4))])
        data = tmp_path / "stiff.dat"
        write_dataset(data, ifutsvm.Dataset("stiff", X, [1] * 8 + [-1] * 20))
        out = tmp_path / "out"
        cfg = tmp_path / "bench.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=data, models="utsvm", out=out, extra="")
                       .replace("seed = 77", "seed = 2").replace("folds = 3", "folds = 2")
                       .replace("c1 = 0.1, 1", "c1 = 1"))
        assert main(["benchmark", "--config", str(cfg)]) == 0

        def not_json(constant):
            raise ValueError(f"report.json holds {constant}")

        report = json.loads((out / "report.json").read_text(), parse_constant=not_json)
        [cell] = report["results"]
        assert cell["ok"] is False and "cv_accuracy" not in cell
        assert cell["error"] == ("TrainingError: no lattice point of 1 trained on any fold: "
                                 "every fold fit failed (NonConvergenceError)")

    def test_single_model_omits_statistics(self, tmp_path, toy_files):
        report = self.run(tmp_path, toy_files, models="ifutsvm-id", out="runs/y")
        assert "statistics" not in report["aggregate"]
        assert "notice" in report["aggregate"]

    def test_deterministic_reports(self, tmp_path, toy_files, monkeypatch):
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        pa, pb = toy_files
        cfg_text = BENCH_CONFIG.format(datasets=f"{pa}, {pb}",
                                       models="ifutsvm-id, utsvm", out="runs/z",
                                       extra="")
        for d in (d1, d2):
            cfg = d / "bench.ini"
            cfg.write_text(cfg_text)
            monkeypatch.chdir(d)
            assert main(["benchmark", "--config", str(cfg)]) == 0
        r1 = (d1 / "runs/z/report.json").read_bytes()
        r2 = (d2 / "runs/z/report.json").read_bytes()
        assert r1 == r2
        a1 = (d1 / "runs/z/accuracies.csv").read_bytes()
        a2 = (d2 / "runs/z/accuracies.csv").read_bytes()
        assert a1 == a2

    def test_cv_tables_and_selected_row_match_the_search(self, tmp_path, toy_files):
        # each cell rebuilt in-process from the CLI's seed tags: the kept CSV
        # is the search table in order, and best / cv_accuracy are its first top row
        pa, pb = toy_files
        out = tmp_path / "cvt"
        cfg = tmp_path / "cvt.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=f"{pa}, {pb}", models="ifutsvm-id, utsvm",
                                           out=out, extra="standardize = true\n")
                       .replace("c3 = 0.1", "c3 = 1, 0.1").replace("linear", "4, 1"))
        assert main(["benchmark", "--config", str(cfg), "--keep-cv-tables"]) == 0
        report = json.loads((out / "report.json").read_text())
        grid = GridSpec(c1=(0.1, 1.0), c3=(1.0, 0.1), cu=(0.1,), epsilon=(0.1,), width=(4.0, 1.0))
        assert report["grid"] == {"c1": [0.1, 1.0], "c3": [1.0, 0.1], "cu": [0.1],
                                  "epsilon": [0.1], "width": [4.0, 1.0]}
        assert len(report["results"]) == 4
        for cell in report["results"]:
            name, kind = cell["dataset"], cell["kind"]
            split = stratified_split(load_dataset(tmp_path / f"{name}.dat"), 0.7,
                                     mix_seed(77, name, "split"))
            train, _ = standardize(*split)
            best_hp, table = grid_search_cv(train, kind, grid, 3, mix_seed(77, name, kind, "cv"))
            with open(out / "cv" / f"{name}_{kind}_0.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["c1", "c3", "cu", "epsilon", "width", "mean_accuracy", "flags"]
            assert rows[1:] == [[str(row[key]) for key in AXES]
                                + [str(row["mean_accuracy"]), ";".join(row["flags"])]
                                for row in table]
            assert cell["best"] == {"c1": best_hp.c1, "c3": best_hp.c3, "cu": best_hp.cu,
                                    "epsilon": best_hp.epsilon, "width": best_hp.kernel.width}
            assert cell["cv_accuracy"] == max(row["mean_accuracy"] for row in table)

    def test_dataset_dir_runs_its_files_in_name_order(self, tmp_path, toy_files):
        listed = self.run(tmp_path, toy_files, out="runs/listed")
        pa, _ = toy_files
        cfg = tmp_path / "dir.ini"
        cfg.write_text(BENCH_CONFIG.replace("datasets = {datasets}", "dataset_dir = {datasets}")
                       .format(datasets=pa.parent, models="ifutsvm-id, utsvm",
                               out=tmp_path / "runs/dir", extra=""))
        assert main(["benchmark", "--config", str(cfg)]) == 0
        found = json.loads((tmp_path / "runs/dir/report.json").read_text())
        assert [r["dataset"] for r in found["results"]] == ["alpha", "alpha", "beta", "beta"]
        assert found["results"] == listed["results"]
        assert found["aggregate"] == listed["aggregate"]


class TestNoiseStudy:
    def test_levels_produce_rows_and_zero_matches_benchmark(self, tmp_path, toy_files):
        pa, _ = toy_files
        out = tmp_path / "ns"
        cfg = tmp_path / "ns.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets=str(pa), models="ifutsvm-id", out=out,
            extra="noise_levels = 0.0, 0.05, 0.10, 0.15, 0.20\n"))
        assert main(["noise-study", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        levels = sorted({r["noise_level"] for r in report["results"]})
        assert levels == [0.0, 0.05, 0.10, 0.15, 0.20]

        bench_out = tmp_path / "b0"
        cfg2 = tmp_path / "b0.ini"
        cfg2.write_text(BENCH_CONFIG.format(datasets=str(pa), models="ifutsvm-id",
                                            out=bench_out, extra=""))
        assert main(["benchmark", "--config", str(cfg2)]) == 0
        bench = json.loads((bench_out / "report.json").read_text())
        zero_rows = [r for r in report["results"] if r["noise_level"] == 0.0]
        assert zero_rows[0]["metrics"] == bench["results"][0]["metrics"]

    def test_different_seeds_differ(self, tmp_path, toy_files):
        pa, _ = toy_files
        reports = []
        for seed in (77, 78):
            out = tmp_path / f"s{seed}"
            cfg = tmp_path / f"s{seed}.ini"
            cfg.write_text(BENCH_CONFIG.format(
                datasets=str(pa), models="ifutsvm-id", out=out,
                extra="noise_levels = 0.15\n"))
            assert main(["noise-study", "--config", str(cfg),
                         "--seed", str(seed)]) == 0
            reports.append((out / "report.json").read_text())
        assert reports[0] != reports[1]

    def test_report_independent_of_thread_count(self, tmp_path, toy_files):
        pa, pb = toy_files
        out = tmp_path / "ns"
        cfg = tmp_path / "ns.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets=f"{pa}, {pb}", models="ifutsvm-id, utsvm", out=out,
            extra="noise_levels = 0.1, 0.2\n"))
        reports = {}
        for threads in (1, 2, 3):
            assert main(["noise-study", "--config", str(cfg),
                         "--threads", str(threads)]) == 0
            reports[threads] = ((out / "report.json").read_bytes(),
                                (out / "accuracies.csv").read_bytes(),
                                (out / "ranks.csv").read_bytes())
        # the config block records the thread count; everything else must match
        # byte for byte
        for threads in (2, 3):
            one = reports[1][0].replace(b'"threads": 1', b'"threads": %d' % threads, 1)
            assert one != reports[1][0]
            assert one == reports[threads][0]
            assert reports[1][1:] == reports[threads][1:]

    @pytest.mark.parametrize("datasets, cells, pool", [(2, 2, [1]), (1, 1, [])])
    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, toy_files, monkeypatch,
                                                  datasets, cells, pool):
        # a forking pool starts every worker it is asked for at the first
        # submit, and this process runs cells too; a fake pool records the
        # request and runs each cell in process when it is submitted
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "capped"
        cfg = tmp_path / "capped.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets=", ".join(str(p) for p in toy_files[:datasets]), models="ifutsvm-id",
            out=out, extra="noise_levels = 0.1\n"))
        assert main(["noise-study", "--config", str(cfg), "--threads", "1000"]) == 0
        assert requested == pool
        assert len(json.loads((out / "report.json").read_text())["results"]) == cells

    def test_cells_the_pool_never_starts_run_here_in_order(self, monkeypatch):
        # no future of this fake pool ever starts, so every cancel succeeds and
        # this process runs every cell, from the back of the list
        class IdlePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Future()

        ran = []

        def cell(payload):
            ran.append(payload)
            return {"cell": payload}

        monkeypatch.setattr(cli, "ProcessPoolExecutor", IdlePool)
        monkeypatch.setattr(cli, "_run_dataset_model", cell)
        assert cli._run_cells(list(range(6)), 3) == [{"cell": i} for i in range(6)]
        assert ran == [5, 4, 3, 2, 1, 0]

    def test_failing_cells_stop_the_run_early(self, tmp_path, toy_files, monkeypatch):
        # real forked workers; every cell records that it started, then fails
        # with an error the cell runner does not expect
        monkeypatch.setattr(cli, "_run_dataset_model", touch_and_raise)
        levels = [f"{i / 25:g}" for i in range(12)]
        cfg = tmp_path / "fail.ini"
        cfg.write_text(BENCH_CONFIG.format(
            datasets=", ".join(map(str, toy_files)), models="ifutsvm-id, utsvm",
            out=tmp_path / "out", extra=f"noise_levels = {', '.join(levels)}\n"))
        with pytest.raises(RuntimeError, match="cell failed"):
            main(["noise-study", "--config", str(cfg), "--threads", "2"])
        started = list(tmp_path.glob("started-*"))
        # 48 cells; the cells not yet started are cancelled
        assert 1 <= len(started) < 48 // 4
        assert not (tmp_path / "out").exists()


def touch_and_raise(payload):
    """A cell that leaves a marker next to its dataset file and fails; defined
    at module level so that a pool worker can unpickle it by name."""
    path = Path(payload["path"])
    path.with_name(f"started-{path.stem}-{payload['kind']}-{payload['noise_level']}").touch()
    raise RuntimeError("cell failed")


class TestExperimentNumbers:
    @pytest.mark.parametrize("old, new, flags", [
        ("folds = 3", "folds = five", []),
        ("folds = 3", "folds = 1", []),
        ("seed = 77", "seed = abc", []),
        ("seed = 77", "seed = 77\nthreads = two", []),
        ("seed = 77", "seed = 77\nthreads = 0", []),
        ("seed = 77", "seed = 77", ["--threads", "0"]),
        ("split_fraction = 0.7", "split_fraction = 0.7.1", []),
        ("split_fraction = 0.7", "split_fraction = 1.0", []),
        ("split_fraction = 0.7", "split_fraction = 0", []),
        ("folds = 3", "folds = 3\nfolds = 4", []),
    ])
    def test_malformed_or_out_of_range_exits_4(self, tmp_path, toy_files, capsys,
                                               old, new, flags):
        pa, _ = toy_files
        cfg = tmp_path / "b.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=str(pa), models="ifutsvm-id",
                                           out=tmp_path / "out", extra="")
                       .replace(old, new))
        assert main(["benchmark", "--config", str(cfg), *flags]) == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["benchmark", "noise-study"])
    @pytest.mark.parametrize("old, new", [
        ("width = linear", "width = linear\n[fuzzy]\neta = abc"),
        ("width = linear", "width = linear\n[fuzzy]\neta = -1"),
        ("c1 = 0.1, 1", "c1 = -1"),
        ("c1 = 0.1, 1", "c1 = ,"),
        ("width = linear", "width = inf"),
        ("width = linear", "width = 1 1e200"),
        ("width = linear", "width = 1e-200"),
        ("width = linear", "width = linear\n[fuzzy]\neta = inf"),
        ("width = linear", "width = linear\n[fuzzy]\nrho = inf"),
    ], ids=["eta-not-a-number", "eta-negative", "c1-negative", "c1-empty", "width-inf",
            "width-squared-overflows", "width-squared-underflows", "eta-inf", "rho-inf"])
    def test_bad_grid_or_fuzzy_exits_4(self, tmp_path, toy_files, capsys, command,
                                       old, new):
        pa, _ = toy_files
        cfg = tmp_path / "b.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=str(pa), models="ifutsvm-id",
                                           out=tmp_path / "out", extra="")
                       .replace(old, new))
        assert main([command, "--config", str(cfg)]) == 4
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_train_seed_exits_4(self, tmp_path, toy_files):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa).replace("seed = 9", "seed = x"))
        assert main(["train", "--config", str(cfg)]) == 4

    def test_negative_train_seed_exits_4(self, tmp_path, toy_files, capsys):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa))
        out = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 4
        assert ("config error: bad [train] hyperparameters: seed must be nonnegative"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_infinite_train_width_exits_4(self, tmp_path, toy_files, capsys):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa) + "width = inf\n")
        out = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 4
        assert "kernel width must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", ["1e200", "1.5e154", "1e-200"])
    def test_train_width_whose_square_leaves_float_range_exits_4(self, tmp_path, toy_files,
                                                                 capsys, width):
        # gram_values divides by 2 width^2: it would overflow or underflow to 0
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa) + f"width = {width}\n")
        out = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 4
        assert "so must 2 width^2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["benchmark", "noise-study"])
    @pytest.mark.parametrize("repeat", ["dataset", "model", "level"])
    def test_repeated_dataset_or_model_exits_4_before_any_cell(
            self, tmp_path, toy_files, capsys, monkeypatch, command, repeat):
        # cells are keyed by (dataset name, model, level), so a repeat would
        # count one file's accuracies twice or rank a model against itself
        def no_cells(cells, threads):
            raise AssertionError("cells ran before the repeat was caught")

        monkeypatch.setattr(cli, "_run_cells", no_cells)
        pa, pb = toy_files
        datasets, models, extra = f"{pa}, {pb}", "ifutsvm-id", ""
        if repeat == "dataset":
            twin = tmp_path / "other" / pa.name
            twin.parent.mkdir()
            twin.write_bytes(pa.read_bytes())
            datasets, message = f"{pa}, {twin}, {pb}", "dataset name: alpha"
        elif repeat == "model":
            models, message = "ifutsvm-id, ifutsvm-id", "model: ifutsvm-id"
        else:
            extra, message = "noise_levels = 0.1, 0.2, 0.10\n", "noise level: 0.1"
        out = tmp_path / "out"
        cfg = tmp_path / "b.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=datasets, models=models, out=out,
                                           extra=extra))
        assert main([command, "--config", str(cfg)]) == 4
        assert f"config error: repeated {message}" in capsys.readouterr().err
        assert not out.exists()


def no_cells(cells, threads):
    raise AssertionError("cells ran before the config was checked")


# every (section, key) a config may set, but width, whose empty value means linear
EMPTY_KEYS = sorted((section, key) for section, keys in cli.CONFIG_KEYS.items()
                    for key in keys if key != "width")


class TestConfigFile:
    def bench_config(self, tmp_path, toy_files, out=None, extra="", grid=True):
        pa, _ = toy_files
        text = BENCH_CONFIG.format(datasets=str(pa), models="ifutsvm-id",
                                   out=out or tmp_path / "out", extra=extra)
        if not grid:
            text = text[:text.index("[grid]")]
        cfg = tmp_path / "b.ini"
        cfg.write_text(text)
        return cfg

    def test_percent_in_a_value_is_literal(self, tmp_path, toy_files):
        out = tmp_path / "50%"
        cfg = self.bench_config(tmp_path, toy_files, out=out)
        assert main(["benchmark", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["out"] == str(out)

    @pytest.mark.parametrize("command", ["benchmark", "noise-study"])
    @pytest.mark.parametrize("eta", ["abc", "-1"])
    def test_fuzzy_without_grid_is_checked(self, tmp_path, toy_files, capsys, monkeypatch,
                                           command, eta):
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files, extra=f"[fuzzy]\neta = {eta}\n",
                                grid=False)
        assert main([command, "--config", str(cfg)]) == 4
        message = {"abc": "[fuzzy] eta: could not convert string to float: 'abc'",
                   "-1": "bad [fuzzy] values"}[eta]
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["benchmark", "noise-study"])
    def test_train_section_exits_4(self, tmp_path, toy_files, capsys, monkeypatch, command):
        # the protocol commands search the [grid] lattice and never read [train]
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files, extra="[train]\nc1 = 5\n")
        assert main([command, "--config", str(cfg)]) == 4
        assert (f"config error: {command} does not read a [train] section"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_fuzzy_without_grid_is_kept(self, tmp_path, toy_files):
        cfg = self.bench_config(tmp_path, toy_files, extra="[fuzzy]\neta = 0.5\nrho = 2\n",
                                grid=False)
        grid = cli._grid_from_config(cli._read_config(str(cfg)))
        assert grid.fuzzy == FuzzyParams(eta=0.5, rho=2.0)
        assert grid.c1 == GridSpec().c1

    @pytest.mark.parametrize("extra, message", [
        ("noise_level = 0.3\n", "unknown key in [experiment]: noise_level"),
        ("fold = 10\n", "unknown key in [experiment]: fold"),
        ("[train]\nc2 = 50\nwidht = 2\n", "unknown key in [train]: c2, widht"),
        ("[grids]\nc1 = 1\n", "unknown config section [grids]"),
        ("[DEFAULT]\nseed = 3\n", "a [DEFAULT] section is not supported"),
        ("standardize = ture\n", "[experiment] standardize: not a boolean: 'ture'"),
        ("noise_levels = 0.1, x\n",
         "[experiment] noise_levels: could not convert string to float: 'x'"),
        ("noise_levels = 0.1, 0.6\n", "noise levels must lie in [0, 0.5]"),
    ], ids=["experiment-key", "misspelt-folds", "train-keys", "section", "default",
            "standardize", "non-numeric-level", "level-above-half"])
    def test_unknown_or_malformed_setting_exits_4(self, tmp_path, toy_files, capsys,
                                                  monkeypatch, extra, message):
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files, extra=extra)
        assert main(["benchmark", "--config", str(cfg)]) == 4
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("benchmark", "c1", ""),
        ("noise-study", "models", ""),
        ("noise-study", "models", ","),
        ("noise-study", "noise_levels", ""),
        ("noise-study", "noise_levels", ","),
        ("benchmark", "out", ""),
        ("benchmark", "datasets", ""),
    ], ids=["grid-c1", "models", "models-comma", "noise_levels", "noise_levels-comma",
            "out", "datasets"])
    def test_key_without_value_exits_4(self, tmp_path, toy_files, capsys, monkeypatch,
                                       command, key, value):
        # an empty value used to mean the default (for out the working
        # directory, for datasets dataset_dir); only width keeps "empty means linear"
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        monkeypatch.chdir(tmp_path)
        fallback = f"dataset_dir = {tmp_path}\n" if key == "datasets" else ""
        cfg = self.bench_config(tmp_path, toy_files, extra=fallback + "noise_levels = 0.1\n")
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", cfg.read_text(),
                              flags=re.M))
        assert main([command, "--config", str(cfg)]) == 4
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("section, key", EMPTY_KEYS,
                             ids=[f"{section}-{key}" for section, key in EMPTY_KEYS])
    def test_empty_value_exits_4_naming_the_key(self, tmp_path, toy_files, capsys, monkeypatch,
                                                section, key):
        # the one rule of every key but width: absent means the default,
        # written with no value is an error that names it
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        if section == "train":
            command, text = "train", TRAIN_CONFIG.format(dataset=toy_files[0])
        else:
            command, text = "benchmark", BENCH_CONFIG.format(datasets=toy_files[0],
                                                             models="ifutsvm-id", out=out,
                                                             extra="")
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
        header = f"[{section}]\n"
        text = (text.replace(header, f"{header}{key} =\n") if header in text
                else f"{text}{header}{key} =\n")
        (tmp_path / "run.ini").write_text(text)
        # train's --out names the model file, which no config key sets
        flags = ["--out", str(out)] if command == "train" else []
        assert main([command, "--config", str(tmp_path / "run.ini"), *flags]) == 4
        assert f"config error: [{section}] {key} has no value" in capsys.readouterr().err
        assert not out.exists()

    def test_datasets_and_dataset_dir_together_exit_4(self, tmp_path, toy_files, capsys,
                                                      monkeypatch):
        # one of the two would be ignored, and dataset_dir never checked
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files, extra=f"dataset_dir = {tmp_path}/nowhere\n")
        assert main(["benchmark", "--config", str(cfg)]) == 4
        assert ("config error: [experiment] datasets and dataset_dir are both set"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_exits_4(self, tmp_path, toy_files, capsys):
        cfg = tmp_path / "train.ini"
        cfg.write_bytes(TRAIN_CONFIG.format(dataset=toy_files[0]).encode() + b"; caf\xe9\n")
        assert main(["train", "--config", str(cfg)]) == 4
        assert "config error: config file is not valid UTF-8" in capsys.readouterr().err

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        assert main(["benchmark", "--config", str(tmp_path / "nope.ini")]) == 4
        assert (f"config error: config file not found: {tmp_path / 'nope.ini'}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("old, new, message", [
        (r"^datasets = .*$", "dataset_dir = {tmp}/nowhere",
         "dataset_dir not found: {tmp}/nowhere"),
        (r"^datasets = .*$", "", "config names no datasets"),
        (r"^datasets = .*$", "datasets = {tmp}/gone.dat",
         "dataset file not found: {tmp}/gone.dat"),
        (r"^models = .*$", "models = ifutsvm-id, svm", "unknown model kind: 'svm'"),
    ], ids=["no-dataset-dir", "no-datasets", "missing-dataset", "unknown-model"])
    def test_experiment_that_names_nothing_to_run_exits_4(self, tmp_path, toy_files, capsys,
                                                         monkeypatch, old, new, message):
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files)
        cfg.write_text(re.sub(old, new.format(tmp=tmp_path), cfg.read_text(), flags=re.M))
        assert main(["benchmark", "--config", str(cfg)]) == 4
        assert f"config error: {message.format(tmp=tmp_path)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_delta_without_value_exits_4(self, tmp_path, toy_files, capsys):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa) + "delta =\n")
        out = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 4
        assert "config error: [train] delta has no value" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_known_keys_match_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listing = readme.split("The known keys are:", 1)[1].strip().split("\n\n", 1)[0]
        documented = {}
        for item in listing.split("\n- "):
            section, body = re.match(r"-? *`\[(\w+)\]`:(.*)", item, re.S).groups()
            body = re.sub(r"\([^)]*\)", "", body)
            documented[section] = set(re.findall(r"\w+", body)) - {"and"}
        assert documented == cli.CONFIG_KEYS

    def test_readme_example_config_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "exp.ini"
        cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cp = cli._read_config(str(cfg))
        args = cli.build_parser().parse_args(["noise-study", "--config", str(cfg)])
        assert cli._experiment_settings(cp, args)["noise_levels"] == [0.05, 0.10, 0.15, 0.20]
        assert cli._grid_from_config(cp).width == (0.03125, 0.125, 0.5, 2, 8, 32)

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        assert [line.split()[1] for line in lines] == [
            "train", "eval", "benchmark", "noise-study", "aggregate"]
        for line in lines:
            argv = line.replace("[", "").replace("]", "").split()[1:]
            cli.build_parser().parse_args(argv)

    def test_repeated_grid_value_exits_4(self, tmp_path, toy_files, capsys, monkeypatch):
        # "c1 = 1 1" would fit every point of that c1 twice
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files)
        cfg.write_text(cfg.read_text().replace("c1 = 0.1, 1", "c1 = 1 1"))
        assert main(["benchmark", "--config", str(cfg)]) == 4
        assert ("config error: bad [grid] values: grid axis c1 repeats 1.0"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, expected", [("on", True), ("yes", True), ("1", True),
                                                 ("off", False), ("false", False)])
    def test_standardize_is_a_config_boolean(self, tmp_path, toy_files, value, expected):
        cfg = self.bench_config(tmp_path, toy_files, extra=f"standardize = {value}\n")
        args = cli.build_parser().parse_args(["benchmark", "--config", str(cfg)])
        settings = cli._experiment_settings(cli._read_config(str(cfg)), args)
        assert settings["standardize"] is expected


class TestAggregate:
    def test_bundled_matrix_statistics(self, tmp_path, capsys):
        from importlib import resources

        src = resources.files("ifutsvm.resources") / "keel_benchmark_accuracies.csv"
        out = tmp_path / "agg.json"
        assert main(["aggregate", "--matrix", str(src), "--out", str(out)]) == 0
        block = json.loads(out.read_text())
        np.testing.assert_allclose(
            block["average_accuracy"],
            [83.52, 81.15, 80.61, 79.44, 86.19, 87.70], atol=0.01)
        assert block["q_alpha"] == 2.85
        assert abs(block["critical_difference"] - 1.11) <= 0.005
        assert abs(block["f_critical"] - 2.2542) <= 1e-4
        assert block["significant"] is True

    def test_matrix_reader_validates(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,a,b\nrow1,1.0\n")
        with pytest.raises(Exception):
            read_accuracy_matrix(bad)

    def test_bundled_matrix_names_are_distinct(self):
        names, kinds, acc = load_benchmark_matrix()
        assert len(set(names)) == len(names) == 46
        assert len(set(kinds)) == len(kinds) == 6
        assert acc.shape == (46, 6)

    def test_matrix_not_utf8_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_bytes(b"dataset,a,b\nd1,80,90\nd2,70,\xff\xfe\n")
        assert main(["aggregate", "--matrix", str(matrix)]) == 2
        assert "parse error: accuracy matrix is not valid UTF-8" in capsys.readouterr().err

    def test_missing_matrix_exits_4(self):
        assert main(["aggregate", "--matrix", "/does/not/exist.csv"]) == 4

    @pytest.mark.parametrize("text, message", [
        ("dataset,a,b\nrow1,80,nan\nrow2,70,75\n", "line 2"),
        ("dataset,a,b\nrow1,80,90\nrow2,inf,75\n", "line 3"),
        ("dataset,a,b\nrow1,80,90\n", "1 datasets"),
        ("dataset,A,A\nd1,80,90\nd2,70,75\n", "repeated model name: A"),
        ("dataset,a,b\nd2,80,90\nd1,70,75\nd2,60,65\nd1,1,2\n",
         "repeated dataset name: d1, d2"),
        ("dataset,A,A\nd1,80,90\nd1,70,75\n", "repeated dataset name: d1"),
        ("dataset,,B\nd1,80,90\nd2,70,75\n", "line 1: empty model name"),
        ("dataset,a,b\n,80,90\nd2,70,75\n", "line 2: empty dataset name"),
        ("dataset," + ",".join(f"m{j}" for j in range(11)) + "\n"
         + "".join(f"d{i}," + ",".join(str(50 + i + j) for j in range(11)) + "\n"
                   for i in range(3)),
         "3 datasets and 11 models: the Nemenyi q is tabulated for 2 to 10 models"),
    ], ids=["nan-cell", "inf-cell", "single-dataset", "repeated-model", "repeated-dataset",
            "repeated-both", "empty-model-name", "empty-dataset-name", "eleven-models"])
    def test_bad_matrix_exits_2(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m.csv"
        matrix.write_text(text)
        out = tmp_path / "agg.json"
        assert main(["aggregate", "--matrix", str(matrix), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStatisticsFlags:
    # the critical values follow from the numbers of models and datasets, so the
    # flags that once set them are gone and argparse rejects them with exit 2;
    # the test keeps the name it had when a bad value exited 4
    @pytest.mark.parametrize("command", ["benchmark", "noise-study", "aggregate"])
    @pytest.mark.parametrize("flags", [
        ["--q-alpha", "-1"], ["--q-alpha", "nan"], ["--q-alpha", "inf"],
        ["--f-critical", "nan"], ["--f-critical=-inf"],
    ], ids=["q-negative", "q-nan", "q-inf", "f-nan", "f-inf"])
    def test_bad_value_exits_4_before_any_cell(self, tmp_path, toy_files, capsys,
                                               monkeypatch, command, flags):
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        pa, pb = toy_files
        out = tmp_path / "out"
        if command == "aggregate":
            matrix = tmp_path / "m.csv"
            matrix.write_text("dataset,a,b\nrow1,80,90\nrow2,70,75\n")
            argv = ["aggregate", "--matrix", str(matrix), "--out", str(out)]
        else:
            cfg = tmp_path / "b.ini"
            cfg.write_text(BENCH_CONFIG.format(datasets=f"{pa}, {pb}",
                                               models="ifutsvm-id, utsvm", out=out,
                                               extra=""))
            argv = [command, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.spatial", "scipy.special", "cffi",
                                    "setuptools", "distutils", "pycparser"])
def test_import_does_not_load(module, tmp_path):
    # every command and every pool worker pays the package import: scipy.stats
    # alone took most of it, and scipy.spatial with scipy.special cost about 9 MB
    # of resident memory (scipy.special loads when a statistics block is computed);
    # the solve loop's build runs the compiler alone, with no FFI or build toolchain
    src = str(Path(ifutsvm.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"import sys, ifutsvm, ifutsvm.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
