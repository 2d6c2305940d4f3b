import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifutsvm
from ifutsvm import FuzzyParams, GridSpec, cli
from ifutsvm.cli import main, read_accuracy_matrix

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
        printed = capsys.readouterr().out.strip()
        assert printed == str(model_path)
        assert model_path.is_file()
        assert model_path.with_suffix(".bin.log.json").is_file()

        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model_path), "--data", str(pa),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["accuracy"] == 1.0

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
        for threads in (1, 2):
            assert main(["noise-study", "--config", str(cfg),
                         "--threads", str(threads)]) == 0
            reports[threads] = ((out / "report.json").read_bytes(),
                                (out / "accuracies.csv").read_bytes(),
                                (out / "ranks.csv").read_bytes())
        # the config block records the thread count; everything else must match
        # byte for byte
        one = reports[1][0].replace(b'"threads": 1', b'"threads": 2', 1)
        assert one != reports[1][0]
        assert one == reports[2][0]
        assert reports[1][1:] == reports[2][1:]


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
    ], ids=["eta-not-a-number", "eta-negative", "c1-negative", "c1-empty", "width-inf",
            "width-squared-overflows", "width-squared-underflows"])
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
    @pytest.mark.parametrize("repeat", ["dataset", "model"])
    def test_repeated_dataset_or_model_exits_4_before_any_cell(
            self, tmp_path, toy_files, capsys, monkeypatch, command, repeat):
        # cells are keyed by (dataset name, model, level), so a repeat would
        # count one file's accuracies twice or rank a model against itself
        def no_cells(cells, threads):
            raise AssertionError("cells ran before the repeat was caught")

        monkeypatch.setattr(cli, "_run_cells", no_cells)
        pa, pb = toy_files
        if repeat == "dataset":
            twin = tmp_path / "other" / pa.name
            twin.parent.mkdir()
            twin.write_bytes(pa.read_bytes())
            datasets, models, message = f"{pa}, {twin}, {pb}", "ifutsvm-id", "dataset name: alpha"
        else:
            datasets, models, message = f"{pa}, {pb}", "ifutsvm-id, ifutsvm-id", "model: ifutsvm-id"
        out = tmp_path / "out"
        cfg = tmp_path / "b.ini"
        cfg.write_text(BENCH_CONFIG.format(datasets=datasets, models=models, out=out, extra=""))
        assert main([command, "--config", str(cfg)]) == 4
        assert f"config error: repeated {message}" in capsys.readouterr().err
        assert not out.exists()


def no_cells(cells, threads):
    raise AssertionError("cells ran before the config was checked")


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
        assert "config error: bad [fuzzy] values" in capsys.readouterr().err
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
        ("standardize = ture\n", "standardize must be a boolean"),
    ], ids=["experiment-key", "misspelt-folds", "train-keys", "section", "default",
            "standardize"])
    def test_unknown_or_malformed_setting_exits_4(self, tmp_path, toy_files, capsys,
                                                  monkeypatch, extra, message):
        monkeypatch.setattr(cli, "_run_cells", no_cells)
        cfg = self.bench_config(tmp_path, toy_files, extra=extra)
        assert main(["benchmark", "--config", str(cfg)]) == 4
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_example_config_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = tmp_path / "exp.ini"
        cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cp = cli._read_config(str(cfg))
        args = cli.build_parser().parse_args(["noise-study", "--config", str(cfg)])
        assert cli._experiment_settings(cp, args)["noise_levels"] == [0.05, 0.10, 0.15, 0.20]
        assert cli._grid_from_config(cp).width == (0.03125, 0.125, 0.5, 2, 8, 32)

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
        assert main(["aggregate", "--matrix", str(src), "--q-alpha", "2.850",
                     "--f-critical", "2.2542", "--out", str(out)]) == 0
        block = json.loads(out.read_text())
        np.testing.assert_allclose(
            block["average_accuracy"],
            [83.52, 81.15, 80.61, 79.44, 86.19, 87.70], atol=0.01)
        assert abs(block["critical_difference"] - 1.11) <= 0.005
        assert block["significant"] is True

    def test_matrix_reader_validates(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,a,b\nrow1,1.0\n")
        with pytest.raises(Exception):
            read_accuracy_matrix(bad)

    def test_missing_matrix_exits_4(self):
        assert main(["aggregate", "--matrix", "/does/not/exist.csv"]) == 4

    @pytest.mark.parametrize("text, message", [
        ("dataset,a,b\nrow1,80,nan\nrow2,70,75\n", "line 2"),
        ("dataset,a,b\nrow1,80,90\nrow2,inf,75\n", "line 3"),
        ("dataset,a,b\nrow1,80,90\n", "1 datasets"),
    ], ids=["nan-cell", "inf-cell", "single-dataset"])
    def test_bad_matrix_exits_2(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m.csv"
        matrix.write_text(text)
        out = tmp_path / "agg.json"
        assert main(["aggregate", "--matrix", str(matrix), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestStatisticsFlags:
    @pytest.mark.parametrize("command", ["benchmark", "noise-study", "aggregate"])
    @pytest.mark.parametrize("flags", [
        ["--q-alpha", "-1"], ["--q-alpha", "nan"], ["--q-alpha", "inf"],
        ["--f-critical", "nan"], ["--f-critical=-inf"],
    ], ids=["q-negative", "q-nan", "q-inf", "f-nan", "f-inf"])
    def test_bad_value_exits_4_before_any_cell(self, tmp_path, toy_files, capsys,
                                               monkeypatch, command, flags):
        def no_cells(cells, threads):
            raise AssertionError("cells ran before the flags were checked")

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
        assert main(argv + flags) == 4
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_import_does_not_load_scipy_stats():
    # every command pays the package import; scipy.stats alone took most of it
    src = str(Path(ifutsvm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, ifutsvm, ifutsvm.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
