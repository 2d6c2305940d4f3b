import json

import numpy as np
import pytest

from ifutsvm.cli import main, read_accuracy_matrix

from conftest import make_blobs


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

    def test_malformed_train_seed_exits_4(self, tmp_path, toy_files):
        pa, _ = toy_files
        cfg = tmp_path / "t.ini"
        cfg.write_text(TRAIN_CONFIG.format(dataset=pa).replace("seed = 9", "seed = x"))
        assert main(["train", "--config", str(cfg)]) == 4


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
