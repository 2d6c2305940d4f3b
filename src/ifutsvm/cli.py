"""Batch command-line front end.

Subcommands: train, eval, benchmark, noise-study, aggregate.  Experiments are
described by an INI config file (sections [experiment], [grid], [fuzzy],
[train], with the keys of CONFIG_KEYS; anything else is a config error);
command-line flags override file values.  Reports are deterministic
JSON/CSV keyed only by (config, seed): stdout carries the report path, all
diagnostics and timings go to stderr.

Exit codes: 0 ok, 2 dataset parse error, 3 numerical failure, 4 bad config.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import (
    DatasetError,
    InvalidDatasetError,
    NoiseSpec,
    inject_label_noise,
    load_dataset,
    standardize,
    stratified_split,
)
from .evaluation import (
    MODEL_KINDS,
    GridSpec,
    average_ranks,
    confusion,
    fit_model,
    friedman,
    grid_search_cv,
    make_hyperparams,
    metrics,
    nemenyi_cd,
    pairwise_significance,
    predict,
    read_accuracy_matrix,
)
from .membership import FuzzyParams
from .models import TrainingError, load_model, save_model
from .qp import NumericalError
from .seeds import mix_seed

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

DEFAULT_SPLIT = 0.7
DEFAULT_FOLDS = 5
DEFAULT_NOISE_LEVELS = (0.05, 0.10, 0.15, 0.20)


class ConfigError(Exception):
    pass


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config handling


# every key a config file may set, per section: any other section or key is a
# typo or a setting the program does not have, and would otherwise be ignored
CONFIG_KEYS = {
    "experiment": {"datasets", "dataset_dir", "models", "split_fraction", "folds", "seed",
                   "threads", "out", "standardize", "noise_levels"},
    "grid": {"c1", "c3", "cu", "epsilon", "width"},
    "fuzzy": {"eta", "rho"},
    "train": {"model", "dataset", "c1", "c3", "cu", "epsilon", "width", "delta"},
}


def _read_config(path: str | None) -> configparser.ConfigParser:
    # values are taken literally: a '%' in a path is not an interpolation
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cp.read(p)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
    if cp.defaults():
        raise ConfigError("a [DEFAULT] section is not supported: "
                          "its keys would be copied into every section")
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(set(cp.options(section)) - CONFIG_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown key in [{section}]: {', '.join(unknown)}")
    return cp


def _float_list(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {raw!r}: {exc}") from None


def _str_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _grid_from_config(cp: configparser.ConfigParser) -> GridSpec:
    kwargs = {"fuzzy": _fuzzy_from_config(cp)}
    sec = cp["grid"] if cp.has_section("grid") else {}
    for key in ("c1", "c3", "cu", "epsilon"):
        if sec.get(key):
            kwargs[key] = tuple(_float_list(sec[key]))
    if "width" in sec:
        raw = sec.get("width", "").strip()
        kwargs["width"] = None if raw in ("", "linear") else tuple(_float_list(raw))
    try:
        return GridSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad [grid] values: {exc}") from None


def _fuzzy_from_config(cp: configparser.ConfigParser) -> FuzzyParams:
    try:
        return FuzzyParams(eta=cp.getfloat("fuzzy", "eta", fallback=None),
                           rho=cp.getfloat("fuzzy", "rho", fallback=None))
    except ValueError as exc:
        raise ConfigError(f"bad [fuzzy] values: {exc}") from None


def _dataset_paths(cp: configparser.ConfigParser) -> list[Path]:
    datasets = cp.get("experiment", "datasets", fallback="")
    dataset_dir = cp.get("experiment", "dataset_dir", fallback="")
    paths: list[Path] = []
    if datasets:
        paths = [Path(tok) for tok in _str_list(datasets)]
    elif dataset_dir:
        root = Path(dataset_dir)
        if not root.is_dir():
            raise ConfigError(f"dataset_dir not found: {root}")
        paths = sorted(root.glob("*.dat")) + sorted(root.glob("*.csv"))
    if not paths:
        raise ConfigError("config names no datasets")
    for p in paths:
        if not p.is_file():
            raise ConfigError(f"dataset file not found: {p}")
    return paths


def _config_number(raw, convert, key: str):
    try:
        return convert(raw)
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {raw!r}") from None


def _master_seed(cp: configparser.ConfigParser, args) -> int:
    raw = args.seed if args.seed is not None else cp.get("experiment", "seed", fallback=None)
    if raw is None or raw == "":
        raise ConfigError("a master seed is required (config [experiment] seed or --seed)")
    return _config_number(raw, int, "seed")


def _experiment_settings(cp: configparser.ConfigParser, args) -> dict:
    def get(key, default):
        return cp.get("experiment", key, fallback=default)

    seed = _master_seed(cp, args)
    split_fraction = _config_number(get("split_fraction", DEFAULT_SPLIT), float,
                                    "split_fraction")
    if not 0.0 < split_fraction < 1.0:
        raise ConfigError("split_fraction must lie strictly between 0 and 1")
    folds = _config_number(get("folds", DEFAULT_FOLDS), int, "folds")
    if folds < 2:
        raise ConfigError("folds must be at least 2")
    threads = _config_number(args.threads if args.threads is not None else get("threads", 1),
                             int, "threads")
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    models = _str_list(get("models", "ifutsvm-id"))
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {kind!r}")
    levels = get("noise_levels", None)
    levels = [float(v) for v in _float_list(levels)] if levels else list(DEFAULT_NOISE_LEVELS)
    for lv in levels:
        if not 0.0 <= lv <= 0.5:
            raise ConfigError("noise levels must lie in [0, 0.5]")
    out = args.out if args.out is not None else get("out", "runs/report")
    try:
        standardize = cp.getboolean("experiment", "standardize", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"standardize must be a boolean: {exc}") from None
    return {
        "seed": seed,
        "models": models,
        "split_fraction": split_fraction,
        "folds": folds,
        "standardize": standardize,
        "noise_levels": levels,
        "threads": threads,
        "out": Path(out),
    }


# ---------------------------------------------------------------------------
# deterministic writing


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# train / eval


def _fixed_hyperparams(cp: configparser.ConfigParser, seed: int):
    if not cp.has_section("train"):
        raise ConfigError("cmd_train needs a [train] section with fixed hyperparameters")
    sec = cp["train"]
    kind = sec.get("model", "ifutsvm-id")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind: {kind!r}")
    try:
        width_raw = sec.get("width", "").strip()
        width = None if width_raw in ("", "linear") else float(width_raw)
        delta_raw = sec.get("delta", "").strip()
        delta = float(delta_raw) if delta_raw else None
        hp = make_hyperparams(
            c1=sec.getfloat("c1", 1.0), c3=sec.getfloat("c3", 1.0),
            cu=sec.getfloat("cu", 1.0), epsilon=sec.getfloat("epsilon", 0.1),
            width=width, fuzzy=_fuzzy_from_config(cp), seed=seed, delta=delta,
        )
    except ValueError as exc:
        raise ConfigError(f"bad [train] hyperparameters: {exc}") from None
    return kind, hp


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    sec = cp["train"] if cp.has_section("train") else None
    data_path = args.data or (sec.get("dataset") if sec else None)
    if not data_path:
        raise ConfigError("no dataset given (--data or [train] dataset)")
    if not Path(data_path).is_file():
        raise ConfigError(f"dataset file not found: {data_path}")
    seed = _master_seed(cp, args)
    kind, hp = _fixed_hyperparams(cp, seed)

    ds = load_dataset(data_path)
    t0 = time.perf_counter()
    model = fit_model(kind, ds, hp)
    elapsed = time.perf_counter() - t0

    out = Path(args.out or "model.twinsvm")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)

    rep = model.dual_report
    log = {
        "dataset": ds.name,
        "model": kind,
        "mode": model.mode,
        "seed": seed,
        "dual_residuals": [rep.kkt_residual_1, rep.kkt_residual_2],
        "dual_objectives": [rep.dual_objective_1, rep.dual_objective_2],
        "iterations": [rep.iterations_1, rep.iterations_2],
        "balanced_fallback": rep.balanced_fallback,
    }
    if rep.scores is not None:
        hist, edges = np.histogram(rep.scores.scores, bins=10, range=(0.0, 1.0))
        log["score_histogram"] = {"counts": hist.tolist(), "edges": edges.tolist()}
    if rep.plan is not None:
        log["sampling_plan"] = {
            "undersampled_rows": int(rep.plan.x2_star.shape[0]),
            "universum_rows": int(rep.plan.universum.shape[0]),
            "reduced_universum_rows": int(rep.plan.universum_star.shape[0]),
            "seed": rep.plan.seed,
        }
    _write_json(out.with_suffix(out.suffix + ".log.json"), log)
    _info(f"trained {kind} on {ds.name} in {elapsed:.2f}s")

    if args.dump_scores and rep.scores is not None:
        sc = rep.scores
        rows = [(i, int(ds.labels[i]), sc.memberships[i], sc.nonmemberships[i], sc.scores[i])
                for i in range(ds.m)]
        _write_csv(Path(args.dump_scores),
                   ["index", "label", "membership", "nonmembership", "score"], rows)
    if args.dump_plan and rep.plan is not None:
        plan = rep.plan
        rows = []
        for r, idx in enumerate(plan.x2_star_indices):
            rows.append(("undersampled", r, int(idx), -1))
        for r, (pi, ni) in enumerate(plan.pair_log):
            rows.append(("universum", r, int(pi), int(ni)))
        for r, (pi, ni) in enumerate(plan.extra_pair_log):
            rows.append(("universum_extra", r, int(pi), int(ni)))
        _write_csv(Path(args.dump_plan),
                   ["role", "row", "source_a", "source_b"], rows)

    print(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ConfigError(f"model file not found: {model_path}")
    if not Path(args.data).is_file():
        raise ConfigError(f"dataset file not found: {args.data}")
    model = load_model(model_path)
    ds = load_dataset(args.data)
    if ds.n != model.n_features:
        raise InvalidDatasetError(
            f"dataset has {ds.n} features, the model expects {model.n_features}")
    pred = predict(model, ds.features)
    cm = confusion(ds.labels, pred)
    payload = {
        "model": str(model_path),
        "dataset": ds.name,
        "confusion": asdict(cm),
        "metrics": asdict(metrics(cm)),
    }
    out = Path(args.out or (model_path.stem + "_eval.json"))
    _write_json(out, payload)
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark / noise study


def _run_dataset_model(payload: dict) -> dict:
    """One (dataset, model, noise level) cell: split, CV search, refit, test."""
    ds_path = payload["path"]
    kind = payload["kind"]
    seed = payload["seed"]
    level = payload["noise_level"]
    grid = payload["grid"]
    ds = load_dataset(ds_path)
    name = ds.name
    t0 = time.perf_counter()
    try:
        train, test = stratified_split(ds, payload["split_fraction"],
                                       mix_seed(seed, name, "split"))
        if level:
            train = inject_label_noise(
                train, NoiseSpec(level, mix_seed(seed, name, "noise", level)))
        if payload["standardize"]:
            train, test = standardize(train, test)
        best_hp, cv_table = grid_search_cv(
            train, kind, grid, payload["folds"], mix_seed(seed, name, kind, "cv"))
        model = fit_model(kind, train, best_hp,
                          universum_seed=mix_seed(seed, name, kind, "universum"))
        pred = predict(model, test.features)
        cm = confusion(test.labels, pred)
        rep = metrics(cm)
        best = {
            "c1": best_hp.c1, "c3": best_hp.c3, "cu": best_hp.cu,
            "epsilon": best_hp.epsilon,
            "width": best_hp.kernel.width if best_hp.kernel else None,
        }
        return {
            "dataset": name, "kind": kind, "noise_level": level,
            "ok": True, "best": best,
            "cv_accuracy": max(r["mean_accuracy"] for r in cv_table),
            "metrics": asdict(rep),
            "confusion": asdict(cm),
            "cv_table": cv_table if payload["keep_cv_table"] else None,
            "elapsed": time.perf_counter() - t0,
        }
    except (DatasetError, NumericalError, TrainingError, ValueError) as exc:
        return {
            "dataset": name, "kind": kind, "noise_level": level,
            "ok": False, "error": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - t0,
        }


def _run_cells(cells: list[dict], threads: int) -> list[dict]:
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_dataset_model, cells))
    else:
        results = [_run_dataset_model(c) for c in cells]
    return results


def _statistics_block(names: list[str], kinds: list[str], acc: np.ndarray,
                      q_alpha: float, f_critical: float | None) -> dict:
    table = average_ranks(acc)
    fr = friedman(table.average_ranks, acc.shape[0], acc.shape[1])
    cd = nemenyi_cd(acc.shape[1], acc.shape[0], q_alpha)
    sig = pairwise_significance(table.average_ranks, cd)
    block = {
        "datasets": names,
        "models": kinds,
        "average_accuracy": acc.mean(axis=0).tolist(),
        "average_ranks": table.average_ranks.tolist(),
        "ranks": table.ranks.tolist(),
        "chi_sq": fr.chi_sq,
        "f_stat": fr.f_stat,
        "q_alpha": q_alpha,
        "critical_difference": cd,
        "pairwise_significant": sig.tolist(),
    }
    if f_critical is not None:
        block["f_critical"] = f_critical
        block["significant"] = None if fr.f_stat is None else bool(fr.f_stat > f_critical)
    return block


def _aggregate_results(results: list[dict], names: list[str], kinds: list[str],
                       q_alpha: float, f_critical: float | None) -> dict:
    by_key = {(r["dataset"], r["kind"], r["noise_level"]): r for r in results}
    levels = sorted({r["noise_level"] for r in results})
    complete_rows = []
    acc_rows = []
    for name in names:
        accs = []
        for kind in kinds:
            cells = [by_key.get((name, kind, lv)) for lv in levels]
            if any(c is None or not c["ok"] for c in cells):
                accs = None
                break
            accs.append(float(np.mean([c["metrics"]["accuracy"] for c in cells])))
        if accs is not None:
            complete_rows.append(name)
            acc_rows.append(accs)
    aggregate: dict = {"complete_datasets": complete_rows}
    if acc_rows and len(kinds) >= 2 and len(acc_rows) >= 2:
        acc = np.asarray(acc_rows) * 100.0
        aggregate["statistics"] = _statistics_block(complete_rows, kinds, acc,
                                                    q_alpha, f_critical)
    elif len(kinds) < 2:
        aggregate["notice"] = "statistics block omitted: needs at least 2 models"
    elif len(acc_rows) < 2:
        aggregate["notice"] = "statistics block omitted: needs at least 2 complete datasets"
    return aggregate


def _statistics_settings(args) -> tuple[float, float | None]:
    """--q-alpha and --f-critical, checked before any work starts."""
    q_alpha, f_critical = args.q_alpha, args.f_critical
    if not (math.isfinite(q_alpha) and q_alpha >= 0.0):
        raise ConfigError(f"--q-alpha must be finite and nonnegative, got {q_alpha}")
    if f_critical is not None and not math.isfinite(f_critical):
        raise ConfigError(f"--f-critical must be finite, got {f_critical}")
    return q_alpha, f_critical


def _run_protocol(args, noise: bool) -> int:
    """Benchmark (noise=False) or noise study over the configured noise levels."""
    q_alpha, f_critical = _statistics_settings(args)
    cp = _read_config(args.config)
    settings = _experiment_settings(cp, args)
    noise_levels = list(settings["noise_levels"]) if noise else [0.0]
    grid = _grid_from_config(cp)
    paths = _dataset_paths(cp)
    names = [p.stem for p in paths]
    kinds = settings["models"]
    # results are keyed by (dataset name, model, level): a repeat would merge cells
    for what, values in (("dataset name", names), ("model", kinds)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"repeated {what}: {', '.join(repeated)}")
    seed = settings["seed"]

    cells = [
        {
            "path": str(p), "kind": kind, "seed": seed, "noise_level": level,
            "split_fraction": settings["split_fraction"],
            "folds": settings["folds"], "standardize": settings["standardize"],
            "grid": grid, "keep_cv_table": bool(args.keep_cv_tables),
        }
        for p in paths for kind in kinds for level in noise_levels
    ]
    t0 = time.perf_counter()
    results = _run_cells(cells, settings["threads"])
    _info(f"ran {len(cells)} cells in {time.perf_counter() - t0:.1f}s")

    out_dir = settings["out"]
    out_dir.mkdir(parents=True, exist_ok=True)

    # deterministic report: timings live in a sidecar, not in report.json
    timings = [{"dataset": r["dataset"], "kind": r["kind"],
                "noise_level": r["noise_level"], "elapsed": r["elapsed"]}
               for r in results]
    _write_json(out_dir / "timings.json", timings)

    cv_dir = out_dir / "cv"
    for r in results:
        if r.get("cv_table"):
            rows = [(row["c1"], row["c3"], row["cu"], row["epsilon"], row["width"],
                     row["mean_accuracy"], ";".join(row["flags"]))
                    for row in r["cv_table"]]
            tag = f"{r['dataset']}_{r['kind']}_{r['noise_level']:g}"
            _write_csv(cv_dir / f"{tag}.csv",
                       ["c1", "c3", "cu", "epsilon", "width", "mean_accuracy", "flags"],
                       rows)
    for r in results:
        r.pop("elapsed", None)
        r.pop("cv_table", None)

    aggregate = _aggregate_results(results, names, kinds, q_alpha, f_critical)

    report = {
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in settings.items()},
        "grid": {
            "c1": list(grid.c1), "c3": list(grid.c3), "cu": list(grid.cu),
            "epsilon": list(grid.epsilon),
            "width": list(grid.width) if grid.width is not None else None,
        },
        "noise_levels": noise_levels,
        "results": sorted(results, key=lambda r: (r["dataset"], r["kind"], r["noise_level"])),
        "aggregate": aggregate,
    }
    report_path = out_dir / "report.json"
    _write_json(report_path, report)

    acc_rows = []
    for r in report["results"]:
        acc_rows.append((r["dataset"], r["kind"], r["noise_level"],
                         r["metrics"]["accuracy"] if r["ok"] else "",
                         "" if r["ok"] else r["error"]))
    _write_csv(out_dir / "accuracies.csv",
               ["dataset", "model", "noise_level", "accuracy", "error"], acc_rows)
    if "statistics" in aggregate:
        stats = aggregate["statistics"]
        rank_rows = [(name, *row) for name, row in zip(stats["datasets"], stats["ranks"])]
        _write_csv(out_dir / "ranks.csv", ["dataset", *stats["models"]], rank_rows)

    print(report_path)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    return _run_protocol(args, noise=False)


def cmd_noise_study(args) -> int:
    return _run_protocol(args, noise=True)


# ---------------------------------------------------------------------------
# aggregate (bypass mode)


def cmd_aggregate(args) -> int:
    q_alpha, f_critical = _statistics_settings(args)
    if not Path(args.matrix).is_file():
        raise ConfigError(f"accuracy matrix not found: {args.matrix}")
    names, kinds, acc = read_accuracy_matrix(args.matrix)
    if len(names) < 2 or len(kinds) < 2:
        raise DatasetError(f"accuracy matrix has {len(names)} datasets and {len(kinds)} "
                           "models; rank statistics need at least 2 of each")
    block = _statistics_block(names, kinds, acc, q_alpha, f_critical)
    out = Path(args.out or "aggregate.json")
    _write_json(out, block)
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifutsvm",
        description="Imbalanced-data twin SVM experiments (UTSVM / IFUTSVM-ID)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI experiment config")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output path or directory (overrides config)")
        p.add_argument("--threads", type=int, help="dataset-level worker count")

    def statistics_flags(p):
        p.add_argument("--q-alpha", type=float, default=2.850,
                       help="Nemenyi critical value (default: two-tailed, 6 models, 5%%)")
        p.add_argument("--f-critical", type=float, default=None,
                       help="F-distribution critical value for the significance flag")

    p_train = sub.add_parser("train", help="fit one model with fixed hyperparameters")
    common(p_train)
    p_train.add_argument("--data", help="dataset file (.dat or .csv)")
    p_train.add_argument("--dump-plan", help="write the sampling plan as CSV")
    p_train.add_argument("--dump-scores", help="write fuzzy scores as CSV")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved model on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    for name, fn, hlp in (
        ("benchmark", cmd_benchmark, "split + grid-search CV + test, per dataset and model"),
        ("noise-study", cmd_noise_study, "benchmark under injected label noise levels"),
    ):
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.add_argument("--keep-cv-tables", action="store_true",
                       help="write per-cell CV tables as CSV")
        statistics_flags(p)
        p.set_defaults(func=fn)

    p_agg = sub.add_parser("aggregate",
                           help="rank statistics from an external accuracy matrix")
    p_agg.add_argument("--matrix", required=True, help="CSV accuracy matrix")
    statistics_flags(p_agg)
    p_agg.add_argument("--out")
    p_agg.set_defaults(func=cmd_aggregate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetError as exc:
        _info(f"parse error: {exc}")
        return EXIT_PARSE
    except (NumericalError, TrainingError) as exc:
        _info(f"numerical error: {exc}")
        return EXIT_NUMERIC
    except (ConfigError, OSError) as exc:
        _info(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
