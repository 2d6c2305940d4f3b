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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
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
    AXES,
    MODEL_KINDS,
    GridSpec,
    average_ranks,
    confusion,
    fit_model,
    friedman,
    friedman_f_critical,
    grid_search_cv,
    make_hyperparams,
    metrics,
    nemenyi_cd,
    nemenyi_q,
    pairwise_significance,
    predict,
    read_accuracy_matrix,
    repeated_values,
    selected_row,
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
    "grid": set(AXES),
    "fuzzy": {"eta", "rho"},
    "train": {"model", "dataset", "delta", *AXES},
}
# what each command reads of CONFIG_KEYS: a section or key it does not read
# would be ignored just the same, so it is an error too
_PROTOCOL_KEYS = {section: keys for section, keys in CONFIG_KEYS.items() if section != "train"}
COMMAND_KEYS = {
    "train": {"experiment": {"seed"}, "fuzzy": CONFIG_KEYS["fuzzy"],
              "train": CONFIG_KEYS["train"]},
    "benchmark": _PROTOCOL_KEYS,
    "noise-study": _PROTOCOL_KEYS,
}


def _existing(path, what: str) -> Path:
    """An input file the command was given, which must exist."""
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    return Path(path)


def _read_config(path: str | None, command: str | None = None) -> configparser.ConfigParser:
    """The config file at `path`, every section and key checked against
    CONFIG_KEYS and, given a command, against what it reads (COMMAND_KEYS)."""
    # values are taken literally: a '%' in a path is not an interpolation
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        # ConfigParser.read skips a file it cannot open without a word
        try:
            cp.read(_existing(path, "config file"), encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not valid UTF-8: {exc}") from None
    if cp.defaults():
        raise ConfigError("a [DEFAULT] section is not supported: "
                          "its keys would be copied into every section")
    reads = COMMAND_KEYS.get(command, CONFIG_KEYS)
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(set(cp.options(section)) - CONFIG_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown key in [{section}]: {', '.join(unknown)}")
        if section not in reads:
            raise ConfigError(f"{command} does not read a [{section}] section")
        unread = sorted(set(cp.options(section)) - reads[section])
        if unread:
            raise ConfigError(f"{command} does not read "
                              + ", ".join(f"[{section}] {key}" for key in unread))
    return cp


def _setting(cp: configparser.ConfigParser, section: str, key: str, convert=str,
             default=None, flag=None):
    """The value a run uses for [section] key: the flag when one was given,
    else the file's value passed through `convert`, else the default.  A key
    written with no value, or a value `convert` rejects, is a config error
    that names the key."""
    if flag is not None:
        return flag
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    if raw == "":
        raise ConfigError(f"[{section}] {key} has no value")
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _str_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _axis_values(cp: configparser.ConfigParser, section: str) -> dict:
    """Each lattice axis the section sets, as a tuple of floats; a width that
    is empty or 'linear' is None, the linear model."""
    values = {}
    for key in AXES:
        if key == "width" and cp.get(section, key, fallback=None) in ("", "linear"):
            values[key] = None
        elif cp.has_option(section, key):
            values[key] = tuple(_setting(cp, section, key, _float_list))
    return values


def _grid_from_config(cp: configparser.ConfigParser) -> GridSpec:
    try:
        return GridSpec(fuzzy=_fuzzy_from_config(cp), **_axis_values(cp, "grid"))
    except ValueError as exc:
        raise ConfigError(f"bad [grid] values: {exc}") from None


def _fuzzy_from_config(cp: configparser.ConfigParser) -> FuzzyParams:
    try:
        return FuzzyParams(eta=_setting(cp, "fuzzy", "eta", float),
                           rho=_setting(cp, "fuzzy", "rho", float))
    except ValueError as exc:
        raise ConfigError(f"bad [fuzzy] values: {exc}") from None


def _dataset_paths(cp: configparser.ConfigParser) -> list[Path]:
    datasets = _setting(cp, "experiment", "datasets", _str_list)
    dataset_dir = _setting(cp, "experiment", "dataset_dir")
    if datasets is not None and dataset_dir is not None:
        raise ConfigError("[experiment] datasets and dataset_dir are both set: give one")
    paths = [Path(tok) for tok in datasets or []]
    if dataset_dir is not None:
        root = Path(dataset_dir)
        if not root.is_dir():
            raise ConfigError(f"dataset_dir not found: {root}")
        paths = sorted(root.glob("*.dat")) + sorted(root.glob("*.csv"))
    if not paths:
        raise ConfigError("config names no datasets")
    return [_existing(p, "dataset file") for p in paths]


def _master_seed(cp: configparser.ConfigParser, args) -> int:
    seed = _setting(cp, "experiment", "seed", int, flag=args.seed)
    if seed is None:
        raise ConfigError("a master seed is required (config [experiment] seed or --seed)")
    return seed


def _experiment_settings(cp: configparser.ConfigParser, args) -> dict:
    get = partial(_setting, cp, "experiment")
    seed = _master_seed(cp, args)
    split_fraction = get("split_fraction", float, DEFAULT_SPLIT)
    if not 0.0 < split_fraction < 1.0:
        raise ConfigError("split_fraction must lie strictly between 0 and 1")
    folds = get("folds", int, DEFAULT_FOLDS)
    if folds < 2:
        raise ConfigError("folds must be at least 2")
    threads = get("threads", int, 1, args.threads)
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    models = get("models", _str_list, ["ifutsvm-id"])
    if not models:
        raise ConfigError("models lists no model kind")
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind: {kind!r}")
    levels = get("noise_levels", _float_list, list(DEFAULT_NOISE_LEVELS))
    if not levels:
        raise ConfigError("noise_levels lists no level")
    for lv in levels:
        if not 0.0 <= lv <= 0.5:
            raise ConfigError("noise levels must lie in [0, 0.5]")
    return {
        "seed": seed,
        "models": models,
        "split_fraction": split_fraction,
        "folds": folds,
        "standardize": get("standardize", _boolean, False),
        "noise_levels": levels,
        "threads": threads,
        "out": Path(get("out", default="runs/report", flag=args.out)),
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
    kind = _setting(cp, "train", "model", default="ifutsvm-id")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind: {kind!r}")
    fixed = {}
    for key, values in _axis_values(cp, "train").items():
        if values is not None and len(values) != 1:
            raise ConfigError(f"[train] {key} takes one number, got {cp.get('train', key)!r}")
        fixed[key] = None if values is None else values[0]
    try:
        hp = make_hyperparams(**fixed, fuzzy=_fuzzy_from_config(cp), seed=seed,
                              delta=_setting(cp, "train", "delta", float))
    except ValueError as exc:
        raise ConfigError(f"bad [train] hyperparameters: {exc}") from None
    return kind, hp


def cmd_train(args) -> int:
    cp = _read_config(args.config, "train")
    data_path = _setting(cp, "train", "dataset", flag=args.data)
    if data_path is None:
        raise ConfigError("no dataset given (--data or [train] dataset)")
    _existing(data_path, "dataset file")
    seed = _master_seed(cp, args)
    kind, hp = _fixed_hyperparams(cp, seed)
    for flag, path in (("--dump-scores", args.dump_scores), ("--dump-plan", args.dump_plan)):
        if path and kind != "ifutsvm-id":
            raise ConfigError(f"{flag} needs model ifutsvm-id: {kind} has no fuzzy scores "
                              "or sampling plan")

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
            "undersampled_rows": int(rep.plan.x2_star_indices.shape[0]),
            "universum_rows": int(rep.plan.universum.shape[0]),
            "reduced_universum_rows": int(rep.plan.universum_star.shape[0]),
            "seed": model.hyperparams.seed,
        }
    _write_json(out.with_suffix(out.suffix + ".log.json"), log)
    _info(f"trained {kind} on {ds.name} in {elapsed:.2f}s; plane 2 universum bound "
          f"(full dual solved): {'yes' if rep.universum_bound_2 else 'no'}")

    if args.dump_scores:
        sc = rep.scores
        rows = [(i, int(ds.labels[i]), sc.memberships[i], sc.nonmemberships[i], sc.scores[i])
                for i in range(ds.m)]
        _write_csv(Path(args.dump_scores),
                   ["index", "label", "membership", "nonmembership", "score"], rows)
    if args.dump_plan:
        plan = rep.plan
        rows = []
        for r, idx in enumerate(plan.x2_star_indices):
            rows.append(("undersampled", r, int(idx), -1))
        for r, (pi, ni) in enumerate(plan.pair_log):
            rows.append(("universum", r, int(pi), int(ni)))
        for r, idx in enumerate(plan.universum_star_indices):
            rows.append(("universum_star", r, int(idx), -1))
        for r, (pi, ni) in enumerate(plan.extra_pair_log):
            rows.append(("universum_extra", r, int(pi), int(ni)))
        _write_csv(Path(args.dump_plan),
                   ["role", "row", "source_a", "source_b"], rows)

    print(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    model_path = _existing(args.model, "model file")
    _existing(args.data, "dataset file")
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
        model = fit_model(kind, train, best_hp)
        pred = predict(model, test.features)
        cm = confusion(test.labels, pred)
        rep = metrics(cm)
        best = selected_row(cv_table)
        return {
            "dataset": name, "kind": kind, "noise_level": level,
            "ok": True, "best": {key: best[key] for key in AXES},
            "cv_accuracy": best["mean_accuracy"],
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
    """Every cell's result, in cell order, from `threads` processes that run
    cells: this one and a pool of the others."""
    # a forking pool starts all its workers at the first submit, so never
    # ask for more than there are cells
    workers = min(threads, len(cells)) - 1
    if workers < 1:
        return [_run_dataset_model(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # submit everything before this process starts a fit: a fork taken
        # during a fit would copy the locks it holds
        futures = [pool.submit(_run_dataset_model, c) for c in cells]
        here, results = {}, []
        back = len(cells) - 1
        try:
            for i, future in enumerate(futures):
                # while result i is not ready, run here the cells the pool has
                # not started, from the back
                while back >= i and not future.done():
                    if futures[back].cancel():
                        here[back] = _run_dataset_model(cells[back])
                    back -= 1
                results.append(here.pop(i) if i in here else future.result())
        except BaseException:
            # an error or Ctrl-C: start no further cell
            for future in futures:
                future.cancel()
            raise
    return results


def _statistics_block(names: list[str], kinds: list[str], acc: np.ndarray) -> dict:
    """Ranks, Friedman test and Nemenyi CD at alpha = 0.05 for 2 to 10 models."""
    N, p = acc.shape
    table = average_ranks(acc)
    fr = friedman(table.average_ranks, N, p)
    q_alpha = nemenyi_q(p)
    cd = nemenyi_cd(p, N)
    sig = pairwise_significance(table.average_ranks, cd)
    f_critical = friedman_f_critical(p, N)
    return {
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
        "f_critical": f_critical,
        "significant": None if fr.f_stat is None else bool(fr.f_stat > f_critical),
    }


def _aggregate_results(results: list[dict], names: list[str], kinds: list[str]) -> dict:
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
        aggregate["statistics"] = _statistics_block(complete_rows, kinds, acc)
    elif len(kinds) < 2:
        aggregate["notice"] = "statistics block omitted: needs at least 2 models"
    elif len(acc_rows) < 2:
        aggregate["notice"] = "statistics block omitted: needs at least 2 complete datasets"
    return aggregate


def _run_protocol(args, noise: bool) -> int:
    """Benchmark (noise=False) or noise study over the configured noise levels."""
    cp = _read_config(args.config, "noise-study" if noise else "benchmark")
    settings = _experiment_settings(cp, args)
    noise_levels = list(settings["noise_levels"]) if noise else [0.0]
    grid = _grid_from_config(cp)
    paths = _dataset_paths(cp)
    names = [p.stem for p in paths]
    kinds = settings["models"]
    # results are keyed by (dataset name, model, level): a repeat would merge cells
    for what, values in (("dataset name", names), ("model", kinds),
                         ("noise level", settings["noise_levels"])):
        if repeated := repeated_values(values):
            raise ConfigError(f"repeated {what}: {', '.join(map(str, repeated))}")
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
            rows = [(*(row[key] for key in AXES), row["mean_accuracy"], ";".join(row["flags"]))
                    for row in r["cv_table"]]
            tag = f"{r['dataset']}_{r['kind']}_{r['noise_level']:g}"
            _write_csv(cv_dir / f"{tag}.csv", [*AXES, "mean_accuracy", "flags"], rows)
    for r in results:
        r.pop("elapsed", None)
        r.pop("cv_table", None)

    aggregate = _aggregate_results(results, names, kinds)

    report = {
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in settings.items()},
        "grid": {key: getattr(grid, key) for key in AXES},
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


# ---------------------------------------------------------------------------
# aggregate (bypass mode)


def cmd_aggregate(args) -> int:
    names, kinds, acc = read_accuracy_matrix(_existing(args.matrix, "accuracy matrix"))
    try:
        block = _statistics_block(names, kinds, acc)
    except ValueError as exc:
        # friedman needs 2 datasets, nemenyi_q 2 to 10 models
        raise DatasetError(f"accuracy matrix has {len(names)} datasets and {len(kinds)} "
                           f"models: {exc}") from None
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

    for name, noise, hlp in (
        ("benchmark", False, "split + grid-search CV + test, per dataset and model"),
        ("noise-study", True, "benchmark under injected label noise levels"),
    ):
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.add_argument("--threads", type=int,
                       help="processes that run cells, this one included "
                            "(2 starts one pool worker)")
        p.add_argument("--keep-cv-tables", action="store_true",
                       help="write per-cell CV tables as CSV")
        p.set_defaults(func=partial(_run_protocol, noise=noise))

    p_agg = sub.add_parser("aggregate",
                           help="rank statistics from an external accuracy matrix")
    p_agg.add_argument("--matrix", required=True, help="CSV accuracy matrix")
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
