#!/usr/bin/env python3
"""Benchmark of the ifutsvm reproduction: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cv-kernel --seed 1 --seconds 45 --trace 0

The package is imported from the checkout's `src/`; there is nothing to
build.  The seed makes the workload's inputs; the set-up (import, data
generation and file writes, one warm-up fit) is repeated and its median
reported; then whole units of the workload run on the same inputs until the
next one would overrun `--seconds` (at least one), and their median time is
reported.  Every unit's outputs are checked.  With `--trace 0` the last line
of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` one untraced unit and one traced unit run and the JSON carries
the per-layer metrics (see tracing.py).  Lines before it give the same
numbers with units and sample counts, the failure causes, the environment
and a per-seed record of the selected hyperparameters and output digests.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"  # scratch space of one run, inside the checkout
SETUP_REPEATS = 3
REFERENCE = HERE / "reference.json"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ok_ratio": "ratio",
             "test_accuracy": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Effective thread count of every OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "start_method": multiprocessing.get_start_method(),
    }


def compare_to_reference(workload: str, seed: int, env: dict, records: dict) -> list[str]:
    """Lines flagging where this run's environment or outputs differ from the
    ones recorded in reference.json."""
    if not REFERENCE.is_file():
        return ["reference: none recorded"]
    ref = json.loads(REFERENCE.read_text())
    lines = []
    for key in ("nproc", "numba", "blas_threads", "thread_env", "numpy", "scipy"):
        if ref["environment"].get(key) != env.get(key):
            lines.append(f"environment differs from the reference: {key} "
                         f"{env.get(key)} here, {ref['environment'].get(key)} recorded")
    expected = ref["records"].get(workload, {}).get(str(seed))
    if expected is None:
        lines.append(f"reference: no record for {workload} seed {seed}")
        return lines
    for i, record in sorted(records.items()):
        if i not in expected:
            lines.append(f"reference: no record for input {i}")
        elif expected[i] != record:
            changed = sorted(k for k in record if record[k] != expected[i].get(k))
            lines.append(f"reference: input {i} differs from the recorded outputs in {changed}")
        else:
            lines.append(f"reference: input {i} matches the recorded outputs")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ifutsvm" / "__init__.py").is_file():
        print(f"error: no ifutsvm package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ifutsvm
    import tracing
    import workloads
    from ifutsvm import evaluation
    import_s = time.perf_counter() - t_import
    if not Path(ifutsvm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported ifutsvm from {ifutsvm.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # the CLI workload writes paths relative to the checkout
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    env = environment()
    workload = workloads.WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed, WORK.relative_to(ROOT))
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    def run_unit(i: int, rec=None):
        """One timed unit on input i with the fit audit installed, and the
        tracing wrappers too when given a recorder; (seconds, raw, audit)."""
        audit = workloads.FitAudit()
        patches = tracing.Patches()
        patches.replace(evaluation, "fit_model", audit)
        if rec is not None:
            tracing.install(rec, patches)
        try:
            t0 = time.perf_counter()
            raw = workload.run(i)
            elapsed = time.perf_counter() - t0
        finally:
            patches.restore()
        return elapsed, raw, audit

    # unit u runs input u mod len(inputs); an untraced and a traced run of the
    # same input give the tracing overhead
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        i = len(times) % len(workload.inputs)
        elapsed, raw, audit = run_unit(i)
        times.append(elapsed)
        outcomes.append((i, workload.check(i, raw, audit)))
        if args.trace or time.perf_counter() - start + max(times) > args.seconds:
            break
    if args.trace:
        rec = tracing.Recorder(WORK / "spool")
        traced_s, raw, audit = run_unit(0, rec)
        outcomes.append((0, workload.check(0, raw, audit)))
        spans, processes = rec.collect()
        layer = tracing.layer_metrics(spans, processes, getattr(workload, "threads", 1),
                                      traced_s - times[0])

    problems = [p for _, o in outcomes for p in o.problems]
    records = {}
    for i, o in outcomes:
        if records.setdefault(str(i), o.record) != o.record:
            problems.append(f"outputs differ between units run on input {i}")
    if args.trace and layer["qp.solve.kkt_max"] > 1.0:
        problems.append(f"a QP solution's KKT residual is {layer['qp.solve.kkt_max']:.2f}x "
                        "its tolerance")
    untraced = [o for _, o in outcomes[:len(times)]]
    attempted = sum(o.operations for _, o in outcomes)
    failed = sum(o.failed_operations for _, o in outcomes)
    attempts = sum(o.attempts for o in untraced)
    failures = sum((o.failures for o in untraced), Counter())
    peak_mb = workloads.vm_hwm_mb() + max(getattr(workload, "worker_peaks_mb", None) or [0.0])
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(times),
        "ok_ratio": 1.0 - sum(failures.values()) / attempts,
        "test_accuracy": statistics.fmean(o.accuracy for o in untraced),
        "peak_rss_mb": peak_mb,
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(times)} untraced unit(s) "
          f"within {args.seconds:g} s" + (", then 1 traced unit" if args.trace else ""))
    samples = {"setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups",
               "wall_s": f"median of {len(times)} unit(s): "
                         + ", ".join(f"{t:.3f}" for t in times),
               "ok_ratio": f"{attempts - sum(failures.values())} of {attempts} attempts",
               "test_accuracy": f"mean over {len(untraced)} unit(s)",
               "peak_rss_mb": "this process + pool workers"}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {E2E_UNITS[name]:<6} {samples[name]}")
    causes = ", ".join(f"{c} {n}" for c, n in sorted(failures.items())) or "none"
    print(f"  fail_ratio     {1.0 - e2e['ok_ratio']:12.4f} ratio  "
          f"{sum(failures.values())} of {attempts}: {causes}")
    if args.trace:
        for name, value in layer.items():
            print(f"  {name:<32} {value:14.4f} {tracing.layer_unit(name)}")
        print("  " + tracing.fit_accounting(spans))
    print("record " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "inputs": records}, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    for line in compare_to_reference(args.workload, args.seed, env, records):
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
