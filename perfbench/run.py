"""aqplearn benchmark: one command, three workloads, correctness gates.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build-1m --seed 7 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` reports the end-to-end metrics that BENCHMARK.json names;
``--trace 1`` records a span around every library call and reports the
per-layer metrics instead. Human-readable lines come first (environment,
every measured value with its unit, gates, label digest); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, and in traced
mode the spans, are written to ``.perfbench/`` in the checkout.

The command exits 0 when every gate passes, 1 when a gate fails or a call
raises, and 2 when the checkout holds no ``src/aqplearn`` to measure.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, aqplearn and the modules beside this file are imported inside the
# functions below, after import_library() has pinned the BLAS threads.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One client, one thread: label_workload(threads=1), predict_batch(n_workers=1)
# and one BLAS thread, fixed here so that both sides of a comparison match.
BLAS_THREADS = 1
# Seed 7 reproduces the A5 acceptance table and template.
DEFAULT_SEED = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("build-1m", "train-100k", "serve-1m"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=3.0,
                   help="length of the closed-loop answer phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run every workload on small tables in both modes and check "
                        "that every metric and gate is produced")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required unless --self-test is given")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import aqplearn from this checkout's src/, with BLAS pinned first."""
    if not (SRC / "aqplearn" / "__init__.py").is_file():
        print(f"error: no aqplearn package under {SRC.name}/ in {ROOT}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import aqplearn

    if Path(aqplearn.__file__).resolve().parent != SRC / "aqplearn":
        print(f"error: aqplearn was imported from {aqplearn.__file__}", file=sys.stderr)
        sys.exit(2)


def blas_runtime() -> dict:
    """Library name, version and live thread count of numpy's BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "label_threads": 1,
        "predict_workers": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_py_files": len(sources),
        "src_lines": lines,
    }
    env.update(blas_runtime())
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run one workload; returns the full result document."""
    import workloads
    from tracing import NullTracer, Tracer, clock, span_cost_s

    OUT.mkdir(exist_ok=True)
    sizes = workloads.QUICK if quick else workloads.FULL
    run_id = f"{name}-s{seed}-{os.getpid()}-{int(time.time())}"
    run = workloads.Run(Tracer(run_id) if trace else NullTracer(), OUT, sizes, seed)
    cpu0, wall0 = time.process_time(), clock()
    error = None
    try:
        workloads.WORKLOADS[name](run, seconds)
    except Exception as exc:  # reported as a failed run, never as a result
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall_s, cpu_s = clock() - wall0, time.process_time() - cpu0
    run.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.values["ops_failed_frac"] = run.failed / max(run.attempted, 1)

    layers = {}
    if trace and error is None:
        layers = workloads.layer_metrics(run, wall_s, cpu_s, span_cost_s())
        run.tracer.write(OUT / f"trace-{name}-s{seed}{'-quick' if quick else ''}.json")
    passed = error is None and all(p == n for p, n in run.gates.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "run_id": run_id,
        "error": error,
        "correct": passed,
        "attempted": run.attempted,
        "failed": max(run.failed, int(error is not None)),
        "gates": {k: {"passed": p, "checked": n} for k, (p, n) in run.gates.items()},
        "values": run.values,
        "layers": layers,
        "counts": run.counts,
        "info": run.info,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def contract_metrics(result: dict, spec: dict) -> dict:
    """The metrics named in BENCHMARK.json for this mode, with their units."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    source = result["layers"] if result["trace"] else result["values"]
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}


def report(result: dict, env: dict) -> None:
    from workloads import unit_of

    print(f"# aqplearn benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for section in ("values", "layers"):
        for key in sorted(result[section]):
            print(f"{section[:-1]} {key} = {result[section][key]:.6g} {unit_of(key)}")
    for key in sorted(result["info"]):
        print(f"info {key} = {result['info'][key]}")
    for name, g in sorted(result["gates"].items()):
        verdict = "pass" if g["passed"] == g["checked"] else "FAIL"
        print(f"gate {name}: {g['passed']}/{g['checked']} {verdict}")
    if result["error"]:
        print(f"error {result['error']}")
    print(f"ops attempted={result['attempted']} failed={result['failed']} "
          f"ops_failed_frac={result['failed'] / max(result['attempted'], 1):.6g}")


def empty_window_check() -> list:
    """build-1m labels window-only queries one window at a time, and the
    default seed draws no empty window. Here a window that matches no rows
    sits next to one that matches some: the empty one must be gated and
    counted, the other labeled, and nothing counted as failed."""
    import workloads
    from aqplearn import AggregationFunction, AggregationTarget, BetweenFilter, FlatQuery, synth
    from tracing import NullTracer

    ds = synth.make_benchmark_table(2000, DEFAULT_SEED)
    run = workloads.Run(NullTracer(), OUT, workloads.QUICK, DEFAULT_SEED)
    avg = AggregationTarget(AggregationFunction.AVG, "value")
    queries = [FlatQuery(avg, (BetweenFilter("x", 500.0, 500.0),)),
               FlatQuery(avg, (BetweenFilter("x", 100.0, 600.0),))]
    labeled = run.label_windows(ds, queries)
    if ([lq.query for lq in labeled] == queries[1:] and run.failed == 0
            and run.counts["executor.flat_empty_raised"] == 1
            and run.gates == {"empty_aggregate_only_on_empty_windows": [1, 1]}):
        print("self-test empty window: gated and counted", flush=True)
        return []
    return [f"empty window: labeled={labeled} counts={run.counts} gates={run.gates} failed={run.failed}"]


def self_test() -> int:
    """Every workload on small tables, untraced then traced: every metric the
    README names for the workload is produced with a known unit, every
    gate the workload owns runs and passes, and every metric BENCHMARK.json
    names is produced with its declared unit. Then empty_window_check()."""
    import workloads

    spec, problems = load_spec(), []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, DEFAULT_SEED, 0.2, trace, quick=True)
            where = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{where}: not correct: {result['error']} {result['gates']}")
                continue
            section = "layers" if trace else "values"
            for metric in workloads.expected_metrics(name, workloads.QUICK, trace):
                if metric not in result[section]:
                    problems.append(f"{where}: {metric} missing")
                elif workloads.unit_of(metric) is None:
                    problems.append(f"{where}: {metric} has no unit")
            missing = set(workloads.GATES[name]) - set(result["gates"])
            if missing:
                problems.append(f"{where}: gates did not run: {sorted(missing)}")
            try:
                contract = contract_metrics(result, spec)
            except KeyError as exc:
                problems.append(f"{where}: BENCHMARK.json metric {exc} not produced")
                continue
            for metric, entry in contract.items():
                if entry["unit"] != workloads.unit_of(metric):
                    problems.append(f"{where}: {metric} unit {entry['unit']} != {workloads.unit_of(metric)}")
            print(f"self-test {where}: {len(result[section])} metrics, "
                  f"{len(result['gates'])} gates, {result['attempted']} ops", flush=True)
    problems += empty_window_check()
    for p in problems:
        print("self-test problem: " + p)
    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    if args.self_test:
        return self_test()
    spec = load_spec()
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), quick=False)
    result["env"] = env
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    report(result, env)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, spec) if result["correct"] else {},
    }
    print(json.dumps(line), flush=True)
    if not result["correct"]:
        # The reason goes to standard error as well, where a caller that
        # keeps only the tail of a failed run's output will see it.
        failing = {k: g for k, g in result["gates"].items() if g["passed"] != g["checked"]}
        print(f"benchmark failed: error={result['error']} failing_gates={json.dumps(failing)} "
              f"label_sha256={result['info'].get('label_sha256')} "
              f"expected={result['info'].get('label_digest_expected')}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
