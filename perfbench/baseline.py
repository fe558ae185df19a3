"""Record a BENCH_<n>.json: the benchmark's numbers for the current tree.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json

For each workload this runs the untraced benchmark once per seed, then
repeats the default seed to check that counts, label digest and NRMSE
repeat exactly, then makes one traced run at the default seed. Each run
is a separate run.py process, one at a time. For every value it stores
the median, the quartiles from statistics.quantiles(values, n=4) and the
spread (Q3 - Q1) / median. It also stores the traced per-layer values,
the gates, each run's wall time and the environment, the traced run's
job_s against the untraced one, and the label digest of every seed,
which build-1m's label_digest_stable gate compares against when it reads
BENCH_0.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, OUT, ROOT

HERE = Path(__file__).resolve().parent
# The baseline and its spreads are defined over these seeds.
SEEDS = range(10)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    with open(OUT / f"result-{workload}-s{seed}-t{trace}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    result["process_wall_s"] = wall
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s", flush=True)
    return result


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "samples": samples}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {"recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seeds": list(SEEDS), "seconds": seconds, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        repeat = run(name, DEFAULT_SEED, seconds, 0)
        traced = run(name, DEFAULT_SEED, seconds, 1)
        first = runs[SEEDS.index(DEFAULT_SEED)]
        doc["env"] = runs[0]["env"]
        keys = sorted(set.intersection(*(set(r["values"]) for r in runs)))
        doc["workloads"][name] = {
            "why": entry["why"],
            "values": {k: summary([r["values"][k] for r in runs]) for k in keys},
            "run_wall_s": [r["process_wall_s"] for r in runs],
            "gates": runs[0]["gates"],
            "ops": {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs]},
            "default_seed": {
                "label_sha256": first["info"].get("label_sha256"),
                "nrmse_pct": first["values"].get("nrmse_pct"),
                "counts": first["counts"],
                "repeats_exactly": first["counts"] == repeat["counts"]
                and first["info"].get("label_sha256") == repeat["info"].get("label_sha256")
                and first["values"].get("nrmse_pct") == repeat["values"].get("nrmse_pct"),
            },
            "traced_default_seed": traced["layers"],
            # The tracer's cost as whole runs show it: traced against
            # untraced job_s at the default seed, one run each.
            "trace_overhead_measured_pct": 100.0 * (traced["values"]["job_s"] / first["values"]["job_s"] - 1),
        }
        digests = {str(r["seed"]): r["info"]["label_sha256"] for r in runs if "label_sha256" in r["info"]}
        if digests:
            doc["workloads"][name]["label_sha256_by_seed"] = digests
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in doc["workloads"].items():
        for k, v in w["values"].items():
            print(f"{name:11s} {k:34s} median={v['median']:.6g} spread={v['spread']}")
        print(f"{name:11s} default seed repeats exactly: {w['default_seed']['repeats_exactly']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
