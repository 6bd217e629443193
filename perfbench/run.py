#!/usr/bin/env python3
"""Repository benchmark: build, save, mmap-load and serve the distance oracle.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call builds perfbench/ (CMake, Release) into .bench_build/; later
calls reuse that build. One call runs one workload of BENCHMARK.json in a
fresh process and prints, as the last line of stdout,

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1 first
runs the untraced program, then the traced replay (hybench_traced: every
pipeline stage called one by one inside a span, heap allocations counted),
and reports the per-layer metrics. The trace is rejected (counted as failed
checks) unless the replay reproduced the untraced run's rounds, global
messages, per-phase rounds and messages, and label digest exactly.

The line before the result is a detail record: the machine block (nproc,
hardware_concurrency, resolved simulator and reader threads, compiler, build
type and flags), the workload's rationale and seeds, the deterministic
fields, sample counts, any failed checks and, for traced runs, every span.

Every check that fails makes the result "correct": false and the exit code 1.
--self-test runs small instances and exits 0 only if a clean run passes, a
traced run reproduces it, and a run with a doctored answer registers a
failure on both check kinds (exact rows, lower-bound rows).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_TIMEOUT_S = 170

# What each workload stresses, what it bypasses (where a change to that
# layer is predicted to show no change), and its fixed seeds. The request
# stream and checked rows come from --seed, and so does the graph except on
# apsp_lossy, whose healing cost is chaotic in the instance.
RATIONALE = {
    "apsp_er": {
        "pipeline": "Theorem 1.1 single-level labels, ER n=1024 avg deg 6 W=16, routes",
        "stresses": "token-routing setup (build_routing_context -> compute_helpers -> "
                    "cluster_flood), dense exploration, kSkeletonRows mmap query path",
        "bypasses": "super skeleton, charged dissemination, sparse exploration",
        "serve": "closed loop, 2 readers, 60/30/10 query/next_hop/route",
        "sim_seed": 1031,
    },
    "oracle_2level": {
        "pipeline": "two-level labels (label_large: h=5 p1=0.08 p2=0.05 h1=3, charged "
                    "token routing), bounded_degree n=30000 deg<=3 unit weights",
        "stresses": "compute_super_skeleton, table_flood, sparse exploration, "
                    "kTwoLevel query composition",
        "bypasses": "helper sets, route_tokens, skeleton_apsp, next_hop/route serving",
        "serve": "closed loop, 2 readers, uniform query() pairs",
        "sim_seed": 13,
    },
    "apsp_lossy": {
        "pipeline": "apsp_er's build at n=512 with 2% drops on both planes",
        "stresses": "healed engines: re-offer exploration, referee, acked "
                    "routing and dissemination",
        "bypasses": "reliable fault-free flood and exploration loops",
        "serve": "closed loop, 2 readers, 60/30/10 mix (labels equal the fault-free build)",
        "graph_seed": 512,
        "sim_seed": 519,
        "fault_seed": 77,
    },
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build both drivers (incremental)."""
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
         "--target", "hybench", "hybench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_driver(binary, workload, seed, seconds, extra=()):
    """Run one driver process; returns (exit code, its JSON record or None)."""
    store = BUILD / f"oracle_{workload}_{os.getpid()}_{binary}.bin"
    cmd = [str(CMAKE_DIR / binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--store", str(store), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{binary} timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        for leftover in (store, Path(str(store) + ".ref")):
            leftover.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{binary} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def guard(plain, traced):
    """The traced replay must reproduce the untraced run's deterministic
    fields exactly; returns the list of fields that differ."""
    return [k for k in ("sim_rounds", "sim_global_msgs", "label_digest", "phases")
            if plain["det"].get(k) != traced["det"].get(k)]


def machine(record):
    info = record.get("info", {}) if record else {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        **{k: info.get(k) for k in ("hardware_concurrency", "sim_threads",
                                    "reader_threads", "compiler", "build_type",
                                    "cxx_flags")},
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, detail dict)."""
    _, plain = run_driver("hybench", workload, seed, seconds)
    if plain is None or "metrics" not in plain:
        return None, {"plain": plain}
    attempted = plain["checks"]["attempted"]
    failed = plain["checks"]["failed"]
    failures = [f["f"] for f in plain["checks"]["failures"]]
    detail = {"workload": workload, "seed": seed, "machine": machine(plain),
              "rationale": RATIONALE[workload], "det": plain["det"],
              "info": plain["info"]}
    if not trace:
        metrics = dict(plain["metrics"])
        metrics["pass_frac"] = {"value": (attempted - failed) / attempted,
                                "unit": "ratio"}
    else:
        _, traced = run_driver("hybench_traced", workload, seed, seconds)
        if traced is None or "metrics" not in traced:
            return None, {"plain": plain, "traced": traced}
        attempted += traced["checks"]["attempted"]
        failed += traced["checks"]["failed"]
        failures += [f["f"] for f in traced["checks"]["failures"]]
        differs = guard(plain, traced)
        attempted += 4
        failed += len(differs)
        failures += [f"trace rejected: replay {k} differs" for k in differs]
        metrics = dict(traced["metrics"])
        untraced_build_s = plain["metrics"]["build_s"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (metrics["trace.build_s"]["value"] / untraced_build_s - 1.0),
            "unit": "%"}
        detail.update(traced_info=traced["info"], spans=traced["spans"],
                      untraced_build_s=untraced_build_s)
    names = declared_metrics(trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        log(f"metrics missing from the run: {missing}")
        return None, detail
    detail["failures"] = failures
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: metrics[n] for n in names}}
    return result, detail


def self_test():
    """Small instances: a clean run passes, the traced replay reproduces it,
    and a doctored answer registers as a failure on both check kinds."""
    ok = True
    small = {"apsp_er": ["--n", "128"], "oracle_2level": ["--n", "3000"]}
    for workload, n_arg in small.items():
        code, clean = run_driver("hybench", workload, 5, 0.3, n_arg)
        clean_ok = code == 0 and clean is not None and clean["checks"]["failed"] == 0
        code_t, traced = run_driver("hybench_traced", workload, 5, 0.3, n_arg)
        traced_ok = (code_t == 0 and traced is not None and clean is not None
                     and not guard(clean, traced))
        code_d, doctored = run_driver("hybench", workload, 5, 0.3,
                                      [*n_arg, "--doctor"])
        caught = code_d != 0 and doctored is not None and doctored["checks"]["failed"] >= 1
        log(f"self-test {workload}: clean={'pass' if clean_ok else 'FAIL'} "
            f"trace-guard={'pass' if traced_ok else 'FAIL'} "
            f"doctored-caught={'yes' if caught else 'NO'}")
        ok = ok and clean_ok and traced_ok and caught
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(RATIONALE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        BUILD.mkdir(exist_ok=True)
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log(f"run failed: {json.dumps(detail)[:2000]}")
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
