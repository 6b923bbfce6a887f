#!/usr/bin/env python3
"""camelot-e2e runner: builds camelot_bench and runs workloads.

    python3 bench/e2e/run.py                       # all workloads, seed 1
    python3 bench/e2e/run.py --workload ov-receive --seed 2 --trace 1

Builds bench/e2e (and with it the library) into build-e2e/ on first
use, then runs each workload in its own camelot_bench process for
--seconds, which defaults to BENCHMARK.json's run_seconds.
Prints every metric by name with its unit and sample count, then, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). Each run's full JSON (host stamp, every
metric, sample counts) is kept under --out-dir for compare.py. Exits
nonzero, without the JSON line, when the build fails, an answer is
wrong, or a run is invalid. Standard library only.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale.
    A lock keeps concurrent runs of one checkout from racing."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")
    binary = build_dir / "camelot_bench"
    if not binary.is_file():
        fail(f"{binary} missing after build")
    return binary


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace, out_dir):
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out = out_dir / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    with open(out) as f:
        result = json.load(f)
    result["git_sha"] = git_sha()
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
    return result, out


def print_run(result, path):
    host = result["host"]
    print(f"== {result['workload']}  seed={result['seed']} "
          f"trace={int(result['trace'])} seconds={result['run_seconds']:g} "
          f"setup_reps={result['setup_repetitions']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"   host: nproc={host['nproc']} cpu='{host['cpu_model']}' "
          f"avx2={host['avx2']} avx512f={host['avx512f']} "
          f"ifma={host['avx512ifma']} backend={host['backend']} "
          f"compiler='{host['compiler']}' build={host['build_type']} "
          f"git={result['git_sha'][:12]}")
    for name, m in result["metrics"].items():
        value = f"{m['value']:.6g} {m['unit']}" if m["applies"] else "n/a"
        samples = f"  (n={m['samples']})" if m["samples"] else ""
        print(f"   {name:34s} {value}{samples}")
    print(f"   json: {path}")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (1 = development, 2 = holdout)")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--build-dir", default=str(ROOT / "build-e2e"))
    p.add_argument("--out-dir", default=str(ROOT / "build-e2e" / "runs"))
    args = p.parse_args()
    workloads = names if args.workload == "all" else [args.workload]

    binary = build(Path(args.build_dir))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        result, path = run_one(binary, w, args.seed, args.seconds,
                               bool(args.trace), out_dir)
        print_run(result, path)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{w}/"
        for spec in wanted:
            m = result["metrics"].get(spec["name"])
            if m is None or m["unit"] != spec["unit"]:
                fail(f"{w} did not report {spec['name']} in {spec['unit']}")
            metrics[prefix + spec["name"]] = {"value": m["value"],
                                              "unit": spec["unit"]}
    if failed:
        fail(f"{failed} of {attempted} operations failed")
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
