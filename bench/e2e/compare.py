#!/usr/bin/env python3
"""Compare two directories of camelot-e2e run JSONs.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR
    python3 bench/e2e/compare.py --self-test

Reads every run JSON that bench/e2e/run.py wrote into each directory
(untraced and traced runs are compared separately) and prints, per
workload and metric, each side's median and interquartile range, the
change of the medians and a verdict against the metric's bound from
BENCHMARK.json, the only place bounds are set:

    ok          the new median is within the bound of the base median
    better      it improved by more than the bound, or every new run
                reads better than every base run
    regression  it got worse by more than the bound
    unresolved  either side's spread (IQR / median) exceeds the bound,
                so the runs cannot tell a change from noise
    info        the metric has no bound: per-layer metrics, and metrics
                a run reports that BENCHMARK.json does not list (such
                as job_s_p95, which needs 200 jobs in a run)

Every run also yields a failed_share row (failed / attempted): any
failed operation on the new side is a regression. Refuses to compare
(exit 2) when the runs differ in host class or run length: nproc, ISA
flags, resolved backend, build type or run_seconds. Exits 1 when any
pair regressed. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
HOST_KEYS = ("nproc", "avx2", "avx512f", "avx512ifma", "backend",
             "build_type")
STAMP_KEYS = HOST_KEYS + ("run_seconds",)
FAILED_SHARE = "failed_share"


class HostMismatch(Exception):
    pass


def metric_specs(bench):
    specs = {s["name"]: s for s in bench["end_to_end"]}
    for spec in bench["per_layer"]:
        specs[spec["name"]] = dict(spec, bound=None)
    return specs


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".chrome.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        if "workload" in run and "metrics" in run and "host" in run:
            runs.append(run)
    return runs


def stamp(run):
    return tuple(run["host"][k] for k in HOST_KEYS) + (run["run_seconds"],)


def values_of(runs, name):
    if name == FAILED_SHARE:
        return [r["failed"] / max(1, r["attempted"]) for r in runs]
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"] and r["metrics"][name]["applies"]]


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, q[2] - q[0]


def verdict(spec, base, new):
    if spec is None:
        return "regression" if max(new) > 0 else "ok"  # failed_share
    bound = spec.get("bound")
    if bound is None:
        return "info"
    lower = spec["better"] == "lower"
    mb, ib = summary(base)
    mn, i_n = summary(new)
    all_better = all((n < b) if lower else (n > b)
                     for n in new for b in base)
    spread = max(ib / abs(mb) if mb else 0.0, i_n / abs(mn) if mn else 0.0)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if mb == 0:
        return "ok" if mn == 0 else "unresolved"
    worse_by = (mn - mb) / abs(mb) if lower else (mb - mn) / abs(mb)
    if worse_by > bound:
        return "regression"
    if worse_by < -bound or all_better:
        return "better"
    return "ok"


def compare(base_runs, new_runs, specs):
    """Rows (workload, trace, metric, spec, base, new, verdict); raises
    HostMismatch when the runs span more than one stamp."""
    stamps = {stamp(r) for r in base_runs + new_runs}
    if len(stamps) > 1:
        raise HostMismatch(sorted(stamps, key=str))
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs}
                    & {(r["workload"], r["trace"]) for r in new_runs})
    for workload, trace in groups:
        b_runs = [r for r in base_runs
                  if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new_runs
                  if (r["workload"], r["trace"]) == (workload, trace)]
        names = list(specs)
        names += sorted({m for r in b_runs + n_runs for m in r["metrics"]}
                        - set(specs))
        for name in names + [FAILED_SHARE]:
            b, n = values_of(b_runs, name), values_of(n_runs, name)
            if not b or not n:
                continue
            spec = None if name == FAILED_SHARE else specs.get(
                name, {"better": "lower", "bound": None})
            rows.append((workload, trace, name, spec, b, n,
                         verdict(spec, b, n)))
    return rows


def print_rows(rows):
    print(f"{'workload':16s} {'t':1s} {'metric':32s} {'base median [IQR]':>24s}"
          f" {'new median [IQR]':>24s} {'change':>8s} {'bound':>6s} verdict")
    for workload, trace, name, spec, b, n, v in rows:
        mb, ib = summary(b)
        mn, i_n = summary(n)
        change = f"{(mn - mb) / abs(mb):+.1%}" if mb else "-"
        if spec is None:
            bound = "+0"
        else:
            bound = "-" if spec["bound"] is None else f"{spec['bound']:.0%}"
        print(f"{workload:16s} {int(trace):1d} {name:32s} "
              f"{mb:12.5g} [{ib:9.3g}] {mn:12.5g} [{i_n:9.3g}] "
              f"{change:>8s} {bound:>6s} {v} (n={len(b)}/{len(n)})")


def self_test():
    bench = {"end_to_end": [
        {"name": "job_s_p50", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "rs.decode_s", "unit": "s",
                       "better": "lower"}]}
    specs = metric_specs(bench)
    host = {"nproc": 4, "avx2": True, "avx512f": True, "avx512ifma": True,
            "backend": "montgomery-avx512", "build_type": "Release"}

    def runs(metric, values, failed=0, seconds=10, **host_overrides):
        return [{"workload": "w", "trace": False, "attempted": 100,
                 "failed": failed, "run_seconds": seconds,
                 "host": dict(host, **host_overrides),
                 "metrics": {metric: {"value": v, "unit": "s",
                                      "applies": True}}}
                for v in values]

    def only(metric, base, new):
        rows = [r for r in compare(base, new, specs) if r[2] == metric]
        assert len(rows) == 1, rows
        return rows[0][6]

    def refused(base, new):
        try:
            compare(base, new, specs)
        except HostMismatch:
            return True
        return False

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    cases = [
        ("equal medians", "job_s_p50", steady, steady, "ok"),
        ("5% slower within 10%", "job_s_p50", steady,
         [v * 1.05 for v in steady], "ok"),
        ("30% slower", "job_s_p50", steady, [v * 1.3 for v in steady],
         "regression"),
        ("30% faster", "job_s_p50", steady, [v * 0.7 for v in steady],
         "better"),
        ("throughput drop", "jobs_per_s", steady, [v * 0.7 for v in steady],
         "regression"),
        ("throughput gain", "jobs_per_s", steady, [v * 1.3 for v in steady],
         "better"),
        ("spread above bound", "job_s_p50",
         [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2], [0.6, 1.5, 0.8, 1.2, 1.1],
         "unresolved"),
        ("wide spread but every new run better", "job_s_p50",
         [1.6, 2.4, 1.7, 2.3, 2.0], [0.6, 1.4, 0.7, 1.3, 1.0], "better"),
        ("setup 20% slower within 25%", "setup_s", steady,
         [v * 1.2 for v in steady], "ok"),
        ("per-layer metric has no bound", "rs.decode_s", steady,
         [v * 3 for v in steady], "info"),
        ("metric missing from BENCHMARK.json has no bound", "job_s_p95",
         steady, [v * 3 for v in steady], "info"),
    ]
    for label, metric, base, new, want in cases:
        got = only(metric, runs(metric, base), runs(metric, new))
        assert got == want, f"{label}: got {got}, want {want}"
    got = only(FAILED_SHARE, runs("job_s_p50", steady),
               runs("job_s_p50", steady[:9]) + runs("job_s_p50", [1.0], 1))
    assert got == "regression", f"one failed run: got {got}"
    got = only(FAILED_SHARE, runs("job_s_p50", steady),
               runs("job_s_p50", steady))
    assert got == "ok", f"no failed run: got {got}"
    assert refused(runs("job_s_p50", steady),
                   runs("job_s_p50", steady, backend="montgomery-avx2")), \
        "host mismatch: compared anyway"
    assert refused(runs("job_s_p50", steady),
                   runs("job_s_p50", steady, seconds=20)), \
        "run length mismatch: compared anyway"
    print(f"compare.py self-test: {len(cases) + 4} cases ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", nargs="?")
    p.add_argument("new", nargs="?")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.base or not args.new:
        p.error("need BASE_DIR and NEW_DIR (or --self-test)")
    with open(args.benchmark) as f:
        specs = metric_specs(json.load(f))
    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        print("compare.py: no run JSONs in one of the directories",
              file=sys.stderr)
        return 2
    try:
        rows = compare(base, new, specs)
    except HostMismatch as e:
        print("compare.py: refusing to compare runs that differ in "
              f"{STAMP_KEYS}: {e.args[0]}", file=sys.stderr)
        return 2
    print_rows(rows)
    regressions = [r for r in rows if r[6] == "regression"]
    unresolved = [r for r in rows if r[6] == "unresolved"]
    print(f"{len(rows)} pairs: {len(regressions)} regression(s), "
          f"{len(unresolved)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
