#!/usr/bin/env python3
"""Launcher of the repo benchmark (see README.md beside this file).

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload: the contract of ../BENCHMARK.json. The last
      line of stdout is the JSON result.
  run.py [--seed N] [--seconds S] [--trace 0|1]
      Every workload, one process each, as one table.
  run.py --aa [--seed N] [--seconds S]
      The untraced set twice, in alternating order; fails if a metric
      differs between the two by more than its bound.
  run.py --spread [--runs K] [--seconds S]
      K seeds per workload; prints IQR / median of every end-to-end metric
      beside its bound.

Builds the Rust program in this directory first. The simulator workloads
run confined to one core: on a multi-core VM their host time is bimodal
otherwise (README.md, "Placement").
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1
WORKLOADS = ["native_spread", "native_failover", "native_reserve", "sim_micro", "sim_vacation"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


@functools.lru_cache(maxsize=None)
def spec():
    """BENCHMARK.json, or None where the benchmark directory stands alone."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, check=True, env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    return os.path.join(os.path.abspath(target), "release", "ufotm-benchmark")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    confine = None
    if workload.startswith("sim_") and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        confine = lambda: os.sched_setaffinity(0, {cpu})
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", OUT],
        stdout=subprocess.PIPE, text=True, preexec_fn=confine,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    declared = spec()
    if declared:
        want = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
        if list(result["metrics"]) != want:
            log("the program's metric names differ from BENCHMARK.json:",
                sorted(set(want) ^ set(result["metrics"])))
            return 1, None
    return proc.returncode, result


def detail(workload, trace):
    """The sidecar of the last run: values with min, max, n, window spread."""
    mode = "traced" if trace else "untraced"
    with open(os.path.join(OUT, f"result-{workload}-{mode}.json")) as f:
        return json.load(f)


def run_set(binary, order, seed, seconds, trace):
    """One run of each workload in `order`; returns {workload: sidecar}."""
    results, ok = {}, True
    for w in order:
        code, result = run_one(binary, w, seed, seconds, trace)
        ok = ok and code == 0 and result is not None and result["correct"]
        if result is not None:
            results[w] = detail(w, trace)
    return results, ok


def print_table(results):
    names = list(next(iter(results.values()))["metrics"])
    for name in names:
        log(f"\n{name}")
        for w, r in results.items():
            m = r["metrics"][name]
            log(f"  {w:<16} {m['value']:>18.4f} {m['unit']:<7} "
                f"min {m['min']:<16.4f} max {m['max']:<16.4f} n {m['n']:<3}"
                + ("  exact" if m["exact"] else ""))
    for w, r in results.items():
        log(f"{w}: {r['attempted']} attempted, {r['failed']} failed, correct {r['correct']}")


def bounds():
    declared = spec() or {"end_to_end": []}
    return {m["name"]: m for m in declared["end_to_end"]}


def aa(binary, seed, seconds):
    first, ok1 = run_set(binary, WORKLOADS, seed, seconds, 0)
    second, ok2 = run_set(binary, WORKLOADS[::-1], seed, seconds, 0)
    ok = ok1 and ok2
    log(f"\n{'workload':<16} {'metric':<20} {'first':>16} {'second':>16} {'gap':>8} "
        f"{'bound':>6} {'window spread':>14}")
    for w in WORKLOADS:
        for name, a in first[w]["metrics"].items():
            b = second[w]["metrics"][name]
            if a["exact"]:
                same = a["value"] == b["value"]
                ok = ok and same
                log(f"{w:<16} {name:<20} {a['value']:>16.0f} {b['value']:>16.0f} "
                    f"{'exact':>8} {'0':>6} {'':>14} {'' if same else 'DIFFERS'}")
                continue
            bound = bounds().get(name, {}).get("bound")
            gap = abs(b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            spread = max(a["window_spread"], b["window_spread"])
            verdict = ""
            if bound is not None and spread > bound:
                verdict = "unresolved: the windows spread wider than the bound"
            elif bound is not None and gap > bound:
                verdict, ok = "OUTSIDE ITS BOUND", False
            log(f"{w:<16} {name:<20} {a['value']:>16.4f} {b['value']:>16.4f} {gap:>8.4f} "
                f"{bound if bound is not None else '':>6} {spread:>14.4f} {verdict}")
    return ok


def spread(binary, runs, seconds):
    ok = True
    for w in WORKLOADS:
        values = {}
        for seed in range(1, runs + 1):
            code, result = run_one(binary, w, seed, seconds, 0)
            if code != 0 or result is None:
                log(f"{w} seed {seed} failed")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            bound = bounds().get(name, {}).get("bound", 0)
            share = (q3 - q1) / med
            log(f"{w:<16} {name:<16} median {med:<18.6f} IQR/median {share:.4f} "
                f"bound {bound}  {'' if share <= bound / 3 else 'ABOVE A THIRD OF ITS BOUND'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=(spec() or {}).get("run_seconds", 12))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--aa", action="store_true")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"cannot build the benchmark: {e}")
        return 1
    if args.workload:
        code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code
    if args.aa:
        return 0 if aa(binary, args.seed, args.seconds) else 1
    if args.spread:
        return 0 if spread(binary, args.runs, args.seconds) else 1
    results, ok = run_set(binary, WORKLOADS, args.seed, args.seconds, args.trace)
    print_table(results)
    mode = "traced" if args.trace else "untraced"
    with open(os.path.join(OUT, f"results-{mode}.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
