#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload paper|fabric|permute --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the perfbench binary (a Go
module of its own in this directory, which imports the simulator from the
root), then launches one perfbench process per pass until --seconds have
passed, and prints medians over the passes. The last line of standard
output is one JSON object: with --trace 0 it holds the end-to-end metrics,
with --trace 1 the per-layer metrics, both as BENCHMARK.json names them.
Build outputs, the Go build cache and traced spans stay under the directory
CARGO_TARGET_DIR names (default .bench_build). DESIGN.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper", "fabric", "permute")

# A run makes at least this many passes of each kind, unless a pass is so
# slow that the next one would end after PASS_BUDGET_S.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_BUDGET_S = 150.0

# Runtime settings the passes keep at their defaults, whatever the caller's
# environment holds.
RUNTIME_ENV = ("GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG", "GOTRACEBACK")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_env(root):
    """Environment for the go command and the passes, confined to the
    checkout: caches, temporary files and config live in the build dir."""
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    env = {k: v for k, v in os.environ.items() if k not in RUNTIME_ENV}
    dirs = {
        "GOCACHE": "gocache", "GOMODCACHE": "gomodcache", "GOPATH": "gopath",
        "GOTMPDIR": "tmp", "TMPDIR": "tmp", "HOME": "home",
        "XDG_CONFIG_HOME": "config", "XDG_CACHE_HOME": "cache",
    }
    for key, sub in dirs.items():
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOENV="off")
    os.makedirs(os.path.join(out, "spans"), exist_ok=True)
    return out, env


def build(out, env):
    binary = os.path.join(out, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       capture_output=True, text=True)
    if r.returncode != 0:
        fail(f"build failed:\n{r.stderr}")
    return binary


def run_pass(binary, root, env, args, traced, spans):
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed)]
    if traced:
        cmd += ["-trace", "-spans", spans]
    cmd += ["-launch-ns", str(time.time_ns())]
    r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                       timeout=PASS_BUDGET_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"pass exited with code {r.returncode}:\n{r.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_passes(binary, root, env, out, args):
    """Runs passes until --seconds have passed. A traced run alternates
    untraced and traced passes so trace.overhead_pct compares neighbours."""
    start = time.monotonic()
    deadline = start + args.seconds
    untraced, traced = [], []
    longest = 0.0
    while True:
        want_traced = args.trace and len(traced) < len(untraced)
        spans = os.path.join(out, "spans", f"{args.workload}-seed{args.seed}-pass{len(traced)}.json")
        t0 = time.monotonic()
        res = run_pass(binary, root, env, args, want_traced, spans)
        longest = max(longest, time.monotonic() - t0)
        (traced if want_traced else untraced).append(res)
        now = time.monotonic()
        if args.trace:
            paired = len(traced) == len(untraced)
            enough = paired and len(traced) >= MIN_TRACED_PASSES
        else:
            paired, enough = True, len(untraced) >= MIN_PASSES
        if enough and now >= deadline:
            break
        if paired and now + longest > start + PASS_BUDGET_S:
            break
    return untraced, traced


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced, attempted, failed):
    return {
        "wall_s": median([p["wall_s"] for p in untraced]),
        "setup_s": median([p["setup_s"] for p in untraced]),
        "cpu_s": median([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        "ops_ok_pct": 100.0 * (attempted - failed) / attempted,
    }


def per_layer(untraced, traced):
    names = set()
    for p in traced:
        names.update(p.get("layers", {}))
    values = {n: median([p.get("layers", {}).get(n, 0.0) for p in traced]) for n in names}

    # CPU shares pool the profile samples of every traced pass; a module
    # with no samples reads 0.
    prof = {}
    for p in traced:
        for m, ns in p.get("profile_ns", {}).items():
            prof[m] = prof.get(m, 0) + ns
    total = sum(prof.values())
    for m, ns in prof.items():
        values[f"{m}.cpu_share"] = ns / total
    accesses = sum(p.get("layers", {}).get("cache.accesses", 0.0) for p in traced)
    model_ns = sum(prof.get(m, 0) for m in ("cpu", "cache", "memsys"))
    values["cache.ns_per_access"] = model_ns / accesses if accesses else 0.0

    base = median([p["wall_s"] for p in untraced])
    values["trace.overhead_pct"] = 100.0 * (median([p["wall_s"] for p in traced]) / base - 1.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", "BENCHMARK.json", os.path.join("internal", "exp", "testdata", "golden")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a repository checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    out, env = build_env(root)
    binary = build(out, env)
    untraced, traced = run_passes(binary, root, env, out, args)

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(p["known_failed"] for p in passes)
    # Failures of ops named as known defects are counted, not hidden: they
    # stay in `failed`; only an unexpected failure makes the run incorrect.
    correct = failed == known

    for msg in sorted({m for p in passes for m in p.get("failures", [])}):
        print(f"failed op: {msg}")
    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} ops attempted, {failed} failed "
          f"(ops_failed_pct {100.0 * failed / attempted:.2f} %)")

    if args.trace:
        values = per_layer(untraced, traced)
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced, attempted, failed)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        v = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<28} {v:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
