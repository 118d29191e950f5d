#!/usr/bin/env python3
"""Layered wall-clock benchmark of the chimera library.

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/, runs one seeded workload for a fixed measured time, checks
its outputs, and prints one JSON result line as the last line of stdout:

    python3 perfbench/run.py --workload fused-exec --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is
the per-layer run: the workload measures an untraced half and a traced
half, writes a Perfetto JSON trace under .bench_out/, and this script
derives per-layer self time from it (a span's duration minus its
children's).

    python3 perfbench/run.py --self-test

runs every workload briefly in both modes and checks that every metric
of BENCHMARK.json is emitted with its unit and that no operation failed.
See perfbench/METHODOLOGY.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Relative to ROOT: keeps the daemon's Unix-socket path short.
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
SELF_TEST_SECONDS = 2
SELF_TEST_SEED = 1

LAYERS = ("kernels", "exec", "pool", "model", "plan", "solver", "analysis",
          "plan_cache", "plan_io", "verify", "serve", "protocol", "bench")

# Spans the library itself records, by name. The benchmark's own spans
# are named "<layer>.<call>" and attribute by that prefix.
LIBRARY_SPAN_LAYERS = {
    "exec.chunk": "exec",
    "exec.softmax_norm": "exec",
    # The executor's dispatching span minus its chunks: dispatch and join.
    "exec.gemm_chain": "pool",
    "exec.chain3": "pool",
    "exec.conv_chain": "pool",
    "exec.tiled_gemm": "pool",
    "exec.tiled_conv": "pool",
    "plan.chain": "plan",
    "plan.search": "solver",
    "plan.certify": "analysis",
    "plan.cache.lookup": "plan_cache",
    "plan.cache.store": "plan_cache",
    "serve.decode": "protocol",
    "serve.write": "protocol",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(min(nproc(), 4))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write("\n".join(proc.stdout.splitlines()[-40:]) + "\n")
            fail("build failed: " + " ".join(step))
    return os.path.join(ROOT, BUILD_DIR, "perfbench")


def layer_of(name, cat):
    if name in LIBRARY_SPAN_LAYERS:
        return LIBRARY_SPAN_LAYERS[name]
    prefix = name.split(".", 1)[0]
    return prefix if prefix in LAYERS else cat


def self_time_fractions(trace_path, window):
    """Per-layer share of self time over the spans inside @p window (us)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_thread = defaultdict(list)
    for e in events:
        if e.get("ph") != "X":
            continue
        start = float(e["ts"])
        dur = float(e.get("dur", 0.0))
        if start < window[0] or start + dur > window[1]:
            continue
        by_thread[e["tid"]].append((start, -dur, e["name"], e.get("cat", "")))
    totals = defaultdict(float)
    for spans in by_thread.values():
        spans.sort()
        stack = []  # [end, layer, self time]
        for start, neg_dur, name, cat in spans:
            dur = -neg_dur
            while stack and start >= stack[-1][0]:
                _, layer, own = stack.pop()
                totals[layer] += max(own, 0.0)
            if stack:
                stack[-1][2] -= min(dur, stack[-1][0] - start)
            stack.append([start + dur, layer_of(name, cat), dur])
        for _, layer, own in stack:
            totals[layer] += max(own, 0.0)
    total = sum(totals.values())
    return {layer: (totals[layer] / total if total > 0 else 0.0)
            for layer in LAYERS}


def run_workload(binary, workload, seed, seconds, trace, threads):
    """Runs one workload; returns (result document, exit code)."""
    work = os.path.join(OUT_DIR, f"{workload}-{seed}-{trace}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    result_path = os.path.join(work, "result.json")
    trace_path = os.path.join(work, "trace.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads), "--result", result_path,
           "--work-dir", work]
    if trace:
        cmd += ["--trace-file", trace_path]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CHIMERA_")}
    env["CHIMERA_PLAN_CACHE"] = ""  # no plan-cache writes outside work/
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        fail(f"{workload} exited with {proc.returncode}")
    with open(os.path.join(ROOT, result_path)) as f:
        result = json.load(f)
    if trace:
        fractions = self_time_fractions(os.path.join(ROOT, trace_path),
                                        result["trace_window_us"])
        for layer, share in fractions.items():
            result["metrics"][f"self_frac.{layer}"] = {"value": share,
                                                       "unit": "ratio"}
        print(f"trace: {trace_path}")
    return result, proc.returncode


def compose(spec, result, trace):
    """The result line: the spec's metrics for this mode, checked."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and trace:
            # A layer this workload does not exercise.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, problems


def measure(args, spec):
    binary = build()
    result, code = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace, nproc())
    metrics, problems = compose(spec, result, args.trace)
    for p in problems + result["failures"]:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print(f"workload {args.workload} seed {args.seed} threads {nproc()}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name} {m['value']} {m['unit']}")
    print(f"  failed_frac {failed / attempted} ratio "
          f"({failed} of {attempted} ops)")
    correct = code == 0 and failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test(spec):
    binary = build()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = set()
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, code = run_workload(binary, w["name"], SELF_TEST_SEED,
                                        SELF_TEST_SECONDS, trace, nproc())
            _, problems = compose(spec, result, trace)
            errors += [f"{w['name']} trace {trace}: {p}" for p in problems]
            if code != 0 or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{w['name']} trace {trace}: "
                              f"{result['failed']} of {result['attempted']} "
                              f"ops failed")
            if trace:
                for name, m in result["metrics"].items():
                    if name in per_layer and m["unit"] == per_layer[name]:
                        emitted.add(name)
    errors += [f"per-layer metric {n} emitted by no workload"
               for n in sorted(set(per_layer) - emitted)]
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(SPEC_PATH):
        fail(f"missing {SPEC_PATH}")
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
