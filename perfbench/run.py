#!/usr/bin/env python3
"""Build and run the eelsched benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--suite-seed <n>]

Run from the repository root. The first run configures and builds the
libraries and the benchmark binary into .bench_build (Release); later
runs rebuild incrementally. With --trace 0 the result carries the
end-to-end metrics named in BENCHMARK.json; with --trace 1 the run
records layer spans, writes them to .bench_out/trace-<workload>.json
and the result carries the per-layer metrics, whose times are self
times read back from that trace. Build output goes to stderr; the
last line of stdout is the result. Exits non-zero, printing no
result, when the build, the run or the result fails.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "eelbench")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tables-cold", "regen-after-edit", "rewrite-wide",
             "service-mix"]
RUN_TIMEOUT_S = 170


def quantile(values, q):
    """Linear-interpolated quantile; the binary uses the same rule."""
    v = sorted(values)
    if not v:
        return 0.0
    idx = q * (len(v) - 1)
    lo = int(idx)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] * (1 - (idx - lo)) + v[hi] * (idx - lo)


def build():
    hook = os.path.join(HERE, "cmake", "subproject.cmake")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ".", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DCMAKE_PROJECT_INCLUDE=" + hook],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "eelbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def layer_metric(span):
    """Per-layer metric name of a layer span ("eel.layout.identity"
    becomes "eel.layout_s.identity", "sched.local" "sched.local_s")."""
    if span.startswith("eel.layout."):
        return "eel.layout_s." + span[len("eel.layout."):]
    return span + "_s"


def trace_layers(path):
    """Self times per pass from the benchmark's own spans.

    Every layer span's self time (its duration minus that of the
    benchmark spans nested in it) is charged to the unit span around
    it. A layer's figure is, like the binary's pass_s, the sum over
    units of the 10th percentile over rounds of its time in that unit.
    Spans outside units (set-up) are summed. Library spans are not
    counted as children: spans inside the program are not part of
    this benchmark's layer boundaries.
    """
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and (e["name"] == "unit" or
                                             e["name"].startswith("layer:"))]
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)

    unit_dur = defaultdict(dict)           # unit -> round -> us
    unit_child = defaultdict(float)        # (round, unit) -> child us
    inside = defaultdict(lambda: defaultdict(float))  # layer -> key -> us
    outside = defaultdict(float)           # layer -> us
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        child = defaultdict(float)  # id(event) -> direct children's us
        records = []
        for e in evs:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                child[id(stack[-1])] += e["dur"]
            unit = next((s for s in reversed(stack) if s["name"] == "unit"),
                        e if e["name"] == "unit" else None)
            records.append((e, unit))
            stack.append(e)
        for e, unit in records:
            self_us = e["dur"] - child[id(e)]
            if e["name"] == "unit":
                key = (e["args"]["round"], e["args"]["unit"])
                unit_dur[key[1]][key[0]] = e["dur"]
                unit_child[key] += child[id(e)]
                continue
            name = layer_metric(e["name"][len("layer:"):])
            if unit is None:
                outside[name] += self_us
            else:
                key = (unit["args"]["round"], unit["args"]["unit"])
                inside[name][key] += self_us

    def per_pass(get):
        return sum(quantile([get(r, u) for r in rounds], 0.10)
                   for u, rounds in unit_dur.items()) / 1e6

    out = {name: us / 1e6 for name, us in outside.items()}
    for name, times in inside.items():
        out[name] = per_pass(lambda r, u, t=times: t.get((r, u), 0.0))
    out["bench.traced_pass_s"] = per_pass(lambda r, u: unit_dur[u][r])
    out["bench.residual_s"] = per_pass(
        lambda r, u: unit_dur[u][r] - unit_child[(r, u)])
    return out


def per_layer(binary_layers, traced):
    """Every per-layer figure the run produced: traced self times,
    rates formed from them, and the binary's own counts."""
    m = dict(traced)
    counts = {k[len("count."):]: v for k, v in binary_layers.items()
              if k.startswith("count.")}
    m.update({k: v for k, v in binary_layers.items()
              if not k.startswith("count.")})

    def rate(count, time, scale):
        t = traced.get(time, 0.0)
        return counts.get(count, 0.0) / t / scale if t > 0 else 0.0

    if "sim.timing_s" in traced:
        m["sim.timing_minst_per_s"] = rate("sim.timing_insts",
                                           "sim.timing_s", 1e6)
    if "sim.emulate_s" in traced:
        m["sim.emulate_minst_per_s"] = rate("sim.emulate_insts",
                                            "sim.emulate_s", 1e6)
    sched_s = sum(traced.get(k, 0.0) for k in
                  ("sched.local_s", "sched.superblock_s",
                   "sched.pipeline_s"))
    if sched_s > 0:
        m["sched.blocks_per_s"] = counts.get("sched.blocks", 0.0) / sched_s
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--suite-seed", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--suite-seed",
           str(args.suite_seed)]
    trace_path = os.path.join(OUT_DIR, "trace-%s.json" % args.workload)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("eelbench exited with %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = per_layer(result["layers"], trace_layers(trace_path))
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
