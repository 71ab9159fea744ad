#!/usr/bin/env python3
"""One-command runner for the repository benchmark (see README.md).

    python3 bench/suite/run.py [--workload W] [--seed N] [--seconds S]
                               [--trace 0|1] [--build DIR | --exe FILE]
                               [--out FILE] [--repeat R] [--smoke]

Builds the ag_suite program (Release) from this checkout, or takes a built
one with --exe, runs each workload in a process of its own, prints every
metric as `workload metric value unit` and, as the last line of stdout, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end set of BENCHMARK.json, with --trace 1 the per-layer set.

Exits non-zero when a correctness check fails, a metric is missing, or the
build is a Debug or sanitizer build (its timings would mean nothing).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, jobs):
    if not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "ag_suite",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            fail(f"build failed: {e}")
    return build_dir / "ag_suite"


def run_workload(exe, workload, seed, args):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(exe.parent / f"trace-{workload}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    # ag_suite fixes its own shard counts; the library's environment knobs
    # must not change what is measured.
    env = {k: v for k, v in os.environ.items() if k not in ("AG_THREADS", "AG_SHARDS")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "correct": False, "attempted": 1, "failed": 1,
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"], "metrics": {},
                "notes": {}, "provenance": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"workload": workload, "correct": False, "attempted": 1, "failed": 1,
                  "failures": [f"ag_suite exited {proc.returncode} without a result"],
                  "metrics": {}, "notes": {}, "provenance": {}}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def timing_refusal(prov):
    if prov.get("build_type", "").lower() == "debug" or prov.get("asserts"):
        return f"refusing an unoptimised build ({prov.get('build_type')}, asserts on)"
    if prov.get("sanitized"):
        return "refusing a sanitizer build"
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads, help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1815)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "suite")
    p.add_argument("--exe", type=Path, help="a built ag_suite: skip the build")
    p.add_argument("--out", type=Path, help="write every result and its provenance here")
    p.add_argument("--repeat", type=int, default=1,
                   help="invocations per workload, seeds seed, seed+1, ... "
                        "(compare.py needs at least 2 to judge a change)")
    p.add_argument("--smoke", action="store_true", help="tiny shapes (ctest)")
    args = p.parse_args()

    exe = args.exe.resolve() if args.exe else build(args.build.resolve(), nproc())
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    chosen = [args.workload] if args.workload else workloads

    invocations = []
    correct, attempted, failed, metrics = True, 0, 0, {}
    for rep in range(args.repeat):
        inv = {}
        for w in chosen:
            r = run_workload(exe, w, args.seed + rep, args)
            refusal = timing_refusal(r["provenance"])
            if refusal:
                fail(refusal)
            missing = [m for m in wanted if m not in r["metrics"]]
            if missing:
                r["correct"] = False
                r["failures"].append("missing metrics: " + ", ".join(missing))
            inv[w] = r
            correct = correct and r["correct"]
            attempted += r["attempted"]
            failed += r["failed"]
            for name, m in list(r["metrics"].items()) + list(r["notes"].items()):
                print(f"{w} {name} {m['value']:.6g} {m['unit']}")
            for why in r["failures"]:
                print(f"{w} FAILED {why}")
            for name in wanted:
                if name in r["metrics"]:
                    key = name if len(chosen) == 1 else f"{w}/{name}"
                    metrics[key] = {"value": r["metrics"][name]["value"],
                                    "unit": r["metrics"][name]["unit"]}
        invocations.append(inv)

    if args.out:
        first = next(iter(invocations[0].values()))
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "provenance": first["provenance"],
            "invocations": invocations}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
