#!/usr/bin/env python3
"""The operating-day benchmark: builds daybench from this checkout, runs
workloads, checks their outputs and prints the metrics.

  python3 daybench/run.py [--workload NAME] [--seed N] [--seconds S]
                          [--trace 0|1] [--spans FILE]
                          [--repeat N [--fixed-seed]]

Run from the repository root. Without --workload every workload runs. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (each metric a value and a unit): the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it give each metric's sample count and quartiles and the
host record. The exit code is nonzero when any check fails.

--repeat N runs each workload N times, on seeds N, N+1, ... (or N times on
one seed with --fixed-seed), and prints each metric's median, quartiles and
quartile spread as a share of the median. With --fixed-seed the
deterministic metrics must repeat exactly.

The build goes to $CARGO_TARGET_DIR/daybench (default .bench_build/daybench).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["w3-peak-day", "w1-longrun", "w2-service"]
# Seed kept out of every tuning run; a change that claims a gain must also
# show it on this seed.
HELDOUT_SEED = 7919
# Metrics that depend only on the seed, never on timing.
DETERMINISTIC = ["makespan", "peak_mc_mib", "srp.expanded", "srp.fallbacks",
                 "srp.candidates", "core.heuristic.builds"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to daybench/; run from a checkout of the repository")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "daybench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", "4",
                 "--target", "daybench"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def run_once(binary, workload, seed, seconds, trace, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s: daybench exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def print_run(result):
    host = result["host"]
    print("# %s  seed %s  scale %s  streams %s  reps %s (traced %s)  "
          "nproc %s  kernel %s  queue %s  engine %s" % (
              host["workload"], host["seed"], host["scale"], host["streams"],
              host["reps"], host["traced_reps"], host["nproc"],
              host["kernel"], host["queue"], host["engine"]))
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %-6s  n=%-6d q1=%.6g q3=%.6g" % (
            name, m["value"], m["unit"], m["samples"], m["q1"], m["q3"]))
    for error in result["errors"]:
        print("  CHECK FAILED: " + error)


def repeat(binary, args, workloads):
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            seed = args.seed if args.fixed_seed else args.seed + i
            runs.append(run_once(binary, workload, seed, args.seconds,
                                 args.trace, None))
            ok = ok and runs[-1]["correct"]
        print("# %s: %d runs, seeds %s" % (
            workload, len(runs), sorted({r["host"]["seed"] for r in runs})))
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-34s median %12.6g %-6s q1 %12.6g q3 %12.6g "
                  "spread %6.2f%%  [%s]" % (
                      name, med, first["unit"], q1, q3, 100 * spread,
                      " ".join("%.5g" % v for v in values)))
            if args.fixed_seed and name in DETERMINISTIC and \
                    len(set(values)) > 1:
                print("  NOT DETERMINISTIC: %s %s" % (name, values))
                ok = False
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--fixed-seed", action="store_true")
    args = parser.parse_args()

    forced = sorted(k for k in os.environ if k.startswith("CARP_FORCE_"))
    if forced:
        print("run.py: refusing to run with %s set; the benchmark measures "
              "the defaults only" % ", ".join(forced), file=sys.stderr)
        sys.exit(2)

    build_dir = build()
    binary = os.path.join(build_dir, "daybench")
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat > 1:
        sys.exit(0 if repeat(binary, args, workloads) else 1)

    def spans_path(workload):
        if args.trace == 0:
            return None
        if args.spans:
            return args.spans if args.workload else args.spans + "." + workload
        return os.path.join(build_dir, "spans-%s-%d.jsonl" % (workload,
                                                              args.seed))

    results = {w: run_once(binary, w, args.seed, args.seconds, args.trace,
                           spans_path(w)) for w in workloads}
    for result in results.values():
        print_run(result)
    print("# held-out seed: %d" % HELDOUT_SEED)

    def metrics_of(result, prefix=""):
        return {prefix + name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()}

    if args.workload:
        metrics = metrics_of(results[args.workload])
    else:
        metrics = {}
        for w, result in results.items():
            metrics.update(metrics_of(result, w + "."))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
