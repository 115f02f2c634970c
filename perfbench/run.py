#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/ with CMake; later
calls only re-check that the build is current. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Each
metric is printed as a line with its unit and sample count; the last line
of standard output is the JSON summary. The exit code is 0 only when every
correctness check passed.

At --seed 1 the simulated results must also match the digest recorded in
perfbench/golden.json. A change meant to alter simulated results edits that
file by hand; the failure message prints the new digest.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 1
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload must report in a traced run (names
# or name prefixes). A listed metric that is missing fails a check; the
# declared metrics outside the list are layers the workload does not run.
LAYERS = {
    "lcf-n256-uniform90": ("core.lcf_central.", "sched.transpose.",
                           "sched.grant_fraction", "sched.mean_matching",
                           "sim.", "traffic.arrivals.", "trace."),
    "fig12-n64-sweep": ("core.", "sched.", "sim.", "traffic.arrivals.",
                        "pool.", "trace."),
    "clint-integrated-ber": ("clint.", "sched.grant_fraction",
                             "sched.mean_matching", "trace."),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (first time only) and build; show the log only on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode:
            sys.stderr.write(done.stdout)
            fail(f"{' '.join(step[:2])} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build()
    spans = os.path.join(BUILD, f"spans-{args.workload}.csv")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    run = json.loads(lines[-1])

    attempted, failed = run["attempted"], run["failed"]
    failures = list(run["failures"])
    if args.seed == GOLDEN_SEED:
        with open(GOLDEN) as f:
            golden = json.load(f)
        attempted += 1
        if golden.get(args.workload) != run["digest"]:
            failed += 1
            failures.append(f"digest {run['digest']} != golden "
                            f"{golden.get(args.workload)}")

    # A traced run must report every layer its workload runs; the others
    # are listed as 0, marked n/a.
    if args.trace == "1":
        required = LAYERS[args.workload]
        for m in declared:
            present = m["name"] in run["metrics"]
            if m["name"].startswith(required):
                attempted += 1
                if present:
                    continue
                failed += 1
                failures.append(f"layer metric {m['name']} not reported")
                note = "MISSING: layer run by this workload"
            elif present:
                continue
            else:
                note = "n/a: layer not run by this workload"
            run["metrics"][m["name"]] = {
                "value": 0.0, "unit": m["unit"], "n": 0, "note": note}
    metrics = {}
    for m in declared:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    mode = "per-layer (traced)" if args.trace == "1" else "end-to-end"
    print(f"{args.workload}  seed {args.seed}  {mode}  "
          f"{run['batches']} batches  digest {run['digest']}")
    for m in declared:
        got = run["metrics"][m["name"]]
        note = f"  [{got['note']}]" if got["note"] else ""
        print(f"  {m['name']:<34} {got['value']:>16.6g} {m['unit']:<7} "
              f"n={got['n']}{note}")
    names = {m["name"] for m in declared}
    for name, got in sorted(run["metrics"].items()):
        if name not in names:
            note = "; ".join(x for x in (got["note"], "not in BENCHMARK.json") if x)
            print(f"  {name:<34} {got['value']:>16.6g} {got['unit']:<7} "
                  f"n={got['n']}  [{note}]")
    for name, value in sorted(run["results"].items()):
        print(f"  result {name} = {value:.6g}")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
