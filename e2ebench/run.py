#!/usr/bin/env python3
"""End-to-end benchmark of the PrivIM system (see e2ebench/README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload train-star --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --report --rounds 5          # steadiness report
  python3 e2ebench/run.py --test                       # loadgen unit tests

A run builds the workload binary from this source tree (into .bench_build/),
starts one process for the workload, checks its outputs and prints the
run record, then as the last line one JSON object with exactly the keys
correct, attempted, failed and metrics. --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes a Chrome trace to
.bench_out/.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train-star", "serve-topk", "serve-churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PrivIM source tree at " + ROOT + " (src/CMakeLists.txt "
             "missing); run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-G", "Ninja",
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build of " + target + " failed")
    return os.path.join(BUILD_DIR, target)


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_commit():
    """The checkout's git commit ("+dirty" with uncommitted changes), or
    "unknown" outside a git checkout."""
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                           capture_output=True, text=True).stdout.strip()
    return r.stdout.strip() + ("+dirty" if dirty else "")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns its parsed record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))]
    env = dict(os.environ)
    # Thread counts and the ISA are the workload's choice, never the
    # environment's.
    env.pop("PRIVIM_THREADS", None)
    env.pop("PRIVIM_FORCE_ISA", None)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, r.returncode))
    return json.loads(lines[-1])


def result_line(record, trace):
    """The final line: the declared metrics of this mode, nothing else."""
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if trace else end_to_end
    metrics = {}
    for name, m in sorted(record["metrics"].items()):
        if declared.get(name) != m["unit"]:
            fail("metric %s (%s) is not declared in BENCHMARK.json for "
                 "--trace %d" % (name, m["unit"], trace))
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        fail("%s reported no %s for --trace %d" %
             (record["workload"], ", ".join(missing), trace))
    return {"correct": bool(record["correct"]) and record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def save_record(record):
    """Completes the run record and saves it under .bench_out/."""
    record["git_commit"] = git_commit()
    record["command"] = " ".join(shlex.quote(a) for a in
                                 ["python3", os.path.relpath(__file__, ROOT)] +
                                 sys.argv[1:])
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" %
                       (record["workload"], record["seed"], record["trace"]))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)


def single_run(args):
    binary = build("privim_e2e")
    record = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    save_record(record)
    line = result_line(record, args.trace)
    print("record: " + json.dumps(record))
    print(json.dumps(line))


def report(args):
    """Steadiness report: each workload repeatedly, workloads alternating."""
    binary = build("privim_e2e")
    values = {w: {} for w in WORKLOADS}
    for r in range(args.rounds):
        for w in WORKLOADS:
            record = run_workload(binary, w, args.seed + r, args.seconds, 0)
            save_record(record)
            line = result_line(record, 0)
            print("round %d %s seed %d: correct=%s attempted=%d failed=%d %s" %
                  (r, w, args.seed + r, line["correct"], line["attempted"],
                   line["failed"],
                   " ".join("%s=%.6g" % (k, v["value"])
                            for k, v in line["metrics"].items())),
                  flush=True)
            for k, v in line["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    end_to_end, _ = declared_metrics()
    print("\n| workload | metric | n | median | q1 | q3 | (q3-q1)/median "
          "| (max-min)/median |")
    print("|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        for k in end_to_end:
            v = values[w].get(k)
            if not v:
                continue
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            print("| %s | %s | %d | %.6g | %.6g | %.6g | %.4f | %.4f |" %
                  (w, k, len(v), med, q1, q3, (q3 - q1) / med,
                   (max(v) - min(v)) / med))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="steadiness report over --rounds seeds")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--test", action="store_true",
                   help="build and run the loadgen unit tests")
    args = p.parse_args()
    if args.test:
        sys.exit(subprocess.run([build("e2e_loadgen_test")]).returncode)
    if args.report:
        report(args)
        return
    if args.workload is None:
        p.error("--workload is required")
    single_run(args)


if __name__ == "__main__":
    main()
