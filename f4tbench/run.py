#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, gate it.

    python3 f4tbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds two variants of f4tbench/f4t_bench from the repository sources
into .bench_build/ (the release preset's gates; the second variant adds
F4T_ENABLE_PROFILE for the traced run), then:

  --trace 0  runs the workload's set-up several times in fresh
             processes (setup_s is their median) and the full workload
             once more, and reports every end-to-end metric;
  --trace 1  runs the untraced and the traced variant once each and
             reports every per-layer metric, the traced run's prof.*
             numbers and the gap between the two as trace.overhead_pct.

Every run is gated: each process must pass its own checks (all flows
connected, round trips > 0, no resets, zero StreamOracle violations),
the simulated fingerprints of all processes of one invocation must
agree, and must agree with any earlier invocation of the same
program, workload, seed and length in this checkout (.bench_build/
fingerprints.json). The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics"; the exit code is
non-zero when the gate fails. See README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Set-up repetitions per invocation (fresh processes; the last one also
# runs the measured window) and executor threads. echo_parallel_t2 runs
# but is not listed in BENCHMARK.json: the 2-thread executor's wall time
# is too unsteady to gate (see README.md).
WORKLOADS = {
    "echo_10k": {"setups": 3, "threads": 1},
    "kv_open_loop": {"setups": 5, "threads": 1},
    "echo_parallel_t2": {"setups": 5, "threads": 2},
}

# Per-layer metrics only the traced (profiler-enabled) variant measures.
TRACE_ONLY = re.compile(r"^(prof\.|trace\.coverage_pct$|"
                        r"sim\.par\.(barrier_wait_s|worker_idle_s)$)")

RUN_BUDGET_S = 170  # everything after the build must fit in this


class BenchError(Exception):
    """Fatal problem: report on stderr, print no result, exit non-zero."""


def strict_uint(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an unsigned integer: {text!r}")
    return int(text)


def seconds_arg(text):
    value = strict_uint(text)
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError(f"--seconds must be 1..600: {text}")
    return value


def trace_arg(text):
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"--trace must be 0 or 1: {text!r}")
    return int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="F4T simulator benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=strict_uint)
    parser.add_argument("--seconds", required=True, type=seconds_arg)
    parser.add_argument("--trace", required=True, type=trace_arg)
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down worlds and windows (self-test)")
    return parser.parse_args(argv)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(variant, profile):
    """Configure (once) and build one variant; return the binary path."""
    bdir = os.path.join(BUILD, variant)
    log_path = os.path.join(BUILD, variant + ".log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DF4T_ENABLE_PROFILE=" + ("ON" if profile else "OFF"),
                      "-DF4T_GIT_SHA=" + git_sha()])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "f4t_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build of {variant} failed:\n{tail}")
    return os.path.join(bdir, "f4t_bench")


def run_process(binary, args, deadline, tag):
    """Run f4t_bench once; return its parsed result record."""
    out_path = os.path.join(BUILD, "runs", tag + ".json")
    if os.path.exists(out_path):
        os.remove(out_path)
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before " + tag)
    proc = subprocess.run([binary] + args + ["--out", out_path],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=remaining)
    if proc.returncode in (2, 3):  # usage error or build guard
        raise BenchError(proc.stderr.strip())
    if not os.path.exists(out_path):
        raise BenchError(f"{tag}: no result (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    with open(out_path) as f:
        record = json.load(f)
    record["exit_code"] = proc.returncode
    return record


def value(record, name):
    return record["metrics"][name]["value"]


def check_fingerprints(workload_key, records, errors):
    """All processes agree, and agree with earlier invocations."""
    setups = {r["setup_fingerprint"] for r in records}
    windows = {r["fingerprint"] for r in records if not r["setup_only"]}
    if len(setups) != 1:
        errors.append(f"set-up fingerprints differ between processes: "
                      f"{sorted(setups)}")
    if len(windows) != 1:
        errors.append(f"window fingerprints differ between processes: "
                      f"{sorted(windows)}")
    if errors:
        return
    current = {"setup": setups.pop(), "window": windows.pop()}
    path = os.path.join(BUILD, "fingerprints.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    previous = known.get(workload_key)
    if previous is not None and previous != current:
        errors.append(f"fingerprint {current} differs from an earlier run "
                      f"of the same inputs {previous}")
        return
    known[workload_key] = current
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def check_spans(path, errors):
    try:
        with open(path) as f:
            spans = json.load(f)["spans"]
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"span file {path} does not parse: {e}")
        return
    names = {s["name"] for s in spans}
    for needed in ("setup", "world_build", "app_start", "connect",
                   "settle", "window", "slice"):
        if needed not in names:
            errors.append(f"span file lacks a '{needed}' span")


def main(argv):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found: run from a checkout "
                         "of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    release = build("release", profile=False)
    traced_bin = build("profile", profile=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    w = WORKLOADS[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds),
              "--threads", str(w["threads"])]
    if args.tiny:
        common.append("--tiny")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    errors = []
    records = []
    if args.trace == 0:
        for i in range(w["setups"] - 1):
            records.append(run_process(release, common + ["--setup-only"],
                                       deadline, f"{tag}-setup{i}"))
        full = run_process(release, common, deadline, tag)
        records.append(full)
        metrics = dict(full["metrics"])
        metrics["setup_s"] = {
            "value": statistics.median(value(r, "setup_s") for r in records),
            "unit": "s"}
        wanted = spec["end_to_end"]
    else:
        full = run_process(release, common, deadline, tag + "-untraced")
        spans_path = os.path.join(BUILD, "runs", tag + ".spans.json")
        traced = run_process(traced_bin, common + ["--spans", spans_path],
                             deadline, tag + "-traced")
        records += [full, traced]
        check_spans(spans_path, errors)
        metrics = {k: v for k, v in full["metrics"].items()
                   if not TRACE_ONLY.match(k)}
        metrics.update({k: v for k, v in traced["metrics"].items()
                        if TRACE_ONLY.match(k)})
        base = value(full, "wall_ns_per_sim_pkt_p90")
        metrics["trace.overhead_pct"] = {
            "value": (value(traced, "wall_ns_per_sim_pkt_p90") - base) / base
            * 100.0 if base else 0.0,
            "unit": "%"}
        wanted = spec["per_layer"]

    for r in records:
        errors += [f"{r['workload']}: {e}" for e in r["errors"]]
        if r["exit_code"] != 0 and not r["errors"]:
            errors.append(f"process exited {r['exit_code']}")
    # Keyed by the program too: a rebuilt simulator may change results.
    with open(release, "rb") as f:
        program = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{program}|{args.workload}|seed={args.seed}|" \
        f"seconds={args.seconds}" + ("|tiny" if args.tiny else "")
    check_fingerprints(key, records, errors)

    result_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            errors.append(f"metric {m['name']} was not measured")
            continue
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']}: unit {got['unit']} "
                          f"!= {m['unit']}")
        result_metrics[m["name"]] = {"value": got["value"],
                                     "unit": m["unit"]}

    correct = not errors
    attempted = max(1, full["attempted"])
    failed = full["failed"] if correct else attempted

    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]['value']:>18.6f} "
              f"{metrics[name]['unit']}")
    for e in errors:
        print("GATE FAILED: " + e, file=sys.stderr)

    summary = {"correct": correct, "attempted": attempted,
               "failed": failed, "metrics": result_metrics}
    record = {"meta": full["meta"], "nproc": full["nproc"],
              "seed": args.seed, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "setups": w["setups"] if args.trace == 0 else 1,
              "errors": errors, "metrics": metrics, "summary": summary}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e}", file=sys.stderr)
        sys.exit(1)
