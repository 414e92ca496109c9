#!/usr/bin/env python3
"""Self-test of the benchmark: python3 f4tbench/selftest.py

Runs every workload run.py knows tiny (--tiny --seconds 1), untraced
and traced — echo_parallel_t2 too, which BENCHMARK.json does not list —
and checks that:
  - each run passes its correctness gate and prints every metric named
    in BENCHMARK.json, with its unit, on its own line and in the final
    JSON object;
  - the traced run's span file parses and its slice spans cover at
    least 90% of the window's wall time;
  - the command line rejects bad input (unknown workload, malformed
    numbers, a thread count above nproc) with a non-zero exit;
  - a directory holding only BENCHMARK.json and this directory exits
    non-zero without printing a result.
Exit code 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(HERE, "run.py")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def span_coverage(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    window = next(s for s in spans if s["name"] == "window")
    wid = spans.index(window)
    covered = sum(s["end_ns"] - s["start_ns"] for s in spans
                  if s["parent"] == wid)
    return covered / max(1, window["end_ns"] - window["start_ns"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            proc = run([RUN, "--workload", name, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--tiny"])
            tag = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit 0 "
                  f"(got {proc.returncode}) {proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                check(False, f"{tag}: last line is a JSON object")
                continue
            check(result.get("correct") is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: correct, no "
                  "failed operations")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{tag}: result keys")
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                printed = any(line.split()[:1] == [m["name"]] and
                              line.split()[-1] == m["unit"]
                              for line in lines[:-1])
                check(got.get("unit") == m["unit"] and printed,
                      f"{tag}: {m['name']} [{m['unit']}]")
            if trace:
                spans = os.path.join(BUILD, "runs",
                                     f"{name}-seed1-trace1.spans.json")
                try:
                    cov = span_coverage(spans)
                except (OSError, ValueError, KeyError, StopIteration) as e:
                    check(False, f"{tag}: span file parses ({e})")
                    continue
                check(cov >= 0.9, f"{tag}: slice spans cover "
                      f"{cov * 100:.2f}% of the window")

    bad_args = [
        ["--workload", "echo10k", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "kv_open_loop", "--seed", "1x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "kv_open_loop", "--seed", "1", "--seconds",
         "garbage", "--trace", "0"],
        ["--workload", "kv_open_loop", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        ["--workload", "kv_open_loop", "--seed", "1", "--seconds", "1"],
    ]
    for args in bad_args:
        proc = run([RUN] + args)
        check(proc.returncode != 0 and "usage" in proc.stderr,
              "run.py rejects " + " ".join(args))

    binary = os.path.join(BUILD, "release", "f4t_bench")
    nproc = os.cpu_count() or 1
    for args in (["--threads", str(nproc + 1)], ["--threads", "two"],
                 ["--seconds", "0"], ["--workload", "nope"],
                 ["--bogus"]):
        base = {"--workload": "kv_open_loop", "--seed": "1",
                "--seconds": "1", "--out": os.devnull}
        argv = [binary]
        for k, v in base.items():
            if k not in args:
                argv += [k, v]
        proc = subprocess.run(argv + args, capture_output=True, text=True,
                              timeout=60)
        check(proc.returncode == 2 and "usage" in proc.stderr,
              "f4t_bench rejects " + " ".join(args))

    # Only BENCHMARK.json and the benchmark's own files: no sources.
    bare = os.path.join(BUILD, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([os.path.join(bare, os.path.basename(HERE), "run.py"),
                "--workload", "kv_open_loop", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=bare)
    printed_result = proc.stdout.strip().startswith("{")
    check(proc.returncode != 0 and not printed_result,
          "a tree without the simulator sources exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
