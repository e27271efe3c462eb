#!/usr/bin/env python3
"""Repository benchmark: build the QuCLEAR library from source, run one
workload, check its outputs, and print the result.

Usage (from the repository root):
    python3 perfbench/run.py --workload compile-mid --seed 7 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run metadata. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, with `--trace 1` the per-layer metrics. Every
run is also appended to .bench_build/results/results.jsonl for
perfbench/compare.py. The exit code is 0 when every check passed, 1 when
a check failed, and 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ("compile-mid", "compile-large", "map-device", "serve-mix")
# Every run must end within 180 s; keep a margin for the wrapper.
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} is missing")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then bring perfbench and quclear_cli up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "core" / "quclear.hpp").is_file():
        die(f"no QuCLEAR source tree around {HERE}; nothing to benchmark")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
           "--target", "perfbench", "quclear_cli"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return BUILD / "perfbench", BUILD / "quclear" / "quclear_cli"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return os.environ.get("QUCLEAR_GIT_SHA", "unknown")


def run_program(program, cli, workload, seed, seconds, trace, extra=(),
                timeout=RUN_TIMEOUT_S):
    """Run the perfbench program; return (meta, result) or die."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--cli", str(cli), "--out-dir", str(RESULTS), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {timeout} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        die(f"{workload}: perfbench failed (exit {proc.returncode})")
    meta = json.loads(lines[-2])["meta"]
    return meta, json.loads(lines[-1])


def check_service_lines(meta, result):
    """Validate serve-mix result lines with the repository's checker."""
    path = meta.get("service_lines")
    if not path:
        return
    count = int(meta["service_line_count"])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_service_result.py"),
         "--expect", str(count), path],
        capture_output=True, text=True)
    violations = 0
    if proc.returncode != 0:
        found = re.search(r"(\d+) violation", proc.stderr)
        violations = int(found.group(1)) if found else 1
        sys.stderr.write(proc.stderr[-2000:])
    result["attempted"] += count
    result["failed"] += violations
    os.remove(path)


def finalize(spec, result, trace):
    """Keep exactly the metrics BENCHMARK.json names for this mode.

    Every one must come from the program: a workload reports the layers
    it does not run as 0 itself, so a missing metric is an error.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            die(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    result["correct"] = bool(result["correct"]) and result["failed"] == 0
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_once(spec, program, cli, workload, seed, seconds, trace, extra=()):
    RESULTS.mkdir(parents=True, exist_ok=True)
    meta, raw = run_program(program, cli, workload, seed, seconds, trace,
                            extra)
    return complete(spec, meta, raw, trace)


def complete(spec, meta, raw, trace):
    """Add the service-line checks and the metadata; keep the named
    metrics."""
    check_service_lines(meta, raw)
    result = finalize(spec, raw, trace)
    meta["git_sha"] = git_sha()
    meta["failed_frac"] = result["failed"] / max(1, result["attempted"])
    return meta, result


def selftest(spec, program, cli):
    """Smoke mode: tiny instances, every metric present with its unit,
    and a corrupted U' caught by the output check."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            RESULTS.mkdir(parents=True, exist_ok=True)
            meta, raw = run_program(program, cli, workload, 1, 0.5, trace,
                                    ["--smoke"])
            # The program's own metrics, before finalize() sees them.
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in wanted
                       if raw["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            for name in missing:
                problems.append(f"{workload} trace={int(trace)}: {name} "
                                f"missing or with the wrong unit")
            if missing:
                continue
            _, result = complete(spec, meta, raw, trace)
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: checks "
                                f"failed on correct code")
            print(f"selftest {workload} trace={int(trace)}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")
    meta, result = run_once(spec, program, cli, "compile-mid", 1, 0.5, False,
                            ["--smoke", "--corrupt"])
    print(f"selftest corrupted U': failed_frac={meta['failed_frac']:.3f}")
    if result["failed"] == 0 or result["correct"]:
        problems.append("a corrupted U' (last gate dropped) was not caught")
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print("selftest", "FAILED" if problems else "OK")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload and the corrupted-"
                             "output check")
    args = parser.parse_args()

    spec = load_spec()
    program, cli = build()
    if args.selftest:
        return selftest(spec, program, cli)
    if args.workload is None:
        die("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    meta, result = run_once(spec, program, cli, args.workload, args.seed,
                            seconds, bool(args.trace))
    with open(RESULTS / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "time": time.time(),
                            "meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
