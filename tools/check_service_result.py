#!/usr/bin/env python3
"""Validate quclear-service-result/v1 JSONL output (docs/SERVICE.md).

Reads result lines from a file (or stdin) and checks every line against
the service contract: the schema tag, the envelope fields, the metric
groups on success lines, and the error-code table (including each
code's documented retryability) on error lines. Pure stdlib so CI can
run it anywhere Python 3 exists.

Usage:
    quclear_cli --serve < jobs.jsonl | python3 tools/check_service_result.py
    python3 tools/check_service_result.py --expect 4 results.jsonl
"""

import argparse
import json
import sys

SCHEMA = "quclear-service-result/v1"

# Mirrors the table in docs/SERVICE.md: code -> retryable.
ERROR_CODES = {
    "invalid-json": False,
    "invalid-job": False,
    "qasm-parse": False,
    "unsupported-gate": False,
    "unknown-benchmark": False,
    "io-error": False,
    "timeout": True,
    "queue-full": True,
    "internal": False,
}

SOURCES = {"qasm", "qasm_file", "benchmark"}

# Metric leaves every stats group must carry (results.input and
# results.quclear).
STATS_KEYS = {"gates", "cnot", "single_qubit", "depth", "total_depth"}


class Violation(Exception):
    pass


def require(cond, message):
    if not cond:
        raise Violation(message)


def is_uint(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_stats_group(group, name):
    require(isinstance(group, dict), f"results.{name} must be an object")
    for key in STATS_KEYS:
        require(is_uint(group.get(key)),
                f"results.{name}.{key} must be a non-negative integer")


def check_ok(doc):
    config = doc.get("config")
    require(isinstance(config, dict), "'config' must be an object")
    require(is_uint(config.get("threads")) and config["threads"] >= 1,
            "config.threads must be a positive integer")
    for key in ("local_opt", "commuting_blocks", "optimize_depth",
                "portfolio"):
        require(isinstance(config.get(key), bool),
                f"config.{key} must be a boolean")

    job = doc.get("job")
    require(isinstance(job, dict), "'job' must be an object")
    require(job.get("source") in SOURCES,
            f"job.source must be one of {sorted(SOURCES)}")
    require(is_uint(job.get("qubits")) and job["qubits"] >= 1,
            "job.qubits must be a positive integer")

    results = doc.get("results")
    require(isinstance(results, dict), "'results' must be an object")
    require("quclear" in results, "results.quclear is required")
    check_stats_group(results["quclear"], "quclear")
    require(is_uint(results["quclear"].get("clifford_tail")),
            "results.quclear.clifford_tail must be a non-negative integer")
    require(is_number(results["quclear"].get("seconds")),
            "results.quclear.seconds must be a number")
    # Benchmark jobs have no input circuit to report on.
    if job["source"] == "benchmark":
        require("input" not in results,
                "benchmark jobs must not carry results.input")
    else:
        require("input" in results,
                "qasm jobs must carry results.input")
        check_stats_group(results["input"], "input")
    if "noise" in results:
        noise = results["noise"]
        require(isinstance(noise, dict), "results.noise must be an object")
        for rate in ("p1", "p2"):
            require(is_number(noise.get(rate)) and 0.0 <= noise[rate] <= 1.0,
                    f"results.noise.{rate} must be a rate in [0, 1]")
        require(is_number(noise.get("optimized_success_probability")),
                "results.noise.optimized_success_probability is required")
        if "observable" in noise:
            value = noise.get("tail_expectation")
            require(is_number(value) and -1.0 <= value <= 1.0,
                    "results.noise.tail_expectation must be a number "
                    "in [-1, 1]")
            require(is_uint(noise.get("fault_sites")),
                    "results.noise.fault_sites must be a non-negative "
                    "integer")


def check_error(doc):
    error = doc.get("error")
    require(isinstance(error, dict), "'error' must be an object")
    code = error.get("code")
    require(code in ERROR_CODES,
            f"unknown error code {code!r} (not in docs/SERVICE.md)")
    require(error.get("retryable") is ERROR_CODES[code],
            f"error code {code!r} must have retryable="
            f"{ERROR_CODES[code]}")
    require(isinstance(error.get("message"), str) and error["message"],
            "error.message must be a non-empty string")


def check_line(line, index):
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise Violation(f"not valid JSON: {e}")
    require(isinstance(doc, dict), "result line must be a JSON object")
    require(doc.get("schema") == SCHEMA,
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    require(isinstance(doc.get("id"), str) and doc["id"],
            "'id' must be a non-empty string")
    require(is_uint(doc.get("seq")), "'seq' must be a non-negative integer")
    require(doc["seq"] == index,
            f"'seq' must equal the line index {index}, got {doc['seq']}")
    status = doc.get("status")
    require(status in ("ok", "error"), "'status' must be 'ok' or 'error'")
    if status == "ok":
        check_ok(doc)
    else:
        check_error(doc)


def main():
    parser = argparse.ArgumentParser(
        description="Validate quclear-service-result/v1 JSONL")
    parser.add_argument("path", nargs="?", default="-",
                        help="results file ('-' or absent = stdin)")
    parser.add_argument("--expect", type=int, default=None, metavar="N",
                        help="require exactly N result lines")
    args = parser.parse_args()

    stream = sys.stdin if args.path == "-" else open(args.path)
    failures = 0
    count = 0
    with stream:
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            try:
                check_line(line, count)
            except Violation as e:
                print(f"line {count}: {e}", file=sys.stderr)
                failures += 1
            count += 1

    if args.expect is not None and count != args.expect:
        print(f"expected {args.expect} result lines, got {count}",
              file=sys.stderr)
        failures += 1

    if failures:
        print(f"{failures} violation(s) in {count} line(s)",
              file=sys.stderr)
        return 1
    print(f"{count} result line(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
