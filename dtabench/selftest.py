"""Toy-size self-test of the benchmark itself.

Run from the root of a source checkout::

    python3 dtabench/selftest.py

For every workload it runs ``run.py --tiny`` untraced and traced, then
checks that the last output line follows the result schema with the
metric names and units of ``BENCHMARK.json``, that the written record
carries the host fingerprint and a sample count beside each
percentile, that every span lies inside its parent and carries a batch
id when the benchmark set one, and that per-layer self times add up to
the traced wall time within 10%.  Finally it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and ``dtabench/`` and
expects a non-zero exit with no result line.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".dtabench", "selftest")
HOST_KEYS = {"nproc", "cpu_model", "python", "numpy", "git_commit",
             "source_sha256"}
PERCENTILES = ("apply_p50_us", "apply_p99_us", "query_tick_p50_ms",
               "query_tick_p90_ms")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload: str, trace: int, cwd: str = ".") -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join("dtabench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(line: str, declared: list, label: str) -> dict:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']!r}")
    check(result["failed"] == 0, f"{label}: failed {result['failed']}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    check(set(result["metrics"]) == set(units),
          f"{label}: metric names differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        check(set(entry) == {"value", "unit"}, f"{label}: {name} keys")
        check(isinstance(entry["value"], (int, float))
              and not isinstance(entry["value"], bool),
              f"{label}: {name} value {entry['value']!r}")
        check(entry["unit"] == units[name], f"{label}: {name} unit")
    return result


def check_spans(path: str, label: str) -> None:
    spans = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            span = json.loads(line)
            spans[span["id"]] = span
    check(spans, f"{label}: no spans recorded")
    for span in spans.values():
        check(span["end_ns"] >= span["start_ns"], f"{label}: {span}")
        parent = span["parent"]
        if parent is None:
            continue
        outer = spans.get(parent)
        check(outer is not None, f"{label}: span {span['id']} orphaned")
        check(outer["start_ns"] <= span["start_ns"]
              and span["end_ns"] <= outer["end_ns"],
              f"{label}: span {span['id']} outside its parent")
        check(span["batch"] == outer["batch"],
              f"{label}: span {span['id']} batch differs from parent")
    check(any(span["batch"] is not None for span in spans.values()),
          f"{label}: no span carries a batch id")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as spec:
        bench = json.load(spec)
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            code, out, err = run(workload, trace)
            check(code == 0, f"{label}: exit {code}\n{err[-2000:]}")
            result = check_result(out.strip().splitlines()[-1], declared,
                                  label)
            stem = os.path.join(".dtabench",
                                f"{workload}-seed7-trace{trace}")
            with open(stem + ".json", encoding="utf-8") as saved:
                record = json.load(saved)
            check(set(record["host"]) == HOST_KEYS, f"{label}: host keys")
            if trace:
                check_spans(stem + ".spans.jsonl", label)
                coverage = result["metrics"]["trace.coverage"]["value"]
                check(0.9 <= coverage <= 1.1,
                      f"{label}: self times cover {coverage:.3f} of wall")
            else:
                for name in PERCENTILES:
                    check(record["metrics"][name].get("samples", 0) > 0,
                          f"{label}: {name} without a sample count")
            print(f"ok  {label}")

    # A directory with only the benchmark's own files must fail.
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    shutil.copy("BENCHMARK.json", WORK)
    shutil.copytree(HERE, os.path.join(WORK, "dtabench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _err = run(bench["workloads"][0]["name"], 0, cwd=WORK)
    check(code != 0, "bare directory: exit 0")
    check('"correct"' not in out, "bare directory printed a result")
    shutil.rmtree(WORK)
    print("ok  bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
