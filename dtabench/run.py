"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 dtabench/run.py --workload kw_ingest --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it runs a fixed number of passes
untraced, then the same number traced, and reports the per-layer
metrics of the traced half plus the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (host fingerprint, sample counts, every metric) and,
with tracing, every span go to ``.dtabench/`` in the checkout.

The exit code is 0 only when every pass matched its reference and
every attempted report landed.  The package is imported from ``src/``
of the current directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

OUT_DIR = ".dtabench"

#: Nominal pass length per workload, in seconds; ``--trace 1`` runs
#: ``seconds / 2 / nominal`` passes per half, so the traced work is a
#: function of the arguments only and its counts repeat exactly.
NOMINAL_PASS_S = {"kw_ingest": 0.45, "mixed_serve": 1.7,
                  "socket_lossy": 0.75}


def import_repro() -> None:
    """Import ``repro`` from ``./src``; exit 2 if the checkout lacks it."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"dtabench: cannot import repro from {src}: "
                         f"{exc}\n")
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"dtabench: repro resolved outside {src}\n")
        sys.exit(2)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fingerprint() -> dict:
    """Host and source identity stamped on every record."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(os.path.join("src", "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def run_passes(workload, passes, tracer, deadline=None):
    """Run passes until ``passes`` are done or ``deadline`` passes."""
    from workloads import clock, pin_to_fastest_cpu

    results = []
    while True:
        if deadline is not None and results and clock() >= deadline:
            break
        if passes is not None and len(results) >= passes:
            break
        pin_to_fastest_cpu()
        if tracer is not None:
            tracer.active = True
        results.append(workload.run_pass(tracer))
        if tracer is not None:
            tracer.active = False
    return results


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory may have started.

    ``multiprocessing`` starts it on first use of a shared segment and
    would otherwise leave it to exit on its own after this process.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# Passes repeat identical work: batch i (a chunk on the socket lane)
# and tick j carry the same inputs and see the same store in every
# pass.  A shared host's interference only ever adds time, in stretches
# of seconds that cover more or less of a run, so every pooled figure
# jumps between a fast and a slow mode from run to run.  Each batch and
# each tick is therefore timed as its fastest repetition over the
# passes -- what the program itself costs on it -- and the percentiles
# are taken over batches and ticks.  Tails that belong to the program
# (rotation batches, heavy ticks) repeat in every pass and stay in.


def best_per_unit(results, samples: str) -> list:
    """Fastest time of each batch or tick position over the passes."""
    return [min(times) for times in zip(*(getattr(r, samples)
                                            for r in results))]


def end_to_end(results) -> tuple:
    """The end-to-end metric values and their sample counts."""
    apply_s = best_per_unit(results, "apply_s")
    tick_s = best_per_unit(results, "tick_s")
    metrics = {
        "ingest_rps": (statistics.median(r.ingest_reports for r in results)
                       / sum(apply_s)),
        "apply_p50_us": percentile(apply_s, 50) * 1e6,
        "apply_p99_us": percentile(apply_s, 99) * 1e6,
        "query_tick_p50_ms": percentile(tick_s, 50) * 1e3,
        "query_tick_p90_ms": percentile(tick_s, 90) * 1e3,
        "setup_s": statistics.median(r.setup_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
    }
    batches = len(apply_s) * len(results)
    ticks = len(tick_s) * len(results)
    samples = {"ingest_rps": batches, "apply_p50_us": batches,
               "apply_p99_us": batches, "query_tick_p50_ms": ticks,
               "query_tick_p90_ms": ticks, "setup_s": len(results),
               "peak_rss_mb": len(results)}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy-size inputs (the self-test)")
    args = parser.parse_args(argv)
    # BENCHMARK.json is the one list of metric names and units.
    with open("BENCHMARK.json", encoding="utf-8") as spec:
        declared = json.load(spec)["per_layer" if args.trace
                                   else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    import_repro()
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, clock

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have {', '.join(WORKLOADS)})")
    host = fingerprint()
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workload.prepare()
    # The inputs and references live for the whole run; keep the cyclic
    # collector from rescanning them inside timed regions.
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        per_half = max(2, round(args.seconds / 2
                                / NOMINAL_PASS_S[args.workload]))
        untraced = run_passes(workload, per_half, None)
        tracer = Tracer()
        layers.install(tracer)
        try:
            results = run_passes(workload, per_half, tracer)
        finally:
            tracer.unwrap()
        wall_ms = sum(r.wall_s for r in results) * 1e3
        metrics = layers.layer_metrics(tracer, wall_ms)
        rps_plain = end_to_end(untraced)[0]["ingest_rps"]
        rps_traced = end_to_end(results)[0]["ingest_rps"]
        metrics["trace.ingest_rps_untraced"] = rps_plain
        metrics["trace.ingest_rps_traced"] = rps_traced
        metrics["trace.overhead"] = rps_plain / rps_traced - 1.0
        samples = {}
        results = untraced + results
    else:
        results = run_passes(workload, None, None,
                             deadline=clock() + args.seconds)
        metrics, samples = end_to_end(results)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} "
                           "differ from BENCHMARK.json")

    stop_resource_tracker()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    drops = sum(r.injected_drops for r in results)
    mismatches = sorted({m for r in results for m in r.mismatches})
    correct = not mismatches and failed == 0

    record = {
        "schema": "dtabench/1",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "host": host, "passes": len(results),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "injected_drops": drops, "mismatches": mismatches,
        **({"layer_targets": layers.TARGETS} if args.trace else {}),
        "metrics": {name: {"value": value, "unit": units[name],
                           **({"samples": samples[name]}
                              if name in samples else {})}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print(f"host: {json.dumps(host)}")
    print(f"{args.workload} seed={args.seed}: {len(results)} passes, "
          f"{attempted} reports attempted, {failed} failed "
          f"(fail_ratio {record['fail_ratio']:.6f}), "
          f"{drops} injected shim drops (not failures)")
    for name, entry in record["metrics"].items():
        count = (f"  (n={entry['samples']} over {len(results)} passes)"
                 if "samples" in entry else "")
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}{count}")
    for mismatch in mismatches:
        print(f"  MISMATCH: {mismatch}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
