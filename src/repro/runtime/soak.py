"""Sustained-throughput soak runs behind ``repro run``.

Drives the streaming engine (:mod:`repro.runtime.engine`) with a
seeded :mod:`repro.bench` workload for a wall-clock duration (or a
fixed report count) on the vectorized lane, then replays exactly the
submitted prefix through the scalar reference lane and holds the two
runs to the determinism contract: identical collector store bytes,
identical non-``runtime.*`` obs digests, zero report loss, and —
outside smoke mode — vectorized throughput at least
:data:`THROUGHPUT_GATE` times the scalar reference.

The serial baseline is deliberately the *scalar* reference path (the
same inline engine with vectorization off): that is the
line-by-line-auditable semantics every digest gate is anchored to, so
one serial run serves as both the correctness oracle and the speedup
denominator (see ``docs/BENCHMARKS.md``, "Soak lane").

Each run appends one ``repro-soak/3`` record to ``BENCH_HISTORY.jsonl``
via :func:`repro.bench.append_history`, alongside the ``repro-bench/2``
records — readers distinguish lanes by the ``schema`` field.  Older
``/2`` records also carry the thread-stage-group settings
(``workers``, ``queue_depth``, per-queue high watermarks) from before
the engine became inline-only (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import time

from repro import bench, obs
from repro.core.batch import ReportBatch
from repro.runtime.engine import StreamEngine, pipeline_digest, store_digest

SOAK_SCHEMA = "repro-soak/3"
#: Vectorized reports/sec must beat the scalar reference by this factor.
THROUGHPUT_GATE = 1.5


def _make_batch(primitive: str, work: dict, s: int, e: int) -> ReportBatch:
    """One workload slice as a batch (mirrors ``bench._run_batched``)."""
    if primitive == "key_write":
        return ReportBatch.key_writes(work["keys"][s:e], work["datas"][s:e],
                                      redundancy=2)
    if primitive == "key_increment":
        return ReportBatch.key_increments(work["keys"][s:e],
                                          work["values"][s:e], redundancy=2)
    if primitive == "postcarding":
        return ReportBatch.postcards(
            work["keys"][s:e], work["hops"][s:e], work["values"][s:e],
            path_lengths=work["path_lengths"][s:e], redundancy=1)
    if primitive == "sketch_merge":
        return ReportBatch.sketch_columns(0, work["columns"][s:e],
                                          work["counter_rows"][s:e])
    return ReportBatch.appends(work["list_ids"][s:e], work["datas"][s:e])


def run_lane(primitive: str, work: dict, *, vectorized: bool = True,
             batch_size: int = 64, sketch_width: int = 0,
             duration: float | None = None,
             rate: float | None = None) -> dict:
    """One soak lane on a fresh deployment; returns its measurements.

    ``sketch_width`` must be the *full* workload size for both lanes of
    a comparison — store digests cover the whole region, so the lanes
    must deploy identically even when one submits a shorter prefix.
    """
    n = len(next(iter(work.values())))
    registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False, sketch_width=sketch_width)
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=vectorized, name="soak")
    submitted = 0
    try:
        start = time.monotonic()
        deadline = start + duration if duration else None
        engine.start()
        for s in range(0, n, batch_size):
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                break
            if rate and submitted:
                # Open-loop pacing: sleep off any lead over the target.
                lead = submitted / rate - (now - start)
                if lead > 0:
                    time.sleep(lead)
            e = min(s + batch_size, n)
            engine.submit(_make_batch(primitive, work, s, e))
            submitted += e - s
        engine.drain()
        elapsed = time.monotonic() - start
        snapshot = registry.snapshot()
    finally:
        engine.close()
        obs.set_registry(previous)
    link = engine.link.stats
    drops = {
        "link_drops": link.drops,
        "shed_by_congestion": reporter.stats.shed_by_congestion,
        "dropped_while_crashed": translator.stats.dropped_while_crashed,
        "reports_sent": reporter.stats.reports_sent,
        "reports_in": translator.stats.reports_in,
    }
    zero_loss = (submitted == reporter.stats.reports_sent
                 == translator.stats.reports_in
                 and link.drops == 0
                 and translator.stats.dropped_while_crashed == 0)
    return {
        "vectorized": bool(vectorized),
        "submitted": submitted,
        "elapsed_s": round(elapsed, 6),
        "reports_per_sec": (round(submitted / elapsed, 1)
                            if elapsed else None),
        "obs_digest": pipeline_digest(snapshot),
        "store_digest": store_digest(collector),
        "drops": drops,
        "zero_loss": zero_loss,
    }


def run_soak(*, primitive: str = "key_write", reports: int = 120_000,
             batch_size: int = 64, seed: int = 1,
             duration: float | None = None, rate: float | None = None,
             smoke: bool = False, date: str = "unknown") -> dict:
    """Vectorized soak + scalar reference replay; returns the document.

    The streamed (vectorized) lane runs first (optionally duration-bounded and
    rate-paced); the serial lane then replays exactly the prefix the
    streamed lane actually submitted.  Bench workload columns are *not*
    prefix-stable across different generation sizes (the RNG is drained
    per column), so the prefix is taken by truncating the one generated
    workload, never by regenerating it smaller.
    """
    work = bench._workload(primitive, reports, seed)
    sketch_width = reports if primitive == "sketch_merge" else 0
    streamed = run_lane(primitive, work, vectorized=True,
                        batch_size=batch_size, sketch_width=sketch_width,
                        duration=duration, rate=rate)
    prefix = {key: column[:streamed["submitted"]]
              for key, column in work.items()}
    serial = run_lane(primitive, prefix, vectorized=False,
                      batch_size=batch_size,
                      sketch_width=sketch_width)

    digest_match = (streamed["obs_digest"] == serial["obs_digest"]
                    and streamed["store_digest"] == serial["store_digest"])
    speedup = None
    if streamed["reports_per_sec"] and serial["reports_per_sec"]:
        speedup = round(streamed["reports_per_sec"]
                        / serial["reports_per_sec"], 2)
    gates = [
        {"gate": "streamed digests match serial", "value": digest_match,
         "threshold": True, "pass": digest_match},
        {"gate": "zero report loss", "value": streamed["zero_loss"],
         "threshold": True, "pass": streamed["zero_loss"]},
    ]
    if not smoke:
        gates.append({"gate": "streamed vs serial speedup",
                      "value": speedup, "threshold": THROUGHPUT_GATE,
                      "pass": (speedup is not None
                               and speedup >= THROUGHPUT_GATE)})
    return {
        "schema": SOAK_SCHEMA,
        "date": date,
        "config": {"primitive": primitive, "reports": reports,
                   "batch_size": batch_size, "seed": seed,
                   "duration_s": duration, "rate": rate, "smoke": smoke,
                   "throughput_gate": THROUGHPUT_GATE},
        "streamed": streamed,
        "serial": serial,
        "speedup": speedup,
        "gates": gates,
        "pass": all(gate["pass"] for gate in gates),
    }


def render_soak(document: dict) -> str:
    """Human-readable summary of a SOAK document."""
    streamed = document["streamed"]
    serial = document["serial"]
    config = document["config"]
    lines = [
        f"soak: {config['primitive']} x{streamed['submitted']} "
        f"(batch {config['batch_size']}, seed {config['seed']})",
        f"  streamed  vectorized "
        f"{streamed['reports_per_sec'] or 0:>12,.0f} rps  "
        f"({streamed['elapsed_s']:.3f}s)",
        f"  serial    scalar     "
        f"{serial['reports_per_sec'] or 0:>12,.0f} rps  "
        f"({serial['elapsed_s']:.3f}s)",
    ]
    if document["speedup"] is not None:
        lines.append(f"  speedup   {document['speedup']:.2f}x")
    for gate in document["gates"]:
        verdict = "pass" if gate["pass"] else "FAIL"
        lines.append(f"  gate: {gate['gate']} "
                     f"(value {gate['value']}, need {gate['threshold']}) "
                     f"-> {verdict}")
    lines.append(f"overall: {'PASS' if document['pass'] else 'FAIL'}")
    return "\n".join(lines)
