#!/usr/bin/env python
"""Throughput trajectory reader for ``BENCH_HISTORY.jsonl``.

``repro bench`` appends one JSON record per run (config, git commit,
per-lane results); this tool renders the trajectory per lane so a perf
regression shows up as a dip against history rather than a single
number with no context.

The other harnesses append to the same history file, and each shows
up as one synthetic lane in every mode, named after its schema:
``repro-serve`` (``repro serve``/``repro deploy`` socket-lane
throughput), ``repro-soak`` (``repro run`` streamed-lane throughput)
and ``repro-retain`` (``repro retain`` rotation-smoke ingest
throughput).

Usage::

    python tools/bench_trend.py                      # all lanes
    python tools/bench_trend.py --lane key_increment
    python tools/bench_trend.py --lane repro-serve   # deployment lane
    python tools/bench_trend.py --lane repro-soak    # streaming soak lane
    python tools/bench_trend.py --lane repro-retain  # retention lane
    python tools/bench_trend.py --mode vectorized --last 10
"""

from __future__ import annotations

import argparse
import json
import sys

#: Synthetic lane (= schema prefix) -> the record section holding its
#: ``reports_per_sec``.
SYNTHETIC_LANES = {
    "repro-serve": "socket",
    "repro-soak": "streamed",
    "repro-retain": "retain",
}


def load_history(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    print(f"{path}:{line_no}: skipping bad record "
                          f"({exc})", file=sys.stderr)
    except FileNotFoundError:
        print(f"{path} not found — run `repro bench` first",
              file=sys.stderr)
    return records


def _schema_lane(record: dict) -> str | None:
    """The synthetic lane a non-bench record belongs to, if any."""
    lane = str(record.get("schema", "")).split("/", 1)[0]
    return lane if lane in SYNTHETIC_LANES else None


def _cell_rps(record: dict, lane: str, mode: str):
    if lane in SYNTHETIC_LANES:
        if _schema_lane(record) == lane:
            return record.get(SYNTHETIC_LANES[lane], {}).get(
                "reports_per_sec")
        return None
    cell = record.get("results", {}).get(lane, {}).get(mode)
    return cell.get("reports_per_sec") if cell else None


def render_trend(records: list[dict], *, lane: str | None = None,
                 mode: str = "batched", last: int = 0) -> str:
    if last > 0:
        records = records[-last:]
    lanes = sorted({name for record in records
                    for name in record.get("results", {})})
    present = {_schema_lane(record) for record in records}
    lanes += [name for name in SYNTHETIC_LANES if name in present]
    if lane:
        if lane not in lanes:
            return (f"lane '{lane}' not in history "
                    f"(have: {', '.join(lanes) or 'none'})")
        lanes = [lane]
    header = f"{'date':<10}{'commit':<10}"
    for name in lanes:
        header += f"{name:>16}"
    lines = [f"{mode} reports/sec", header, "-" * len(header)]
    previous: dict = {}
    for record in records:
        line = (f"{record.get('date', '?'):<10}"
                f"{record.get('commit', '?'):<10}")
        for name in lanes:
            rps = _cell_rps(record, name, mode)
            if rps is None:
                line += f"{'-':>16}"
                continue
            marker = ""
            if name in previous and previous[name]:
                delta = (rps - previous[name]) / previous[name]
                if delta <= -0.10:
                    marker = "!"  # >=10% regression vs previous run
            previous[name] = rps
            line += f"{rps:>15,.0f}{marker or ' '}"
        lines.append(line)
    if len(records) >= 2:
        lines.append("(! marks a >=10% drop from the previous record)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render the repro bench throughput trajectory")
    parser.add_argument("--history", default="BENCH_HISTORY.jsonl",
                        help="JSONL file written by `repro bench`")
    parser.add_argument("--lane", default=None,
                        help="single primitive to show")
    parser.add_argument("--mode", default="batched",
                        choices=("unbatched", "batched", "vectorized"),
                        help="which cell's throughput to plot")
    parser.add_argument("--last", type=int, default=0, metavar="N",
                        help="only the most recent N records")
    args = parser.parse_args(argv)
    records = load_history(args.history)
    if not records:
        return 1
    print(render_trend(records, lane=args.lane, mode=args.mode,
                       last=args.last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
