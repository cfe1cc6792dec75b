"""The history trend reader renders every record schema it meets.

``tools/bench_trend.py`` is stdlib-only and importable; these tests feed
it synthetic records of the shapes ``repro bench``, ``repro run`` and
``repro serve`` append, and check that each lands a number in its own
column rather than ``-``.
"""

from __future__ import annotations

import importlib.util
import pathlib

_TOOL = (pathlib.Path(__file__).resolve().parents[2]
         / "tools" / "bench_trend.py")
_spec = importlib.util.spec_from_file_location("bench_trend", _TOOL)
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)

_HISTORY = [
    {"schema": "repro-bench/2", "date": "20260801", "commit": "aaaaaaa",
     "results": {"key_write": {"batched": {"reports_per_sec": 100000.0}}}},
    {"schema": "repro-soak/2", "date": "20260802", "commit": "bbbbbbb",
     "streamed": {"reports_per_sec": 250000.0},
     "serial": {"reports_per_sec": 80000.0}},
    {"schema": "repro-serve/2", "date": "20260803", "commit": "ccccccc",
     "socket": {"reports_per_sec": 300000.0}},
    {"schema": "repro-soak/3", "date": "20260804", "commit": "ddddddd",
     "streamed": {"reports_per_sec": 400000.0},
     "serial": {"reports_per_sec": 90000.0}},
]


def _columns(text: str) -> dict:
    """Header name -> the cells below it, one per record line."""
    lines = text.splitlines()
    header = lines[1].split()
    rows = [line.split() for line in lines[3:3 + len(_HISTORY)]]
    return {name: [row[i] for row in rows]
            for i, name in enumerate(header)}


def test_mixed_history_puts_soak_throughput_in_its_lane():
    columns = _columns(trend.render_trend(_HISTORY))
    assert columns["repro-soak"] == ["-", "250,000", "-", "400,000"]
    assert columns["repro-serve"] == ["-", "-", "300,000", "-"]
    assert columns["key_write"] == ["100,000", "-", "-", "-"]


def test_soak_lane_selectable_alone():
    """``/2`` (thread-stage-group era) and ``/3`` (inline-only) soak
    records share one lane."""
    text = trend.render_trend(_HISTORY, lane="repro-soak")
    assert _columns(text)["repro-soak"] == ["-", "250,000", "-", "400,000"]
