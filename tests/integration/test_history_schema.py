"""Schema checks on every ``BENCH_HISTORY.jsonl`` record.

Each harness appends its own record shape to the shared history file,
told apart by the ``schema`` field.  These tests pin the required keys
per schema prefix (and per version where a version dropped fields),
and the shape of the gates list, for every committed record and for a
fresh toy ``run_soak`` record written through the same append path.

Two gate shapes predate the canonical ``{gate, value, threshold,
pass}`` dict: ``repro-serve`` records carry ``[label, pass]`` pairs
and ``repro-retain/1`` records carry ``{gate, pass}`` dicts.  Committed
history is never rewritten, so those shapes stay accepted for exactly
those schemas.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import bench
from repro.runtime import SOAK_SCHEMA, run_soak

_HISTORY = (pathlib.Path(__file__).resolve().parents[2]
            / "BENCH_HISTORY.jsonl")

#: Schema prefix -> keys every record of that lane carries.
REQUIRED = {
    "repro-bench": {"schema", "date", "config", "results", "gates",
                    "pass"},
    "repro-soak": {"schema", "date", "config", "streamed", "serial",
                   "speedup", "gates", "pass"},
    "repro-serve": {"schema", "date", "config", "socket", "gates",
                    "pass"},
    "repro-retain": {"schema", "config", "retain", "checkpoint", "gates",
                     "pass"},
}

#: Soak config keys per version.  ``/3`` dropped the thread-stage-group
#: settings along with the thread stage groups themselves; some ``/2``
#: records also carry an ``executor`` field from the process lane.
SOAK_CONFIG = {"primitive", "reports", "batch_size", "seed", "duration_s",
               "rate", "smoke", "throughput_gate"}
SOAK_V2_CONFIG = SOAK_CONFIG | {"queue_depth", "workers"}

#: Keys of one soak lane (``streamed``/``serial``) in a ``/3`` record.
SOAK_LANE = {"vectorized", "submitted", "elapsed_s", "reports_per_sec",
             "obs_digest", "store_digest", "drops", "zero_loss"}

GATE_KEYS = {"gate", "value", "threshold", "pass"}


def _gate_passes(prefix: str, gates) -> list:
    """Validate the gates list's shape; return each gate's verdict."""
    assert isinstance(gates, list) and gates
    if prefix == "repro-serve":
        for gate in gates:
            assert isinstance(gate, list) and len(gate) == 2, gate
            assert isinstance(gate[0], str)
        return [gate[1] for gate in gates]
    keys = {"gate", "pass"} if prefix == "repro-retain" else GATE_KEYS
    for gate in gates:
        assert isinstance(gate, dict) and set(gate) == keys, gate
        assert isinstance(gate["gate"], str)
    return [gate["pass"] for gate in gates]


def validate_record(record: dict) -> None:
    schema = record["schema"]
    prefix, _, version = schema.partition("/")
    assert prefix in REQUIRED, f"unknown schema {schema!r}"
    assert version.isdigit(), schema
    missing = REQUIRED[prefix] - set(record)
    assert not missing, (schema, sorted(missing))
    verdicts = _gate_passes(prefix, record["gates"])
    assert all(isinstance(verdict, bool) for verdict in verdicts)
    assert record["pass"] == all(verdicts), schema
    if schema == "repro-soak/2":
        assert SOAK_V2_CONFIG <= set(record["config"]) \
            <= SOAK_V2_CONFIG | {"executor"}
    elif prefix == "repro-soak":
        assert set(record["config"]) == SOAK_CONFIG, schema
        for lane in ("streamed", "serial"):
            assert set(record[lane]) == SOAK_LANE, (schema, lane)


def _committed_records() -> list:
    lines = _HISTORY.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


@pytest.mark.parametrize("index", range(len(_committed_records())))
def test_committed_history_record_matches_its_schema(index):
    record = _committed_records()[index]
    validate_record(record)
    assert "commit" in record


def test_fresh_soak_record_matches_its_schema(tmp_path):
    document = run_soak(primitive="key_write", reports=256, smoke=True,
                        seed=3)
    history = tmp_path / "history.jsonl"
    bench.append_history(document, str(history))
    (record,) = [json.loads(line)
                 for line in history.read_text().splitlines()]
    assert record["schema"] == SOAK_SCHEMA == "repro-soak/3"
    validate_record(record)
    assert record["pass"] is True
