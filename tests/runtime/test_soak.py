"""The soak harness and its ``repro run`` CLI surface.

Correctness-shaped checks only: gates fire on digest or loss
violations, the document schema is stable, the history file accretes.
Throughput numbers are machine-dependent, so the speedup gate is only
asserted to *exist* outside smoke mode, never to pass here.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.runtime import SOAK_SCHEMA, render_soak, run_soak

REPORTS = 1500


def test_run_soak_smoke_document_shape_and_gates():
    document = run_soak(primitive="key_write", reports=REPORTS,
                        smoke=True, seed=9)
    assert document["schema"] == SOAK_SCHEMA
    assert document["streamed"]["submitted"] == REPORTS
    assert document["serial"]["submitted"] == REPORTS
    assert (document["streamed"]["obs_digest"]
            == document["serial"]["obs_digest"])
    assert (document["streamed"]["store_digest"]
            == document["serial"]["store_digest"])
    gate_names = {gate["gate"] for gate in document["gates"]}
    assert gate_names == {"streamed digests match serial",
                          "zero report loss"}
    assert document["pass"] is True
    assert "overall: PASS" in render_soak(document)


def test_run_soak_full_mode_includes_throughput_gate():
    document = run_soak(primitive="key_write", reports=REPORTS,
                        smoke=False, seed=9)
    gate_names = {gate["gate"] for gate in document["gates"]}
    assert "streamed vs serial speedup" in gate_names
    assert document["config"]["throughput_gate"] == 1.5


def test_run_soak_duration_truncates_and_serial_replays_prefix():
    """A tiny duration cap stops the streamed lane early; the serial
    lane must replay exactly the submitted prefix (same digests)."""
    document = run_soak(primitive="key_increment", reports=200_000,
                        duration=0.05, smoke=True, seed=9)
    submitted = document["streamed"]["submitted"]
    assert 0 < submitted < 200_000
    assert document["serial"]["submitted"] == submitted
    assert document["pass"] is True


def test_cli_run_smoke_appends_history(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    out = tmp_path / "soak.json"
    code = main(["run", "--reports", str(REPORTS), "--smoke",
                 "--history", str(history), "--out", str(out)])
    assert code == 0
    lines = history.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["schema"] == SOAK_SCHEMA
    assert "commit" in record
    document = json.loads(out.read_text())
    assert document["pass"] is True
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_run_rejects_unknown_primitive(tmp_path):
    assert main(["run", "--primitive", "nope", "--smoke",
                 "--history", str(tmp_path / "h.jsonl")]) == 2

