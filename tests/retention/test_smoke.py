"""The ``repro retain`` smoke harness at toy size."""

from __future__ import annotations

from repro.retention.smoke import RETAIN_SCHEMA, run_retain


def test_run_retain_toy_document_passes(tmp_path):
    document = run_retain(epochs=4, reports_per_epoch=64,
                          ckpt_dir=str(tmp_path / "ckpt"))
    assert document["schema"] == RETAIN_SCHEMA == "repro-retain/1"
    assert document["pass"] is True
