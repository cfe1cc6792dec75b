"""QueryServer epochs, digest hygiene, and the ``repro query`` CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.queries import QueryServer, algebra
from repro.runtime.engine import pipeline_digest

FLOW = b"Q" * 13


class TestQueryServer:
    def test_register_requires_a_plan(self, rig):
        col, _tr, _rep = rig
        server = QueryServer(col)
        with pytest.raises(TypeError, match="wants a Plan"):
            server.register("bogus", lambda: None)

    def test_tick_evaluates_every_registered_plan(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        server = QueryServer(col)
        server.register("values", algebra.keywrite_values(
            [FLOW], redundancy=2))
        server.register("counts", algebra.counter_estimates([FLOW]))
        tick = server.tick()
        assert tick.epoch == 1 and server.epoch == 1
        assert set(tick.results) == {"values", "counts"}
        assert tick["values"].rows[0]["found"]
        second = server.tick()
        assert second.epoch == 2
        assert server.last is second

    def test_unregister_and_listing(self, rig):
        col, _tr, _rep = rig
        server = QueryServer(col)
        server.register("a", algebra.literal_rows([]))
        server.register("b", algebra.literal_rows([]))
        assert server.queries == ["a", "b"]
        server.unregister("a")
        assert server.queries == ["b"]

    def test_cost_report_schema(self, rig):
        col, _tr, _rep = rig
        server = QueryServer(col)
        server.register("noop", algebra.literal_rows([{"x": 1}]))
        server.tick()
        report = server.cost_report()
        assert report["schema"] == "repro-query-costs/1"
        assert report["epochs"] == 1
        entry = report["queries"]["noop"]
        assert entry["executions"] == 1 and entry["rows_out"] == 1

    def test_wall_time_never_perturbs_the_pipeline_digest(self, rig):
        """queries.wall_ns is wall-clock; the digest must ignore it
        (and only it) so serving never breaks the determinism gates."""
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        server = QueryServer(col)
        server.register("values", algebra.keywrite_values(
            [FLOW], redundancy=2))
        server.tick()
        before = pipeline_digest(obs.get_registry().snapshot())
        obs.get_registry().histogram(
            "queries.wall_ns", query="values").observe(10 ** 9)
        after = pipeline_digest(obs.get_registry().snapshot())
        assert before == after
        obs.get_registry().counter(
            "queries.executed", query="values").inc()
        assert pipeline_digest(obs.get_registry().snapshot()) != before


class TestCli:
    def test_list_prints_the_catalog(self, capsys):
        assert main(["query", "--list", "--reports", "64"]) == 0
        out = capsys.readouterr().out
        for name in ("value_table", "top_counters", "heavy_keys",
                     "append_volume", "paths", "health_join"):
            assert name in out

    def test_oneshot_reports_results_and_costs(self, capsys):
        assert main(["query", "--reports", "160"]) == 0
        out = capsys.readouterr().out
        assert "zero_loss=True" in out
        assert "rows_scanned" in out

    def test_serve_ticks_each_epoch(self, capsys):
        assert main(["query", "--reports", "160", "--serve", "2"]) == 0
        out = capsys.readouterr().out
        assert "epoch   1" in out and "epoch   2" in out
        assert "served 2 epochs" in out

    def test_smoke_gate_passes_and_writes_artifact(self, tmp_path,
                                                   capsys):
        artifact = tmp_path / "query-costs.json"
        assert main(["query", "--reports", "160", "--smoke",
                     "--cost-out", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        document = json.loads(artifact.read_text())
        assert document["schema"] == "repro-query-costs/1"
        assert document["mode"] == "smoke"
        assert document["pass"] is True
        assert document["store_digest"].startswith("sha256:")
        assert {gate["gate"] for gate in document["gates"]} \
            >= {"store digests match", "zero report loss"}
