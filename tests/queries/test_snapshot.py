"""Snapshot isolation: frozen views, digest equality, batch boundaries."""

from __future__ import annotations

import pytest

from repro.core.collector import Collector
from repro.queries import snapshot_of
from repro.runtime.engine import store_digest

FLOW = b"Q" * 13


class TestIsolation:
    def test_snapshot_does_not_see_later_writes(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"before" + b"\0" * 14, redundancy=2)
        snap = snapshot_of(col)
        rep.key_write(FLOW, b"after!" + b"\0" * 14, redundancy=2)
        assert snap.query_value(FLOW).value.startswith(b"before")
        assert col.query_value(FLOW).value.startswith(b"after!")

    def test_snapshot_covers_every_provisioned_store(self, rig):
        col, _tr, rep = rig
        rep.postcard(FLOW, 0, 42, path_length=1)
        rep.key_increment(FLOW, 5, redundancy=4)
        snap = snapshot_of(col)
        rep.postcard(FLOW, 0, 43, path_length=1)  # perturb live store
        rep.key_increment(FLOW, 90, redundancy=4)
        assert snap.query_path(FLOW) == [42]
        assert snap.query_counter(FLOW, redundancy=4) == 5
        assert col.query_counter(FLOW, redundancy=4) == 95

    def test_unprovisioned_services_stay_none(self):
        col = Collector()
        col.serve_keywrite(slots=64, data_bytes=8)
        snap = snapshot_of(col)
        assert snap.keywrite is not None
        assert snap.sketch is None
        with pytest.raises(RuntimeError, match="not in snapshot"):
            snap.query_counter(FLOW)

    def test_snapshot_queries_leave_live_stats_alone(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        col.query_value(FLOW)              # live stats: 1 query
        live_queries = col.keywrite.stats.queries
        snap = snapshot_of(col)
        for _ in range(5):
            snap.query_value(FLOW)
        assert col.keywrite.stats.queries == live_queries


class TestDigests:
    def test_snapshot_digest_equals_live_at_quiesce(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        rep.key_increment(FLOW, 3, redundancy=4)
        snap = snapshot_of(col)
        assert snap.store_digest() == store_digest(col)

    def test_digest_is_memoized_and_stable(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        snap = snapshot_of(col)
        frozen = snap.store_digest()
        rep.key_write(FLOW, b"y" * 20, redundancy=2)
        assert snap.store_digest() == frozen
        assert store_digest(col) != frozen


class TestCollectorEntryPoint:
    def test_collector_snapshot_method(self, rig):
        col, _tr, rep = rig
        rep.key_write(FLOW, b"x" * 20, redundancy=2)
        snap = col.snapshot()
        assert snap.name == col.name
        assert snap.batch_seq is None
        assert snap.query_value(FLOW).found


class TestEngineSnapshots:
    def _streamed(self, vectorized):
        from repro import bench, obs
        from repro.runtime.engine import StreamEngine
        from repro.runtime.soak import _make_batch

        work = bench._workload("key_write", 256, 11)
        registry, previous, collector, translator, reporter = \
            bench._deploy(vectorized=False)
        engine = StreamEngine(collector, translator, reporter,
                              vectorized=vectorized)
        snaps = []
        try:
            engine.start()
            n = len(work["keys"])
            for s in range(0, n, 32):
                engine.submit(_make_batch("key_write", work, s, s + 32))
                if s == n // 2:
                    snaps.append(engine.snapshot())
            engine.drain()
            snaps.append(engine.snapshot())
        finally:
            engine.close()
            obs.set_registry(previous)
        return work, collector, engine, snaps

    def test_snapshot_lands_on_batch_boundaries(self):
        work, collector, engine, snaps = self._streamed(vectorized=True)
        mid, final = snaps
        # Mid-stream: exactly the bursts submitted so far (batches 0-4).
        assert mid.batch_seq == 4
        assert mid.store_digest() != final.store_digest()
        # After drain every burst has applied; the snapshot is the
        # final store state, bit for bit.
        assert final.batch_seq == engine.executed_seq == 7
        assert final.store_digest() == store_digest(collector)

    def test_vectorized_engine_snapshots_match_scalar(self):
        _work, scalar_col, _se, scalar_snaps = self._streamed(False)
        _work, vector_col, _ve, vector_snaps = self._streamed(True)
        for scalar, vector in zip(scalar_snaps, vector_snaps):
            assert scalar.batch_seq == vector.batch_seq
            assert scalar.store_digest() == vector.store_digest()
        assert store_digest(scalar_col) == store_digest(vector_col)
