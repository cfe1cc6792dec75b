"""RetentionManager under the streaming engine.

The PR 6 snapshot rule, extended: rotation and checkpointing land only
on batch boundaries under ``store_lock``, the engine hook is
independent of the vectorized lane and of the reader threads
snapshotting beside it (same batch seqs -> same rotation points ->
identical store digests), and ``engine.checkpoint`` records
the executed batch seq it snapshotted at.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine, store_digest


def _deploy(rotate_every: int | None = 4, window: int = 2,
            vectorized: bool = False):
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=8)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("mgr", 1, transmit=tr.handle_report)
    manager = RetentionManager(
        col, policy=RetentionPolicy(window=window,
                                    rotate_every=rotate_every),
        translator=tr)
    engine = StreamEngine(col, tr, rep, vectorized=vectorized,
                          retention=manager)
    return col, manager, engine


def _drive(engine, batches: int = 16, per_batch: int = 8) -> None:
    with engine:
        for seq in range(batches):
            keys = [f"b{seq}k{i}".encode() for i in range(per_batch)]
            datas = [struct.pack("<Q", (seq << 16) | i)
                     for i in range(per_batch)]
            engine.submit(ReportBatch.key_writes(keys, datas,
                                                 redundancy=2))
        engine.drain()


def test_engine_hook_rotates_on_batch_cadence():
    col, manager, engine = _deploy(rotate_every=4)
    _drive(engine, batches=16)
    # Boundaries at seqs 4, 8, 12 -> three engine-driven rotations.
    assert manager.epochs.rotations == 3
    assert manager.current_epoch == 4
    assert manager.stats.rotations == 3
    # Every rotation sealed exactly the 4 batches since the last one.
    for report in manager.epochs.reports:
        assert report.changed["keywrite"] > 0


def _snapshot_readers(engine, count: int):
    """Start ``count`` threads that snapshot ``engine`` in a loop (at
    least once each); returns ``stop()``, which joins them and yields
    the snapshot counts."""
    halt = threading.Event()
    taken = [0] * count

    def read(slot: int) -> None:
        while True:
            engine.snapshot()
            taken[slot] += 1
            if halt.is_set():
                return

    threads = [threading.Thread(target=read, args=(i,), daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()

    def stop() -> list:
        halt.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        return taken

    return stop


@pytest.mark.parametrize("readers", (1, 2, 4))
def test_rotation_is_worker_count_independent(readers):
    """Rotation points do not depend on how many reader threads work
    beside the writer, nor on the lane: the vectorized engine with
    ``readers`` snapshot threads rotates exactly like the scalar engine
    alone."""
    col0, manager0, engine0 = _deploy()
    _drive(engine0)
    colN, managerN, engineN = _deploy(vectorized=True)
    stop = _snapshot_readers(engineN, readers)
    try:
        _drive(engineN)
    finally:
        taken = stop()
    assert all(count > 0 for count in taken)
    assert store_digest(colN) == store_digest(col0)
    assert managerN.epochs.rotations == manager0.epochs.rotations
    assert managerN.epochs.trackers["keywrite"].gens == \
        manager0.epochs.trackers["keywrite"].gens


def test_manual_rotation_left_manual_without_cadence():
    col, manager, engine = _deploy(rotate_every=None)
    _drive(engine)
    assert manager.epochs.rotations == 0


def test_expiry_bounds_live_cells_under_cadence():
    col, manager, engine = _deploy(rotate_every=2, window=1)
    _drive(engine, batches=20)
    reports = manager.epochs.reports
    changed = [r.changed["keywrite"] for r in reports]
    live = [r.live["keywrite"] for r in reports]
    # Steady state: live cells never exceed two epochs' worth.
    for report_live in live[2:]:
        assert report_live <= 2 * max(changed)
    assert manager.stats.cells_expired > 0


def test_engine_checkpoint_lands_on_the_executed_boundary(tmp_path):
    col, manager, engine = _deploy(rotate_every=4)
    path = str(tmp_path / "ckpt")
    with engine:
        for seq in range(8):
            engine.submit(ReportBatch.key_writes(
                [f"b{seq}".encode()], [struct.pack("<Q", seq)],
                redundancy=2))
        engine.drain()
        engine.checkpoint(path)
    digest = store_digest(col)

    twin = Collector()
    twin.serve_keywrite(slots=4096, data_bytes=8)
    twin_manager = RetentionManager(
        twin, policy=RetentionPolicy(window=2, rotate_every=4))
    report = twin_manager.restore(path)
    assert store_digest(twin) == digest
    assert report.batch_seq == 7            # last executed batch seq
    assert twin_manager.current_epoch == manager.current_epoch


def test_engine_checkpoint_requires_a_retention_manager(tmp_path):
    col = Collector()
    col.serve_keywrite(slots=256, data_bytes=8)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("mgr", 1, transmit=tr.handle_report)
    engine = StreamEngine(col, tr, rep)
    with engine:
        engine.drain()
        with pytest.raises(RuntimeError):
            engine.checkpoint(str(tmp_path / "ckpt"))


def test_quiesced_rotation_ages_stale_postcard_cache_rows():
    col = Collector()
    col.serve_postcarding(chunks=1024, value_set=range(256),
                          cache_slots=64)
    tr = Translator()
    col.connect_translator(tr)
    rep = Reporter("mgr", 1, transmit=tr.handle_report)
    manager = RetentionManager(col, policy=RetentionPolicy(window=4),
                               translator=tr)
    # A flow that reports one hop of a longer path, then goes silent.
    rep.send_batch(ReportBatch.postcards(
        [b"stale-flow"], [0], [7], path_lengths=[4]))
    cache = tr._pc.cache
    assert cache.occupancy == 1
    manager.rotate()                        # first sighting: still fresh
    assert cache.occupancy == 1
    aged = manager.rotate()                 # resident two rotations: aged
    assert cache.occupancy == 0
    assert manager.stats.cache_rows_aged == 1
    del aged
    # The partial chunk landed via the translator's chunk-write path.
    assert col.postcarding.query(b"stale-flow") is not None
