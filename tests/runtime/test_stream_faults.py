"""Fault-plan compatibility: faults mid-stream end in recovery, not hangs.

PR 3's contract is that every fault has a recovery path; the streaming
runtime must not re-break it.  A translator crash inside the translate
stage, or a link blackout between encode and translate, must leave the
pipeline drainable, keep the loss accounting exact, and — for
essential traffic — leave a state the controller sweep
(:func:`repro.faults.recover_stream`) can fully repair, exactly as
:func:`repro.faults.drain_losses` does for the serial path.
"""

from __future__ import annotations

import struct

import pytest

from repro import bench, obs
from repro.core.batch import ReportBatch
from repro.faults import recover_stream
from repro.runtime import StageError, StreamEngine, store_digest
from repro.runtime.soak import _make_batch

BATCH = 16
SEED = 3


def _deployment():
    registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False)
    return registry, previous, collector, translator, reporter


def test_translator_crash_mid_stream_drains_without_hang():
    """Crash/restart mid-stream: the stream drains, and every
    submitted report is either processed or counted dropped —
    conservation, not silence."""
    work = bench._workload("key_write", 480, SEED)
    _registry, previous, collector, translator, reporter = _deployment()
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=False)
    try:
        engine.start()
        n = len(work["keys"])
        for s in range(0, n, BATCH):
            if s == n // 3:
                translator.crash()
            if s == 2 * n // 3:
                translator.restart()
            engine.submit(_make_batch("key_write", work, s, s + BATCH))
        engine.drain()
    finally:
        engine.close()
        obs.set_registry(previous)
    stats = translator.stats
    assert reporter.stats.reports_sent == n
    assert stats.dropped_while_crashed > 0
    assert stats.reports_in + stats.dropped_while_crashed == n


def test_link_blackout_drops_whole_carriers_deterministically():
    """A StreamLink fault window (the injector's blackout hook) drops
    carriers between encode and translate; the window boundaries are
    exact, so the counts are too."""
    work = bench._workload("key_write", 320, SEED)
    _registry, previous, collector, translator, reporter = _deployment()
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=False)
    n = len(work["keys"])
    blacked_out = 0
    try:
        engine.start()
        for s in range(0, n, BATCH):
            if n // 4 <= s < n // 2:
                engine.link.begin_fault()
                blacked_out += BATCH
            else:
                engine.link.end_fault()
            engine.submit(_make_batch("key_write", work, s, s + BATCH))
        engine.drain()
    finally:
        engine.close()
        obs.set_registry(previous)
    link = engine.link.stats
    assert blacked_out > 0
    assert link.fault_drops == blacked_out
    assert link.sent == n
    assert link.delivered == n - blacked_out
    assert translator.stats.reports_in == n - blacked_out


def _essential_run(*, crash_window=None):
    """Drive an essential Key-Write stream; return queryable hit count.

    ``crash_window=(lo, hi)`` crashes the translator for the batches
    whose start offset falls in [lo, hi) and restarts it after, then
    runs the stream-recovery sweep post-drain.
    """
    n = 96
    keys = [struct.pack(">I", 0xABC00000 | i) for i in range(n)]
    datas = [struct.pack(">QQ", i, i * 7) for i in range(n)]
    _registry, previous, collector, translator, reporter = _deployment()
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=False)
    try:
        engine.start()
        for s in range(0, n, BATCH):
            if crash_window and crash_window[0] <= s < crash_window[1]:
                translator.crash()
            elif crash_window:
                translator.restart()
            engine.submit(ReportBatch.key_writes(
                keys[s:s + BATCH], datas[s:s + BATCH], redundancy=2,
                essential=True))
        engine.drain()
        engine.close()
        if crash_window:
            translator.restart()
            resent = recover_stream(engine, [reporter])
            assert resent > 0, "the sweep had losses to repair"
    finally:
        engine.close()
        obs.set_registry(previous)
    hits = sum(
        collector.query_value(key, redundancy=2).value == data
        for key, data in zip(keys, datas))
    return hits, translator, reporter, engine


def test_essential_stream_crash_recovers_via_sweep():
    """Essential reports lost to a mid-stream translator crash come
    back through the engine's pending NACKs + the controller sweep:
    afterwards exactly as many keys are queryable as in a fault-free
    run of the same stream."""
    baseline_hits, *_ = _essential_run()
    hits, translator, reporter, engine = _essential_run(
        crash_window=(32, 64))
    assert translator.stats.dropped_while_crashed > 0
    assert reporter.stats.retransmitted > 0
    assert not translator.loss.all_awaiting().get(reporter.reporter_id)
    assert engine.pending_controls == []
    assert hits == baseline_hits > 0


def test_recover_stream_is_a_noop_on_a_clean_run():
    hits, translator, reporter, engine = _essential_run()
    assert recover_stream(engine, [reporter]) == 0
    assert hits > 0


@pytest.mark.parametrize("reraises", [0, 2])
def test_failing_batch_records_one_stage_error_event(reraises):
    """A batch the translator rejects (here Key-Write with its service
    unset) raises a :class:`StageError` and leaves exactly one
    ``runtime/stage_error`` trace event, however often the error is
    re-raised afterwards (``reraises`` further submit + drain calls)."""
    work = bench._workload("key_write", BATCH, SEED)
    registry, previous, collector, translator, reporter = _deployment()
    translator._kw = None
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=False)
    try:
        engine.start()
        with pytest.raises(StageError) as raised:
            engine.submit(_make_batch("key_write", work, 0, BATCH))
            engine.drain()
        for _ in range(reraises):
            with pytest.raises(StageError) as again:
                engine.submit(_make_batch("key_write", work, 0, BATCH))
            assert again.value is raised.value
            with pytest.raises(StageError) as again:
                engine.drain()
            assert again.value is raised.value
    finally:
        engine.close()
        obs.set_registry(previous)
    assert raised.value.stage == "translate"
    assert raised.value.batch_seq == 0
    events = [event for event in registry.events
              if (event.component, event.event) == ("runtime", "stage_error")]
    assert len(events) == 1


def test_drain_after_failed_batch_leaves_the_store_untouched():
    """Once a batch has failed, drain re-raises its StageError before
    the end-of-stream Append flush runs: the buffered Appends stay
    buffered and the store keeps the bytes it had at the failure."""
    appends = bench._workload("append", 5, SEED)
    work = bench._workload("key_write", BATCH, SEED)
    registry, previous, collector, translator, reporter = _deployment()
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=False)
    try:
        engine.start()
        engine.submit(_make_batch("append", appends, 0, 5))
        translator._kw = None
        with pytest.raises(StageError) as failed:
            engine.submit(_make_batch("key_write", work, 0, BATCH))
        before = store_digest(collector)
        with pytest.raises(StageError) as drained:
            engine.drain()
        assert store_digest(collector) == before
    finally:
        engine.close()
        obs.set_registry(previous)
    assert drained.value is failed.value
    assert not any(translator.append_head(list_id)
                   for list_id in set(appends["list_ids"]))
    events = [event for event in registry.events
              if (event.component, event.event) == ("runtime", "stage_error")]
    assert len(events) == 1
