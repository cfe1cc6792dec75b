"""Failure-path and lifecycle tests for the streaming runtime.

The ugly corners: stages that die mid-batch, and operators that shut
the same pipeline down twice.  The invariants under test are the ones
the engine's docstring promises — a stage failure surfaces as a
:class:`StageError` naming the failing batch, the deployment's wiring
is restored, and lifecycle operations are idempotent.
"""

from __future__ import annotations

import pytest

from repro import bench, obs
from repro.runtime import StageError, StreamEngine, store_digest
from repro.runtime.soak import _make_batch

REPORTS = 320
BATCH = 32
APPENDS = 5
SEED = 5


def _fresh_engine(**engine_kw):
    """A started engine on a fresh small deployment (plus its context)."""
    registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False)
    engine = StreamEngine(collector, translator, reporter, **engine_kw)
    return registry, previous, engine


def _submit_all(engine, work, primitive="key_write"):
    n = len(next(iter(work.values())))
    for s in range(0, n, BATCH):
        engine.submit(_make_batch(primitive, work, s, min(s + BATCH, n)))


# ----------------------------------------------------------------------
# Stage failure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("failing", (0, 1, 2, 4))
def test_stage_raising_mid_batch_surfaces_with_batch_id(failing):
    """A translate-stage explosion on batch ``failing`` (the first, a
    middle one, or one after earlier batches executed) surfaces as a
    StageError carrying the stage name and that batch seq."""
    work = bench._workload("key_write", REPORTS, SEED)
    _registry, previous, engine = _fresh_engine(vectorized=False)
    translator = engine.translator
    real = translator.process_batch
    calls = {"n": 0}

    def exploding(batch, **kw):
        calls["n"] += 1
        if calls["n"] == failing + 1:
            raise RuntimeError("synthetic mid-batch failure")
        return real(batch, **kw)

    translator.process_batch = exploding
    try:
        engine.start()
        with pytest.raises(StageError) as excinfo:
            _submit_all(engine, work)
            engine.drain()
        error = excinfo.value
        assert error.stage == "translate"
        assert error.batch_seq == failing
        assert f"batch {failing}" in str(error)
        assert isinstance(error.__cause__, RuntimeError)
        assert engine.error is error
        assert engine.executed_seq == (failing - 1 if failing else None)
        # A drained-on-error pipeline reports the same error again
        # rather than pretending the stream completed.
        with pytest.raises(StageError) as again:
            engine.drain()
        assert again.value is error
    finally:
        engine.close()
        obs.set_registry(previous)


def test_submit_after_error_raises_immediately():
    work = bench._workload("key_write", REPORTS, SEED)
    _registry, previous, engine = _fresh_engine(vectorized=False)

    def explode(batch, **kw):
        raise ValueError("dead on arrival")

    engine.translator.process_batch = explode
    try:
        engine.start()
        batch = _make_batch("key_write", work, 0, BATCH)
        with pytest.raises(StageError):
            engine.submit(batch)
        with pytest.raises(StageError):
            engine.submit(batch)
    finally:
        engine.close()
        obs.set_registry(previous)


# ----------------------------------------------------------------------
# Lifecycle idempotence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("append_batches", (0, 2))
def test_double_drain_and_double_close_are_idempotent(append_batches):
    """The second drain is a no-op even when the first one flushed
    buffered Appends (``append_batches`` Append batches submitted after
    the Key-Writes): the store is not written again."""
    work = bench._workload("key_write", REPORTS, SEED)
    appends = bench._workload("append", APPENDS * append_batches, SEED)
    _registry, previous, engine = _fresh_engine(vectorized=False)
    saved_transmit = engine.reporter.transmit
    try:
        engine.start()
        _submit_all(engine, work)
        for b in range(append_batches):
            engine.submit(_make_batch("append", appends, b * APPENDS,
                                      (b + 1) * APPENDS))
        engine.drain()
        drained = store_digest(engine.collector)
        engine.drain()          # second drain: no-op, no error
        assert store_digest(engine.collector) == drained
        with pytest.raises(RuntimeError):
            engine.submit(_make_batch("key_write", work, 0, BATCH))
    finally:
        engine.close()
        engine.close()          # second close: no-op
        obs.set_registry(previous)
    # close() restored the original wiring
    assert engine.reporter.transmit is saved_transmit
    assert engine.translator.client is not None
    for list_id in set(appends["list_ids"]):
        assert engine.translator.append_head(list_id)


def test_context_manager_restores_wiring_on_error():
    work = bench._workload("key_write", REPORTS, SEED)
    _registry, previous, engine = _fresh_engine(vectorized=False)
    transmit = engine.reporter.transmit
    client = engine.translator.client
    try:
        with pytest.raises(StageError):
            with engine:
                engine.translator.process_batch = lambda *a, **k: (
                    (_ for _ in ()).throw(RuntimeError("boom")))
                _submit_all(engine, work)
                engine.drain()
    finally:
        obs.set_registry(previous)
    assert engine.reporter.transmit is transmit
    assert engine.translator.client is client
