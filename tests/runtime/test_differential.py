"""Differential: the streaming engine is bit-identical to serial.

The streaming engine's determinism contract (see
``docs/CONCURRENCY.md``) says vectorization changes *speed* and
nothing else: collector store bytes and every non-``runtime.*`` obs
series must match the scalar reference exactly.  These tests hold the
inline engine — vectorized and scalar, on every primitive — to the
plain ``send_batch`` loop the rest of the suite trusts, and check that
the Key-Write / Key-Increment plan/apply split actually engages.
"""

from __future__ import annotations

import pytest

from repro import bench, obs
from repro.kernels import burst as kburst
from repro.runtime import StreamEngine, run_lane, store_digest
from repro.runtime.soak import _make_batch

REPORTS = 480
BATCH = 32
SEED = 11


def _sketch_width(primitive: str) -> int:
    return REPORTS if primitive == "sketch_merge" else 0


def _engine_snapshot(primitive: str, work: dict, *, vectorized: bool):
    """Run one engine over the workload; return (snapshot, store)."""
    registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False, sketch_width=_sketch_width(primitive))
    engine = StreamEngine(collector, translator, reporter,
                          vectorized=vectorized)
    try:
        engine.start()
        n = len(next(iter(work.values())))
        for s in range(0, n, BATCH):
            engine.submit(_make_batch(primitive, work, s,
                                      min(s + BATCH, n)))
        engine.drain()
        snapshot = registry.snapshot()
    finally:
        engine.close()
        obs.set_registry(previous)
    return snapshot, store_digest(collector)


def _assert_engine_equals_plain_loop(primitive: str, vectorized: bool):
    """The engine adds link/runtime series and changes nothing else:
    every series the plain ``send_batch`` loop produces has the
    identical value under the engine, and the stores are byte-equal."""
    work = bench._workload(primitive, REPORTS, SEED)
    registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False, sketch_width=_sketch_width(primitive))
    try:
        bench._run_batched(reporter, translator, primitive, work, BATCH)
        plain_snapshot = registry.snapshot()
        plain_store = store_digest(collector)
    finally:
        obs.set_registry(previous)

    snapshot, store = _engine_snapshot(primitive, work,
                                       vectorized=vectorized)
    assert store == plain_store
    for key, value in plain_snapshot.samples.items():
        assert snapshot.samples.get(key) == value, key
    extra = set(snapshot.samples) - set(plain_snapshot.samples)
    assert all(name.startswith(("runtime.", "link."))
               for name, _labels in extra), sorted(extra)


@pytest.mark.parametrize("primitive", bench.PRIMITIVES)
def test_workers0_engine_equals_plain_serial_loop(primitive):
    """The scalar engine lane equals the plain serial loop."""
    _assert_engine_equals_plain_loop(primitive, vectorized=False)


@pytest.mark.parametrize("primitive", bench.PRIMITIVES)
def test_vectorized_engine_equals_plain_serial_loop(primitive):
    """The vectorized engine lane — the one the benchmark times —
    equals the plain serial loop too."""
    _assert_engine_equals_plain_loop(primitive, vectorized=True)


@pytest.mark.parametrize("primitive", ("key_write", "key_increment"))
def test_vectorized_plan_apply_split_matches_scalar(primitive,
                                                     monkeypatch):
    """The engine's plan/apply split (translate plans the arrays,
    execute scatters them) engages on every batch and digests
    identically to the scalar reference — the PR 4 vectorization
    guarantee, preserved across the stage boundary."""
    kernel = ("write_rows" if primitive == "key_write"
              else "fetch_add_many")
    calls = []
    real = getattr(kburst, kernel)

    def counting(*args):
        calls.append(args)
        return real(*args)

    work = bench._workload(primitive, REPORTS, SEED)
    scalar = run_lane(primitive, work, vectorized=False, batch_size=BATCH)
    monkeypatch.setattr(kburst, kernel, counting)
    vector = run_lane(primitive, work, vectorized=True, batch_size=BATCH)
    assert len(calls) == REPORTS // BATCH
    assert vector["obs_digest"] == scalar["obs_digest"]
    assert vector["store_digest"] == scalar["store_digest"]


def test_nonzero_workers_is_rejected():
    """The engine is inline-only; asking for stage threads fails."""
    _registry, previous, collector, translator, reporter = bench._deploy(
        vectorized=False)
    obs.set_registry(previous)
    for workers in (1, 2, 4, -1):
        with pytest.raises(ValueError, match="inline only"):
            StreamEngine(collector, translator, reporter, workers=workers)
