"""Concurrent-reader stress: snapshots never observe a torn batch.

The serving tier's core guarantee under load: N reader threads take
snapshots and run queries *while* the streaming engine ingests — and
with PR 3 fault plans firing mid-stream (translator crash, link
blackout) — yet no reader ever sees a partially applied batch.  Every
submitted batch writes the same value to a group of keys, so a torn
read is directly detectable: a snapshot where two group keys decode to
different values.
"""

from __future__ import annotations

import struct
import threading

from repro import obs
from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.runtime.engine import StreamEngine

GROUP = [bytes([65 + i]) * 13 for i in range(8)]   # 8 fixed flow keys
BATCHES = 240
READERS = 4


def _payload(seq: int) -> bytes:
    return struct.pack(">Q", seq).ljust(20, b"\0")


def _decode(value: bytes) -> int:
    return struct.unpack(">Q", value[:8])[0]


def _group_batch(seq: int) -> ReportBatch:
    return ReportBatch.key_writes(GROUP, [_payload(seq)] * len(GROUP),
                                  redundancy=2)


class _Reader(threading.Thread):
    """Snapshot + query loop; records any torn or regressing view."""

    def __init__(self, engine: StreamEngine,
                 stop: threading.Event) -> None:
        super().__init__(daemon=True)
        self.engine = engine
        self.stop_event = stop
        self.snapshots = 0
        self.violations: list = []
        self.last_seq = -1

    def run(self) -> None:
        while not self.stop_event.is_set():
            snap = self.engine.snapshot()
            self.snapshots += 1
            seqs = set()
            for key in GROUP:
                result = snap.query_value(key, redundancy=2)
                if result.found:
                    seqs.add(_decode(result.value))
            if len(seqs) > 1:
                self.violations.append(
                    ("torn", snap.batch_seq, sorted(seqs)))
            elif seqs:
                seen = seqs.pop()
                # Bursts apply in submit order, so the value a reader
                # observes can only move forward.
                if seen < self.last_seq:
                    self.violations.append(
                        ("regressed", snap.batch_seq, seen,
                         self.last_seq))
                self.last_seq = seen


def test_readers_never_observe_a_torn_batch_under_faults():
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=20)
    translator = Translator()
    col.connect_translator(translator)
    reporter = Reporter("sw", 1, transmit=translator.handle_report)

    previous = obs.get_registry()
    obs.set_registry(obs.Registry())
    engine = StreamEngine(col, translator, reporter, vectorized=False)
    stop = threading.Event()
    readers = [_Reader(engine, stop) for _ in range(READERS)]
    try:
        engine.start()
        for reader in readers:
            reader.start()
        for seq in range(BATCHES):
            # PR 3 fault plans, mid-stream: a translator crash window
            # and a link blackout, both closed well before the end.
            if seq == BATCHES // 4:
                translator.crash()
            if seq == BATCHES // 3:
                translator.restart()
            if seq == BATCHES // 2:
                engine.link.begin_fault()
            if seq == 2 * BATCHES // 3:
                engine.link.end_fault()
            engine.submit(_group_batch(seq))
        engine.drain()
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        engine.close()
        obs.set_registry(previous)

    for reader in readers:
        assert not reader.is_alive()
        assert reader.violations == []
    # The loop must actually have exercised concurrent snapshots.
    assert sum(reader.snapshots for reader in readers) > 0

    # Conservation: every submitted report is accounted for — landed,
    # dropped by the crash window, or dropped with its carrier at the
    # link.  Whole carriers only: that is the no-torn-batch guarantee
    # seen from the accounting side.
    total = BATCHES * len(GROUP)
    landed = translator.stats.reports_in
    crashed = translator.stats.dropped_while_crashed
    link_dropped = engine.link.stats.drops
    assert reporter.stats.reports_sent == total
    assert landed + crashed + link_dropped == total
    # Every link drop removed a whole carrier — a multiple of the
    # group size, never a fraction of a batch.
    assert link_dropped % len(GROUP) == 0

    # Both fault windows closed before the last batch, so the final
    # quiesced state is the last submitted value on every group key.
    for key in GROUP:
        result = col.query_value(key, redundancy=2)
        assert result.found
        assert _decode(result.value) == BATCHES - 1


def test_many_snapshots_are_independent():
    """Thousands of snapshots share nothing: mutating the live store
    afterwards changes none of them (readers need zero coordination)."""
    col = Collector()
    col.serve_keywrite(slots=256, data_bytes=20)
    translator = Translator()
    col.connect_translator(translator)
    reporter = Reporter("sw", 1, transmit=translator.handle_report)

    snaps = []
    for seq in range(50):
        reporter.key_write(GROUP[0], _payload(seq), redundancy=2)
        snaps.append(col.snapshot())
    for seq, snap in enumerate(snaps):
        assert _decode(snap.query_value(GROUP[0],
                                        redundancy=2).value) == seq
