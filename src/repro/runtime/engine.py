"""The streaming execution engine.

DTA's pipeline — reporters encode, the wire carries, the translator
converts reports into RDMA verbs that land in collector memory — is a
dataflow of three stages (Section 4, Fig. 6).  :class:`StreamEngine`
runs a direct-mode deployment as that dataflow over
:class:`~repro.core.batch.ReportBatch` carriers, one batch at a time,
inline in :meth:`StreamEngine.submit`::

    submit(batch) -> encode -> link -> [store_lock: translate + apply]

The translate stage posts straight to the deployment's RDMA client, so
a batch's verbs apply to collector memory inside the same call that
translates them — no verb queue sits between the two.  The
switch ASIC pipelines these stages in hardware.  In Python the inline
vectorized lane is the fastest layout measured (see
``docs/CONCURRENCY.md``), so the engine has exactly one execution
path; reader threads are the only concurrency.

Determinism contract
--------------------
``docs/CONCURRENCY.md`` is the single source of truth for this
contract; the short form: the computation — collector store bytes and
every obs series outside the :func:`pipeline_digest` exclusion list —
is identical with vectorization on or off, and, on every shared
series, identical to the plain serial ``send_batch`` loop.  The
submitting thread is the only writer of every stats object (reporter
stats in encode, :class:`~repro.fabric.link.StreamLink` stats in link,
translator stats, loss detector and NIC/QP/client bookkeeping in
translate), and the wall-clock-dependent series — ``runtime.*`` plus
the serving tier's ``queries.wall_ns`` histogram — are excluded by
:func:`pipeline_digest`.

The contract extends to readers: each batch translates and applies
under :attr:`StreamEngine.store_lock`, and :meth:`StreamEngine.snapshot`
takes the same lock, so every snapshot lands exactly on a batch
boundary — a reader thread can never observe a partially applied batch
of a live stream.
"""

from __future__ import annotations

import hashlib
import threading
from typing import NoReturn

from repro import obs
from repro.fabric.link import StreamLink

STAGES = ("encode", "link", "translate")

#: Sequence number used for end-of-stream finalizer work (epoch
#: flushes), which belongs to no submitted batch.
FLUSH_SEQ = -1


class StageError(RuntimeError):
    """A stage raised mid-stream; carries the failing batch identity."""

    def __init__(self, stage: str, batch_seq: int,
                 cause: BaseException) -> None:
        self.stage = stage
        self.batch_seq = batch_seq
        detail = ("the end-of-stream flush" if batch_seq == FLUSH_SEQ
                  else f"batch {batch_seq}")
        super().__init__(
            f"stage '{stage}' failed on {detail}: {cause!r}")


class StageStats(obs.InstrumentedStats):
    """Per-stage carrier/report throughput counters."""

    component = "runtime"

    carriers = obs.counter_field()
    reports = obs.counter_field()


class StreamEngine:
    """Run a direct-mode deployment as the inline staged pipeline.

    :meth:`submit` is one straight line: encode, link, then — under
    :attr:`store_lock` — the retention hook, the translator posting
    the batch's verbs to the deployment's real RDMA client, and the
    ``executed_seq`` update.  Vectorized Key-Write / Key-Increment
    batches take the translator's own vector lanes, which fall back to
    the scalar lane (and so to the reference fault machinery: bounded
    retry, QP re-handshake) whenever the burst target is unhealthy.

    Args:
        collector: The deployment's collector (store digests, wiring).
        translator: Its translator; the engine temporarily rewires
            ``control_sink``/``vectorized`` while streaming and
            restores them in :meth:`close`.
        reporter: The reporter whose emissions feed the stream; its
            ``transmit``/``transmit_batch`` hooks are captured.
        workers: Must be 0: every stage runs inline in :meth:`submit`.
            Accepted because existing callers (``dtabench``) pass
            ``workers=0``; any other value raises :class:`ValueError`.
        vectorized: Run the translator's numpy vector lanes (defaults
            to the translator's own ``vectorized`` flag, which the
            engine sets while streaming).
        retention: Optional
            :class:`~repro.retention.manager.RetentionManager`; its
            ``on_batch`` hook runs under :attr:`store_lock` *before*
            every submitted batch translates, so epoch rotation lands
            exactly on a batch boundary and snapshots never see a
            half-rotated store.
        name: Label for the engine's link and metric series.
    """

    def __init__(self, collector, translator, reporter, *,
                 workers: int = 0,
                 vectorized: bool | None = None,
                 retention=None,
                 name: str = "stream") -> None:
        if workers != 0:
            raise ValueError(
                f"StreamEngine runs inline only: workers must be 0 "
                f"(got {workers})")
        if vectorized is None:
            vectorized = translator.vectorized
        self.collector = collector
        self.translator = translator
        self.reporter = reporter
        self.retention = retention
        self.name = name
        self.link = StreamLink(name=name)
        self._vectorized = bool(vectorized)
        self._captured_batches: list = []
        self._captured_raws: list = []
        #: ``(src, raw)`` control frames (NACK/congestion) the translate
        #: stage produced; delivered downstream after :meth:`drain` so
        #: reporter state keeps its single writer while streaming.
        self.pending_controls: list = []
        self._stage_stats = {
            stage: StageStats(labels={"stage": stage, "engine": name})
            for stage in STAGES}
        #: Serializes store mutation (translate + apply of one batch)
        #: against snapshot acquisition; see "Determinism contract".
        self.store_lock = threading.Lock()
        self._executed_seq: int | None = None
        self._seq = 0
        self._error: StageError | None = None
        self._saved: dict | None = None
        self._started = False
        self._drained = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "StreamEngine":
        """Rewire the deployment so its emissions feed the stream."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("engine already closed")
        translator = self.translator
        reporter = self.reporter
        self._saved = {
            "transmit": reporter.transmit,
            "transmit_batch": reporter.transmit_batch,
            "control_sink": translator.control_sink,
            "vectorized": translator.vectorized,
        }
        reporter.transmit = self._captured_raws.append
        reporter.transmit_batch = self._captured_batches.append
        translator.vectorized = self._vectorized
        translator.control_sink = self._sink_control
        self._started = True
        return self

    def submit(self, batch) -> int:
        """Run one :class:`ReportBatch` through every stage.

        Returns the batch's sequence number — the identity a
        :class:`StageError` names if this batch fails.  Raises the
        pending :class:`StageError` if an earlier batch failed.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self._drained:
            raise RuntimeError("engine already drained")
        if self._error is not None:
            raise self._error
        seq = self._seq
        self._seq += 1
        stage = "encode"
        try:
            carriers = self._encode(batch)
            stage = "link"
            carriers = [carrier for carrier in carriers
                        if self._link(carrier)]
            stage = "translate"
            with self.store_lock:
                # Rotation fires *before* batch seq translates: every
                # batch below seq is fully in the store and nothing of
                # seq is, so the epoch boundary is a batch boundary.
                if self.retention is not None:
                    self.retention.on_batch(seq)
                for carrier in carriers:
                    self._translate(carrier)
                self._executed_seq = seq
        except BaseException as exc:
            self._fail(stage, seq, exc)
        return seq

    def drain(self) -> None:
        """End the stream: flush, then deliver pending control frames.

        Runs the translator's end-of-epoch Append flush under
        :attr:`store_lock`, then hands any pending control frames to
        the deployment's original ``control_sink``.  Raises the pending
        :class:`StageError` — before any flush touches the store — if
        a batch failed.  Idempotent.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self._error is not None:
            raise self._error
        if not self._drained:
            self._drained = True
            try:
                with self.store_lock:
                    self.translator.flush_appends()
            except BaseException as exc:
                self._fail("translate", FLUSH_SEQ, exc)
        self._deliver_controls()

    def close(self) -> None:
        """Restore the deployment's wiring.

        After close the collector/translator/reporter triple works
        exactly as before :meth:`start` — in particular the PR 3
        recovery sweep (:func:`repro.faults.recovery.drain_losses`)
        operates on it normally.  Idempotent; safe after errors.
        """
        if self._closed:
            return
        self._closed = True
        if self._saved is not None:
            self.reporter.transmit = self._saved["transmit"]
            self.reporter.transmit_batch = self._saved["transmit_batch"]
            self.translator.control_sink = self._saved["control_sink"]
            self.translator.vectorized = self._saved["vectorized"]
            self._saved = None

    def __enter__(self) -> "StreamEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def error(self) -> StageError | None:
        return self._error

    def _fail(self, stage: str, seq: int, exc: BaseException) -> NoReturn:
        """Record the stream's one :class:`StageError` and raise it."""
        self._error = StageError(stage, seq, exc)
        obs.emit("runtime", "stage_error", engine=self.name,
                 stage=stage, batch_seq=seq)
        raise self._error from exc

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _encode(self, batch) -> list:
        """Reporter emission: congestion check, seq/backup assignment.

        Returns the carriers the reporter emitted: each captured
        :class:`ReportBatch`, then one list of any per-report frames.
        """
        sent = self.reporter.send_batch(batch)
        carriers = self._captured_batches[:]
        self._captured_batches.clear()
        if self._captured_raws:
            carriers.append(self._captured_raws[:])
            self._captured_raws.clear()
        stats = self._stage_stats["encode"]
        stats.carriers += len(carriers)
        stats.reports += sent
        return carriers

    def _link(self, carrier) -> bool:
        """Wire accounting (and the fault-window drop point)."""
        if isinstance(carrier, list):
            size = sum(len(raw) + 42 for raw in carrier)
        else:
            size = carrier.wire_bytes()
        n = len(carrier)
        stats = self._stage_stats["link"]
        stats.carriers += 1
        stats.reports += n
        return self.link.transmit(n, size)

    def _translate(self, carrier) -> None:
        """Report -> verb conversion, posted straight to the collector."""
        translator = self.translator
        if isinstance(carrier, list):
            for raw in carrier:
                translator.handle_report(raw)
        else:
            translator.process_batch(carrier)
        stats = self._stage_stats["translate"]
        stats.carriers += 1
        stats.reports += len(carrier)

    # ------------------------------------------------------------------
    # Control frames
    # ------------------------------------------------------------------

    def _sink_control(self, src, raw) -> None:
        self.pending_controls.append((src, raw))

    def _deliver_controls(self) -> None:
        """Hand collected control frames to the original sink, if any.

        In direct-mode deployments without a sink the frames stay in
        :attr:`pending_controls` — exactly the frames the serial path
        would have dropped on the floor — where the recovery sweep
        (:func:`repro.faults.recovery.recover_stream`) can still apply
        them to the reporter.
        """
        sink = (self._saved or {}).get("control_sink")
        if sink is None:
            return
        frames, self.pending_controls = self.pending_controls, []
        for src, raw in frames:
            sink(src, raw)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stage_stats(self, stage: str) -> StageStats:
        return self._stage_stats[stage]

    @property
    def executed_seq(self) -> int | None:
        """Sequence of the last fully applied batch (None before any)."""
        return self._executed_seq

    def snapshot(self):
        """Freeze the collector's stores at a batch boundary.

        Takes :attr:`store_lock`, so the copy happens strictly between
        batch applications: the returned
        :class:`~repro.queries.snapshot.CollectorSnapshot` reflects
        every submitted batch up to ``snapshot.batch_seq`` and nothing
        of any later one.  Cheap (a memcpy per store region), so
        thousands of readers can snapshot while the stream ingests.
        """
        from repro.queries.snapshot import snapshot_of

        with self.store_lock:
            return snapshot_of(self.collector,
                               batch_seq=self._executed_seq)

    def checkpoint(self, path: str, *, extra: dict | None = None,
                   overwrite: bool = False) -> str:
        """Write a crash-consistent checkpoint at a batch boundary.

        Takes :attr:`store_lock` like :meth:`snapshot`, so the
        ``repro-ckpt/1`` directory reflects every applied batch up to
        ``executed_seq`` and nothing of any in-flight one.  Requires a
        ``retention`` manager (it owns the epoch state that rides in
        the manifest).
        """
        if self.retention is None:
            raise RuntimeError("engine has no retention manager")
        with self.store_lock:
            return self.retention.checkpoint(
                path, batch_seq=self._executed_seq, extra=extra,
                overwrite=overwrite)


# ----------------------------------------------------------------------
# Digest helpers — the determinism contract, made checkable
# ----------------------------------------------------------------------


def pipeline_digest(snapshot) -> str:
    """SHA-256 over the snapshot minus the wall-clock-dependent series.

    The engine's own ``runtime.*`` series describe the *execution*
    (a plain ``send_batch`` loop has none of them), and query wall
    time (``queries.wall_ns``) measures the host clock, which
    legitimately differs run to run.  Everything else measures the
    *computation* and must be bit-identical with vectorization on or
    off.  This digest is what the differential tests and the soak
    gate compare.
    """
    from repro.obs.registry import Snapshot

    def _excluded(series: str) -> bool:
        return (series.startswith("runtime.")
                or series == "queries.wall_ns")

    samples = {key: value for key, value in snapshot.samples.items()
               if not _excluded(key[0])}
    kinds = {key: kind for key, kind in snapshot.kinds.items()
             if not _excluded(key[0])}
    filtered = Snapshot(epoch=snapshot.epoch, samples=samples, kinds=kinds)
    return "sha256:" + hashlib.sha256(
        obs.to_jsonl(filtered).encode()).hexdigest()


_STORE_ATTRS = ("keywrite", "keyincrement", "postcarding", "append",
                "sketch")


def store_digest(collector) -> str:
    """SHA-256 over every served store's memory region, in fixed order."""
    digest = hashlib.sha256()
    for attr in _STORE_ATTRS:
        store = getattr(collector, attr, None)
        region = getattr(store, "region", None)
        if region is None:
            continue
        digest.update(attr.encode())
        digest.update(bytes(region.buf))
    return "sha256:" + digest.hexdigest()
