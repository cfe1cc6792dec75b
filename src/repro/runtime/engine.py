"""The streaming execution engine.

DTA's pipeline — reporters encode, the wire carries, the translator
converts, the collector NIC executes — is a dataflow of four stages
(Section 4, Fig. 6).  :class:`StreamEngine` runs a direct-mode
deployment as that dataflow over
:class:`~repro.core.batch.ReportBatch` carriers, one batch at a time,
inline in :meth:`StreamEngine.submit`::

    submit(batch) -> encode -> link -> translate -> execute

The switch ASIC pipelines these stages in hardware.  In Python the
inline vectorized lane is the fastest layout measured (see
``docs/CONCURRENCY.md``), so the engine has exactly one execution
path; reader threads are the only concurrency.

Determinism contract
--------------------
``docs/CONCURRENCY.md`` is the single source of truth for this
contract; the short form: the computation — collector store bytes and
every obs series outside the :func:`pipeline_digest` exclusion list —
is identical with vectorization on or off, and, on every shared
series, identical to the plain serial ``send_batch`` loop.  Each
stats object has exactly one writer stage (reporter stats in encode,
:class:`~repro.fabric.link.StreamLink` stats in link, translator stats
+ loss detector in translate, NIC/QP/client bookkeeping in execute),
and the wall-clock-dependent series — ``runtime.*`` plus the serving
tier's ``queries.wall_ns`` histogram — are excluded by
:func:`pipeline_digest`.

The contract extends to readers: the execute stage is the *only* store
writer, and it applies each burst under :attr:`StreamEngine.store_lock`.
:meth:`StreamEngine.snapshot` takes the same lock, so every snapshot
lands exactly on a batch boundary — a reader thread can never observe
a partially applied burst of a live stream.

Vector plan/apply split
-----------------------
Eligible Key-Write / Key-Increment batches are planned by the
translator (:meth:`~repro.core.translator.Translator.plan_vector_keywrite`
/ ``plan_vector_keyincrement``) in the translate stage and applied by
:func:`repro.kernels.burst.write_rows` / ``fetch_add_many`` in the
execute stage.  The execute stage re-resolves the burst target before
applying; if the target has gone bad (NIC stall, QP error, revoked MR)
it rebuilds the equivalent scalar burst and posts it through the real
:class:`~repro.core.transport.RdmaClient`, which is exactly the PR 3
fault machinery (bounded retry, QP re-handshake) — a fault plan firing
mid-stream triggers recovery, never a hang.
"""

from __future__ import annotations

import hashlib
import threading
from typing import NoReturn

from repro import obs
from repro.core.packets import DtaPrimitive
from repro.fabric.link import StreamLink
from repro.kernels import MIN_VECTOR_BATCH

STAGES = ("encode", "link", "translate", "execute")

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


class _DeferringClient:
    """Stands in for the RDMA client inside the translate stage.

    Records verbs in emission order; the execute stage replays them
    against the real client, so accounting and fault behaviour stay the
    reference implementation's — just one stage later.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: list = []

    def post(self, wr) -> None:
        self.ops.append(("post", wr))

    def post_burst(self, wrs) -> None:
        if wrs:
            self.ops.append(("burst", list(wrs)))

    def take(self) -> list:
        ops, self.ops = self.ops, []
        return ops


class StreamEngine:
    """Run a direct-mode deployment as the inline staged pipeline.

    Args:
        collector: The deployment's collector (store digests, wiring).
        translator: Its translator; the engine temporarily rewires
            ``client``/``control_sink``/``vectorized`` while streaming
            and restores them in :meth:`close`.
        reporter: The reporter whose emissions feed the stream; its
            ``transmit``/``transmit_batch`` hooks are captured.
        workers: Must be 0: every stage runs inline in :meth:`submit`.
            Accepted because existing callers (``dtabench``) pass
            ``workers=0``; any other value raises :class:`ValueError`.
        vectorized: Plan/apply the Key-Write / Key-Increment numpy
            split lanes (defaults to the translator's own
            ``vectorized`` flag).  Scalar lanes are unaffected.
        retention: Optional
            :class:`~repro.retention.manager.RetentionManager`; its
            ``on_batch`` hook runs in the execute stage under
            :attr:`store_lock` *before* the first burst of each
            ``rotate_every``-th batch applies, so epoch rotation lands
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
        self._defer = _DeferringClient()
        self._real_client = None
        self._kw_plan = None
        self._ki_plan = None
        self._captured_batches: list = []
        self._captured_raws: list = []
        #: ``(src, raw)`` control frames (NACK/congestion) the translate
        #: stage produced; delivered downstream after :meth:`drain` so
        #: reporter state keeps its single writer while streaming.
        self.pending_controls: list = []
        self._stage_stats = {
            stage: StageStats(labels={"stage": stage, "engine": name})
            for stage in STAGES}
        #: Serializes store mutation (execute stage) against snapshot
        #: acquisition; see "Determinism contract" above.
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
            "client": translator.client,
            "control_sink": translator.control_sink,
            "vectorized": translator.vectorized,
        }
        self._real_client = translator.client
        self._resolve_vector_targets()
        reporter.transmit = self._captured_raws.append
        reporter.transmit_batch = self._captured_batches.append
        translator.client = self._defer
        # The engine owns vectorization: the translator's own lanes run
        # scalar (their output is deferred verbatim), while eligible
        # batches take the engine's plan/apply split below.
        translator.vectorized = False
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
            bursts = [ops for ops in map(self._translate, carriers) if ops]
            stage = "execute"
            for ops in bursts:
                self._execute(seq, ops)
        except BaseException as exc:
            self._fail(stage, seq, exc)
        return seq

    def drain(self) -> None:
        """End the stream: flush, then deliver pending control frames.

        Runs the translator's end-of-epoch Append flush through the
        execute stage, then hands any pending control frames to the
        deployment's original ``control_sink``.  Raises the pending
        :class:`StageError` — before any flush touches the store — if
        a batch failed.  Idempotent.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self._error is not None:
            raise self._error
        if not self._drained:
            self._drained = True
            stage = "translate"
            try:
                self.translator.flush_appends()
                ops = self._defer.take()
                if ops:
                    stage = "execute"
                    self._execute(FLUSH_SEQ, ops)
            except BaseException as exc:
                self._fail(stage, FLUSH_SEQ, exc)
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
            self.translator.client = self._saved["client"]
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
    # Stages (each stats object has exactly one writer stage)
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

    def _translate(self, carrier) -> list:
        """Report -> verb conversion; returns the deferred RDMA ops."""
        translator = self.translator
        if isinstance(carrier, list):
            for raw in carrier:
                translator.handle_report(raw)
            ops = self._defer.take()
        else:
            ops = self._vector_translate(carrier)
            if ops is None:
                translator.process_batch(carrier)
                ops = self._defer.take()
        stats = self._stage_stats["translate"]
        stats.carriers += 1
        stats.reports += len(carrier)
        return ops

    def _execute(self, seq: int, ops: list) -> None:
        """Replay the deferred verbs against the real RDMA client.

        The whole burst applies under :attr:`store_lock`: this stage is
        the only store writer, so holding the lock per burst makes
        batch boundaries the only states a :meth:`snapshot` can see.
        """
        client = self._real_client
        self._stage_stats["execute"].carriers += 1
        with self.store_lock:
            # Retention rotation fires *before* this burst applies:
            # every batch below seq is fully in the store and nothing
            # of seq is, so the epoch boundary coincides with a batch
            # boundary (the PR 6 snapshot rule).
            if self.retention is not None and seq != FLUSH_SEQ:
                self.retention.on_batch(seq)
            for op in ops:
                kind = op[0]
                if kind == "post":
                    client.post(op[1])
                elif kind == "burst":
                    client.post_burst(op[1])
                elif kind == "write_rows":
                    self._apply_write_rows(client, op)
                else:
                    self._apply_fetch_add(client, op)
            if seq != FLUSH_SEQ:
                self._executed_seq = seq

    # ------------------------------------------------------------------
    # Vector plan/apply split
    # ------------------------------------------------------------------

    def _resolve_vector_targets(self) -> None:
        """Validate the static halves of vector eligibility once.

        Burst targets in direct mode are fixed at deployment time, so
        the resolution runs once here instead of per batch inside the
        translate stage; the execute stage still re-resolves before
        *applying*, because the dynamic conditions (stall, QP state)
        can change mid-stream.
        """
        self._kw_plan = None
        self._ki_plan = None
        if (not self._vectorized or self.translator._meter is not None
                or getattr(self.translator, "tenants", None) is not None):
            return
        from repro.kernels import burst as kburst

        client = self._real_client
        kw = self.translator._kw
        if kw is not None:
            target = kburst.resolve_target(client, kw.rkey)
            if (target is not None
                    and kw.layout.base_addr == target.region.addr
                    and kw.layout.region_bytes <= target.region.length):
                self._kw_plan = (target, kw.rkey, kw.layout.base_addr,
                                 kw.layout.slot_bytes)
        ki = self.translator._ki
        if ki is not None:
            target = kburst.resolve_target(client, ki.rkey, atomic=True)
            if (target is not None
                    and ki.layout.base_addr == target.region.addr
                    and ki.layout.region_bytes <= target.region.length):
                self._ki_plan = (target, ki.rkey, ki.layout.base_addr)

    def _vector_translate(self, batch):
        """Plan an eligible batch as one array op; None -> scalar lane."""
        if batch.essential or batch.immediate or self.translator.crashed:
            return None
        if len(batch) < MIN_VECTOR_BATCH:
            return None
        primitive = batch.primitive
        if primitive is DtaPrimitive.KEY_WRITE and self._kw_plan is not None:
            target, rkey, base, slot_bytes = self._kw_plan
            plan = self.translator.plan_vector_keywrite(batch, target)
            if plan is None:
                return None
            row_indices, rows = plan
            self.translator.account_vector_keywrite(len(batch.keys),
                                                    len(row_indices))
            return [("write_rows", rkey, base, slot_bytes,
                     row_indices, rows)]
        if primitive is DtaPrimitive.KEY_INCREMENT \
                and self._ki_plan is not None:
            target, rkey, base = self._ki_plan
            plan = self.translator.plan_vector_keyincrement(batch, target)
            if plan is None:
                return None
            counter_indices, addends = plan
            self.translator.account_vector_keyincrement(
                len(batch.keys), len(counter_indices))
            return [("fetch_add", rkey, base, counter_indices, addends)]
        return None

    def _apply_write_rows(self, client, op) -> None:
        """Apply a Key-Write plan; scalar fallback if the target died."""
        from repro.kernels import burst as kburst
        from repro.rdma.verbs import Opcode, WorkRequest

        _, rkey, base, slot_bytes, row_indices, rows = op
        target = kburst.resolve_target(client, rkey)
        if target is not None \
                and kburst.write_rows(target, client, row_indices,
                                      rows) is not None:
            return
        # Dynamic conditions changed since planning (NIC stall, QP
        # error, revoked MR): rebuild the equivalent scalar burst so
        # the reference fault machinery handles it.
        client.post_burst([
            WorkRequest(opcode=Opcode.WRITE,
                        remote_addr=base + int(idx) * slot_bytes,
                        rkey=rkey, data=rows[j].tobytes())
            for j, idx in enumerate(row_indices)])

    def _apply_fetch_add(self, client, op) -> None:
        """Apply a Key-Increment plan; scalar fallback likewise."""
        from repro.kernels import burst as kburst
        from repro.rdma.verbs import Opcode, WorkRequest

        _, rkey, base, counter_indices, addends = op
        target = kburst.resolve_target(client, rkey, atomic=True)
        if target is not None \
                and kburst.fetch_add_many(target, client, counter_indices,
                                          addends) is not None:
            return
        client.post_burst([
            WorkRequest(opcode=Opcode.FETCH_ADD,
                        remote_addr=base + int(idx) * 8,
                        rkey=rkey, swap=int(addend))
            for idx, addend in zip(counter_indices, addends)])

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
        """Sequence of the last fully applied burst (None before any)."""
        return self._executed_seq

    def snapshot(self):
        """Freeze the collector's stores at a batch boundary.

        Takes :attr:`store_lock`, so the copy happens strictly between
        burst applications: the returned
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
