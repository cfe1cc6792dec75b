"""The staged streaming execution engine.

DTA's pipeline — reporters encode, the wire carries, the translator
converts, the collector NIC executes — is a dataflow of independent
stages, and the paper's whole argument is that it sustains line rate
because no stage ever waits on the one after it (Section 4, Fig. 6).
This module gives the reproduction that execution mode: the four
stages run concurrently over :class:`~repro.core.batch.ReportBatch`
carriers, coupled by bounded :class:`~repro.runtime.queues.CreditQueue`
credit queues whose blocking puts *are* the backpressure protocol.

Stage graph (``workers`` controls how many threads serve it)::

    submit() --[submit]--> encode --> link --[wire]--> translate --[verbs]--> execute
                 |                                             |
                 |   workers=0  every stage inline in submit() |
                 |   workers=1  [encode link translate execute]|
                 |   workers=2  [encode link] [translate execute]
                 |   workers=3  [encode link] [translate] [execute]
                 |   workers>=4 [encode] [link] [translate] [execute]

Determinism contract
--------------------
``docs/CONCURRENCY.md`` is the single source of truth for this
contract; the short form: the computation — collector store bytes and
every obs series outside the :func:`pipeline_digest` exclusion list —
is identical for any ``workers``/queue-depth setting, because (a)
queues are FIFO, so carriers reach each stage in submit order; (b)
every stats object has exactly one writer stage (reporter stats in
encode, :class:`~repro.fabric.link.StreamLink` stats in link,
translator stats + loss detector in translate, NIC/QP/client
bookkeeping — including the order-sensitive ``busy_ns`` float — in
execute); and (c) the wall-clock-dependent series — every
``runtime.*`` queue/stall/worker series plus the serving tier's
``queries.wall_ns`` histogram — are excluded from digest comparisons
by :func:`pipeline_digest`.  ``workers=0`` composes the same stage
functions synchronously inside :meth:`StreamEngine.submit`, making it
bit-identical to the threaded runs — and, on every shared series, to
today's plain serial ``send_batch`` loop.

The contract extends to readers: the execute stage is the *only* store
writer, and it applies each burst under :attr:`StreamEngine.store_lock`.
:meth:`StreamEngine.snapshot` takes the same lock, so every snapshot
lands exactly on a batch boundary — a reader can never observe a
partially applied burst, no matter how many reader threads run against
a live stream.  The serving tier's ``queries.wall_ns`` histogram is
wall-clock-dependent for the same reason the ``runtime.*`` series are,
and :func:`pipeline_digest` excludes it alongside them.

Vectorized overlap
------------------
Pure-Python stages share the GIL, so threading alone buys nothing; the
speedup comes from the numpy kernels (:mod:`repro.kernels`), which
release the GIL.  The translate stage runs the translator's *plan*
halves (:meth:`~repro.core.translator.Translator.plan_vector_keywrite`
/ ``plan_vector_keyincrement``) and the execute stage applies them
(:func:`repro.kernels.burst.write_rows` / ``fetch_add_many``), so the
two heavy array passes of consecutive batches overlap.  The execute
stage re-resolves the burst target before applying; if the target has
gone bad mid-stream (NIC stall, QP error, revoked MR) it rebuilds the
equivalent scalar burst and posts it through the real
:class:`~repro.core.transport.RdmaClient`, which is exactly the PR 3
fault machinery (bounded retry, QP re-handshake) — a fault plan firing
mid-stream triggers recovery, never a hang.
"""

from __future__ import annotations

import hashlib
import threading

from repro import obs
from repro.core.packets import DtaPrimitive
from repro.fabric.link import StreamLink
from repro.kernels import HAVE_NUMPY, MIN_VECTOR_BATCH
from repro.runtime.queues import CLOSED, CreditQueue, QueueAborted

STAGES = ("encode", "link", "translate", "execute")

#: Thread layout per worker count (>= 4 is fully staged).
_GROUPS = {
    1: (("encode", "link", "translate", "execute"),),
    2: (("encode", "link"), ("translate", "execute")),
    3: (("encode", "link"), ("translate",), ("execute",)),
    4: (("encode",), ("link",), ("translate",), ("execute",)),
}

#: Queue feeding each group boundary, named after what flows through it.
_BOUNDARY_NAMES = {"encode": "encoded", "link": "wire", "translate": "verbs"}

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


class _Carrier:
    """One submit's worth of in-flight reports between stages."""

    __slots__ = ("seq", "batch", "raws")

    def __init__(self, seq, batch=None, raws=None):
        self.seq = seq
        self.batch = batch
        self.raws = raws

    def __len__(self) -> int:
        if self.batch is not None:
            return len(self.batch)
        return len(self.raws or ())


class _Burst:
    """Ordered RDMA emission of one carrier, bound for execute."""

    __slots__ = ("seq", "ops")

    def __init__(self, seq, ops):
        self.seq = seq
        self.ops = ops


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
    """Run a direct-mode deployment as a concurrent staged pipeline.

    Args:
        collector: The deployment's collector (store digests, wiring).
        translator: Its translator; the engine temporarily rewires
            ``client``/``control_sink``/``vectorized`` while streaming
            and restores them in :meth:`close`.
        reporter: The reporter whose emissions feed the stream; its
            ``transmit``/``transmit_batch`` hooks are captured.
        workers: Stage threads — 0 runs every stage inline in
            :meth:`submit` (the deterministic serial fallback); 1..4
            thread the stage groups as drawn in the module docstring
            (values above 4 clamp to 4: there are only four stages).
        queue_depth: Credit pool of every inter-stage queue.
        vectorized: Plan/apply the Key-Write / Key-Increment numpy
            split lanes (defaults to the translator's own
            ``vectorized`` flag).  Scalar lanes are unaffected.
        retention: Optional
            :class:`~repro.retention.manager.RetentionManager`; its
            ``on_batch`` hook runs in the execute stage under
            :attr:`store_lock` *before* the first burst of each
            ``rotate_every``-th batch applies, so epoch rotation lands
            exactly on a batch boundary and snapshots never see a
            half-rotated store.  Rotation points are batch sequence
            numbers, so the retention counters stay digest-identical
            across worker counts.
        name: Label for the engine's link and metric series.
    """

    def __init__(self, collector, translator, reporter, *,
                 workers: int = 2, queue_depth: int = 64,
                 vectorized: bool | None = None,
                 retention=None,
                 name: str = "stream") -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if vectorized is None:
            vectorized = translator.vectorized
        self.collector = collector
        self.translator = translator
        self.reporter = reporter
        self.workers = min(workers, 4)
        self.queue_depth = queue_depth
        self.retention = retention
        self.name = name
        self.link = StreamLink(name=name)
        self._vectorized = bool(vectorized) and HAVE_NUMPY
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
        self._stage_fns = {"encode": self._encode_stage,
                           "link": self._link_stage,
                           "translate": self._translate_stage,
                           "execute": self._execute_stage}
        self._finalizers = {"translate": self._translate_finalize}
        #: Serializes store mutation (execute stage) against snapshot
        #: acquisition; see "Determinism contract" above.
        self.store_lock = threading.Lock()
        self._executed_seq: int | None = None
        self._groups: tuple = ()
        self._queues: list = []
        self._threads: list = []
        self._seq = 0
        self._error: StageError | None = None
        self._error_lock = threading.Lock()
        self._saved: dict | None = None
        self._started = False
        self._drained = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "StreamEngine":
        """Rewire the deployment and launch the stage threads."""
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
        if self.workers > 0:
            self._groups = _GROUPS[self.workers]
            self._queues = [CreditQueue(self.queue_depth,
                                        name=f"{self.name}.submit")]
            for group in self._groups[:-1]:
                boundary = _BOUNDARY_NAMES[group[-1]]
                self._queues.append(CreditQueue(
                    self.queue_depth, name=f"{self.name}.{boundary}"))
            for index, group in enumerate(self._groups):
                thread = threading.Thread(
                    target=self._run_group, args=(index,),
                    name=f"{self.name}-{'+'.join(group)}", daemon=True)
                self._threads.append(thread)
                thread.start()
        self._started = True
        return self

    def submit(self, batch) -> int:
        """Feed one :class:`ReportBatch` into the stream.

        Blocks when the submit queue is out of credits (backpressure
        reaching the caller).  Returns the batch's sequence number —
        the identity a :class:`StageError` names if this batch later
        fails.  Raises the pending :class:`StageError` as soon as any
        stage has died.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self._drained:
            raise RuntimeError("engine already drained")
        if self._error is not None:
            raise self._error
        seq = self._seq
        self._seq += 1
        carrier = _Carrier(seq, batch=batch)
        if self.workers == 0:
            self._run_inline(carrier)
        else:
            try:
                self._queues[0].put(carrier)
            except QueueAborted as aborted:
                error = self._error
                if error is None:
                    error = StageError("submit", seq, aborted)
                raise error from error.__cause__
        return seq

    def drain(self) -> None:
        """End the stream: flush, wait for every stage, surface errors.

        Closes the submit queue, joins the stage threads (each group
        runs its finalizers — the translator's end-of-epoch Append
        flush — before closing its output), then delivers any pending
        control frames to the deployment's original ``control_sink``.
        Raises the first :class:`StageError` if a stage died; the
        pipeline is fully unwound either way.  Idempotent.
        """
        if not self._started:
            raise RuntimeError("engine not started")
        if self.workers == 0:
            if not self._drained:
                self._drained = True
                self._finalize_inline()
        else:
            self._drained = True
            self._queues[0].close()
            for thread in self._threads:
                thread.join()
        if self._error is not None:
            raise self._error
        self._deliver_controls()

    def close(self) -> None:
        """Restore the deployment's wiring; abort any leftover stream.

        After close the collector/translator/reporter triple works
        exactly as before :meth:`start` — in particular the PR 3
        recovery sweep (:func:`repro.faults.recovery.drain_losses`)
        operates on it normally.  Idempotent; safe after errors.
        """
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.abort()
        for thread in self._threads:
            thread.join(timeout=5.0)
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

    # ------------------------------------------------------------------
    # Stage functions (each stats object has exactly one writer stage)
    # ------------------------------------------------------------------

    def _encode_stage(self, carrier: _Carrier) -> list:
        """Reporter emission: congestion check, seq/backup assignment."""
        sent = self.reporter.send_batch(carrier.batch)
        out = []
        if self._captured_batches:
            batches, self._captured_batches[:] = \
                list(self._captured_batches), []
            for batch in batches:
                out.append(_Carrier(carrier.seq, batch=batch))
        if self._captured_raws:
            raws, self._captured_raws[:] = list(self._captured_raws), []
            out.append(_Carrier(carrier.seq, raws=raws))
        stats = self._stage_stats["encode"]
        stats.carriers += len(out)
        stats.reports += sent
        return out

    def _link_stage(self, carrier: _Carrier):
        """Wire accounting (and the fault-window drop point)."""
        if carrier.batch is not None:
            size = carrier.batch.wire_bytes()
        else:
            size = sum(len(raw) + 42 for raw in carrier.raws)
        n = len(carrier)
        stats = self._stage_stats["link"]
        stats.carriers += 1
        stats.reports += n
        if not self.link.transmit(n, size):
            return None
        return carrier

    def _translate_stage(self, carrier: _Carrier):
        """Report -> verb conversion; RDMA emission is deferred."""
        translator = self.translator
        if carrier.batch is not None:
            ops = self._vector_translate(carrier.batch)
            if ops is None:
                translator.process_batch(carrier.batch)
                ops = self._defer.take()
        else:
            for raw in carrier.raws:
                translator.handle_report(raw)
            ops = self._defer.take()
        stats = self._stage_stats["translate"]
        stats.carriers += 1
        stats.reports += len(carrier)
        if not ops:
            return None
        return _Burst(carrier.seq, ops)

    def _translate_finalize(self) -> list:
        """End-of-stream epoch work: flush partial Append batches."""
        self.translator.flush_appends()
        ops = self._defer.take()
        if not ops:
            return []
        return [_Burst(FLUSH_SEQ, ops)]

    def _execute_stage(self, burst: _Burst) -> None:
        """Replay the deferred verbs against the real RDMA client.

        The whole burst applies under :attr:`store_lock`: this stage is
        the only store writer, so holding the lock per burst makes
        batch boundaries the only states a :meth:`snapshot` can see.
        """
        client = self._real_client
        stats = self._stage_stats["execute"]
        stats.carriers += 1
        with self.store_lock:
            # Retention rotation fires *before* this burst applies:
            # every batch below burst.seq is fully in the store and
            # nothing of burst.seq is, so the epoch boundary coincides
            # with a batch boundary (the PR 6 snapshot rule).
            if self.retention is not None and burst.seq != FLUSH_SEQ:
                self.retention.on_batch(burst.seq)
            for op in burst.ops:
                kind = op[0]
                if kind == "post":
                    client.post(op[1])
                elif kind == "burst":
                    client.post_burst(op[1])
                elif kind == "write_rows":
                    self._apply_write_rows(client, op)
                else:
                    self._apply_fetch_add(client, op)
            if burst.seq != FLUSH_SEQ:
                self._executed_seq = burst.seq
        return None

    # ------------------------------------------------------------------
    # Vector plan/apply split
    # ------------------------------------------------------------------

    def _resolve_vector_targets(self) -> None:
        """Validate the static halves of vector eligibility once.

        Burst targets in direct mode are fixed at deployment time, so
        the (thread-sensitive) resolution runs once here instead of
        per batch inside the translate stage; the execute stage still
        re-resolves before *applying*, because the dynamic conditions
        (stall, QP state) can change mid-stream.
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
    # Workers
    # ------------------------------------------------------------------

    def _run_group(self, index: int) -> None:
        stages = self._groups[index]
        inq = self._queues[index]
        outq = (self._queues[index + 1]
                if index + 1 < len(self._queues) else None)
        stage_name = stages[0]
        seq = FLUSH_SEQ
        try:
            while True:
                item = inq.get()
                if item is CLOSED:
                    break
                seq = item.seq
                items = self._run_stages(stages, 0, [item])
                if outq is not None:
                    for it in items:
                        outq.put(it)
            # Input ended: run finalizers in stage order, feeding each
            # one's output through the *later* stages of this group.
            seq = FLUSH_SEQ
            for offset, name in enumerate(stages):
                finalize = self._finalizers.get(name)
                if finalize is None:
                    continue
                stage_name = name
                items = self._run_stages(stages, offset + 1, finalize())
                if outq is not None:
                    for it in items:
                        outq.put(it)
            if outq is not None:
                outq.close()
        except QueueAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must reach caller
            stage_name = getattr(exc, "_repro_stage", stage_name)
            self._fail(stage_name, seq, exc)

    def _run_stages(self, stages, start: int, items: list) -> list:
        """Push ``items`` through ``stages[start:]`` synchronously."""
        for name in stages[start:]:
            if not items:
                break
            fn = self._stage_fns[name]
            next_items: list = []
            for item in items:
                try:
                    out = fn(item)
                except QueueAborted:
                    raise
                except BaseException as exc:
                    exc._repro_stage = name
                    raise
                if out is None:
                    continue
                if isinstance(out, list):
                    next_items.extend(out)
                else:
                    next_items.append(out)
            items = next_items
        return items

    def _run_inline(self, carrier: _Carrier) -> None:
        """The ``workers=0`` fallback: all four stages, synchronously."""
        try:
            items = self._run_stages(STAGES, 0, [carrier])
            assert not items
        except BaseException as exc:
            self._fail(getattr(exc, "_repro_stage", "encode"),
                       carrier.seq, exc)
            raise self._error from exc

    def _finalize_inline(self) -> None:
        try:
            for offset, name in enumerate(STAGES):
                finalize = self._finalizers.get(name)
                if finalize is None:
                    continue
                items = self._run_stages(STAGES, offset + 1, finalize())
                assert not items
        except BaseException as exc:
            self._fail(getattr(exc, "_repro_stage", "translate"),
                       FLUSH_SEQ, exc)
            raise self._error from exc

    def _fail(self, stage: str, seq: int, exc: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                error = StageError(stage, seq, exc)
                error.__cause__ = exc
                self._error = error
                obs.emit("runtime", "stage_error", engine=self.name,
                         stage=stage, batch_seq=seq)
        for queue in self._queues:
            queue.abort()

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

    @property
    def queues(self) -> list:
        return list(self._queues)

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

    Queue depths, stalls, and stall times (``runtime.*``) measure
    *scheduling*, and query wall time (``queries.wall_ns``) measures
    the host clock; both legitimately differ run to run.  Everything
    else measures the *computation* and must be bit-identical across
    worker counts and queue depths.  This digest is what the
    differential tests and the soak gate compare.
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
