"""The three workloads: deployment, timed passes, and reference checks.

Every workload is a closed loop — one process, one submitting thread,
the next batch submitted only after the previous one is applied — and
runs as a sequence of *passes*.  A pass provisions a fresh deployment
(timed as set-up), submits the workload's whole pre-generated input,
runs query ticks on a fixed batch cadence (timed apart from ingest),
and is then checked, outside every timed region, against a reference
computed once per seed:

* the store digest equals the reference lane's digest;
* every tick's rows equal the reference's rows at the same batch
  boundary, and the plans evaluated on the quiesced collector equal
  the reference's final rows;
* every attempted report landed (injected shim drops excepted).

Each mismatch is recorded; a pass with any mismatch counts all of its
reports as failed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

from repro import obs
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.queries import QueryEngine, QueryServer
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine, store_digest

import inputs
import plans

clock = time.perf_counter


class PassResult:
    """One pass's measurements and its correctness verdict."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0          # ingest and ticks (+ lane set-up)
        self.attempted = 0
        self.landed = 0
        self.ingest_reports = 0    # landed inside the timed ingest
        self.injected_drops = 0
        self.apply_s: list = []
        self.tick_s: list = []
        self.mismatches: list = []
        self.peak_rss_mb = 0.0

    @property
    def failed(self) -> int:
        if self.mismatches:
            return self.attempted
        return self.attempted - self.injected_drops - self.landed


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _landed(translator) -> int:
    """Reports the translator turned into store writes."""
    stats = translator.stats
    return (stats.keywrites + stats.keyincrements + stats.postcards
            + stats.appends + stats.sketch_columns
            - stats.sketch_column_nacks)


#: The CPUs this process may run on, as it was started.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else []


def probe_s() -> float:
    """Best of three runs of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(2000):
            table[i.to_bytes(4, "big")] = i * 2654435761 & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_fastest_cpu() -> None:
    """Pin this process to the CPU that now runs :func:`probe_s` fastest.

    On a shared host each vCPU goes through stretches of seconds in
    which its physical core is contended and every instruction runs up
    to about 1.8 times slower; the stretches of different vCPUs are
    independent, and the kernel does not move a lone busy process off a
    slow one.  Choosing before every pass keeps the timed work on an
    uncontended core whenever one exists.
    The socket lane's daemons, spawned in the pass, inherit the pin: a
    chunk is sent and then drained, so the three processes take turns
    rather than run side by side.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe_s()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


# ----------------------------------------------------------------------
# In-process workloads (StreamEngine at workers=0)
# ----------------------------------------------------------------------


class _InlineWorkload:
    """Shared pass loop of ``kw_ingest`` and ``mixed_serve``.

    The timed lane is ``StreamEngine(workers=0, vectorized=True)``; the
    reference is the same engine with vectorization off (the scalar
    lane every fast path must match bit for bit).
    """

    name = ""
    tick_every = 1

    def __init__(self) -> None:
        self.batches: list = []
        self.plans: dict = {}

    def deploy(self):
        """``(collector, translator, reporter, retention)``, fresh."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the per-seed reference (untimed)."""
        result, ref = self._pass(vectorized=False, tracer=None)
        self.ref_digest = ref["digest"]
        self.ref_ticks = ref["ticks"]
        self.ref_final = ref["final"]
        self.ref_landed = result.landed

    def run_pass(self, tracer) -> PassResult:
        result, got = self._pass(vectorized=True, tracer=tracer)
        if got["digest"] != self.ref_digest:
            result.mismatches.append("store digest != scalar reference")
        if got["ticks"] != self.ref_ticks:
            bad = sum(1 for a, b in zip(got["ticks"], self.ref_ticks)
                      if a != b) + abs(len(got["ticks"])
                                       - len(self.ref_ticks))
            result.mismatches.append(f"{bad} tick(s) with rows != reference")
        if got["final"] != self.ref_final:
            result.mismatches.append(
                "quiesced query rows != reference rows")
        if result.landed != self.ref_landed:
            result.mismatches.append(
                f"landed {result.landed} != reference {self.ref_landed}")
        return result

    def _pass(self, *, vectorized: bool, tracer):
        result = PassResult()
        registry = obs.Registry()
        previous = obs.set_registry(registry)
        engine = None
        try:
            start = clock()
            collector, translator, reporter, retention = self.deploy()
            engine = StreamEngine(collector, translator, reporter,
                                  workers=0, vectorized=vectorized,
                                  retention=retention, name=self.name)
            engine.start()
            server = QueryServer(engine)
            for name, plan in self.plans.items():
                server.register(name, plan)
            result.setup_s = clock() - start
            ticks = []
            every = self.tick_every
            apply_s = result.apply_s
            tick_s = result.tick_s
            submit = engine.submit
            begin = clock()
            for index, batch in enumerate(self.batches):
                if tracer is not None:
                    tracer.batch = index
                sent = clock()
                submit(batch)
                done = clock()
                apply_s.append(done - sent)
                if (index + 1) % every == 0:
                    tick = server.tick()
                    ticked = clock()
                    tick_s.append(ticked - done)
                    ticks.append({name: res.rows
                                  for name, res in tick.results.items()})
            if tracer is not None:
                tracer.batch = None
            engine.drain()
            end = clock()
            result.wall_s = end - begin
            if tracer is not None:
                tracer.active, active = False, tracer.active
            result.attempted = sum(len(batch) for batch in self.batches)
            result.landed = result.ingest_reports = _landed(translator)
            quiesced = QueryEngine(collector)
            final = {name: quiesced.execute(plan, name=name).rows
                     for name, plan in self.plans.items()}
            digest = store_digest(collector)
            if tracer is not None:
                tracer.active = active
        finally:
            if engine is not None:
                engine.close()
            obs.set_registry(previous)
        result.peak_rss_mb = vm_hwm_mb()
        return result, {"digest": digest, "ticks": ticks, "final": final}


class KwIngest(_InlineWorkload):
    """Key-Write only, uniform keys, batch 64, into 64K slots."""

    name = "kw_ingest"
    BATCH = 64
    SLOTS = 1 << 16

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__()
        batches = 16 if tiny else 1024
        self.tick_every = 4 if tiny else 128
        self.batches = inputs.kw_batches(seed, batches, self.BATCH)
        step = max(1, len(self.batches) // 256)
        watched = [batch.keys[0] for batch in self.batches[::step]]
        self.plans = {"value_table": plans.value_table(watched)}

    def deploy(self):
        collector = Collector()
        collector.serve_keywrite(slots=self.SLOTS,
                                 data_bytes=inputs.DATA_BYTES)
        translator = Translator()
        collector.connect_translator(translator)
        reporter = Reporter("kw-bench", 1,
                            transmit=translator.handle_report,
                            transmit_batch=translator.process_batch)
        return collector, translator, reporter, None


class MixedServe(_InlineWorkload):
    """All five primitives at batch 32 with rotation and query ticks."""

    name = "mixed_serve"
    BATCH = 32
    #: Batches per retention epoch; a query tick follows every epoch.
    EPOCH_BATCHES = 40
    WINDOW = 2

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__()
        rounds = 8 if tiny else 160
        self.epoch_batches = 10 if tiny else self.EPOCH_BATCHES
        self.tick_every = self.epoch_batches
        self.mixed = inputs.MixedInputs(seed, rounds, self.BATCH)
        self.batches = self.mixed.batches
        self.plans = plans.six_plans(self.mixed)

    def deploy(self):
        collector = Collector()
        collector.serve_keywrite(slots=1 << 16,
                                 data_bytes=inputs.DATA_BYTES)
        collector.serve_keyincrement(slots_per_row=1 << 12, rows=4)
        collector.serve_postcarding(chunks=1 << 14,
                                    value_set=inputs.PC_VALUES,
                                    hops=inputs.PC_HOPS)
        collector.serve_append(lists=inputs.AP_LISTS, capacity=1 << 12,
                               data_bytes=inputs.DATA_BYTES, batch_size=16)
        collector.serve_sketch(width=self.mixed.sketch_width,
                               depth=inputs.SM_DEPTH, expected_reporters=1,
                               batch_columns=16)
        translator = Translator()
        collector.connect_translator(translator)
        reporter = Reporter("mixed-bench", 1,
                            transmit=translator.handle_report,
                            transmit_batch=translator.process_batch)
        retention = RetentionManager(
            collector, translator=translator,
            policy=RetentionPolicy(window=self.WINDOW,
                                   rotate_every=self.epoch_batches))
        return collector, translator, reporter, retention


# ----------------------------------------------------------------------
# The UDP deployment lane
# ----------------------------------------------------------------------


class SocketLossy:
    """Pre-encoded Key-Write over UDP with seeded 2% drop + 2% reorder.

    One reporter (this process), one translator daemon, one collector
    daemon.  The stream goes out in chunks; each chunk is sent, closed
    with an end-of-stream marker and waited on until the translator
    daemon reports it drained, so a chunk's round trip is its
    submit-to-applied latency.  A query tick asks the collector daemon
    for its store digest between chunks: a read of the whole store,
    checked against the reference at the same chunk boundary.
    """

    name = "socket_lossy"
    CHUNK = 1024
    DROP = 0.02
    REORDER = 0.02

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.transport.loss import LossSpec
        from repro.transport.serve import ServeSpec

        chunks = 4 if tiny else 48
        self.chunk = 256 if tiny else self.CHUNK
        self.tick_every = 2
        raws = inputs.kw_stream(seed, chunks * self.chunk)
        self.chunks = [raws[i:i + self.chunk]
                       for i in range(0, len(raws), self.chunk)]
        self.shards = [0] * self.chunk
        self.spec = ServeSpec(
            primitive="key_write", reports=len(raws), collectors=1,
            translators=1, batch_size=256, seed=seed, frame_bytes=1400,
            loss=LossSpec(seed=seed, drop_rate=self.DROP,
                          reorder_rate=self.REORDER))

    def prepare(self) -> None:
        """Replay the post-shim stream in process (untimed).

        A twin shim fed exactly as the lane's reporter feeds its own
        (one bulk step per chunk, then the end-of-stream flush) yields
        the stream the daemons will see.  ``run_reference`` over that
        stream gives the final digest; a scalar replay with the same
        chunk boundaries gives the digest each tick must read.
        """
        from repro.core.cluster import ClusterMap
        from repro.transport.assembler import ReportAssembler
        from repro.transport.daemons import provision_collector
        from repro.transport.loss import LossSpec
        from repro.transport.serve import run_reference

        shim = self.spec.loss.shim()
        registry = obs.Registry()
        previous = obs.set_registry(registry)
        try:
            collector = provision_collector("reference")
            translator = Translator("reference", vectorized=False)
            collector.connect_translator(translator)
            assembler = ReportAssembler([translator],
                                        ClusterMap(collectors=1),
                                        batch_size=self.spec.batch_size)
            stream = []
            self.ref_ticks = []
            for index, chunk in enumerate(self.chunks):
                survivors = shim.step_many(list(zip(self.shards, chunk)))
                survivors += shim.flush()
                for _shard, raw in survivors:
                    assembler.feed(raw)
                    stream.append(raw)
                assembler.finish()
                if (index + 1) % self.tick_every == 0:
                    self.ref_ticks.append([store_digest(collector)])
            replay_digest = store_digest(collector)
        finally:
            obs.set_registry(previous)
        self.ref_drops = shim.dropped
        self.ref_landed = len(stream)
        self.ref_digest = run_reference(replace(self.spec, loss=LossSpec()),
                                        stream)
        if self.ref_digest != [replay_digest]:
            raise RuntimeError("reference replays disagree")

    def run_pass(self, tracer) -> PassResult:
        import multiprocessing

        from repro.transport.serve import SocketLane

        result = PassResult()
        registry = obs.Registry()
        previous = obs.set_registry(registry)
        ticks = []
        try:
            start = clock()
            with SocketLane(self.spec) as lane:
                reporter = lane.reporter
                # The first chunk and one digest warm the fresh daemons
                # (lazy imports, first-use caches), so they are set-up.
                if tracer is not None:
                    tracer.batch = 0
                lane.send(self.chunks[0], self.shards)
                reporter.end_stream()
                stats = lane.drain()
                lane.digests()
                result.setup_s = clock() - start
                first_landed = stats["reports"]
                for index, chunk in enumerate(self.chunks[1:], 1):
                    if tracer is not None:
                        tracer.batch = index
                    sent = clock()
                    lane.send(chunk, self.shards)
                    reporter.end_stream()
                    stats = lane.drain()
                    done = clock()
                    result.apply_s.append(done - sent)
                    if (index + 1) % self.tick_every == 0:
                        ticks.append(lane.digests())
                        result.tick_s.append(clock() - done)
                if tracer is not None:
                    tracer.batch = None
                result.wall_s = clock() - start
                if tracer is not None:
                    tracer.active, active = False, tracer.active
                    tracer.add("transport.datagrams", reporter.datagrams_sent)
                    tracer.add("transport.reports", reporter.reports_sent)
                    tracer.add("transport.shim_dropped",
                               reporter.shim.dropped)
                    tracer.add("transport.nacks", stats["nacks_sent"])
                    tracer.add("transport.acks", reporter.acks_received)
                    tracer.add("transport.ctrl_bytes",
                               reporter.ctrl_bytes_received)
                result.attempted = sum(len(chunk) for chunk in self.chunks)
                result.injected_drops = reporter.shim.dropped
                result.landed = stats["reports"]
                result.ingest_reports = result.landed - first_landed
                digests = lane.digests()
                result.peak_rss_mb = vm_hwm_mb() + sum(
                    vm_hwm_mb(child.pid)
                    for child in multiprocessing.active_children())
                if tracer is not None:
                    tracer.active = active
        finally:
            obs.set_registry(previous)
        if digests != self.ref_digest:
            result.mismatches.append("daemon digest != run_reference digest")
        if ticks != self.ref_ticks:
            result.mismatches.append("daemon query rows != reference rows")
        if result.injected_drops != self.ref_drops:
            result.mismatches.append("shim drops != twin shim drops")
        if result.landed != self.ref_landed:
            result.mismatches.append(
                f"landed {result.landed} != post-shim {self.ref_landed}")
        return result


WORKLOADS = {cls.name: cls for cls in (KwIngest, MixedServe, SocketLossy)}
