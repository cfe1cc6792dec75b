"""The deployment lane: real processes, real sockets, one digest gate.

``run_serve`` drives a seeded workload through two lanes and demands
bit-identical collector stores:

* **socket lane** — a :class:`SocketLane`: N collector daemons over
  shared-memory store segments, ``--translators T`` translator daemons
  on UDP sockets, and a
  :class:`~repro.transport.reporter.SocketReporter` whose transmit
  path applies the seeded loss shim, then coalesces survivors into
  ``KIND_FRAME`` envelopes and sends them in ``sendmmsg`` bursts.
  Each collector shard's traffic rides lane ``shard % T``, so every
  store segment keeps exactly one writing daemon.
* **reference lane** — the same pre-encoded report bytes through the
  same :class:`~repro.transport.assembler.ReportAssembler` and a shim
  built from the same :class:`~repro.transport.loss.LossSpec`, all in
  this process, deliberately on the *scalar* paths: per-report
  ``feed`` (no frames, no numpy codecs) into scalar-translate
  translators.  Digest equality is therefore a differential over the
  whole vectorized stack, not two copies of one implementation.

Because both lanes share the byte stream, the impairment schedule, and
the routing map, digest equality is a property of the transport —
kernel reordering hidden by the lane envelope, no kernel loss thanks
to the ACK window — rather than of two implementations happening to
agree.  This is the determinism contract of docs/CONCURRENCY.md
extended across process and socket boundaries.

Beyond digests, the document gates *conservation*: every emitted
envelope delivered in order, every delivered report decoded, and the
control channel (ACKs + NACKs) accounted on both ends — bytes received
by the reporter never exceed bytes the daemons sent.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, field

from repro import bench, obs
from repro.core import packets
from repro.core.cluster import ClusterMap
from repro.runtime.engine import store_digest
from repro.transport.assembler import ReportAssembler
from repro.transport.daemons import (
    ACK_EVERY,
    PC_HOPS,
    collector_daemon_main,
    provision_collector,
    segment_plan,
    translator_daemon_main,
)
from repro.transport.loss import LossSpec
from repro.transport.reporter import SocketReporter
from repro.core.translator import Translator

SERVE_SCHEMA = "repro-serve/2"

_READY_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 5.0


class ServeError(RuntimeError):
    """The socket lane failed structurally (daemon death, timeout)."""


@dataclass(frozen=True)
class ServeSpec:
    """Everything that determines a deployment-lane run."""

    primitive: str = "key_write"
    reports: int = 20000
    collectors: int = 2
    batch_size: int = 256
    seed: int = 1
    loss: LossSpec = field(default_factory=LossSpec)
    vectorized: bool = True
    window: int = 2048
    translators: int = 1
    frame_bytes: int = 1400
    ack_every: int = ACK_EVERY
    use_mmsg: bool | None = None

    def __post_init__(self) -> None:
        if self.primitive not in bench.PRIMITIVES:
            raise ValueError(f"unknown primitive '{self.primitive}'")
        if self.reports <= 0:
            raise ValueError("reports must be positive")
        if self.collectors <= 0:
            raise ValueError("need at least one collector")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.translators <= 0:
            raise ValueError("need at least one translator")
        if self.frame_bytes < 64:
            raise ValueError("frame_bytes must be at least 64")
        if self.ack_every <= 0:
            raise ValueError("ack_every must be positive")

    @property
    def sketch_width(self) -> int:
        return self.reports if self.primitive == "sketch_merge" else 0


def encode_workload(spec: ServeSpec, *, reporter_id: int = 1) -> list:
    """The run's report stream as DTA wire bytes, pre-impairment.

    Reuses the seeded ``bench`` workload generator and the existing
    wire codec (:func:`repro.core.packets.make_report`) so the stream
    is byte-identical no matter which lane consumes it.  Non-essential
    by construction: the differential gate must not depend on NACK
    retransmission timing.
    """
    work = bench._workload(spec.primitive, spec.reports, spec.seed)
    raws = []
    if spec.primitive == "key_write":
        for key, data in zip(work["keys"], work["datas"]):
            raws.append(packets.make_report(
                packets.KeyWrite(key=key, data=data, redundancy=2),
                reporter_id=reporter_id))
    elif spec.primitive == "key_increment":
        for key, value in zip(work["keys"], work["values"]):
            raws.append(packets.make_report(
                packets.KeyIncrement(key=key, value=value, redundancy=2),
                reporter_id=reporter_id))
    elif spec.primitive == "postcarding":
        for key, hop, value in zip(work["keys"], work["hops"],
                                   work["values"]):
            raws.append(packets.make_report(
                packets.Postcard(key=key, hop=hop, value=value,
                                 path_length=PC_HOPS, redundancy=1),
                reporter_id=reporter_id))
    elif spec.primitive == "append":
        for list_id, data in zip(work["list_ids"], work["datas"]):
            raws.append(packets.make_report(
                packets.Append(list_id=list_id, data=data),
                reporter_id=reporter_id))
    else:
        for column, counters in zip(work["columns"],
                                    work["counter_rows"]):
            raws.append(packets.make_report(
                packets.SketchColumn(sketch_id=0, column=column,
                                     counters=counters),
                reporter_id=reporter_id))
    return raws


#: Absolute key offset per keyed primitive: base header (8) plus the
#: fixed subheader (KW ">BBH"=4, KI ">BBq"=10, PC ">BBBBI"=8); the key
#: length sits at byte 9 (second subheader byte) in all three layouts.
_KEY_AT = {
    int(packets.DtaPrimitive.KEY_WRITE): 12,
    int(packets.DtaPrimitive.KEY_INCREMENT): 18,
    int(packets.DtaPrimitive.POSTCARDING): 16,
}


def route_report(cmap: ClusterMap, raw: bytes) -> int:
    """Shard a pre-encoded report exactly as the assembler will.

    Light byte slicing instead of a full ``decode_report`` — this runs
    per report on the transmit path and only needs the routing
    identity, not validation.  Must agree with
    :meth:`ReportAssembler.feed`'s routing so that lane selection
    (shard → translator daemon) matches the daemon-side store writes.
    """
    prim = raw[0] & 0xF
    key_at = _KEY_AT.get(prim)
    if key_at is not None:
        return cmap.for_key(raw[key_at:key_at + raw[9]])
    if prim == int(packets.DtaPrimitive.APPEND):
        return cmap.for_list((raw[8] << 8) | raw[9])
    return cmap.for_sketch(0)


# ---------------------------------------------------------------------------
# The socket lane
# ---------------------------------------------------------------------------


class SocketLane:
    """Owns the lane's processes, sockets, and shared segments.

    Use as a context manager; ``__exit__`` stops every daemon and
    unlinks every segment regardless of how the run ended, so a crash
    mid-stream cannot leak ``/dev/shm`` entries.
    """

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self.reporter: SocketReporter | None = None
        self._segments: list = []          # flat list of SharedMemory
        self._collector_procs: list = []
        self._collector_conns: list = []
        self._translator_procs: list = []
        self._translator_conns: list = []

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "SocketLane":
        from multiprocessing import shared_memory

        spec = self.spec
        ctx = multiprocessing.get_context()
        plan = segment_plan(spec.sketch_width)
        names_per_shard = []
        try:
            for _shard in range(spec.collectors):
                names = []
                for _store, length in plan:
                    shm = shared_memory.SharedMemory(
                        create=True, size=max(1, length))
                    self._segments.append(shm)
                    names.append(shm.name)
                names_per_shard.append(names)

            for shard in range(spec.collectors):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=collector_daemon_main,
                    args=(shard, spec.sketch_width,
                          names_per_shard[shard], child_conn),
                    daemon=True, name=f"dta-collector-{shard}")
                proc.start()
                child_conn.close()
                self._collector_procs.append(proc)
                self._collector_conns.append(parent_conn)
            for shard, conn in enumerate(self._collector_conns):
                self._await(conn, self._collector_procs[shard],
                            expect="ready")

            self.reporter = SocketReporter(
                "serve-reporter", 1,
                shards=spec.collectors, translators=spec.translators,
                loss=spec.loss, window=spec.window,
                frame_bytes=spec.frame_bytes, use_mmsg=spec.use_mmsg)
            for lane in range(spec.translators):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=translator_daemon_main,
                    args=(names_per_shard, spec.sketch_width,
                          spec.vectorized, spec.batch_size,
                          self.reporter.ctrl_addr, child_conn),
                    kwargs={"lane": lane, "ack_every": spec.ack_every,
                            "use_mmsg": spec.use_mmsg},
                    daemon=True, name=f"dta-translator-{lane}")
                proc.start()
                child_conn.close()
                self._translator_procs.append(proc)
                self._translator_conns.append(parent_conn)
            addrs = []
            for lane, conn in enumerate(self._translator_conns):
                _tag, port = self._await(
                    conn, self._translator_procs[lane], expect="ready")
                addrs.append(("127.0.0.1", port))
            self.reporter.set_data_addrs(addrs)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop_daemons()
        if self.reporter is not None:
            self.reporter.close()
            self.reporter = None
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:   # pragma: no cover - parent holds no views
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    # -- the run -------------------------------------------------------

    def send(self, raws, shards=None) -> None:
        """Transmit pre-encoded reports through shim + frame packer.

        ``shards`` (from :func:`route_report`) steers each report to
        the lane owning its collector; without it everything rides the
        legacy shard-0 lane (fine for single-translator runs).
        """
        if shards is None:
            transmit = self.reporter.transmit
            for raw in raws:
                transmit(raw)
        else:
            self.reporter.transmit_many(shards, raws)

    def drain(self, timeout: float = _DRAIN_TIMEOUT_S) -> dict:
        """End-of-stream handshake: one ``drained`` per translator.

        Aggregates the per-daemon stats (summed counters, with the raw
        per-lane list under ``"per_lane"``).  Raises
        :class:`ServeError` if any daemon dies or the drain does not
        complete in ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        pending = dict(enumerate(self._translator_conns))
        drained: dict = {}
        while pending:
            self._check_alive()
            for index, conn in list(pending.items()):
                if conn.poll(0.02):
                    tag, payload = conn.recv()
                    if tag != "drained":
                        raise ServeError(
                            f"unexpected translator reply {tag!r}")
                    drained[index] = payload
                    del pending[index]
            # Keep the window/control machinery moving while we wait.
            self.reporter.poll_control()
            if pending and time.monotonic() >= deadline:
                raise ServeError(
                    f"translators {sorted(pending)} did not drain "
                    f"within {timeout:.0f}s")
        return _merge_stats([drained[i] for i in range(len(drained))])

    def digests(self) -> list:
        """Store digests from every collector daemon, in shard order."""
        out = []
        for shard, conn in enumerate(self._collector_conns):
            conn.send(("digest", None))
            _tag, digest = self._await(
                conn, self._collector_procs[shard], expect="digest")
            out.append(digest)
        return out

    def query(self, shard: int, command: str, key: bytes):
        """Ask one collector daemon a store query (settle tests)."""
        conn = self._collector_conns[shard]
        conn.send((command, key))
        _tag, answer = self._await(conn, self._collector_procs[shard])
        return answer

    # -- internals -----------------------------------------------------

    def _await(self, conn, proc, *, expect: str | None = None,
               timeout: float = _READY_TIMEOUT_S):
        deadline = time.monotonic() + timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise ServeError(
                    f"daemon {proc.name} died "
                    f"(exitcode {proc.exitcode})")
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"daemon {proc.name} silent for {timeout:.0f}s")
        reply = conn.recv()
        if expect is not None and reply[0] != expect:
            raise ServeError(
                f"daemon {proc.name} replied {reply[0]!r}, "
                f"wanted {expect!r}")
        return reply

    def _check_alive(self) -> None:
        procs = list(self._collector_procs) + list(self._translator_procs)
        for proc in procs:
            if not proc.is_alive():
                raise ServeError(
                    f"daemon {proc.name} died mid-stream "
                    f"(exitcode {proc.exitcode})")

    def _stop_daemons(self) -> None:
        pairs = (list(zip(self._collector_conns, self._collector_procs))
                 + list(zip(self._translator_conns,
                            self._translator_procs)))
        for conn, proc in pairs:
            if proc.is_alive():
                try:
                    conn.send(("stop", None))
                except (BrokenPipeError, OSError):
                    pass
        for conn, proc in pairs:
            proc.join(timeout=_STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_STOP_TIMEOUT_S)
            conn.close()
        self._collector_conns.clear()
        self._collector_procs.clear()
        self._translator_conns.clear()
        self._translator_procs.clear()


def _merge_stats(per_lane: list) -> dict:
    """Sum per-daemon drain stats; keep the raw list for forensics."""
    total = {key: 0 for key in per_lane[0] if key != "lane"}
    for stats in per_lane:
        for key, value in stats.items():
            if key != "lane":
                total[key] = total.get(key, 0) + value
    total["per_lane"] = per_lane
    return total


# ---------------------------------------------------------------------------
# Reference lane + the differential run
# ---------------------------------------------------------------------------


def run_reference(spec: ServeSpec, raws) -> list:
    """The in-process twin: same bytes, same shim, scalar everything.

    Feeds each survivor through the scalar per-report ``feed`` path
    into scalar-translate translators regardless of the socket lane's
    settings, so digest equality is a differential across the frame
    codec, the columnar assembler, *and* the vectorized RDMA lanes.
    Returns the per-shard store digests the socket lane must match.
    """
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        collectors = []
        translators = []
        for shard in range(spec.collectors):
            collector = provision_collector(
                f"collector-{shard}", sketch_width=spec.sketch_width)
            translator = Translator(f"translator-{shard}",
                                    vectorized=False)
            collector.connect_translator(translator)
            collectors.append(collector)
            translators.append(translator)
        assembler = ReportAssembler(
            translators, ClusterMap(collectors=spec.collectors),
            batch_size=spec.batch_size)
        shim = spec.loss.shim()
        for raw in raws:
            for survivor in shim.step(raw):
                assembler.feed(survivor)
        for survivor in shim.flush():
            assembler.feed(survivor)
        assembler.finish()
        return [store_digest(collector) for collector in collectors]
    finally:
        obs.set_registry(previous)


def run_serve(spec: ServeSpec, *, date: str,
              reference: bool = True, smoke: bool = False) -> dict:
    """Run the deployment lane end to end; returns the gated document."""
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        raws = encode_workload(spec)
        cmap = ClusterMap(collectors=spec.collectors)
        shards = [route_report(cmap, raw) for raw in raws]
        with SocketLane(spec) as lane:
            start = time.monotonic()
            lane.send(raws, shards)
            sent = lane.reporter.end_stream()
            stats = lane.drain()
            elapsed = time.monotonic() - start
            lane_digests = lane.digests()
            reporter = lane.reporter
            shim = reporter.shim
            datagrams = reporter.datagrams_sent
            frames = reporter.frames_sent
            lane_seqs = reporter.lane_seqs
            acks = reporter.acks_received
            ctrl_dgrams_recv = reporter.ctrl_datagrams_received
            ctrl_bytes_recv = reporter.ctrl_bytes_received
        ref_digests = run_reference(spec, raws) if reference else None
    finally:
        obs.set_registry(previous)

    gates = [
        ["every surviving datagram delivered in order",
         stats["delivered"] == sum(lane_seqs) and stats["waiting"] == 0],
        ["every delivered report decoded",
         stats["reports"] == sent and stats["malformed"] == 0],
        # Received ≤ sent, not ==: the daemons keep idle re-ACKing
        # after the reporter stops polling, and UDP may shed control
        # datagrams under pressure — neither may *create* bytes.
        ["control channel conserved (ACK/NACK bytes accounted)",
         ctrl_dgrams_recv <= stats["ctrl_datagrams_sent"]
         and ctrl_bytes_recv <= stats["ctrl_bytes_sent"]],
    ]
    if reference:
        gates.append(["socket-lane store digests match in-process lane",
                      lane_digests == ref_digests])
    document = {
        "schema": SERVE_SCHEMA,
        "date": date,
        "config": {
            "primitive": spec.primitive,
            "reports": spec.reports,
            "collectors": spec.collectors,
            "batch_size": spec.batch_size,
            "seed": spec.seed,
            "vectorized": spec.vectorized,
            "window": spec.window,
            "translators": spec.translators,
            "frame_bytes": spec.frame_bytes,
            "ack_every": spec.ack_every,
            "use_mmsg": spec.use_mmsg,
            "loss": asdict(spec.loss),
            "smoke": smoke,
        },
        "socket": {
            "reports_sent": sent,
            "datagrams_sent": datagrams,
            "frames_sent": frames,
            "lane_seqs": lane_seqs,
            "acks_received": acks,
            "ctrl_datagrams_received": ctrl_dgrams_recv,
            "ctrl_bytes_received": ctrl_bytes_recv,
            "shim": {"dropped": shim.dropped,
                     "reordered": shim.reordered,
                     "passed": shim.passed},
            "elapsed_s": round(elapsed, 6),
            "reports_per_sec": round(stats["reports"] / elapsed, 1)
            if elapsed > 0 else 0.0,
            "translator": stats,
            "store_digests": lane_digests,
        },
        "reference": ({"store_digests": ref_digests}
                      if reference else None),
        "gates": gates,
    }
    document["pass"] = all(ok for _name, ok in gates)
    return document


def render_serve(document: dict) -> str:
    """Human-readable summary of a SERVE document."""
    config = document["config"]
    sock = document["socket"]
    shim = sock["shim"]
    lines = [
        f"deployment lane: {config['primitive']} x {config['reports']} "
        f"reports -> {config['collectors']} collector daemon(s) / "
        f"{config['translators']} translator daemon(s) "
        f"over UDP (seed {config['seed']})",
        f"  shim: dropped {shim['dropped']}, reordered "
        f"{shim['reordered']}, passed {shim['passed']} "
        f"(drop {config['loss']['drop_rate']:.1%}, reorder "
        f"{config['loss']['reorder_rate']:.1%})",
        f"  socket lane: {sock['reports_sent']} reports in "
        f"{sock['frames_sent']} frames / {sock['datagrams_sent']} "
        f"datagrams, {sock['elapsed_s']:.3f}s = "
        f"{sock['reports_per_sec']:,.0f} reports/s, "
        f"{sock['translator']['rdma_messages']} RDMA msgs, "
        f"{sock['translator']['batches']} batches",
        f"  control: {sock['acks_received']} ACKs, "
        f"{sock['ctrl_bytes_received']}B received / "
        f"{sock['translator']['ctrl_bytes_sent']}B sent",
    ]
    for shard, digest in enumerate(sock["store_digests"]):
        lines.append(f"  shard {shard}: {digest}")
    for name, ok in document["gates"]:
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    lines.append(f"serve: {'PASS' if document['pass'] else 'FAIL'}")
    return "\n".join(lines)
