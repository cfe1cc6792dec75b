"""The DTA collector: RDMA-written memory plus CPU-side query engines.

Section 4.3: the collector "has support for per-primitive memory
structures and querying the reported telemetry data.  The collector can
host several primitives in parallel using unique RDMA_CM ports, and
advertise primitive-specific metadata to the translator."

The collector CPU never touches incoming reports — they land in
registered memory via the translator's RDMA writes.  What the CPU does
is (a) provision services, and (b) answer queries against the stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import calibration
from repro.obs.views import InstrumentedStats, counter_field
from repro.core.stores.append import AppendLayout, AppendStore, ListPoller
from repro.core.stores.keyincrement import (
    KeyIncrementLayout,
    KeyIncrementStore,
)
from repro.core.stores.keywrite import KeyWriteLayout, KeyWriteStore
from repro.core.stores.postcarding import PostcardingLayout, PostcardingStore
from repro.core.stores.sketchstore import SketchLayout, SketchStore
from repro.core.transport import RoceFrame, make_direct_client
from repro.fabric.topology import Node
from repro.rdma.cm import CmListener, ServiceAdvert
from repro.rdma.nic import Nic

# Default CM ports per primitive (one service per port, Section 4.3).
PORT_KEY_WRITE = 9910
PORT_POSTCARDING = 9911
PORT_APPEND = 9912
PORT_SKETCH_MERGE = 9913
PORT_KEY_INCREMENT = 9914
PORT_CUCKOO = 9915


@dataclass(frozen=True)
class Notification:
    """A push notification raised by an immediate-flagged report.

    Section 6: "DTA packets can include an *immediate flag*, which can
    be used by the translator to inform the CPU that new data has
    arrived through RDMA immediate interrupts (e.g., a flow is
    experiencing problems)."  The 32-bit immediate encodes which
    primitive's data landed and which reporter sent it.
    """

    primitive: int
    reporter_id: int

    @classmethod
    def from_imm(cls, imm: int) -> "Notification":
        return cls(primitive=imm >> 16, reporter_id=imm & 0xFFFF)


class CollectorStats(InstrumentedStats):
    """CPU-side activity: queries answered, interrupts drained.

    The data plane deliberately has nothing to count here — reports
    land via RDMA without collector CPU involvement, which is the
    paper's headline claim; these counters prove the CPU only ever
    works when *asked* something.
    """

    component = "collector"

    queries_value = counter_field()
    queries_path = counter_field()
    queries_counter = counter_field()
    notifications_drained = counter_field()


class Collector(Node):
    """A collector host: one RDMA NIC, several primitive services."""

    def __init__(self, name: str = "collector",
                 nic: Nic | None = None) -> None:
        super().__init__(name)
        self.stats = CollectorStats(labels={"node": name})
        self.nic = nic or Nic(f"{name}-nic")
        self.cm = CmListener(self.nic)
        self.keywrite: KeyWriteStore | None = None
        self.postcarding: PostcardingStore | None = None
        self.append: AppendStore | None = None
        self.keyincrement: KeyIncrementStore | None = None
        self.sketch: SketchStore | None = None
        self.cuckoo = None  # CuckooStore, provisioned on demand
        self._server_qps: list = []

    # ------------------------------------------------------------------
    # Service provisioning
    # ------------------------------------------------------------------

    def serve_keywrite(self, *, slots: int, data_bytes: int,
                       port: int = PORT_KEY_WRITE) -> ServiceAdvert:
        """Provision a Key-Write store of ``slots`` x ``data_bytes``."""
        layout_probe = KeyWriteLayout(base_addr=0, slots=slots,
                                      data_bytes=data_bytes)
        region = self.nic.register_memory(layout_probe.region_bytes)
        layout = KeyWriteLayout(base_addr=region.addr, slots=slots,
                                data_bytes=data_bytes)
        self.keywrite = KeyWriteStore(region, layout)
        advert = ServiceAdvert(
            primitive="key_write", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"slots": slots, "data_bytes": data_bytes})
        self.cm.listen(port, advert)
        return advert

    def serve_postcarding(self, *, chunks: int, value_set,
                          hops: int = calibration.POSTCARDING_MAX_HOPS,
                          slot_bits: int = 32,
                          cache_slots: int =
                          calibration.POSTCARDING_CACHE_SLOTS,
                          port: int = PORT_POSTCARDING) -> ServiceAdvert:
        """Provision a Postcarding store of ``chunks`` B-hop chunks."""
        pad_to = max(calibration.POSTCARDING_SLOT_PAD_BYTES,
                     hops * (slot_bits // 8))
        probe = PostcardingLayout(base_addr=0, chunks=chunks, hops=hops,
                                  slot_bits=slot_bits, pad_to=pad_to)
        region = self.nic.register_memory(probe.region_bytes)
        layout = PostcardingLayout(base_addr=region.addr, chunks=chunks,
                                   hops=hops, slot_bits=slot_bits,
                                   pad_to=pad_to)
        self.postcarding = PostcardingStore(region, layout, value_set)
        advert = ServiceAdvert(
            primitive="postcarding", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"chunks": chunks, "hops": hops, "slot_bits": slot_bits,
                    "pad_to": pad_to, "cache_slots": cache_slots})
        self.cm.listen(port, advert)
        return advert

    def serve_append(self, *, lists: int, capacity: int, data_bytes: int,
                     batch_size: int = calibration.DEFAULT_BATCH_SIZE,
                     port: int = PORT_APPEND) -> ServiceAdvert:
        """Provision ``lists`` ring buffers of ``capacity`` entries."""
        probe = AppendLayout(base_addr=0, lists=lists, capacity=capacity,
                             data_bytes=data_bytes)
        region = self.nic.register_memory(probe.region_bytes)
        layout = AppendLayout(base_addr=region.addr, lists=lists,
                              capacity=capacity, data_bytes=data_bytes)
        self.append = AppendStore(region, layout)
        advert = ServiceAdvert(
            primitive="append", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"lists": lists, "capacity": capacity,
                    "data_bytes": data_bytes, "batch_size": batch_size})
        self.cm.listen(port, advert)
        return advert

    def serve_keyincrement(self, *, slots_per_row: int, rows: int = 4,
                           port: int = PORT_KEY_INCREMENT) -> ServiceAdvert:
        """Provision a Key-Increment CMS of rows x slots counters."""
        probe = KeyIncrementLayout(base_addr=0, slots_per_row=slots_per_row,
                                   rows=rows)
        region = self.nic.register_memory(probe.region_bytes)
        layout = KeyIncrementLayout(base_addr=region.addr,
                                    slots_per_row=slots_per_row, rows=rows)
        self.keyincrement = KeyIncrementStore(region, layout)
        advert = ServiceAdvert(
            primitive="key_increment", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"slots_per_row": slots_per_row, "rows": rows})
        self.cm.listen(port, advert)
        return advert

    def serve_sketch(self, *, width: int, depth: int,
                     expected_reporters: int, batch_columns: int = 8,
                     merge: str = "sum", sketch_id: int = 0,
                     port: int = PORT_SKETCH_MERGE) -> ServiceAdvert:
        """Provision a merged-sketch region of width x depth counters.

        One service aggregates one ``sketch_id``; deploy additional
        services (distinct ports/collectors) for additional sketches —
        Section 6 routes each sketch to a single aggregation point.
        """
        probe = SketchLayout(base_addr=0, width=width, depth=depth)
        region = self.nic.register_memory(probe.region_bytes)
        layout = SketchLayout(base_addr=region.addr, width=width,
                              depth=depth)
        self.sketch = SketchStore(region, layout)
        advert = ServiceAdvert(
            primitive="sketch_merge", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"width": width, "depth": depth,
                    "expected_reporters": expected_reporters,
                    "batch_columns": batch_columns, "merge": merge,
                    "sketch_id": sketch_id})
        self.cm.listen(port, advert)
        return advert

    def serve_cuckoo(self, *, buckets: int, key_bytes: int,
                     value_bytes: int,
                     port: int = PORT_CUCKOO) -> ServiceAdvert:
        """Provision a translator-managed cuckoo table (Section 6).

        Unlike the write-only primitives, this store is mutated through
        RDMA READ+WRITE sequences issued by a single
        :class:`~repro.core.stores.cuckoo.CuckooManager` at the
        translator — the "enhanced data aggregation" future-work design.
        """
        from repro.core.stores.cuckoo import CuckooLayout, CuckooStore

        probe = CuckooLayout(base_addr=0, buckets=buckets,
                             key_bytes=key_bytes, value_bytes=value_bytes)
        region = self.nic.register_memory(probe.region_bytes)
        layout = CuckooLayout(base_addr=region.addr, buckets=buckets,
                              key_bytes=key_bytes,
                              value_bytes=value_bytes)
        self.cuckoo = CuckooStore(region, layout)
        advert = ServiceAdvert(
            primitive="cuckoo", addr=region.addr, rkey=region.rkey,
            length=region.length,
            params={"buckets": buckets, "key_bytes": key_bytes,
                    "value_bytes": value_bytes})
        self.cm.listen(port, advert)
        return advert

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect_translator(self, translator, *, fabric: bool = False,
                           translator_nic: Nic | None = None) -> None:
        """Handshake every advertised service with a translator.

        Direct mode wires a synchronous RDMA transport; fabric mode
        leaves packet movement to the topology links (the translator
        sends RoceFrames and this node forwards NIC responses back).
        """
        # One QP serves every primitive: the whole point of the
        # translator architecture is a minimal connection count at the
        # collector NIC (Section 3.1(2)).
        server_qp = self.nic.create_qp()
        self._server_qps.append(server_qp)
        if fabric:
            client_nic = translator_nic or Nic("translator-rdma")
            client_qp = client_nic.create_qp()
            self.nic.connect_qp(server_qp, client_qp.qpn)
            client_nic.connect_qp(client_qp, server_qp.qpn)
            from repro.core.transport import RdmaClient

            def send_fn(raw, _t=translator):
                _t.send(self.name, RoceFrame(src=_t.name, raw=raw),
                        len(raw) + 42)

            client = RdmaClient(client_qp, send_fn)
        else:
            client = make_direct_client(self.nic, server_qp)
        translator.attach_rdma(client)
        for _port, advert in sorted(self.cm.ports().items()):
            translator.configure(advert)

    # ------------------------------------------------------------------
    # Fabric-mode entry point
    # ------------------------------------------------------------------

    def receive(self, packet) -> None:
        if not isinstance(packet, RoceFrame):
            raise TypeError(f"collector got unexpected {packet!r}")
        response = self.nic.receive(packet.raw)
        if response is not None:
            self.send(packet.src, RoceFrame(src=self.name, raw=response),
                      len(response) + 42)

    # ------------------------------------------------------------------
    # Query API (the CPU side)
    # ------------------------------------------------------------------

    def query_path(self, key: bytes, *, redundancy: int = 1):
        """Postcarding query: the traced path for a flow key."""
        if self.postcarding is None:
            raise RuntimeError("postcarding service not provisioned")
        self.stats.queries_path += 1
        return self.postcarding.query(key, redundancy=redundancy)

    def query_value(self, key: bytes, *, redundancy: int | None = None,
                    consensus: int = 1):
        """Key-Write query: the latest value reported for a key."""
        if self.keywrite is None:
            raise RuntimeError("key-write service not provisioned")
        self.stats.queries_value += 1
        return self.keywrite.query(key, redundancy=redundancy,
                                   consensus=consensus)

    def query_counter(self, key: bytes, *,
                      redundancy: int | None = None) -> int:
        """Key-Increment query: CMS point estimate for a key."""
        if self.keyincrement is None:
            raise RuntimeError("key-increment service not provisioned")
        self.stats.queries_counter += 1
        return self.keyincrement.query(key, redundancy=redundancy)

    def list_poller(self, list_id: int) -> ListPoller:
        """A sequential poller over one Append list."""
        if self.append is None:
            raise RuntimeError("append service not provisioned")
        return self.append.poller(list_id)

    def snapshot(self, *, batch_seq: int | None = None):
        """Freeze every provisioned store for isolated querying.

        Returns a :class:`~repro.queries.snapshot.CollectorSnapshot`
        exposing the same query API over copied store memory, so a
        reader can keep querying a stable view while reports continue
        to land in the live regions.  When the collector is being fed
        by a :class:`~repro.runtime.engine.StreamEngine`, prefer
        ``engine.snapshot()``, which additionally takes the engine's
        ``store_lock`` so the copy lands on a batch boundary.
        """
        from repro.queries.snapshot import snapshot_of

        return snapshot_of(self, batch_seq=batch_seq)

    def drain_notifications(self) -> list:
        """Collect pending RDMA-immediate interrupts (Section 6).

        WRITE_WITH_IMM completions queue on the receiving QP; this
        drains them into :class:`Notification` records so reactive
        analysis can trigger without polling the data structures.
        """
        out = []
        for qp in self._server_qps:
            while qp.completions:
                wc = qp.completions.popleft()
                if wc.imm is not None:
                    out.append(Notification.from_imm(wc.imm))
        self.stats.notifications_drained += len(out)
        return out
