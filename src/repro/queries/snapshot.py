"""Epoch-consistent snapshots of collector store memory.

The DTA data plane writes collector memory continuously — under the
streaming runtime, from the submitting thread as each batch
translates.  A reader thread that walks slot memory while a batch is
landing could see half of its writes, which is exactly the torn read Confluo's atomic
multilog exists to prevent.  This module gives the reproduction the
same guarantee with one mechanism: :func:`snapshot_of` captures a
frozen copy of every served store region, and the streaming engine
exposes it only at *batch boundaries* (see
:meth:`repro.runtime.engine.StreamEngine.snapshot`), so a snapshot is
always the state after some prefix of fully applied batches.

The copy is cheap — one ``bytearray`` memcpy per served region, no
re-hashing, no decode — and the snapshot reuses the live store
*classes* over the frozen regions, so every query the collector can
answer, the snapshot answers identically.  Thousands of readers can
then run plans against their snapshots with zero coordination: nothing
they hold is ever mutated again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.rdma.memory import MemoryRegion

#: Served-store attributes captured by a snapshot, in digest order
#: (must match ``repro.runtime.engine._STORE_ATTRS``).
STORE_ATTRS = ("keywrite", "keyincrement", "postcarding", "append",
               "sketch")


def _freeze_region(region: MemoryRegion) -> MemoryRegion:
    """An immutable-by-convention copy of a registered region.

    Same address/keys/rights (layout arithmetic and digests stay
    valid), fresh backing buffer — the one memcpy a snapshot costs.
    """
    return MemoryRegion(addr=region.addr, length=region.length,
                        access=region.access, lkey=region.lkey,
                        rkey=region.rkey, buf=bytearray(region.buf))


def _freeze_store(store):
    """Clone a store object onto a frozen copy of its region.

    Shallow-copies the store (layout objects are immutable and shared),
    swaps in the frozen region, and resets per-store query counters so
    reads against the snapshot never race the live store's accounting.
    """
    frozen = copy.copy(store)
    frozen.region = _freeze_region(store.region)
    if hasattr(frozen, "reset_stats"):          # KeyWriteStore
        frozen.reset_stats()
    if hasattr(frozen, "queries"):              # KI / Postcarding counters
        frozen.queries = 0
    for attr in ("hits", "chunk_reads", "hop_checksums", "entries_read"):
        if hasattr(frozen, attr):
            setattr(frozen, attr, 0)
    return frozen


@dataclass(frozen=True)
class CollectorSnapshot:
    """A frozen, queryable view of one collector's served stores.

    Attributes:
        name: The collector the snapshot was taken from.
        batch_seq: Under the streaming runtime, the sequence number of
            the last burst fully applied before the snapshot (``None``
            when the snapshot was taken outside a stream, or before
            any burst has been applied).  Two snapshots with equal
            ``batch_seq`` taken from a quiesced stream are bit-equal.
        keywrite / keyincrement / postcarding / append / sketch: The
            frozen store views (``None`` where the service was never
            provisioned), answering the exact same query API as the
            live stores.
    """

    name: str
    batch_seq: int | None = None
    keywrite: object | None = None
    keyincrement: object | None = None
    postcarding: object | None = None
    append: object | None = None
    sketch: object | None = None
    _digest: list = field(default_factory=list, repr=False, compare=False)

    # -- Collector-compatible query surface -----------------------------

    def query_value(self, key: bytes, *, redundancy: int | None = None,
                    consensus: int = 1):
        if self.keywrite is None:
            raise RuntimeError("key-write service not in snapshot")
        return self.keywrite.query(key, redundancy=redundancy,
                                   consensus=consensus)

    def query_counter(self, key: bytes, *,
                      redundancy: int | None = None) -> int:
        if self.keyincrement is None:
            raise RuntimeError("key-increment service not in snapshot")
        return self.keyincrement.query(key, redundancy=redundancy)

    def query_path(self, key: bytes, *, redundancy: int = 1):
        if self.postcarding is None:
            raise RuntimeError("postcarding service not in snapshot")
        return self.postcarding.query(key, redundancy=redundancy)

    def list_poller(self, list_id: int):
        if self.append is None:
            raise RuntimeError("append service not in snapshot")
        return self.append.poller(list_id)

    def store_digest(self) -> str:
        """The same SHA-256 ``store_digest`` the soak gates compare.

        A snapshot taken from a quiesced deployment digests identically
        to the live collector — the property the differential suite
        leans on.  Memoized: the regions can never change again.
        """
        from repro.runtime.engine import store_digest

        if not self._digest:
            self._digest.append(store_digest(self))
        return self._digest[0]


def snapshot_of(collector, *, batch_seq: int | None = None
                ) -> CollectorSnapshot:
    """Capture a :class:`CollectorSnapshot` of every served store.

    The caller is responsible for quiescence: either no writer is
    running (serial deployments between sends), or the streaming
    engine's store lock is held (what
    :meth:`~repro.runtime.engine.StreamEngine.snapshot` does).
    """
    frozen = {}
    for attr in STORE_ATTRS:
        store = getattr(collector, attr, None)
        if store is not None and getattr(store, "region", None) is not None:
            frozen[attr] = _freeze_store(store)
    return CollectorSnapshot(name=getattr(collector, "name", "collector"),
                             batch_seq=batch_seq, **frozen)
