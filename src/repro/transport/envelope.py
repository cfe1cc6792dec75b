"""Deployment-lane datagram envelope and in-order reassembly.

DTA reports ride UDP, and the determinism contract of the repository
(digest equality with the scalar reference, see docs/CONCURRENCY.md)
requires the translator to consume the *post-impairment* stream in a
reproducible order.  Real UDP gives no such guarantee between two
sockets on one host — the kernel may legally reorder — so every
datagram the reporter emits carries a tiny lane envelope:

    >QB   lane sequence number (assigned AFTER the loss shim), kind

followed by the payload.  The lane sequence number is a transport
artefact, deliberately distinct from the DTA report sequence inside
the payload: DTA seqs exist for the protocol's own loss detection
(NACKs, Section 3.3), while the lane seq exists so the receiver can
restore exactly the order the shim emitted.  Because the shim has
already applied drop and reorder *before* numbering, reassembly hides
kernel-level reordering without undoing the impairment under test.

``KIND_END`` marks end-of-stream; its payload is the total number of
reports emitted, letting the receiver prove delivery conservation
before reporting itself drained.

``KIND_FRAME`` is the coalesced hot path: one lane seq covers a whole
*frame* of DTA reports — a big-endian ``u16`` report count, a table of
``u16`` per-report lengths, then the concatenated report bytes.  The
length table sits up front (rather than interleaving each length with
its report) so the vectorized decoder (:mod:`repro.kernels.wire`) can
read every sub-frame boundary in one ``frombuffer`` + ``cumsum``
instead of walking the payload byte by byte.  The shim, the
:class:`Reassembler`, and the reporter's send window all keep seeing
exactly one sequence number per datagram; only the datagram's payload
got denser.

The control socket (translator daemon -> reporter) carries the same
envelope: ``KIND_CTRL`` wraps a DTA control message (NACK/congestion,
handed to the existing :class:`~repro.core.reporter.Reporter` control
machinery) and ``KIND_ACK`` carries the receiver's cumulative
in-order-delivered count.  ACKs implement the lane's send window —
kernel-level UDP loss is *not* part of the impairment under test (the
seeded shim is), so the reporter never lets more than a window of
datagrams sit unacknowledged in the loopback socket buffer, the
software analogue of the PFC-lossless reporter->translator hop.
"""

from __future__ import annotations

import struct

ENVELOPE = struct.Struct(">QB")

KIND_REPORT = 0
KIND_END = 1
KIND_ACK = 2
KIND_CTRL = 3
KIND_FRAME = 4

_END_PAYLOAD = struct.Struct(">Q")
_FRAME_COUNT = struct.Struct(">H")
_ACK_LANE = struct.Struct(">QB")

#: Most reports a single frame may carry (the count field is u16).
MAX_FRAME_REPORTS = 0xFFFF


def wrap(seq: int, payload: bytes, kind: int = KIND_REPORT) -> bytes:
    """Prefix ``payload`` with the lane envelope."""
    return ENVELOPE.pack(seq, kind) + payload


def wrap_end(seq: int, total_reports: int) -> bytes:
    """An end-of-stream marker carrying the emitted report count."""
    return wrap(seq, _END_PAYLOAD.pack(total_reports), KIND_END)


def unwrap(datagram: bytes) -> tuple:
    """Split a datagram into ``(seq, kind, payload)``.

    Raises :class:`ValueError` for datagrams too short to carry the
    envelope — the caller counts those as malformed.
    """
    if len(datagram) < ENVELOPE.size:
        raise ValueError("datagram shorter than lane envelope")
    seq, kind = ENVELOPE.unpack_from(datagram)
    return seq, kind, datagram[ENVELOPE.size:]


def end_total(payload: bytes) -> int:
    """Decode a ``KIND_END`` payload into the emitted report count."""
    if len(payload) < _END_PAYLOAD.size:
        raise ValueError("END payload truncated")
    return _END_PAYLOAD.unpack_from(payload)[0]


def wrap_ack(seq: int, delivered: int, lane: int = 0) -> bytes:
    """A cumulative delivery acknowledgement (control socket).

    ``lane`` identifies the sending translator daemon when several
    share one reporter (``--translators N``); the reporter advances
    that lane's send window.
    """
    return wrap(seq, _ACK_LANE.pack(delivered, lane), KIND_ACK)


def ack_delivered(payload: bytes) -> int:
    """Decode a ``KIND_ACK`` payload into the delivered count."""
    if len(payload) < _END_PAYLOAD.size:
        raise ValueError("ACK payload truncated")
    return _END_PAYLOAD.unpack_from(payload)[0]


def ack_lane(payload: bytes) -> int:
    """The translator lane an ACK came from (0 for legacy payloads)."""
    if len(payload) >= _ACK_LANE.size:
        return payload[_END_PAYLOAD.size]
    return 0


def wrap_frame(seq: int, reports) -> bytes:
    """Coalesce ``reports`` (a list of DTA wire payloads) into one
    ``KIND_FRAME`` datagram under a single lane sequence number."""
    count = len(reports)
    if count > MAX_FRAME_REPORTS:
        raise ValueError("too many reports for one frame")
    lengths = struct.pack(f">{count}H", *map(len, reports))
    return (ENVELOPE.pack(seq, KIND_FRAME) + _FRAME_COUNT.pack(count)
            + lengths + b"".join(reports))


def unwrap_frame(payload: bytes) -> list:
    """Split a ``KIND_FRAME`` payload into its report byte strings.

    The scalar reference decoder for the frame layout (the vectorized
    twin is :func:`repro.kernels.wire.split_frame`).  Raises
    :class:`ValueError` for payloads whose count, length table, or body
    are truncated — the caller counts the whole frame as one malformed
    unit.  Trailing bytes past the last report are ignored, mirroring
    the DTA subheader decoders' tolerance of oversize bodies.
    """
    if len(payload) < _FRAME_COUNT.size:
        raise ValueError("frame payload shorter than its count")
    (count,) = _FRAME_COUNT.unpack_from(payload)
    table_end = _FRAME_COUNT.size + 2 * count
    if len(payload) < table_end:
        raise ValueError("frame length table truncated")
    lengths = struct.unpack_from(f">{count}H", payload, _FRAME_COUNT.size)
    offset = table_end
    out = []
    for length in lengths:
        end = offset + length
        if end > len(payload):
            raise ValueError("frame body truncated")
        out.append(payload[offset:end])
        offset = end
    return out


class Reassembler:
    """Restores lane-sequence order over an unordered datagram feed.

    ``push`` accepts raw datagrams as they arrive off the socket and
    returns the ``(kind, payload)`` pairs that are now deliverable in
    strict sequence order.  Holes never occur by construction — the
    shim numbers datagrams after dropping — so any gap is transient
    kernel reordering and the buffered successors drain as soon as the
    missing datagram lands.  Duplicates (e.g. NACK-triggered
    retransmits of an already-delivered seq) and malformed datagrams
    are counted and discarded.
    """

    def __init__(self) -> None:
        self.next_seq = 0
        self.delivered = 0
        self.duplicates = 0
        self.malformed = 0
        self._pending: dict[int, tuple] = {}

    @property
    def waiting(self) -> int:
        """Datagrams buffered behind a not-yet-arrived sequence."""
        return len(self._pending)

    def push(self, datagram: bytes) -> list:
        """Ingest one datagram; returns newly deliverable payloads."""
        try:
            seq, kind, payload = unwrap(datagram)
        except (ValueError, struct.error):
            self.malformed += 1
            return []
        if seq < self.next_seq or seq in self._pending:
            self.duplicates += 1
            return []
        self._pending[seq] = (kind, payload)
        out = []
        while self.next_seq in self._pending:
            out.append(self._pending.pop(self.next_seq))
            self.next_seq += 1
            self.delivered += 1
        return out
