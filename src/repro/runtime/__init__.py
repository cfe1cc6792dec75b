"""The staged streaming runtime (reporter -> link -> translator -> NIC).

``repro.runtime`` turns a direct-mode deployment into a concurrent
pipeline of the paper's four dataflow stages, coupled by bounded
credit queues whose blocking hand-off *is* the backpressure protocol
(lossless-PFC semantics: pressure propagates, nothing drops).  The
stages run inline (``workers=0``) or as thread stage groups over
in-process :class:`CreditQueue` hand-offs.  See
``docs/CONCURRENCY.md`` for the full determinism-and-concurrency
contract, ``docs/ARCHITECTURE.md`` ("Streaming runtime") for the
stage diagrams, and ``docs/BENCHMARKS.md`` for the soak lane recorded
by ``repro run``.
"""

from repro.runtime.engine import (
    STAGES,
    StageError,
    StageStats,
    StreamEngine,
    pipeline_digest,
    store_digest,
)
from repro.runtime.queues import (
    CLOSED,
    CreditQueue,
    QueueAborted,
    QueueClosed,
    QueueStats,
)
from repro.runtime.soak import (
    SOAK_SCHEMA,
    THROUGHPUT_GATE,
    render_soak,
    run_lane,
    run_soak,
)

__all__ = [
    "CLOSED",
    "CreditQueue",
    "QueueAborted",
    "QueueClosed",
    "QueueStats",
    "SOAK_SCHEMA",
    "STAGES",
    "StageError",
    "StageStats",
    "StreamEngine",
    "THROUGHPUT_GATE",
    "pipeline_digest",
    "render_soak",
    "run_lane",
    "run_soak",
    "store_digest",
]
