"""The streaming runtime (reporter -> link -> translator -> NIC).

``repro.runtime`` runs a direct-mode deployment as the paper's
dataflow, inline in :meth:`StreamEngine.submit` — the translator posts
each batch's verbs straight into collector memory under
``store_lock`` — with reader threads snapshotting the live stores
under the same lock.  See
``docs/CONCURRENCY.md`` for the determinism-and-concurrency contract,
``docs/ARCHITECTURE.md`` ("Streaming runtime") for the stage diagram,
and ``docs/BENCHMARKS.md`` for the soak lane recorded by ``repro run``.
"""

from repro.runtime.engine import (
    STAGES,
    StageError,
    StageStats,
    StreamEngine,
    pipeline_digest,
    store_digest,
)
from repro.runtime.soak import (
    SOAK_SCHEMA,
    THROUGHPUT_GATE,
    render_soak,
    run_lane,
    run_soak,
)

__all__ = [
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
