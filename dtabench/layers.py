"""Which callables make up each layer, and the per-layer metrics.

The layers are the ``repro`` modules the workloads pass through.  For
each one the benchmark wraps the public entry points listed in
:func:`install`, and :func:`layer_metrics` folds the recorded spans and
counts into the ``per_layer`` metrics named in ``BENCHMARK.json``.

:data:`TARGETS` records, per layer metric, the end-to-end metric and
workload it is expected to move.  A layer a workload bypasses reads
zero there.
"""

from __future__ import annotations

#: The six plans of the frozen query set (see ``plans.py``).
PLAN_NAMES = ("value_table", "top_counters", "heavy_keys",
              "append_volume", "paths", "health_join")

#: per-layer metric -> (end-to-end metric, workload) it should move.
TARGETS = {
    "runtime.submit_self_ms": ("ingest_rps", "kw_ingest"),
    "runtime.batches": ("ingest_rps", "all"),
    "reporter.self_ms": ("ingest_rps", "kw_ingest"),
    "reporter.reports": ("ingest_rps", "kw_ingest"),
    "reporter.essential_reports": ("apply_p99_us", "mixed_serve"),
    "link.self_ms": ("ingest_rps, apply_p50_us", "kw_ingest"),
    "link.wire_bytes": ("ingest_rps, apply_p50_us", "kw_ingest"),
    "translator.self_ms": ("ingest_rps", "mixed_serve"),
    "translator.plan_ms": ("ingest_rps", "kw_ingest"),
    "translator.per_report_ms": ("ingest_rps", "mixed_serve"),
    "translator.reports": ("ingest_rps", "all"),
    "translator.vector_share": ("ingest_rps", "kw_ingest"),
    "translator.per_report_share": ("ingest_rps", "mixed_serve"),
    "rdma.self_ms": ("ingest_rps", "mixed_serve"),
    "rdma.verbs": ("ingest_rps", "mixed_serve"),
    "rdma.verbs_per_report": ("ingest_rps", "mixed_serve"),
    "kernels.apply_ms": ("ingest_rps", "kw_ingest"),
    "kernels.rows_applied": ("ingest_rps", "kw_ingest"),
    "retention.on_batch_ms": ("apply_p99_us", "mixed_serve"),
    "retention.rotations": ("apply_p99_us", "mixed_serve"),
    "queries.snapshot_ms": ("query_tick_p50_ms, query_tick_p90_ms",
                            "mixed_serve"),
    **{f"queries.plan.{name}_ms": ("query_tick_p50_ms, query_tick_p90_ms",
                                   "mixed_serve") for name in PLAN_NAMES},
    "queries.rows_scanned": ("query_tick_p50_ms, query_tick_p90_ms",
                             "mixed_serve"),
    "queries.lane_digest_ms": ("query_tick_p50_ms, query_tick_p90_ms",
                               "socket_lossy"),
    "transport.ready_ms": ("setup_s", "socket_lossy"),
    "transport.send_self_ms": ("ingest_rps", "socket_lossy"),
    "transport.drain_wait_ms": ("ingest_rps, apply_p50_us",
                                "socket_lossy"),
    "transport.datagrams": ("ingest_rps", "socket_lossy"),
    "transport.reports_per_datagram": ("ingest_rps", "socket_lossy"),
    "transport.shim_dropped": ("(injected loss, not a failure)",
                               "socket_lossy"),
    "transport.nacks": ("ingest_rps", "socket_lossy"),
    "transport.acks": ("ingest_rps", "socket_lossy"),
    "transport.ctrl_bytes": ("ingest_rps", "socket_lossy"),
}


def _count_batch(tracer, args, _kwargs, _result, nested):
    if not nested:
        tracer.add("translator.reports", len(args[1]))


def _count_send_batch(tracer, args, _kwargs, _result, _nested):
    batch = args[1]
    tracer.add("reporter.reports", len(batch))
    if batch.essential:
        tracer.add("reporter.essential_reports", len(batch))


def _count_wire(tracer, _args, _kwargs, result, _nested):
    tracer.add("link.wire_bytes", result)


def _count_plan(tracer, args, _kwargs, result, nested):
    if result is not None:
        tracer.add("translator.vector_reports", len(args[1]))
    if not nested:
        tracer.add("translator.reports", len(args[1]))


def _count_handle(tracer, _args, _kwargs, _result, nested):
    tracer.add("translator.per_report_reports", 1)
    if not nested:
        tracer.add("translator.reports", 1)


def _count_post(tracer, _args, _kwargs, _result, _nested):
    tracer.add("rdma.verbs", 1)


def _count_post_burst(tracer, args, _kwargs, _result, _nested):
    tracer.add("rdma.verbs", len(args[1]))


def _count_rows(tracer, args, _kwargs, _result, _nested):
    tracer.add("kernels.rows_applied", len(args[2]))


def _count_rotation(tracer, _args, _kwargs, result, _nested):
    if result is not None:
        tracer.add("retention.rotations", 1)


def _count_query(tracer, _args, _kwargs, result, _nested):
    tracer.add("queries.rows_scanned", result.cost.rows_scanned)


def _plan_span(args, kwargs):
    return f"queries.plan.{kwargs.get('name', 'adhoc')}"


def install(tracer) -> None:
    """Wrap every layer's public entry points on ``tracer``."""
    from repro.core.batch import ReportBatch
    from repro.core.reporter import Reporter
    from repro.core.translator import Translator
    from repro.core.transport import RdmaClient
    from repro.fabric.link import StreamLink
    from repro.kernels import burst
    from repro.queries.engine import QueryEngine
    from repro.retention.manager import RetentionManager
    from repro.runtime.engine import StreamEngine
    from repro.transport.reporter import SocketReporter
    from repro.transport.serve import SocketLane

    wrap = tracer.wrap
    wrap(StreamEngine, "submit", "runtime.submit",
         lambda t, *_: t.add("runtime.batches", 1))
    wrap(Reporter, "send_batch", "reporter.send_batch", _count_send_batch)
    wrap(StreamLink, "transmit", "link.transmit")
    wrap(ReportBatch, "wire_bytes", "link.wire_bytes", _count_wire)
    wrap(Translator, "process_batch", "translator.process_batch",
         _count_batch)
    wrap(Translator, "plan_vector_keywrite", "translator.plan_keywrite",
         _count_plan)
    wrap(Translator, "plan_vector_keyincrement",
         "translator.plan_keyincrement", _count_plan)
    wrap(Translator, "handle_report", "translator.handle_report",
         _count_handle)
    wrap(Translator, "flush_appends", "translator.flush_appends")
    wrap(RdmaClient, "post", "rdma.post", _count_post)
    wrap(RdmaClient, "post_burst", "rdma.post_burst", _count_post_burst)
    wrap(burst, "write_rows", "kernels.write_rows", _count_rows)
    wrap(burst, "fetch_add_many", "kernels.fetch_add_many", _count_rows)
    wrap(RetentionManager, "on_batch", "retention.on_batch",
         _count_rotation)
    wrap(StreamEngine, "snapshot", "queries.snapshot")
    wrap(QueryEngine, "execute", _plan_span, _count_query)
    wrap(SocketLane, "__enter__", "transport.ready")
    wrap(SocketLane, "drain", "transport.drain")
    wrap(SocketLane, "digests", "queries.lane_digest")
    wrap(SocketReporter, "transmit_many", "transport.transmit_many")
    wrap(SocketReporter, "end_stream", "transport.end_stream")


def layer_metrics(tracer, wall_ms: float) -> dict:
    """Fold spans and counts into the per-layer metric values.

    ``wall_ms`` is the traced phase's wall time, against which the
    sum of every span's self time is reported as ``trace.coverage``.
    """
    own = tracer.self_ms_by_name()
    counts = tracer.counts

    def ms(*names):
        return sum(own.get(name, 0.0) for name in names)

    def layer_ms(layer):
        return sum(value for name, value in own.items()
                   if name.split(".", 1)[0] == layer)

    reports = counts.get("translator.reports", 0)
    datagrams = counts.get("transport.datagrams", 0)
    out = {
        "runtime.submit_self_ms": ms("runtime.submit"),
        "runtime.batches": counts.get("runtime.batches", 0),
        "reporter.self_ms": layer_ms("reporter"),
        "reporter.reports": counts.get("reporter.reports", 0),
        "reporter.essential_reports":
            counts.get("reporter.essential_reports", 0),
        "link.self_ms": layer_ms("link"),
        "link.wire_bytes": counts.get("link.wire_bytes", 0),
        "translator.self_ms": layer_ms("translator"),
        "translator.plan_ms": ms("translator.plan_keywrite",
                                 "translator.plan_keyincrement"),
        "translator.per_report_ms": ms("translator.handle_report"),
        "translator.reports": reports,
        "translator.vector_share":
            (counts.get("translator.vector_reports", 0) / reports
             if reports else 0.0),
        "translator.per_report_share":
            (counts.get("translator.per_report_reports", 0) / reports
             if reports else 0.0),
        "rdma.self_ms": layer_ms("rdma"),
        "rdma.verbs": counts.get("rdma.verbs", 0),
        "rdma.verbs_per_report":
            counts.get("rdma.verbs", 0) / reports if reports else 0.0,
        "kernels.apply_ms": layer_ms("kernels"),
        "kernels.rows_applied": counts.get("kernels.rows_applied", 0),
        "retention.on_batch_ms": layer_ms("retention"),
        "retention.rotations": counts.get("retention.rotations", 0),
        "queries.snapshot_ms": ms("queries.snapshot"),
        "queries.lane_digest_ms": ms("queries.lane_digest"),
        **{f"queries.plan.{name}_ms": ms(f"queries.plan.{name}")
           for name in PLAN_NAMES},
        "queries.rows_scanned": counts.get("queries.rows_scanned", 0),
        "transport.ready_ms": ms("transport.ready"),
        "transport.send_self_ms": ms("transport.transmit_many",
                                     "transport.end_stream"),
        "transport.drain_wait_ms": ms("transport.drain"),
        "transport.datagrams": datagrams,
        "transport.reports_per_datagram":
            (counts.get("transport.reports", 0) / datagrams
             if datagrams else 0.0),
        "transport.shim_dropped": counts.get("transport.shim_dropped", 0),
        "transport.nacks": counts.get("transport.nacks", 0),
        "transport.acks": counts.get("transport.acks", 0),
        "transport.ctrl_bytes": counts.get("transport.ctrl_bytes", 0),
    }
    self_sum = sum(own.values())
    out["trace.wall_ms"] = wall_ms
    out["trace.self_sum_ms"] = self_sum
    out["trace.coverage"] = self_sum / wall_ms if wall_ms else 0.0
    return out
