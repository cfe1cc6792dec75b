"""The frozen query set, built on the public ``repro.queries`` algebra.

Six named plans cover every primitive store and every operator
(filter, map, reduce, distinct, topk, join, union).  They are defined
here, not taken from ``repro.queries.catalog``, so reworking the
shipped catalog cannot silently change what the benchmark measures.
"""

from __future__ import annotations

from repro.queries import algebra

from inputs import AP_LISTS, REDUNDANCY


def value_table(keys) -> algebra.Plan:
    """Key-Write: which watched keys are queryable right now."""
    return (algebra.keywrite_values(keys, redundancy=REDUNDANCY)
            .filter(lambda row: row["found"])
            .distinct(key="key"))


def six_plans(mixed) -> dict:
    """The six-plan set over a :class:`~inputs.MixedInputs` deployment."""
    kw_keys = mixed.kw_keys[:256]
    ki_keys = mixed.ki_keys[:256]
    append_union = algebra.append_entries(0)
    for list_id in range(1, AP_LISTS):
        append_union = append_union.union(algebra.append_entries(list_id))
    return {
        "value_table": value_table(kw_keys),
        # Key-Increment: the heaviest counters among the candidates.
        "top_counters": (
            algebra.counter_estimates(ki_keys, redundancy=REDUNDANCY)
            .topk(10, by="count")),
        # Merged sketch: candidate keys crossing a volume threshold.
        "heavy_keys": (
            algebra.sketch_estimates(kw_keys[:64])
            .filter(lambda row: row["estimate"] >= 1)
            .topk(20, by="estimate")),
        # Append: per-list landed-entry volume (union + reduce).
        "append_volume": append_union.reduce(key="list_id", how="count"),
        # Postcarding: distinct traced paths, longest first.
        "paths": (
            algebra.postcard_paths(mixed.pc_keys[:128])
            .filter(lambda row: row["found"])
            .map(lambda row: {"key": row["key"],
                              "path": tuple(row["path"]),
                              "hops": len(row["path"])})
            .distinct(key="key")
            .topk(None, by="hops")),
        # Cross-store join: per-key counter next to its latest value.
        "health_join": (
            algebra.counter_estimates(ki_keys[:64], redundancy=REDUNDANCY)
            .join(algebra.keywrite_values(ki_keys[:64],
                                          redundancy=REDUNDANCY),
                  on="key", how="left")
            .filter(lambda row: row["count"] > 0)
            .topk(5, by="count")),
    }
