#!/usr/bin/env python3
"""The query serving tier: plans over snapshots of a live stream.

The scenario: a dashboard keeps six panels fresh while the collector
ingests a mixed workload.  Each refresh takes ONE batch-boundary
snapshot of every store and evaluates all registered plans against it
— the panels are mutually coherent, and no panel can ever see half of
a report batch.

Shows, in order:
1. composing query plans with the operator algebra;
2. serving registered plans each epoch against a live StreamEngine;
3. snapshot isolation (a frozen view vs the moving live store);
4. per-query cost accounting.

Run: python examples/query_serving.py
"""

from repro import obs
from repro.queries import QueryServer, counter_estimates, keywrite_values
from repro.queries.catalog import demo_workloads, shipped_plans, stream_mixed

REPORTS = 2_000
EPOCHS = 4


def main() -> None:
    works = demo_workloads(REPORTS, seed=31)

    # -- 1. plans are composable values, built before any data exists --
    watch = tuple(dict.fromkeys(works["key_increment"]["keys"]))[:32]
    health = (counter_estimates(watch, redundancy=2)
              .join(keywrite_values(watch, redundancy=2),
                    on="key", how="left")
              .filter(lambda row: row["count"] > 0)
              .topk(3, by="count"))
    print("a plan is a value:")
    print(f"  {health.describe()}\n")

    # -- 2. serve the catalog each epoch, against the live stream -----
    servers = []

    def on_epoch(engine, epoch: int) -> None:
        if not servers:
            server = QueryServer(engine)
            for name, plan in shipped_plans(works).items():
                server.register(name, plan)
            server.register("watchlist_health", health)
            servers.append(server)
        tick = servers[0].tick()
        print(f"epoch {tick.epoch} (batch_seq={tick.batch_seq}): "
              + ", ".join(f"{name}={len(result)}"
                          for name, result in sorted(
                              tick.results.items())))

    print(f"streaming {REPORTS} reports x 5 primitives, "
          f"serving {EPOCHS} epochs live:")
    _registry, collector, engine, zero_loss = stream_mixed(
        works, epochs=EPOCHS, on_epoch=on_epoch)
    print(f"drained; zero_loss={zero_loss}\n")

    # -- 3. snapshot isolation: frozen views share nothing ------------
    snap = collector.snapshot()
    key = watch[0]
    before = snap.query_counter(key, redundancy=2)
    collector.keyincrement.region.buf[:8] = b"\xff" * 8  # vandalize live
    print("snapshot isolation:")
    print(f"  counter({key.hex()}) via snapshot, before and after "
          f"perturbing live memory: {before} == "
          f"{snap.query_counter(key, redundancy=2)}")
    print(f"  snapshot digest (memoized): {snap.store_digest()[:23]}…\n")

    # -- 4. what did all that querying cost? --------------------------
    server = servers[0]
    print(f"costs over {server.epoch} epochs:")
    for name, entry in server.cost_report()["queries"].items():
        print(f"  {name:<18} {entry['executions']} runs, "
              f"{entry['rows_scanned']:>6} rows scanned, "
              f"{entry['bytes_touched']:>8} bytes, "
              f"{entry['rows_out']:>4} rows out")


if __name__ == "__main__":
    previous = obs.get_registry()
    try:
        main()
    finally:
        obs.set_registry(previous)
