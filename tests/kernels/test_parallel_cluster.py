"""Parallel scale-out is a deterministic re-cut of the serial run.

Each shard of :mod:`repro.kernels.parallel` is a pure function of
``(spec, shard)``, so running a cluster serially, in a process pool,
or with the vectorized kernels must produce identical per-shard obs
and store digests — with 1, 2, and 4 workers alike.  The Sketch-Merge
lane additionally pins the all-to-one routing: the ``sketch_home``
store is byte-identical regardless of cluster size.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import ClusterMap
from repro.kernels.parallel import (ClusterSpec, run_cluster, run_shard,
                                    seeded_workload)

REPORTS = 384
SIZES = (1, 2, 4)


def spec_for(primitive: str, collectors: int, **overrides) -> ClusterSpec:
    defaults = dict(primitive=primitive, reports=REPORTS, seed=9,
                    batch_size=64, collectors=collectors)
    defaults.update(overrides)
    return ClusterSpec(**defaults)


class TestDeterminism:
    @pytest.mark.parametrize("primitive",
                             ["key_write", "key_increment",
                              "sketch_merge"])
    @pytest.mark.parametrize("collectors", SIZES)
    def test_serial_equals_parallel(self, primitive, collectors):
        spec = spec_for(primitive, collectors)
        serial = run_cluster(spec, parallel=False)
        parallel = run_cluster(spec, parallel=True)
        assert serial["cluster_digest"] == parallel["cluster_digest"]
        for a, b in zip(serial["shards"], parallel["shards"]):
            assert a["obs_digest"] == b["obs_digest"]
            assert a["store_digest"] == b["store_digest"]
            assert a["queries"] == b["queries"]
        assert serial["reports"] == REPORTS
        assert parallel["mode"] == ("parallel" if collectors > 1
                                    else "serial")

    @pytest.mark.parametrize("collectors", SIZES)
    def test_vectorized_equals_scalar(self, collectors):
        scalar = run_cluster(spec_for("key_increment", collectors),
                             parallel=False)
        vector = run_cluster(
            spec_for("key_increment", collectors, vectorized=True),
            parallel=True)
        assert scalar["cluster_digest"] == vector["cluster_digest"]

    def test_worker_cap_does_not_change_results(self):
        spec = spec_for("key_write", 4)
        wide = run_cluster(spec, parallel=True)
        narrow = run_cluster(spec, parallel=True, max_workers=1)
        assert wide["cluster_digest"] == narrow["cluster_digest"]


class TestSketchHomeLane:
    def test_home_store_invariant_across_cluster_sizes(self):
        digests = set()
        for collectors in SIZES:
            doc = run_cluster(spec_for("sketch_merge", collectors),
                              parallel=False)
            home = doc["shards"][0]
            assert home["reports"] == REPORTS
            digests.add(home["store_digest"])
            # Every other shard received nothing.
            for shard in doc["shards"][1:]:
                assert shard["reports"] == 0
        assert len(digests) == 1

    def test_nonzero_sketch_home(self):
        moved = run_cluster(spec_for("sketch_merge", 4, sketch_home=2),
                            parallel=True)
        assert moved["shards"][2]["reports"] == REPORTS
        assert all(moved["shards"][i]["reports"] == 0
                   for i in (0, 1, 3))
        default = run_cluster(spec_for("sketch_merge", 4),
                              parallel=False)
        assert (moved["shards"][2]["store_digest"]
                == default["shards"][0]["store_digest"])


class TestShardWorkload:
    @pytest.mark.parametrize("primitive", ["key_write", "key_increment"])
    def test_shards_partition_the_workload(self, primitive):
        cluster_map = ClusterMap(collectors=3)
        work = seeded_workload(primitive, REPORTS, seed=9)
        shards = [cluster_map.shard_workload(primitive, work, shard)
                  for shard in range(3)]
        assert sum(len(shard["keys"]) for shard in shards) == REPORTS
        # Re-interleaving by routing reconstructs the original order.
        cursors = [0] * 3
        for key in work["keys"]:
            owner = cluster_map.for_key(key)
            assert shards[owner]["keys"][cursors[owner]] == key
            cursors[owner] += 1

    def test_scalars_pass_through(self):
        cluster_map = ClusterMap(collectors=2, sketch_home=1)
        work = seeded_workload("sketch_merge", 16, seed=9)
        home = cluster_map.shard_workload("sketch_merge", work, 1)
        other = cluster_map.shard_workload("sketch_merge", work, 0)
        assert home["sketch_id"] == other["sketch_id"] == 0
        assert home["columns"] == work["columns"]
        assert other["columns"] == []

    def test_shard_out_of_range_rejected(self):
        cluster_map = ClusterMap(collectors=2)
        with pytest.raises(ValueError):
            cluster_map.shard_workload("key_write",
                                       seeded_workload("key_write", 8, 1),
                                       2)


class TestRunShard:
    def test_shard_is_pure(self):
        spec = spec_for("key_increment", 2)
        first = run_shard(spec, 0)
        second = run_shard(spec, 0)
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_unknown_primitive_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(primitive="postcarding")
