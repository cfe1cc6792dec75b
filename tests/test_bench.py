"""The ``repro bench`` harness at toy size.

Correctness-shaped checks only, the same rule ``tests/runtime/test_soak.py``
follows: every digest gate must pass, while speed gates are machine
dependent and only asserted to exist with a well-formed shape.
"""

from __future__ import annotations

from repro import bench


def test_run_bench_toy_document_schema_and_gates():
    document = bench.run_bench(reports=400, vectorized=True, cluster=2)
    assert document["schema"] == bench.SCHEMA == "repro-bench/2"
    gates = document["gates"]
    for gate in gates:
        assert set(gate) == {"gate", "value", "threshold", "pass"}
    digest_gates = [gate for gate in gates if "digests match" in gate["gate"]]
    speed_gates = [gate for gate in gates if "speedup" in gate["gate"]]
    assert len(digest_gates) == len(bench.PRIMITIVES) + 1   # + cluster x2
    assert all(gate["pass"] for gate in digest_gates)
    assert speed_gates
    assert len(digest_gates) + len(speed_gates) == len(gates)
