"""Seeded input generation for the three workloads.

Everything a workload submits is derived here from ``--seed`` before
any timing starts, with :class:`random.Random` only, so the same seed
gives byte-identical inputs on any host.  This module deliberately
does not use ``repro.bench``'s generator: the benchmark's inputs must
not change when that module does.
"""

from __future__ import annotations

import itertools
import random
import struct

from repro.core import packets
from repro.core.batch import ReportBatch

#: Key-Write data width and Key-Write/Key-Increment redundancy.
DATA_BYTES = 16
REDUNDANCY = 2
#: Postcarding path length and switch-value alphabet.
PC_HOPS = 5
PC_VALUES = range(256)
#: Append lists and sketch depth of the mixed deployment.
AP_LISTS = 4
SM_DEPTH = 4
#: Zipf key universes and exponent of the mixed workload's skewed keys.
KW_UNIVERSE = 8192
KI_UNIVERSE = 4096
ZIPF_S = 1.1


def uniform_keys(rng: random.Random, n: int) -> list:
    """``n`` uniform 32-bit keys (repeats are possible but rare)."""
    return [struct.pack(">I", rng.getrandbits(32)) for _ in range(n)]


def datas(rng: random.Random, n: int, start: int = 0) -> list:
    """16-byte values: a running index plus 63 random bits."""
    return [struct.pack(">QQ", start + i, rng.getrandbits(63))
            for i in range(n)]


def zipf_sampler(rng: random.Random, universe: int, s: float = ZIPF_S):
    """A ``k -> keys`` sampler over a Zipf-ranked key universe."""
    keys = list(dict.fromkeys(uniform_keys(rng, universe * 2)))[:universe]
    cum = list(itertools.accumulate(1.0 / (rank ** s)
                                    for rank in range(1, universe + 1)))
    return keys, lambda k: rng.choices(keys, cum_weights=cum, k=k)


def kw_batches(seed: int, batches: int, batch_size: int) -> list:
    """Key-Write batches with uniform keys (the ``kw_ingest`` input)."""
    rng = random.Random(seed)
    out = []
    for b in range(batches):
        keys = uniform_keys(rng, batch_size)
        out.append(ReportBatch.key_writes(
            keys, datas(rng, batch_size, b * batch_size),
            redundancy=REDUNDANCY))
    return out


def kw_stream(seed: int, reports: int, reporter_id: int = 1) -> list:
    """Pre-encoded Key-Write wire reports (the ``socket_lossy`` input)."""
    rng = random.Random(seed)
    return [packets.make_report(
        packets.KeyWrite(key=key, data=data, redundancy=REDUNDANCY),
        reporter_id=reporter_id)
        for key, data in zip(uniform_keys(rng, reports),
                             datas(rng, reports))]


class MixedInputs:
    """The ``mixed_serve`` input: all five primitives, interleaved.

    ``batches`` is the submission order: one batch of each primitive
    in turn (Key-Write, Key-Increment, Postcarding, Append, Sketch).
    Key-Write and Key-Increment keys are Zipf-skewed; Append batches
    are essential.  Sketch columns run ``0 .. sketch_width - 1`` once.
    """

    def __init__(self, seed: int, rounds: int, batch_size: int) -> None:
        rng = random.Random(seed)
        self.kw_keys, kw_sample = zipf_sampler(rng, KW_UNIVERSE)
        self.ki_keys, ki_sample = zipf_sampler(rng, KI_UNIVERSE)
        self.pc_keys = []
        self.sketch_width = rounds * batch_size
        self.batches = []
        flow = 0
        for r in range(rounds):
            base = r * batch_size
            self.batches.append(ReportBatch.key_writes(
                kw_sample(batch_size), datas(rng, batch_size, base),
                redundancy=REDUNDANCY))
            self.batches.append(ReportBatch.key_increments(
                ki_sample(batch_size),
                [rng.randrange(1, 100) for _ in range(batch_size)],
                redundancy=REDUNDANCY))
            pc_keys, hops = [], []
            for i in range(batch_size):
                if (base + i) % PC_HOPS == 0:
                    flow += 1
                    self.pc_keys.append(struct.pack(">I", flow))
                pc_keys.append(self.pc_keys[-1])
                hops.append((base + i) % PC_HOPS)
            self.batches.append(ReportBatch.postcards(
                pc_keys, hops,
                [rng.choice(PC_VALUES) for _ in range(batch_size)],
                path_lengths=[PC_HOPS] * batch_size, redundancy=1))
            self.batches.append(ReportBatch.appends(
                [(base + i) % AP_LISTS for i in range(batch_size)],
                datas(rng, batch_size, base), essential=True))
            self.batches.append(ReportBatch.sketch_columns(
                0, range(base, base + batch_size),
                [tuple(rng.getrandbits(31) for _ in range(SM_DEPTH))
                 for _ in range(batch_size)]))
