"""Array-evaluated loss draws: element-wise parity with the int path,
bit-for-bit Alltoall pricing against a golden fixture, and the O(P)
hash-call bound of one lossy Alltoall."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.machines.catalog import NETWORKS
from repro.obs.critpath import CritPathRecorder
from repro.parallel import faults
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster

ETH = NETWORKS["RoadRunner, eth-internode"]
GOLDEN = Path(__file__).with_name("data") / "alltoall_loss_golden.json"
GOLDEN_PLAN = FaultPlan(seed=1999, loss_rate=0.05)


# -- array draws equal int draws ------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 5, 64])
@pytest.mark.parametrize("loss_rate", [0.05, 0.6, 0.0])
@pytest.mark.parametrize("kind", ["alltoall", "bcast"])
def test_array_draws_match_int_draws(nprocs, loss_rate, kind):
    plan = FaultPlan(seed=7, loss_rate=loss_rate, max_retransmits=4)
    ranks = np.arange(nprocs, dtype=np.uint64)
    seq = 3
    grid = plan.collective_retransmits(kind, seq, ranks[:, None], ranks)
    assert np.shape(grid) in ((nprocs, nprocs), ())
    grid = np.broadcast_to(grid, (nprocs, nprocs))
    ints = [
        [plan.collective_retransmits(kind, seq, s, d) for d in range(nprocs)]
        for s in range(nprocs)
    ]
    assert all(type(n) is int for row in ints for n in row)
    assert grid.tolist() == ints
    # One row against a scalar source broadcasts the same way.
    if nprocs > 1:
        row = plan.collective_retransmits(kind, seq, 1, ranks)
        assert np.broadcast_to(row, (nprocs,)).tolist() == ints[1]
    if loss_rate == 0.6 and nprocs == 64:
        assert grid.max() == plan.max_retransmits  # the cap is exercised
    # Point-to-point draws take the same route.
    p2p = plan.retransmits(ranks[:, None], ranks, 5, seq)
    assert np.broadcast_to(p2p, (nprocs, nprocs)).tolist() == [
        [plan.retransmits(s, d, 5, seq) for d in range(nprocs)]
        for s in range(nprocs)
    ]


def test_array_draws_raise_no_overflow_warnings():
    plan = FaultPlan(seed=2**64 - 1, loss_rate=0.5)
    ranks = np.arange(256, dtype=np.uint64)
    with np.errstate(all="raise"):
        plan.collective_retransmits("alltoall", 2**40, ranks[:, None], ranks)


# -- golden Alltoall pricing ------------------------------------------------------------


def _golden_run(nprocs: int) -> dict:
    """Three lossy Alltoalls of uneven, growing chunk sizes on Ethernet.

    Returns every rank's clocks and each Alltoall edge's components and
    byte metadata, floats as ``float.hex`` so the comparison is bitwise.
    """
    rec = CritPathRecorder()
    cluster = VirtualCluster(nprocs, ETH, faults=GOLDEN_PLAN, critpath=rec)

    def rank_fn(comm):
        for rnd in range(3):
            # Chunks grow so resend wire time is not negligible next to
            # the RTO backoff: a reordered sum then changes low bits.
            n = 8 * (1 + (comm.rank + rnd) % 3) * (1 + rnd) ** 2
            comm.alltoall([np.zeros(n) for _ in range(comm.size)])
            comm.compute(1e-5 * (comm.rank % 4))
        return comm.wall, comm.cpu_time

    clocks = cluster.run(rank_fn)
    g = rec.graph
    edges = [e for es in g.in_edges for e in es if e.kind == "alltoall"]
    return {
        "clocks": [[w.hex(), c.hex()] for w, c in clocks],
        "edges": [
            {
                **{k: float(v).hex() for k, v in e.components().items()},
                "nbytes": e.nbytes.hex(),
                "ebytes": e.ebytes.hex(),
                "obytes": e.obytes.hex(),
            }
            for e in edges
        ],
    }


@pytest.mark.parametrize("nprocs", [16, 64])
def test_alltoall_loss_pricing_matches_golden(nprocs):
    golden = json.loads(GOLDEN.read_text())[str(nprocs)]
    got = _golden_run(nprocs)
    assert len(got["edges"]) == 3
    assert any(float.fromhex(e["idle"]) > 0.0 for e in got["edges"])
    assert got == golden


# -- complexity ------------------------------------------------------------------------


def test_lossy_alltoall_hash_calls_are_linear(monkeypatch):
    nprocs = 64
    calls = 0
    mix = faults._mix

    def counting_mix(*vals):
        nonlocal calls
        calls += 1
        return mix(*vals)

    monkeypatch.setattr(faults, "_mix", counting_mix)
    cluster = VirtualCluster(
        nprocs, ETH, faults=GOLDEN_PLAN, critpath=CritPathRecorder()
    )
    cluster.run(lambda comm: comm.alltoall([b"x" * 512] * comm.size))
    assert 0 < calls <= 4 * nprocs + 16


if __name__ == "__main__":
    # Regenerates the fixture; only meaningful on a tree whose pricing
    # is known to be correct (the fixture pins it bit for bit).
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {str(p): _golden_run(p) for p in (16, 64)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
