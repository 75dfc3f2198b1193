"""One benchmark episode in a fresh interpreter.

``run.py`` starts this script once per episode with the BLAS thread
pool pinned, so every episode pays the same imports and set-up that a
user's fresh process pays.  It prints one JSON object on its last
stdout line: host timings, the outputs the correctness checks compare,
and (with ``--trace 1``) the per-layer table of :mod:`layertrace`.

Usage (normally started by ``run.py``, which pins the environment)::

    python3 perfbench/episode.py --workload nektarf-bluff --seed 1 \
        --workdir .perfbench/ep [--trace 1] [--setup-only] [--reference]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the first ``import repro``

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Workload shapes.  ``run.py`` and the README refer to these names.
NEKTARF = {
    "nektarf-bluff": {
        "mesh": {"m": 4, "nr": 2},  # 144 elements
        "order": 6,
        "nprocs": 4,
        "nz": 8,  # 2 planes per processor, as in the paper's Table 2
        "network": "myrinet",
        "observed": False,
        "steady_steps": 16,
    },
    "nektarf-observed": {
        "mesh": {"m": 3, "nr": 1},  # 108 elements
        "order": 5,
        "nprocs": 8,
        "nz": 16,
        "network": "ethernet",
        "observed": True,
        "steady_steps": 10,
    },
}
TIME_ORDER = 2
NU = 1e-2
DT = 1e-3
CAMPAIGN_NPROCS = 256
CAMPAIGN_WORKERS = 2
CAMPAIGN_STOP_AFTER = 12
#: Post-run analyses are short, so each episode repeats them.
POST_REPEATS = 5
#: Target makespan for the catalog search (virtual seconds, summed over
#: the 24 jobs): between the Ethernet and Myrinet predictions, so the
#: cheapest candidate that meets it is not the cheapest overall.
SEARCH_TARGET = 1.0


#: Speed probes an episode takes after set-up when it stops there.
SETUP_PROBES = 3


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and BLAS work (~5 ms).

    The host's speed drifts by up to 1.5x over seconds to minutes on a
    shared machine.  Probes taken between an episode's timed units
    measure the speed each unit ran at (``run.py`` rescales by it).
    About 60% interpreter loop and 40% numpy: that mix tracked the
    NekTar-F step time best.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
    v = np.linspace(0.0, 1.0, 200_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(3):
        a = a @ a
        a /= np.abs(a).max()
    np.sqrt(v * v + 1.0)
    return time.perf_counter() - t0


def timed(import_s, setup_s, walls, probes, nwarm, nsteady, per_steady=1) -> dict:
    """An episode's raw timings.  ``walls`` are its timed units: ``nwarm``
    warm-up units, ``nsteady`` steady ones (each covering ``per_steady``
    operations), then post-run units; ``probes[k]`` and ``probes[k + 1]``
    were taken right before and after unit k."""
    return {
        "import_s": import_s,
        "setup_s": setup_s,
        "walls": walls,
        "probes": probes,
        "nwarm": nwarm,
        "nsteady": nsteady,
        "per_steady": per_steady,
    }


def sig(x: float, digits: int = 10) -> float:
    """``x`` rounded to ``digits`` significant digits (digest form)."""
    if x == 0.0 or not math.isfinite(x):
        return float(x)
    return float(round(x, digits - 1 - math.floor(math.log10(abs(x)))))


def perturbation(seed: int):
    """Seeded mode-1 initial perturbation: (u, v, w) amplitude fns.

    Mode 0 carries the unit free stream; mode 1 a small smooth
    disturbance whose coefficients come from ``seed``.  Every other
    mode starts at rest.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(3, 2)) + 1j * rng.uniform(-1.0, 1.0, (3, 2))
    eps = 1e-2

    def make(comp: int, base: float):
        a, b = complex(c[comp, 0]), complex(c[comp, 1])

        def amp(m, x, y, t):
            if m == 0:
                return complex(base)
            if m == 1:
                bump = math.exp(-0.02 * (x - 2.0) ** 2)
                return eps * bump * (a * math.sin(0.3 * math.pi * y) + b * math.cos(0.2 * math.pi * y))
            return 0j

        return amp

    return make(0, 1.0), make(1, 0.0), make(2, 0.0)


def bluff_bcs():
    """Unit free-stream inflow and sides, no-slip cylinder wall."""

    def amp(value):
        return lambda m, x, y, t: complex(value) if m == 0 else 0j

    zero = amp(0.0)
    return {
        "inflow": (amp(1.0), zero, zero),
        "side": (amp(1.0), zero, zero),
        "wall": (zero, zero, zero),
    }


def run_nektarf(name: str, seed: int, setup_only: bool, lt) -> dict:
    from repro.assembly.space import FunctionSpace
    from repro.linalg.counters import OpCounter
    from repro.machines.catalog import MACHINES
    from repro.mesh.generators import bluff_body_mesh
    from repro.ns.nektar_f import NekTarF
    from repro.obs import CritPathRecorder, Trace, scoped
    from repro.parallel.simmpi import VirtualCluster

    t_imported = time.perf_counter()
    cfg = NEKTARF[name]
    spec = MACHINES["RoadRunner"]
    trace = Trace() if cfg["observed"] else None
    critpath = CritPathRecorder() if cfg["observed"] else None
    nsteps = 0 if setup_only else TIME_ORDER + cfg["steady_steps"]
    amps = perturbation(seed)
    if lt is not None:
        lt.begin()
    cluster = VirtualCluster(
        cfg["nprocs"],
        spec.network(cfg["network"]),
        cpu=spec.cpu,
        procs_per_node=spec.procs_per_node,
        trace=trace,
        critpath=critpath,
        sanitize=cfg["observed"],
    )

    def rank_fn(comm):
        with OpCounter() as ops:
            mesh = bluff_body_mesh(**cfg["mesh"])
            space = FunctionSpace(mesh, cfg["order"])
            nf = NekTarF(
                comm,
                space,
                nz=cfg["nz"],
                nu=NU,
                dt=DT,
                velocity_bcs=bluff_bcs(),
                pressure_dirichlet=("outflow",),
                time_order=TIME_ORDER,
                charge_compute=True,
            )
            nf.set_initial(*amps)
            setup_end = time.perf_counter()
            probes = []

            def speed_probe():
                # Between barriers: no rank's timed work overlaps it.
                comm.barrier()
                if comm.rank == 0:
                    probes.append(probe())
                comm.barrier()

            for _ in range(1 if nsteps else SETUP_PROBES):
                speed_probe()
            # Timed units: the steps, then the post-run diagnostics.  A
            # unit's cluster-wide wall runs from the first rank starting
            # it to the last rank finishing it (one rank runs at a time).
            units = []
            energy = modes = None
            for i in range(nsteps + (POST_REPEATS if nsteps else 0)):
                t0 = time.perf_counter()
                if i < nsteps:
                    nf.step()
                else:
                    energy = nf.kinetic_energy()
                    modes = nf.mode_energies()
                units.append((t0, time.perf_counter()))
                speed_probe()
        return {
            "setup_end": setup_end,
            "units": units,
            "probes": probes,
            "energy": energy,
            "modes": None if modes is None else [float(x) for x in modes],
            "flops": ops.flops,
        }

    fn = rank_fn if lt is None else lt.wrap_function(rank_fn, "bench")
    if cfg["observed"]:
        with scoped():
            results = cluster.run(fn)
    else:
        results = cluster.run(fn)
    if lt is not None:
        lt.end()

    r0 = results[0]
    walls = [
        max(r["units"][k][1] for r in results) - min(r["units"][k][0] for r in results)
        for k in range(len(r0["units"]))
    ]
    setup = max(r["setup_end"] for r in results) - T_START
    out = timed(t_imported - T_START, setup, walls, r0["probes"], TIME_ORDER, cfg["steady_steps"])
    if setup_only:
        return out
    out["ops"] = nsteps
    out["outputs"] = {
        "energy": sig(r0["energy"]),
        "mode_energies": [sig(x) for x in r0["modes"]],
        "max_wall": sig(cluster.max_wall, 12),
        "alltoalls_per_rank": [st.coll_kinds.count("alltoall") for st in cluster.ranks],
        "wire_bytes": sum(st.sent_bytes for st in cluster.ranks),
        "messages": sum(st.messages for st in cluster.ranks),
        "flops": sig(sum(r["flops"] for r in results), 12),
        "steps": nsteps,
        "tracer_events": 0 if trace is None else len(trace.events()),
        "critpath_edges": 0 if critpath is None else critpath.graph.nedges,
    }
    return out


def campaign_matrix(seed: int) -> dict:
    """The smoke matrix at 256 ranks with seeded message sizes."""
    import numpy as np

    from repro.campaign.matrix import smoke_matrix

    rng = np.random.default_rng(seed)
    matrix = smoke_matrix()
    matrix["nprocs"] = CAMPAIGN_NPROCS
    for shape in matrix["workloads"]:
        if shape["workload"] == "ring":
            shape["ndoubles"] = int(rng.integers(96, 161))
        elif shape["workload"] == "alltoall":
            shape["ndoubles"] = [int(rng.integers(48, 81))]
    return matrix


def run_campaign(seed: int, setup_only: bool, lt, workdir: Path, reference: bool) -> dict:
    from repro.campaign import CampaignEngine, campaign_report
    from repro.campaign.search import load_graphs, search_catalog
    from repro.obs.runlog import RunLedger

    t_imported = time.perf_counter()
    matrix = campaign_matrix(seed)
    ledger = workdir / "RUNLOG.jsonl"
    art = workdir / "graphs"
    if lt is not None:
        lt.begin()
    engine = CampaignEngine(ledger, matrix, workers=CAMPAIGN_WORKERS, artifacts_dir=art)
    setup = time.perf_counter() - T_START
    walls = []
    probes = [probe()]
    if setup_only:
        probes += [probe() for _ in range(SETUP_PROBES - 1)]
        return timed(t_imported - T_START, setup, walls, probes, 0, 0)
    t0 = time.perf_counter()
    first = engine.run(stop_after=None if reference else CAMPAIGN_STOP_AFTER)
    walls.append(time.perf_counter() - t0)
    probes.append(probe())
    if lt is not None:
        # Factorization counts of the first pass only: its set of jobs
        # is fixed, the resumed pass's set is not (see "cache" below).
        lt.freeze_counts()
    if reference:
        resumed = first
    else:
        # A restarted process: fresh engine on the same ledger.
        t0 = time.perf_counter()
        engine = CampaignEngine(ledger, matrix, workers=CAMPAIGN_WORKERS, artifacts_dir=art)
        resumed = engine.run()
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
    for _ in range(POST_REPEATS):
        t0 = time.perf_counter()
        entries = load_graphs(RunLedger(ledger), art)
        result = search_catalog(entries, SEARCH_TARGET)
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
    if lt is not None:
        lt.end()
    report = campaign_report(RunLedger(ledger), matrix)
    cheapest = result["cheapest"]
    out = timed(t_imported - T_START, setup, walls, probes, 1, 0 if reference else 1, resumed["ran"])
    out.update(
        {
            "ops": first["ran"] + (0 if reference else resumed["ran"]) + POST_REPEATS,
            "outputs": {
                "failed": len(first["failed"]) + len(resumed["failed"]),
                "skipped": resumed["skipped"],
                "report_sha256": hashlib.sha256(
                    json.dumps(report, sort_keys=True).encode()
                ).hexdigest(),
                "critpath_edges": sum(e["graph"].nedges for e in entries),
                "messages": sum(v["messages"] for v in report["per_job"].values()),
                "wire_bytes": sum(v["bytes_sent"] for v in report["per_job"].values()),
                "cheapest": None if cheapest is None else cheapest["name"],
                "predicted": {
                    c["name"]: sig(c["predicted_makespan"]) for c in result["candidates"]
                },
                "artifact_bytes": sum(p.stat().st_size for p in art.iterdir()),
                # The first pass always starts jobs 0-12 and records 12 of
                # them, so its cache lookups are fixed; which job the
                # resumed pass re-runs depends on which finished first.
                "cache": first["cache"],
            },
        }
    )
    return out


def libraries() -> dict:
    """Library versions, the BLAS build and its live thread count."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        os_threads = next(int(ln.split()[1]) for ln in fh if ln.startswith("Threads:"))
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # Threads the process holds beyond Python's own: BLAS workers.
        "blas_threads": os_threads - threading.active_count() + 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true", help="uninterrupted campaign")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lt = None
    if args.trace:
        import layertrace

        lt = layertrace.LayerTrace()
    try:
        if args.workload in NEKTARF:
            out = run_nektarf(args.workload, args.seed, args.setup_only, lt)
        elif args.workload == "campaign-p256":
            out = run_campaign(args.seed, args.setup_only, lt, workdir, args.reference)
        else:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
    finally:
        if lt is not None:
            lt.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = libraries()
    if lt is not None:
        out["layers"] = lt.summary()
        lt.write_spans(workdir.parent / f"spans-{args.workload}.jsonl")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
