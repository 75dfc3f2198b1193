"""End-to-end host-time benchmark of the NekTar-F reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload nektarf-bluff --seed 1 \
        --seconds 30 --trace 0

Each run starts fresh interpreters (``episode.py``) one after another
until ``--seconds`` is used up, with the BLAS thread pool pinned to one
thread, checks every episode's outputs, and prints the metrics as the
last stdout line::

    {"correct": true, "attempted": 108, "failed": 0,
     "metrics": {"setup_s": {"value": 2.1, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced episodes and reports the per-layer metrics, the
tracer's coverage and overhead, and prints the layer table with the
prediction for each layer metric.  ``--record`` stores the outputs of a
default-seed run as the reference later runs are checked against.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("nektarf-bluff", "nektarf-observed", "campaign-p256")
DEFAULT_SEED = 1
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: Episodes per timed run at least: a median of one or two episodes
#: follows the host's speed swings too closely.
MIN_EPISODES = 3
#: Duration of ``episode.probe()`` on an unloaded 2.1 GHz Xeon vCPU.
#: Reported times are rescaled to this speed (see ``timings``); the raw
#: walls are printed and logged too.
PROBE_REF_S = 0.005
#: A single episode may not run longer than this (seconds).
EPISODE_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("warmup_s", "s"),
    ("step_s", "s"),
    ("post_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metric -> (unit, end-to-end metrics it should move, on
#: which workloads).  Where a workload is not named the prediction there
#: is no change.
BOTH_NEKTARF = "nektarf-bluff, nektarf-observed"
PER_LAYER = {
    "setup.import_s": ("s", "setup_s", "all"),
    "mesh.self_s": ("s", "setup_s", BOTH_NEKTARF),
    "spectral.self_s": ("s", "setup_s", BOTH_NEKTARF),
    "assembly.self_s": ("s", "setup_s, step_s", BOTH_NEKTARF),
    "linalg.self_s": ("s", "warmup_s, setup_s", BOTH_NEKTARF),
    "linalg.factorizations": ("count", "warmup_s, setup_s", BOTH_NEKTARF),
    "solvers.self_s": ("s", "warmup_s, setup_s", BOTH_NEKTARF),
    "solvers.helmholtz_builds": ("count", "warmup_s, setup_s", BOTH_NEKTARF),
    "ns.self_s": ("s", "step_s", "nektarf-bluff"),
    "fourier.self_s": ("s", "step_s", "nektarf-bluff"),
    "fourier.alltoalls": ("count", "step_s", "nektarf-bluff"),
    "parallel.self_s": ("s", "run_s", "campaign-p256"),
    "parallel.messages": ("count", "run_s", "campaign-p256"),
    "parallel.wire_bytes": ("B", "run_s", "campaign-p256"),
    "parallel.switches": ("count", "run_s", "campaign-p256"),
    "parallel.wakeups": ("count", "run_s", "campaign-p256"),
    "machines.self_s": ("s", "run_s", "campaign-p256"),
    "obs.tracer.self_s": ("s", "setup_s, run_s", "nektarf-observed"),
    "obs.tracer.events": ("count", "setup_s, run_s", "nektarf-observed"),
    "obs.critpath.self_s": ("s", "setup_s, run_s", "nektarf-observed, campaign-p256"),
    "obs.critpath.edges": ("count", "setup_s, run_s", "nektarf-observed, campaign-p256"),
    "obs.metrics.self_s": ("s", "setup_s, run_s", "nektarf-observed"),
    "parallel.sanitizer.self_s": ("s", "setup_s, run_s", "nektarf-observed"),
    "obs.runlog.self_s": ("s", "run_s, post_s", "campaign-p256"),
    "campaign.self_s": ("s", "run_s, post_s", "campaign-p256"),
    "campaign.cache_hit_rate": ("ratio", "run_s, warmup_s", "campaign-p256"),
    "campaign.cache_hits": ("count", "run_s, warmup_s", "campaign-p256"),
    "campaign.cache_attempts": ("count", "run_s, warmup_s", "campaign-p256"),
    "campaign.artifact_bytes": ("B", "run_s, post_s", "campaign-p256"),
    "campaign.jobs_skipped": ("count", "run_s", "campaign-p256"),
    "host.offrank_s": ("s", "run_s", "all"),
    "trace.coverage": ("ratio", "-", "all"),
    "trace.overhead": ("ratio", "-", "all"),
}
#: Outputs that depend on the seed: checked against the reference on
#: the default seed only.  Every other output is checked against it on
#: every seed, and every output must repeat across a run's episodes.
SEED_DEPENDENT = {
    "nektarf-bluff": ("energy", "mode_energies"),
    "nektarf-observed": ("energy", "mode_energies"),
    "campaign-p256": ("artifact_bytes", "predicted", "report_sha256", "wire_bytes"),
}


# -- episodes -------------------------------------------------------------------


class EpisodeError(RuntimeError):
    pass


def pinned_env() -> dict[str, str]:
    """Environment for the episodes: one BLAS/OpenMP thread, repo on path."""
    env = dict(os.environ)
    env.update(
        {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": str(SRC),
        }
    )
    return env


def episode(workload: str, seed: int, trace: int = 0, *extra: str) -> dict:
    """Run one episode in a fresh interpreter; returns its JSON record."""
    workdir = WORK / f"ep-{os.getpid()}"
    cmd = [
        sys.executable,
        str(HERE / "episode.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        "--workdir",
        str(workdir),
        *extra,
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=pinned_env(),
            capture_output=True,
            text=True,
            timeout=EPISODE_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise EpisodeError(f"episode timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise EpisodeError(f"episode exited {proc.returncode}: " + " | ".join(tail))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["elapsed_s"] = time.perf_counter() - t0
    return rec


def prime() -> None:
    """Compile the sources to bytecode once, so no episode pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        cwd=ROOT,
        env=pinned_env(),
        check=True,
        capture_output=True,
        timeout=EPISODE_TIMEOUT,
    )


# -- correctness ------------------------------------------------------------------


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def check_outputs(workload: str, seed: int, episodes: list[dict], reference: dict) -> list:
    """Problems with the episodes' outputs, as ``(episode index or None
    for the whole run, message)``; empty when all are correct."""
    problems = []
    ref = reference.get(workload, {})
    first = episodes[0]["outputs"]
    for i, ep in enumerate(episodes[1:], 1):
        for key, val in ep["outputs"].items():
            if val != first.get(key):
                problems.append((i, f"{key} differs from episode 0"))
    if not ref:
        return problems + [(None, f"no reference recorded for {workload}")]
    for key in ref["outputs"]:
        if seed != ref["seed"] and key in SEED_DEPENDENT[workload]:
            continue
        if first.get(key) != ref["outputs"][key]:
            got, want = _short(first.get(key)), _short(ref["outputs"][key])
            problems.append((None, f"{key}: {got} != reference {want}"))
    for i, ep in enumerate(episodes):
        out = ep["outputs"]
        if workload.startswith("nektarf"):
            if out["alltoalls_per_rank"] != [2 * out["steps"]] * len(out["alltoalls_per_rank"]):
                problems.append((i, "not 2 alltoalls per rank per step"))
        elif out["failed"] or out["skipped"] != 12:
            problems.append((i, f"{out['failed']} failed, {out['skipped']} skipped"))
    return problems


def campaign_report_check(seed: int, episodes: list[dict], reference: dict) -> list:
    """Resumed campaign reports must equal an uninterrupted run's."""
    ref = reference.get("campaign-p256", {})
    if ref and seed == ref["seed"]:
        want = ref["outputs"]["report_sha256"]  # recorded from an uninterrupted run
    else:
        want = episode("campaign-p256", seed, 0, "--reference")["outputs"]["report_sha256"]
    return [
        (i, "campaign report differs from an uninterrupted run's")
        for i, ep in enumerate(episodes)
        if ep["outputs"]["report_sha256"] != want
    ]


def _short(val) -> str:
    text = json.dumps(val)
    return text if len(text) < 80 else text[:77] + "..."


# -- measurement --------------------------------------------------------------------


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """Episodes back to back until ``seconds`` is used up; at least
    ``MIN_EPISODES``, so a run of long campaign episodes can overrun."""
    episodes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        episodes.append(episode(workload, seed))
        spent = time.perf_counter() - t0
        if len(episodes) >= MIN_EPISODES and spent + spent / len(episodes) > seconds:
            break
    setup_eps = list(episodes)
    while len(setup_eps) < SETUP_SAMPLES:
        setup_eps.append(episode(workload, seed, 0, "--setup-only"))
    samples = {}
    for kind, scaled in (("scaled", True), ("raw", False)):
        per_ep = [timings(ep, scaled) for ep in episodes]
        samples[kind] = {
            "setup_s": [timings(ep, scaled)["setup_s"] for ep in setup_eps],
            "warmup_s": [t["warmup_s"] for t in per_ep],
            "step_s": [s for t in per_ep for s in t["steps_s"]],
            "post_s": [s for t in per_ep for s in t["post_s"]],
            "run_s": [t["run_s"] for t in per_ep],
            "peak_rss_mb": [ep["peak_rss_mb"] for ep in episodes],
        }
    metrics = {
        name: {"value": statistics.median(samples["scaled"][name]), "unit": unit}
        for name, unit in END_TO_END
    }
    return metrics, episodes, samples


def timings(ep: dict, scaled: bool = True) -> dict:
    """An episode's timings, at the reference speed or raw.

    Scaled, each timed unit's wall is multiplied by ``PROBE_REF_S`` over
    the median of the four probes nearest to it (two taken before it,
    two after), and set-up by ``PROBE_REF_S`` over the median of the
    first three probes.  One probe is too noisy a gauge for a unit that
    lasts seconds on two threads (a campaign pass).
    """
    walls, probes = ep["walls"], ep["probes"]
    setup_s = ep["setup_s"]
    if scaled:
        setup_s *= PROBE_REF_S / statistics.median(probes[:3])
        walls = [
            w * PROBE_REF_S / statistics.median(probes[max(0, k - 1) : k + 3])
            for k, w in enumerate(walls)
        ]
    nwarm, nsteady = ep["nwarm"], ep["nsteady"]
    return {
        "setup_s": setup_s,
        "warmup_s": sum(walls[:nwarm]),
        "steps_s": [w / ep["per_steady"] for w in walls[nwarm : nwarm + nsteady]],
        "post_s": walls[nwarm + nsteady :],
        "run_s": sum(walls),
    }


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], float]:
    """Untraced/traced episode pairs until ``seconds`` is used up."""
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    while True:
        plain.append(episode(workload, seed, 0))
        traced.append(episode(workload, seed, 1))
        spent = time.perf_counter() - t0
        if spent + spent / len(traced) > seconds:
            break
    layers = [ep["layers"] for ep in traced]
    med = statistics.median
    metrics: dict[str, float] = {
        "setup.import_s": med(ep["import_s"] for ep in plain),
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            layer = name.removesuffix(".self_s")
            metrics[name] = med(lay["self_s"].get(layer, 0.0) for lay in layers)
    metrics.update(layers[0]["counts"])
    out = traced[0]["outputs"]
    stats = layers[0]["engine_stats"]
    cache = out.get("cache", {"hits": 0, "misses": 0})
    attempts = cache["hits"] + cache["misses"]
    metrics.update(
        {
            "parallel.messages": out["messages"],
            "parallel.wire_bytes": out["wire_bytes"],
            "parallel.switches": stats["scheduler.switches"],
            "parallel.wakeups": stats["scheduler.wakeups"],
            "obs.tracer.events": out.get("tracer_events", 0),
            "obs.critpath.edges": out["critpath_edges"],
            "campaign.cache_hit_rate": cache["hits"] / attempts if attempts else 0.0,
            "campaign.cache_hits": cache["hits"],
            "campaign.cache_attempts": attempts,
            "campaign.artifact_bytes": out.get("artifact_bytes", 0),
            "campaign.jobs_skipped": out.get("skipped", 0),
        }
    )
    metrics["host.offrank_s"] = med(lay["offrank_s"] for lay in layers)
    metrics["trace.coverage"] = med(lay["coverage"] for lay in layers)
    whole = []
    for p, t in zip(plain, traced):
        tp, tt = timings(p), timings(t)
        whole.append((tt["setup_s"] + tt["run_s"]) / (tp["setup_s"] + tp["run_s"]) - 1.0)
    metrics["trace.overhead"] = med(whole)
    result = {
        name: {"value": metrics[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER
    }
    return result, traced, med(lay["thread_cpu_s"] for lay in layers)


def trace_self_check(workload: str, traced: list[dict], reference: dict) -> list:
    """Counts of the traced episodes repeat exactly, and match the reference."""
    problems = []
    first = traced[0]["layers"]
    got = {**first["counts"], **first["engine_stats"]}
    for i, ep in enumerate(traced[1:], 1):
        lay = ep["layers"]
        if {**lay["counts"], **lay["engine_stats"]} != got:
            problems.append((None, f"traced episode {i}: counts differ from traced episode 0"))
    for key, val in reference.get(workload, {}).get("trace_counts", {}).items():
        if got.get(key) != val:
            problems.append((None, f"trace count {key}: {got.get(key)} != reference {val}"))
    return problems


# -- reporting ------------------------------------------------------------------------


def environment() -> dict:
    """What the numbers depend on, recorded with every result."""
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads_env": pinned_env()["OPENBLAS_NUM_THREADS"],
    }
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        env["git_rev"] = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        env["git_rev"] = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def print_e2e(workload: str, samples: dict) -> None:
    print(f"{workload}: end-to-end at reference speed: median [quartiles] samples; raw median")
    for name, unit in END_TO_END:
        xs = samples["scaled"][name]
        q1, q2, q3 = quartiles(xs)
        raw = statistics.median(samples["raw"][name])
        print(
            f"  {name:<12} {q2:>10.4f} {unit:<3} [{q1:.4f} .. {q3:.4f}] "
            f"n={len(xs):<4} raw {raw:.4f}"
        )


def print_layers(workload: str, metrics: dict, thread_cpu: float) -> None:
    print(f"{workload}: layer table (thread-CPU self time of the traced run)")
    print(f"  {'metric':<27} {'value':>14} {'unit':<6} {'share':>6}  moves -> on")
    for name, (unit, moves, on) in PER_LAYER.items():
        val = metrics[name]["value"]
        share = f"{100 * val / thread_cpu:5.1f}%" if name.endswith(".self_s") and thread_cpu else ""
        print(f"  {name:<27} {val:>14.6g} {unit:<6} {share:>6}  {moves} -> {on}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this default-seed run's outputs as the reference",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    reference = {} if args.record else load_reference()
    try:
        prime()
        if args.trace:
            metrics, episodes, thread_cpu = traced_run(args.workload, args.seed, args.seconds)
        else:
            metrics, episodes, samples = timed_run(args.workload, args.seed, args.seconds)
        if args.record:
            return record(args.workload, episodes, args.trace)
        problems = check_outputs(args.workload, args.seed, episodes, reference)
        if args.workload == "campaign-p256":
            problems += campaign_report_check(args.seed, episodes, reference)
    except (EpisodeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        problems += trace_self_check(args.workload, episodes, reference)
    attempted = sum(ep["ops"] for ep in episodes)
    if any(i is None for i, _ in problems):
        failed = attempted  # a run-wide check failed: no output can be trusted
    else:
        failed = sum(episodes[i]["ops"] for i in {i for i, _ in problems})
    env = {**environment(), **episodes[0]["env"]}
    if args.trace:
        print_layers(args.workload, metrics, thread_cpu)
    else:
        print_e2e(args.workload, samples)
    for i, msg in problems:
        print(f"FAILED CHECK: {'' if i is None else f'episode {i}: '}{msg}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    with (WORK / "results.jsonl").open("a") as fh:
        rec = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
        if not args.trace:
            rec["samples"] = samples
        fh.write(json.dumps({**rec, **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def record(workload: str, episodes: list[dict], trace: int) -> int:
    """Merge this run's outputs into ``reference.json``."""
    reference = load_reference() if REFERENCE.exists() else {}
    entry = reference.setdefault(workload, {"seed": DEFAULT_SEED})
    if trace:
        lay = episodes[0]["layers"]
        entry["trace_counts"] = {**lay["counts"], **lay["engine_stats"]}
    else:
        entry["outputs"] = dict(episodes[0]["outputs"])
        if workload == "campaign-p256":
            uninterrupted = episode(workload, DEFAULT_SEED, 0, "--reference")
            entry["outputs"]["report_sha256"] = uninterrupted["outputs"]["report_sha256"]
    with REFERENCE.open("w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {workload} ({'trace counts' if trace else 'outputs'}) in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
