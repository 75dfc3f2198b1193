"""Outside-in layer tracer: host-time attribution without touching ``src/``.

:class:`LayerTrace` wraps every function and method defined in the
repo's layer packages (``repro.mesh``, ``repro.spectral``, ...) with a
span that reads the calling thread's CPU clock (``time.thread_time``).
Thread CPU, not wall, because a blocking simmpi call's wall time
includes the other ranks' turns on the run token.

* Classes are patched in place, so every holder of the class sees the
  wrapped methods.
* Module functions are rebound in *every* loaded ``repro`` module that
  holds them (``from x import f`` copies the binding) and in
  module-level dicts (such as the campaign's workload table).
* A span's self time is its duration minus its child spans' durations;
  self time is summed per layer (the package name, with ``obs`` and
  ``parallel.sanitizer`` split by module).
* ``threading.Thread.run`` is wrapped too, so the CPU of every thread
  started while tracing (simulated ranks, campaign workers) is known:
  ``coverage`` is the share of it that lands in a named layer.

Spans (name, start, end, parent, thread label) are kept in memory and
written out by :meth:`LayerTrace.write_spans` when the episode ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

#: The repo's layers, named after its packages.
LAYERS = (
    "mesh",
    "spectral",
    "assembly",
    "linalg",
    "solvers",
    "fourier",
    "ns",
    "parallel",
    "machines",
    "obs",
    "campaign",
    "util",
    "io",
)
#: Calls counted, by wrapped qualified name: metric name, and the layer
#: the call must come from (None: any).
COUNTED = {
    "repro.linalg.banded.BandedSPDSolver.from_dense": ("linalg.factorizations", None),
    "repro.linalg.banded.BandedSPDSolver.from_banded": ("linalg.factorizations", None),
    "repro.solvers.helmholtz.HelmholtzDirect.__init__": ("solvers.helmholtz_builds", None),
    "repro.parallel.simmpi.VirtualComm.alltoall": ("fourier.alltoalls", "fourier"),
}
_DUNDERS = ("__init__", "__call__", "__enter__", "__exit__")
#: Private functions that are a thread's entry point: wrapped so that a
#: rank's or worker's own code is attributed (and its thread labelled).
_ENTRY_POINTS = (
    "repro.parallel.scheduler.EventEngine._main",
    "repro.campaign.engine.CampaignEngine._run_job",
)
#: Leaf helpers called up to hundreds of thousands of times per run for
#: a microsecond or two each, from their own layer.  Unwrapped, their
#: time stays in the caller's self time, which is the same layer except
#: for ``charge`` (the counted kernels of every layer call it); wrapped,
#: the tracer would cost more than they do.
_HOT_LEAVES = (
    "repro.linalg.counters.charge",
    "repro.linalg.counters.active_counter",
    "repro.linalg.counters.OpCounter.charge",
    "repro.spectral.jacobi.jacobi",
    "repro.spectral.jacobi.jacobi_derivative",
    "repro.spectral.basis.h0",
    "repro.spectral.basis.h1",
    "repro.spectral.basis.dh0",
    "repro.spectral.basis.dh1",
    "repro.spectral.basis.bubble",
    "repro.spectral.basis.bubble_deriv",
    "repro.parallel.simmpi.payload_bytes",
    "repro.parallel.faults.FaultPlan.retransmits",
    "repro.parallel.faults.FaultPlan.collective_retransmits",
    "repro.parallel.faults.FaultPlan.retransmit_delay",
    "repro.parallel.scheduler._NullMutex.__enter__",
    "repro.parallel.scheduler._NullMutex.__exit__",
    "repro.obs.critpath.Edge.__init__",
    "repro.obs.critpath.Edge.total",
    "repro.obs.critpath.EventGraph.add_edge",
    "repro.obs.critpath.EventGraph.add_node",
    "repro.obs.tracer.current",
    "repro.obs.tracer.current_stage",
)


def _traced(qualname: str) -> bool:
    """Wrap public names, constructors/context methods and entry points."""
    name = qualname.rsplit(".", 1)[1]
    if qualname in _HOT_LEAVES:
        return False
    return not name.startswith("_") or name in _DUNDERS or qualname in _ENTRY_POINTS


_thread_time = time.thread_time
_perf = time.perf_counter


def layer_of(module: str) -> str:
    """``repro.obs.tracer`` -> ``obs.tracer``; ``repro.ns.x`` -> ``ns``."""
    parts = module.split(".")
    if parts[1] == "obs" and len(parts) > 2:
        return "obs." + parts[2]
    if parts[1:3] == ["parallel", "sanitizer"]:
        return "parallel.sanitizer"
    return parts[1]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list = []
        self.spans: list | None = None
        self.selfs: dict | None = None
        self.rec: dict | None = None


class LayerTrace:
    """Wraps the layers when constructed (:meth:`uninstall` restores
    them); :meth:`begin` and :meth:`end` bound the measured window."""

    def __init__(self) -> None:
        self._tls = _ThreadState()
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._layer_of_name: list[str] = []
        self._restore: list[tuple] = []
        self._lock = threading.Lock()
        self._threads: list[dict] = []  # per-thread records
        self._cluster_job: dict[int, str] = {}
        self._main_rec: dict | None = None
        self._job_stats: dict[str, dict] = {}
        self._frozen_counts: dict[str, int] | None = None
        self.window = (0.0, 0.0)
        self.install()

    # -- per-thread bookkeeping -------------------------------------------

    def _thread_rec(self, label: str) -> dict:
        # Spans as flat doubles (5 per span): millions of small tuples
        # would cost the traced run more memory and collector time.
        rec = {"label": label, "cpu": 0.0, "spans": array("d"), "selfs": {}, "counts": {}}
        with self._lock:
            self._threads.append(rec)
        tls = self._tls
        tls.spans = rec["spans"]
        tls.selfs = rec["selfs"]
        tls.rec = rec
        return rec

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str):
        idx = len(self._names)
        self._names.append(qualname)
        self._layer_of_name.append(layer)
        tls = self._tls
        ids = self._ids
        metric, from_layer = COUNTED.get(qualname, (None, None))
        hook = _HOOKS.get(qualname)
        post_hook = _POST_HOOKS.get(qualname)
        this = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tls.stack
            if tls.spans is None:  # a thread this trace did not start
                return fn(*args, **kwargs)
            if metric and (from_layer is None or (stack and stack[-1][0] == from_layer)):
                counts = tls.rec["counts"]
                counts[metric] = counts.get(metric, 0) + 1
            if hook is not None:
                hook(this, args)
            frame = [layer, 0.0, next(ids), _perf(), _thread_time()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if post_hook is not None:
                    post_hook(this, args)
                return result
            finally:
                c1 = _thread_time()
                w1 = _perf()
                stack.pop()
                dur = c1 - frame[4]
                selfs = tls.selfs
                selfs[layer] = selfs.get(layer, 0.0) + dur - frame[1]
                parent = 0
                if stack:
                    top = stack[-1]
                    top[1] += dur
                    parent = top[2]
                tls.spans.extend((idx, frame[3], w1, frame[2], parent))

        return wrapper

    def wrap_function(self, fn, layer: str):
        """Wrap a benchmark-side function as a span of ``layer``."""
        return self._wrap(fn, f"{fn.__module__}.{fn.__qualname__}", layer)

    def install(self) -> None:
        # id(original function) -> (original, wrapper)
        wrapped: dict[int, tuple] = {}
        for mod in _layer_modules():
            layer = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    qual = f"{mod.__name__}.{obj.__qualname__}"
                    if not _traced(qual):
                        continue
                    wrapped[id(obj)] = (obj, self._wrap(obj, qual, layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, mod.__name__, layer)
        # Rebind module functions wherever a repro module holds them.
        for mod in [m for n, m in sys.modules.items() if n.startswith("repro.")]:
            for name, val in list(vars(mod).items()):
                orig, w = wrapped.get(id(val), (None, None))
                if w is not None and orig is val:
                    self._restore.append((setattr, mod, name, val))
                    setattr(mod, name, w)
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        orig, w = wrapped.get(id(v), (None, None))
                        if w is not None and orig is v:
                            self._restore.append((dict.__setitem__, val, k, v))
                            val[k] = w
        self._patch_threads()
        self._patch_pool()

    def _wrap_class(self, cls, modname: str, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            qual = f"{modname}.{cls.__qualname__}.{name}"
            if not _traced(qual):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, qual, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, qual, layer))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                new = self._wrap(raw, qual, layer)
            else:
                continue
            self._restore.append((setattr, cls, name, raw))
            setattr(cls, name, new)

    def _patch_threads(self) -> None:
        orig_run = threading.Thread.run
        this = self

        def run(thread_self):
            rec = this._thread_rec("thread")
            c0 = _thread_time()
            try:
                orig_run(thread_self)
            finally:
                rec["cpu"] = _thread_time() - c0

        self._restore.append((setattr, threading.Thread, "run", orig_run))
        threading.Thread.run = run

    def _patch_pool(self) -> None:
        # Work a layer hands to a thread pool runs as that layer: the
        # campaign's per-job closure (ledger append, graph artifact
        # write) is campaign code on a worker thread.
        orig_submit = ThreadPoolExecutor.submit
        tls = self._tls
        wrappers: dict[int, object] = {}
        this = self

        def submit(pool, fn, /, *args, **kwargs):
            stack = tls.stack
            if tls.spans is not None and stack:
                w = wrappers.get(id(fn))
                if w is None:
                    qual = f"{fn.__module__}.{fn.__qualname__}"
                    w = wrappers[id(fn)] = this._wrap(fn, qual, stack[-1][0])
                fn = w
            return orig_submit(pool, fn, *args, **kwargs)

        self._restore.append((setattr, ThreadPoolExecutor, "submit", orig_submit))
        ThreadPoolExecutor.submit = submit

    def uninstall(self) -> None:
        for op, target, name, val in reversed(self._restore):
            op(target, name, val)
        self._restore.clear()

    # -- the measured window ------------------------------------------------

    def begin(self) -> None:
        """Start the measured window on the calling (main) thread."""
        self._main_rec = self._thread_rec("main")
        self._main_c0 = _thread_time()
        self.window = (_perf(), 0.0)

    def end(self) -> None:
        self.window = (self.window[0], _perf())
        self._main_rec["cpu"] = _thread_time() - self._main_c0
        self._tls.spans = None

    # -- results -------------------------------------------------------------

    def _counts(self) -> dict[str, int]:
        with self._lock:
            recs = list(self._threads)
        return {
            metric: sum(rec["counts"].get(metric, 0) for rec in recs)
            for metric in sorted({m for m, _ in COUNTED.values()})
        }

    def freeze_counts(self) -> None:
        """Report the call counts as they stand now, not at the end."""
        self._frozen_counts = self._counts()

    def summary(self) -> dict:
        """Per-layer self time, counts, thread CPU and coverage."""
        selfs: dict[str, float] = {}
        cpu = 0.0
        nspans = 0
        for rec in self._threads:
            cpu += rec["cpu"]
            nspans += len(rec["spans"]) // 5
            for layer, s in rec["selfs"].items():
                selfs[layer] = selfs.get(layer, 0.0) + s
        named = sum(v for k, v in selfs.items() if k.split(".")[0] in LAYERS)
        # The benchmark's own rank function (and the speed probes it
        # runs) is not program work: it is left out of the base.
        program_cpu = cpu - selfs.get("bench", 0.0)
        counts = self._frozen_counts or self._counts()
        wall = self.window[1] - self.window[0]
        return {
            "self_s": selfs,
            "counts": counts,
            "thread_cpu_s": cpu,
            "threads": len(self._threads),
            "coverage": named / program_cpu if program_cpu else 0.0,
            "window_s": wall,
            "offrank_s": wall - cpu,
            "spans": nspans,
            "engine_stats": {
                key: sum(st.get(key, 0) for st in self._job_stats.values())
                for key in ("scheduler.switches", "scheduler.wakeups")
            },
        }

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines: a header naming every wrapped
        function and the span fields, then one line per thread with its
        label (rank and/or job id) and its spans flattened five numbers
        at a time.  Times are wall seconds on the episode's
        ``perf_counter`` clock; parent 0 is the thread's root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            header = {
                "names": self._names,
                "layers": self._layer_of_name,
                "fields": ["name", "start", "end", "id", "parent"],
            }
            fh.write(json.dumps(header) + "\n")
            for rec in self._threads:
                line = {"thread": rec["label"], "spans": rec["spans"].tolist()}
                fh.write(json.dumps(line) + "\n")


# -- thread labels: rank and job ids ------------------------------------------


def _on_run_job(trace: LayerTrace, args) -> None:
    # CampaignEngine._run_job(self, job): the worker thread now serves job.
    trace._tls.rec["label"] = args[1].job_id


def _on_cluster_run(trace: LayerTrace, args) -> None:
    # VirtualCluster.run(self, fn): its ranks belong to this thread's job.
    trace._cluster_job[id(args[0])] = trace._tls.rec["label"]


def _on_rank_main(trace: LayerTrace, args) -> None:
    # EventEngine._main(self, rank): this thread is one simulated rank.
    engine, rank = args[0], args[1]
    job = trace._cluster_job.get(id(engine.cluster), "main")
    trace._tls.rec["label"] = f"rank{rank}" if job == "main" else f"{job}/rank{rank}"


def _on_cluster_done(trace: LayerTrace, args) -> None:
    # The scheduler's hand-off counts, per job: a job that ran twice (cut
    # off by a campaign stop, then resumed) counts once.
    with trace._lock:
        trace._job_stats[trace._tls.rec["label"]] = args[0].engine_stats()


_POST_HOOKS = {"repro.parallel.simmpi.VirtualCluster.run": _on_cluster_done}

_HOOKS = {
    "repro.campaign.engine.CampaignEngine._run_job": _on_run_job,
    "repro.parallel.simmpi.VirtualCluster.run": _on_cluster_run,
    "repro.parallel.scheduler.EventEngine._main": _on_rank_main,
}


def _layer_modules() -> list:
    import repro

    mods = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.split(".")[1] in LAYERS:
            mods.append(importlib.import_module(info.name))
    return mods
