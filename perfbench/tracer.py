"""Layer tracing that lives entirely in the benchmark.

The program under test carries no instrumentation of its own.  A traced
run instead wraps the public (or module-level) functions at each layer
boundary with spans recorded here, then reports per-layer self time and
call counts.

Attribution is processor sharing, computed online: between any two span
events, the elapsed wall time is split equally among the spans that are
active and have no active child ("leaves").  In a single thread this is
exactly the usual self time (duration minus child spans).  With several
threads (the service daemon's event loop, job thread and offload pool)
it never counts an instant twice.  The unattributed rest is defined as
the wall time minus the layer times, so the two add up to the traced
wall by construction; what can go wrong is layer time running ahead of
the wall (a negative rest), which :func:`run.reconcile` reports.

Parent links follow :mod:`contextvars`, so they survive ``await`` in
asyncio handlers; :func:`install_layers` also makes the service's
``offload`` bridge carry the caller's context into the pool thread, so a
store append issued by an HTTP handler is that handler's child.

This module imports nothing from numpy, scipy or ``repro`` at import
time: the traced child times those imports itself.
"""

from __future__ import annotations

import builtins
import contextlib
import contextvars
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from typing import Any

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Online processor-sharing self-time accounting per layer."""

    def __init__(self, t0: float | None = None) -> None:
        self.t0 = time.monotonic() if t0 is None else t0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._last = self.t0
        # span id -> [layer, active child count]
        self._active: dict[int, list[Any]] = {}
        self._leaves: dict[int, str] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Durations that are not on the traced timeline (queue waits,
        #: chunk time spent in pool workers).
        self.durations: defaultdict[str, list[float]] = defaultdict(list)

    def _advance(self, now: float) -> None:
        if self._leaves and now > self._last:
            share = (now - self._last) / len(self._leaves)
            for layer in self._leaves.values():
                self.self_s[layer] += share
        if now > self._last:
            self._last = now

    def enter(self, layer: str) -> tuple[int, int | None, contextvars.Token[Any]]:
        parent = _CURRENT.get()
        with self._lock:
            self._advance(time.monotonic())
            sid = next(self._ids)
            self._active[sid] = [layer, 0]
            self._leaves[sid] = layer
            self.calls[layer] += 1
            if parent is not None and parent in self._active:
                entry = self._active[parent]
                entry[1] += 1
                self._leaves.pop(parent, None)
        return sid, parent, _CURRENT.set(sid)

    def exit(self, sid: int, parent: int | None, token: contextvars.Token[Any]) -> None:
        with self._lock:
            self._advance(time.monotonic())
            self._active.pop(sid, None)
            self._leaves.pop(sid, None)
            if parent is not None and parent in self._active:
                entry = self._active[parent]
                entry[1] -= 1
                if entry[1] == 0:
                    self._leaves[parent] = entry[0]
        try:
            _CURRENT.reset(token)
        except ValueError:
            _CURRENT.set(parent)  # exited from another context

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        handle = self.enter(layer)
        try:
            yield
        finally:
            self.exit(*handle)

    def current_layer(self) -> str | None:
        sid = _CURRENT.get()
        entry = self._active.get(sid) if sid is not None else None
        return entry[0] if entry is not None else None

    def finish(self, end: float | None = None) -> dict[str, Any]:
        """Close the window at ``end`` and summarize it (JSON-ready)."""
        with self._lock:
            end = time.monotonic() if end is None else end
            self._advance(end)
            wall = end - self.t0
            attributed = sum(self.self_s.values())
            return {
                "wall_s": wall,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "unattributed_s": wall - attributed,
                # One entry per traced process; merge_summaries appends.
                "process_unattributed_s": [wall - attributed],
            }


def merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Add up the summaries of sequential traced processes."""
    out: dict[str, Any] = {
        "wall_s": 0.0, "self_s": Counter(), "calls": Counter(),
        "counts": Counter(), "durations": defaultdict(list),
        "unattributed_s": 0.0, "process_unattributed_s": [],
    }
    for s in summaries:
        out["wall_s"] += s["wall_s"]
        out["unattributed_s"] += s["unattributed_s"]
        out["process_unattributed_s"] += s["process_unattributed_s"]
        out["self_s"].update(s["self_s"])
        out["calls"].update(s["calls"])
        out["counts"].update(s["counts"])
        for k, v in s["durations"].items():
            out["durations"][k].extend(v)
    for key in ("self_s", "calls", "counts", "durations"):
        out[key] = dict(out[key])
    return out


# ----------------------------------------------------------------------
# Import timing (startup layer)
# ----------------------------------------------------------------------
_IMPORT_LAYERS = {
    "numpy": "startup.import_numpy",
    "scipy": "startup.import_scipy",
}


@contextlib.contextmanager
def timed_imports(tracer: Tracer) -> Iterator[None]:
    """Attribute first imports of numpy/scipy to their own startup layers.

    The enclosing span (``startup.import_repro_cli``) keeps what is left:
    the program's own modules.  Only packages not yet loaded open a span,
    so the spans time the imports exactly as the program triggers them.
    """
    original = builtins.__import__

    def hook(name: str, globals: Any = None, locals: Any = None,
             fromlist: Any = (), level: int = 0) -> Any:
        top = name.partition(".")[0] if level == 0 else ""
        layer = _IMPORT_LAYERS.get(top)
        if layer is None or tracer.current_layer() == layer or (
            name in sys.modules and not fromlist
        ):
            return original(name, globals, locals, fromlist, level)
        with tracer.span(layer):
            return original(name, globals, locals, fromlist, level)

    builtins.__import__ = hook
    try:
        yield
    finally:
        builtins.__import__ = original


def import_repro_cli(tracer: Tracer | None) -> Any:
    """``import repro.cli``, timed per startup layer when tracing."""
    if tracer is None:
        import repro.cli

        return repro.cli
    with tracer.span("startup.import_repro_cli"), timed_imports(tracer):
        import repro.cli
    return repro.cli


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            handle = tracer.enter(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.exit(*handle)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        handle = tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(*handle)

    return wrapper


def _patch_function(module: Any, name: str, replacement: Callable[..., Any]) -> None:
    """Replace a module-level function everywhere it was imported by name."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        namespace = getattr(mod, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_function(tracer: Tracer, module: Any, name: str, layer: str) -> None:
    _patch_function(module, name, _wrap(tracer, getattr(module, name), layer))


def _wrap_method(tracer: Tracer, cls: type, name: str, layer: str) -> None:
    setattr(cls, name, _wrap(tracer, cls.__dict__[name], layer))


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Call after ``import repro.cli`` and before the workload runs; it
    imports the service modules the CLI would otherwise load lazily.
    """
    import concurrent.futures.process as cf_process

    import repro.analysis.burst_dp as burst_dp
    import repro.analysis.combinatorics as combinatorics
    import repro.runtime.executors.base as exec_base
    import repro.runtime.executors.local as exec_local
    import repro.runtime.resilience as resilience
    import repro.runtime.runner as runner
    import repro.sim.batch as batch
    import repro.sim.burst as burst
    import repro.sim.simulator as simulator

    # runtime
    _wrap_method(tracer, runner.TrialContext, "rng", "runtime.trial_rng")
    _wrap_method(tracer, runner.TrialAggregate, "add", "runtime.aggregate")
    _wrap_method(tracer, runner.TrialAggregate, "merge", "runtime.aggregate")
    _wrap_function(tracer, exec_base, "run_chunk", "runtime.run_chunk")
    _wrap_method(tracer, exec_local.LocalProcessBackend, "start",
                 "runtime.pool_start")
    _wrap_method(tracer, exec_local.LocalProcessBackend, "submit",
                 "runtime.dispatch")
    for name in ("_adjust_process_count", "_launch_processes"):
        if name in cf_process.ProcessPoolExecutor.__dict__:
            _wrap_method(tracer, cf_process.ProcessPoolExecutor, name,
                         "runtime.pool_start")
    _wrap_method(tracer, exec_local.LocalProcessBackend, "shutdown",
                 "runtime.pool_stop")
    _wrap_method(tracer, exec_local.LocalProcessBackend, "_terminate",
                 "runtime.pool_stop")
    resilience.wait = _wrap(tracer, resilience.wait, "runtime.dispatch_wait")

    journal_append = resilience.JournalWriter.append

    @functools.wraps(journal_append)
    def append(self: Any, record: Any) -> None:
        # The job store reuses JournalWriter for its WAL; that fsync is
        # the store's own layer (service.store_append encloses it).
        if tracer.current_layer() == "service.store_append":
            journal_append(self, record)
            return
        tracer.counts["runtime.journal_appends"] += 1
        with tracer.span("runtime.journal_append"):
            journal_append(self, record)

    resilience.JournalWriter.append = append  # type: ignore[method-assign]

    absorb = runner.TrialRunner._absorb_batch_stats
    me = os.getpid()

    @functools.wraps(absorb)
    def absorb_stats(self: Any, payload: Any) -> None:
        batched, demoted = getattr(payload, "batch", (0, 0))
        tracer.counts["runtime.chunks"] += 1
        tracer.counts["sim.batch.batched_trials"] += batched
        tracer.counts["sim.batch.demoted_trials"] += demoted
        tracer.counts["sim.batch.attempted_trials"] += len(payload.values)
        host = getattr(payload, "host", None) or ""
        if not host.endswith(f"/{me}"):
            tracer.durations["runtime.pool_chunk_s"].append(payload.seconds)
        absorb(self, payload)

    runner.TrialRunner._absorb_batch_stats = absorb_stats  # type: ignore[method-assign]

    # sim
    _wrap_method(tracer, burst.BurstGenerator, "sample", "sim.burst.sample")
    for cls in (burst.MLECBurstEvaluator, burst.SLECBurstEvaluator,
                burst.LRCBurstEvaluator):
        _wrap_method(tracer, cls, "pdl_of_burst", "sim.burst.pdl_of_burst")
    _wrap_function(tracer, batch, "_classify_burst_pdls", "sim.batch.classify")
    _wrap_method(tracer, simulator.MLECSystemSimulator, "run",
                 "sim.simulator.run")
    # The batch replay of a simulate trial is the simulator's fast path.
    for fn, impl in list(batch._IMPLS.items()):
        if impl is batch.simulate_batch_impl:
            batch._IMPLS[fn] = _wrap(tracer, impl, "sim.simulator.run")

    # analysis
    _wrap_function(tracer, burst_dp, "mlec_burst_pdl", "analysis.burst_dp")
    _wrap_function(tracer, burst_dp, "slec_burst_pdl", "analysis.burst_dp")
    _wrap_function(tracer, burst_dp, "_netcp_group_tables",
                   "analysis.burst_dp.netcp_tables")
    _wrap_method(tracer, burst_dp.CellCollisionDP, "_splits",
                 "analysis.burst_dp.cell_splits")
    for name in combinatorics.__all__:
        _wrap_function(tracer, combinatorics, name, "analysis.combinatorics")

    _install_service_layers(tracer)


def _install_service_layers(tracer: Tracer) -> None:
    import asyncio

    import repro.service.daemon as daemon
    import repro.service.executor as job_executor
    import repro.service.queue as job_queue
    import repro.service.spec as spec
    import repro.service.store as store

    svc = daemon.SimulationService
    _wrap_method(tracer, svc, "_submit", "service.http_submit")
    _wrap_method(tracer, svc, "_get_job", "service.http_poll")
    _wrap_method(tracer, svc, "_load_result", "service.result_read")
    _wrap_method(tracer, job_executor.JobExecution, "run", "service.job_run")
    from_json = spec.SweepSpec.__dict__["from_json"].__func__
    spec.SweepSpec.from_json = classmethod(  # type: ignore[method-assign]
        _wrap(tracer, from_json, "service.spec_resolve")
    )
    _wrap_method(tracer, spec.SweepSpec, "job_id", "service.spec_resolve")

    persist = store.JobStore._persist

    @functools.wraps(persist)
    def counted_persist(self: Any, job: Any) -> None:
        tracer.counts["service.store_appends"] += 1
        with tracer.span("service.store_append"):
            persist(self, job)

    store.JobStore._persist = counted_persist  # type: ignore[method-assign]

    queued_at: dict[str, float] = {}
    push = job_queue.BoundedJobQueue.push

    @functools.wraps(push)
    def timed_push(self: Any, job_id: str, priority: int = 0) -> None:
        push(self, job_id, priority)
        queued_at.setdefault(job_id, time.monotonic())

    job_queue.BoundedJobQueue.push = timed_push  # type: ignore[method-assign]

    run = job_executor.JobExecution.run  # already the job_run span

    @functools.wraps(run)
    def run_after_queue(self: Any) -> Any:
        began = queued_at.pop(self._record.job_id, None)
        if began is not None:
            tracer.durations["service.queue_wait_s"].append(time.monotonic() - began)
        return run(self)

    job_executor.JobExecution.run = run_after_queue  # type: ignore[method-assign]

    async def offload(fn: Callable[..., Any], /, *args: Any,
                      executor: Any = None) -> Any:
        # Same bridge as repro.service.offload, plus the caller's context
        # so spans opened in the pool thread get the handler as parent.
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(executor, lambda: ctx.run(fn, *args))

    daemon.offload = offload
