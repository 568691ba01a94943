"""Spans and counters recorded around the public calls of each layer.

Only the traced run installs these wrappers; the untraced run measures
the program as shipped.  Every wrapper records a span -- name, start,
end, parent span and request id -- in memory, plus the exact counts
the call exposes (VCs planned, cache hits, solver conflicts, ...).
The spans are written out when the process ends.

Layers and the calls that feed them:

- plan: ``Verifier.plan``, ``repro.analysis.driver.lint_method``,
  ``repro.core.verifier.elaborate_proc``, ``VcGen.run``,
  ``repro.core.verifier.rewrite``, ``repro.core.verifier.simplify_term``
- engine: ``PlanCache.get``/``put``, ``VcCache.get``/``put``,
  ``RunJournal.record_slot``, ``repro.engine.session.stream_tasks``
- solve: ``Solver.check``, ``SatSolver.solve``,
  ``repro.smt.solver.reduce_sets``
- service: ``_Handler.do_POST`` of the daemon

A layer's self time is the time its spans cover minus the time their
child spans cover, counted inside the pass's timed segments only (the
machine-speed probes run between them).  :func:`self_times` attributes
every such instant to the deepest span open at it (across threads), so
concurrent requests waiting on the session lock are not counted twice
and the layers' self times never sum to more than the wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

LAYER_OF = {
    "core.plan": "plan",
    "analysis.lint": "plan",
    "core.elaborate": "plan",
    "core.vcgen": "plan",
    "smt.rewrite": "plan",
    "smt.simplify": "plan",
    "engine.plan_cache.get": "engine",
    "engine.plan_cache.put": "engine",
    "engine.vc_cache.get": "engine",
    "engine.vc_cache.put": "engine",
    "engine.journal.record": "engine",
    "engine.scheduler.stream": "engine",
    "smt.solve": "solve",
    "smt.sat": "solve",
    "smt.reduce_sets": "solve",
    "service.request": "service",
}
LAYERS = ("plan", "engine", "solve", "service")


class Recorder:
    """In-memory span and counter store, safe across threads."""

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent, request, depth)
        self.counts = []  # (time, name, value)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[3]
        span = (next(self._ids), name, time.perf_counter(), request,
                parent[0] if parent else None, len(stack))
        stack.append(span)
        return span

    def close(self, span) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        sid, name, start, request, parent, depth = span
        with self._lock:
            self.spans.append((sid, name, start, end, parent, request, depth))

    def count(self, name: str, value: float = 1) -> None:
        event = (time.perf_counter(), name, value)
        with self._lock:
            self.counts.append(event)

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": [list(s) for s in self.spans],
                "counts": [list(c) for c in self.counts],
            }


def window(dump: dict, windows) -> dict:
    """The spans and counts of ``dump`` inside the timed pass, whose
    ``windows`` are the ``(start, end)`` of its segments (the probes run
    between them).  Spans that start in the pass are kept whole; self
    times count only the instants inside a window."""
    start, end = windows[0][0], windows[-1][1]
    return {
        "spans": [s for s in dump["spans"] if start <= s[2] <= end],
        "counts": [c for c in dump["counts"] if start <= c[0] <= end],
        "windows": [list(w) for w in windows],
    }


RECORDER = Recorder()


def _timed(name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = RECORDER.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            RECORDER.close(span)
            if after is not None:
                after(args, result)

    return wrapper


def _plan_done(_args, plan) -> None:
    if plan is None:
        return
    RECORDER.count("core.vcs", plan.n_vcs)
    RECORDER.count("smt.simplify.nodes_in", plan.nodes_before)
    RECORDER.count("smt.simplify.nodes_out", plan.nodes_after)


def _plan_cache_got(_args, plan) -> None:
    RECORDER.count(
        "engine.plan_cache.hits" if plan is not None else "engine.plan_cache.misses"
    )


def _vc_cache_got(_args, record) -> None:
    RECORDER.count(
        "engine.vc_cache.hits" if record is not None else "engine.vc_cache.misses"
    )


def _check_done(args, _result) -> None:
    solver = args[0]
    RECORDER.count("smt.checks")
    sat = solver.sat
    if sat is not None:
        RECORDER.count("smt.conflicts", sat.n_conflicts)
        RECORDER.count("smt.vars", len(sat.assigns))
        RECORDER.count("smt.clauses", len(sat.clauses))


def _stream(fn):
    """``stream_tasks`` is a generator: its span opens at the first
    ``next`` and closes when the stream is exhausted or dropped."""

    @functools.wraps(fn)
    def wrapper(units, *args, **kwargs):
        RECORDER.count("engine.scheduler.units", len(units))
        span = RECORDER.open("engine.scheduler.stream")
        try:
            for res in fn(units, *args, **kwargs):
                RECORDER.count("engine.vcs")
                if res.deduped:
                    RECORDER.count("engine.dedup_hits")
                if res.retries:
                    RECORDER.count("engine.retries", res.retries)
                if not res.cached and not res.deduped:
                    # Solved by a worker process: its time_s is the
                    # solve time the parent never sees as a span.
                    RECORDER.count("engine.worker_solve_s", res.time_s)
                yield res
        finally:
            RECORDER.close(span)

    return wrapper


def _request(fn):
    counter = itertools.count(1)

    @functools.wraps(fn)
    def wrapper(handler, *args, **kwargs):
        client = handler.headers.get("X-Client-Id", "anonymous")
        span = RECORDER.open("service.request", request=f"{client}#{next(counter)}")
        try:
            return fn(handler, *args, **kwargs)
        finally:
            RECORDER.close(span)

    return wrapper


def install() -> None:
    """Wrap the public call of every layer (idempotent per process)."""
    if getattr(install, "done", False):
        return
    install.done = True
    import repro.analysis.driver as lint_driver
    import repro.core.verifier as verifier
    import repro.engine.session as session
    import repro.smt.solver as solver
    from repro.core.vcgen import VcGen
    from repro.engine.cache import VcCache
    from repro.engine.journal import RunJournal
    from repro.engine.plancache import PlanCache
    from repro.smt.sat import SatSolver

    verifier.Verifier.plan = _timed("core.plan", verifier.Verifier.plan, _plan_done)
    lint_driver.lint_method = _timed("analysis.lint", lint_driver.lint_method)
    verifier.elaborate_proc = _timed("core.elaborate", verifier.elaborate_proc)
    VcGen.run = _timed("core.vcgen", VcGen.run)
    verifier.rewrite = _timed("smt.rewrite", verifier.rewrite)
    verifier.simplify_term = _timed("smt.simplify", verifier.simplify_term)

    PlanCache.get = _timed("engine.plan_cache.get", PlanCache.get, _plan_cache_got)
    PlanCache.put = _timed("engine.plan_cache.put", PlanCache.put)
    VcCache.get = _timed("engine.vc_cache.get", VcCache.get, _vc_cache_got)
    VcCache.put = _timed(
        "engine.vc_cache.put", VcCache.put,
        lambda _a, _r: RECORDER.count("engine.vc_cache.puts"),
    )
    RunJournal.record_slot = _timed(
        "engine.journal.record", RunJournal.record_slot,
        lambda _a, _r: RECORDER.count("engine.journal.records"),
    )
    session.stream_tasks = _stream(session.stream_tasks)

    solver.Solver.check = _timed("smt.solve", solver.Solver.check, _check_done)
    SatSolver.solve = _timed("smt.sat", SatSolver.solve)
    solver.reduce_sets = _timed("smt.reduce_sets", solver.reduce_sets)


def install_service() -> None:
    """Add the daemon's request span (the launcher calls this)."""
    from repro.service.server import _Handler

    _Handler.do_POST = _request(_Handler.do_POST)


# -- analysis ---------------------------------------------------------------


def _inside(a: float, b: float, windows) -> float:
    """How much of [a, b] lies inside ``windows``."""
    return sum(max(0.0, min(b, end) - max(a, start)) for start, end in windows)


def self_times(spans, windows) -> dict:
    """Self time per span name, attributing each instant inside
    ``windows`` to the deepest open span (latest-opened among equals)."""
    events = []
    for ix, (_sid, _name, start, end, _parent, _req, _depth) in enumerate(spans):
        if end > start:
            events.append((start, 1, ix))
            events.append((end, 0, ix))
    events.sort()
    out = defaultdict(float)
    active = {}
    last = None
    for t, kind, ix in events:
        if active and last is not None and t > last:
            top = max(active, key=lambda j: (spans[j][6], spans[j][2]))
            out[spans[top][1]] += _inside(last, t, windows)
        last = t
        if kind:
            active[ix] = True
        else:
            active.pop(ix, None)
    return dict(out)


def totals(spans) -> dict:
    """Inclusive duration per span name."""
    out = defaultdict(float)
    for _sid, name, start, end, *_rest in spans:
        out[name] += end - start
    return dict(out)


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced pass from its spans and counts."""
    spans = [tuple(s) for s in dump["spans"]]
    counts = defaultdict(float)
    for _t, name, value in dump["counts"]:
        counts[name] += value
    inclusive = totals(spans)
    own = self_times(spans, dump["windows"])
    m = {}

    def t(name):
        return inclusive.get(name, 0.0)

    m["core.plan_s"] = t("core.plan")
    m["analysis.lint_s"] = t("analysis.lint")
    m["core.elaborate_s"] = t("core.elaborate")
    m["core.vcgen_s"] = t("core.vcgen")
    m["smt.rewrite_s"] = t("smt.rewrite")
    m["smt.simplify_s"] = t("smt.simplify")
    for name in ("core.vcs", "smt.simplify.nodes_in", "smt.simplify.nodes_out"):
        m[name] = counts[name]

    for tier in ("plan_cache", "vc_cache"):
        m[f"engine.{tier}.get_s"] = t(f"engine.{tier}.get")
        m[f"engine.{tier}.put_s"] = t(f"engine.{tier}.put")
    m["engine.plan_cache.hits"] = counts["engine.plan_cache.hits"]
    m["engine.plan_cache.misses"] = counts["engine.plan_cache.misses"]
    m["engine.vc_cache.hits"] = counts["engine.vc_cache.hits"]
    m["engine.vc_cache.puts"] = counts["engine.vc_cache.puts"]
    m["engine.journal.record_s"] = t("engine.journal.record")
    m["engine.journal.records"] = counts["engine.journal.records"]
    stream_s = t("engine.scheduler.stream")
    worker_s = counts["engine.worker_solve_s"]
    m["engine.scheduler.stream_s"] = stream_s
    m["engine.scheduler.units"] = counts["engine.scheduler.units"]
    m["engine.scheduler.overhead_s"] = max(0.0, stream_s - worker_s) if stream_s else 0.0
    vcs = counts["engine.vcs"]
    m["engine.dedup_hits"] = counts["engine.dedup_hits"]
    m["engine.dedup_rate"] = counts["engine.dedup_hits"] / vcs if vcs else 0.0
    m["engine.retries"] = counts["engine.retries"]

    # In-process solves are spans; worker solves (cold-verify forks one
    # process per unit) are the time_s their results carry.
    solve_s = t("smt.solve") + worker_s
    sat_s = t("smt.sat")
    m["smt.solve_s"] = solve_s
    m["smt.sat_s"] = sat_s
    m["smt.reduce_sets_s"] = t("smt.reduce_sets")
    m["smt.preprocess_s"] = max(0.0, t("smt.solve") - sat_s)
    for name in ("smt.checks", "smt.conflicts", "smt.vars", "smt.clauses"):
        m[name] = counts[name]
    m["smt.conflicts_per_s"] = counts["smt.conflicts"] / sat_s if sat_s else 0.0

    layer_self = defaultdict(float)
    for name, secs in own.items():
        layer_self[LAYER_OF.get(name, "other")] += secs
    # Worker solve time happened while the parent sat in the stream span.
    moved = min(worker_s, layer_self["engine"])
    layer_self["engine"] -= moved
    layer_self["solve"] += moved
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["layer.self_sum_s"] = sum(layer_self[layer] for layer in LAYERS)
    return m
