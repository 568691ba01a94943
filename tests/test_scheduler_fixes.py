"""Regression tests for scheduler verdict-loss/accounting bugs.

1. ``deadline_s`` expiry used to terminate workers without draining
   their pipes, so verdicts a worker had already streamed were discarded
   and misreported as timeouts (and never cached).
2. In-flight dedup waiters used to inherit *non-definitive* verdicts: an
   owner that timed out or errored fanned that machine-dependent failure
   out to every duplicate instead of re-queueing them as standalone
   tasks (mirroring ``VcCache.put``'s cacheability rule).
3. ``solve_batch``'s context-failure path re-measured the wall clock per
   errored entry, attributing the elapsed time to the first entry and
   re-charging ~0 to the rest by accident of iteration order; the time
   is now charged once, explicitly.
4. A forked worker kept its parent's Python-level SIGTERM handler.  One
   that returns (the daemon's drain trigger) let the worker survive the
   parent's kill, so a timed-out unit was waited on for its whole solve.

Each test fails against the pre-fix scheduler.
"""

import multiprocessing as mp
import signal
import time

import pytest

from repro.engine import VcCache, formula_key, solve_tasks
from repro.engine.backends import (
    BackendVerdict,
    SolverBackend,
    register_backend,
    _REGISTRY,
)
from repro.engine.codec import encode_term, encode_terms
from repro.engine.scheduler import solve_batch
from repro.engine.tasks import BatchEntry, BatchTask, SolveTask
from repro.smt import terms as T
from repro.smt.rewriter import rewrite
from repro.smt.simplify import simplify
from repro.smt.solver import SolverError
from repro.smt.sorts import INT


def _iter_names(formula):
    from repro.smt.terms import iter_subterms

    return [t.name for t in iter_subterms(formula) if t.name]


def _canonical_task(formula, index, label, backend_spec, **kw):
    canonical = simplify(rewrite(formula))
    return SolveTask(
        structure="S",
        method="m",
        index=index,
        label=label,
        nodes=encode_term(canonical),
        encoding="decidable",
        conflict_budget=None,
        backend_spec=backend_spec,
        pre_simplified=True,
        **kw,
    )


def _no_ready(conns, timeout=None):
    time.sleep(0.02)
    return []


# -- 1: deadline_s drains pipes before terminating ---------------------------


class _SleepyBackend(SolverBackend):
    """Answers instantly unless the formula mentions a ``slow`` symbol."""

    name = "sleepy-dl"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        for name in _iter_names(formula):
            if name == "slow":
                time.sleep(30)
        return BackendVerdict("valid")


@pytest.fixture
def sleepy_backend():
    register_backend("sleepy-dl", lambda arg=None: _SleepyBackend())
    yield
    _REGISTRY.pop("sleepy-dl", None)


def test_deadline_drains_streamed_verdicts(sleepy_backend, monkeypatch, tmp_path):
    """A batch worker streams its first verdict, then hangs on the second
    goal.  With ``conn_wait`` patched to never surface the pipe, the
    streamed verdict sits unread until ``deadline_s`` expires -- it must
    be drained (reported valid and cached), not blanket-timed-out."""
    import repro.engine.scheduler as sched

    monkeypatch.setattr(sched, "conn_wait", _no_ready)
    fast = T.mk_le(T.mk_const("fast", INT), T.mk_int(3))
    slow = T.mk_le(T.mk_const("slow", INT), T.mk_int(3))
    nodes, (f_ix, s_ix) = encode_terms([fast, slow])
    batch = BatchTask(
        structure="S",
        method="m",
        nodes=nodes,
        prefix=(),
        entries=(
            BatchEntry(index=0, label="vc-fast", formula_ix=f_ix, remainder_ix=f_ix),
            BatchEntry(index=1, label="vc-slow", formula_ix=s_ix, remainder_ix=s_ix),
        ),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="sleepy-dl",
        pre_simplified=True,
    )
    cache = VcCache(tmp_path)
    results = solve_tasks([batch], jobs=1, cache=cache, deadline_s=0.7)
    by_index = {r.index: r for r in results}
    assert by_index[0].verdict == "valid"  # drained, not discarded
    assert by_index[1].verdict == "timeout"
    assert "method budget" in by_index[1].detail
    # The drained verdict also reached the persistent cache.
    key = formula_key(fast, "decidable", None, "sleepy-dl", canonical=True)
    assert cache.get(key)["verdict"] == "valid"
    assert mp.active_children() == []  # the hung worker was reaped


# -- 2: dedup waiters of a failed owner are re-queued ------------------------


class _FlagBackend(SolverBackend):
    """Hangs while the flag file exists, consuming it -- the first call
    times out, a retry (flag gone) verifies.  The flag lives on disk so
    the behavior spans worker processes."""

    name = "flaky"

    def __init__(self, flag_path):
        self.flag_path = flag_path

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        import os

        if self.flag_path and os.path.exists(self.flag_path):
            os.unlink(self.flag_path)
            time.sleep(30)
        return BackendVerdict("valid")


@pytest.fixture
def flag_backend():
    register_backend("flaky", lambda arg=None: _FlagBackend(arg))
    yield
    _REGISTRY.pop("flaky", None)


def test_dedup_waiter_requeued_when_owner_times_out(flag_backend, tmp_path):
    """Two identical VCs dedup to one owner; the owner times out.  The
    waiter must be re-queued and solved standalone (the retry finds the
    flag consumed and verifies), not inherit the owner's timeout."""
    flag = tmp_path / "hang-once"
    flag.write_text("x")
    f = T.mk_le(T.mk_const("dup_t", INT), T.mk_int(3))
    spec = f"flaky:{flag}"
    tasks = [
        _canonical_task(f, 0, "vc-0", spec, timeout_s=0.6),
        _canonical_task(f, 1, "vc-1", spec, timeout_s=0.6),
    ]
    results = solve_tasks(tasks, jobs=1)
    by_index = {r.index: r for r in results}
    assert by_index[0].verdict == "timeout"
    assert by_index[1].verdict == "valid"  # re-queued, solved on its own
    assert not by_index[1].deduped


class _ErrorOnceBackend(SolverBackend):
    name = "error-once"
    calls = 0

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        _ErrorOnceBackend.calls += 1
        if _ErrorOnceBackend.calls == 1:
            raise SolverError("transient")
        return BackendVerdict("valid")


@pytest.fixture
def error_once_backend():
    _ErrorOnceBackend.calls = 0
    register_backend("error-once", lambda arg=None: _ErrorOnceBackend())
    yield _ErrorOnceBackend
    _REGISTRY.pop("error-once", None)


def test_dedup_waiter_requeued_when_owner_errors(error_once_backend):
    """Same rule on the sequential in-process path: an owner's solver
    error is not fanned out; the duplicate retries and verifies."""
    f = T.mk_le(T.mk_const("dup_e", INT), T.mk_int(3))
    tasks = [
        _canonical_task(f, 0, "vc-0", "error-once"),
        _canonical_task(f, 1, "vc-1", "error-once"),
    ]
    results = solve_tasks(tasks, jobs=1)
    by_index = {r.index: r for r in results}
    assert by_index[0].verdict == "error"
    assert by_index[1].verdict == "valid"
    assert error_once_backend.calls == 2  # owner + retried waiter


def test_dedup_fanout_still_applies_to_definitive_verdicts(error_once_backend):
    """The fan-out path is unchanged for valid/invalid owners."""
    _ErrorOnceBackend.calls = 1  # skip the erroring first call
    f = T.mk_le(T.mk_const("dup_d", INT), T.mk_int(3))
    tasks = [
        _canonical_task(f, 0, "vc-0", "error-once"),
        _canonical_task(f, 1, "vc-1", "error-once"),
    ]
    results = solve_tasks(tasks, jobs=1)
    assert [r.verdict for r in results] == ["valid", "valid"]
    assert results[1].deduped
    assert error_once_backend.calls == 2  # 1 preset + 1 real solve


def test_bag_deadline_fans_timeout_to_waiters(sleepy_backend):
    """When the whole bag's deadline expires there is no budget left to
    retry a waiter, so the owner's timeout does fan out (one terminal
    result per slot, waiters marked deduped)."""
    f = T.mk_le(T.mk_const("slow", INT), T.mk_int(3))
    tasks = [
        _canonical_task(f, 0, "vc-0", "sleepy-dl"),
        _canonical_task(f, 1, "vc-1", "sleepy-dl"),
    ]
    results = solve_tasks(tasks, jobs=1, deadline_s=0.5)
    by_index = {r.index: r for r in results}
    assert by_index[0].verdict == "timeout"
    assert by_index[1].verdict == "timeout"
    assert by_index[1].deduped
    assert mp.active_children() == []


# -- 3: solve_batch charges a context failure's elapsed time once ------------


class _DiesMidStreamBackend(SolverBackend):
    """Yields one verdict, then fails at the batch context level."""

    name = "dies-mid-stream"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        return BackendVerdict("valid")

    def batch_check_validity(
        self, prefix, remainders, conflict_budget=None, pre_simplified=False
    ):
        yield BackendVerdict("valid")
        time.sleep(0.05)
        raise SolverError("context died")


def test_batch_context_failure_charges_elapsed_once():
    f1 = T.mk_le(T.mk_const("cf_a", INT), T.mk_int(3))
    f2 = T.mk_le(T.mk_const("cf_b", INT), T.mk_int(3))
    f3 = T.mk_le(T.mk_const("cf_c", INT), T.mk_int(3))
    nodes, ixs = encode_terms([f1, f2, f3])
    batch = BatchTask(
        structure="S",
        method="m",
        nodes=nodes,
        prefix=(),
        entries=tuple(
            BatchEntry(index=i, label=f"vc-{i}", formula_ix=ix, remainder_ix=ix)
            for i, ix in enumerate(ixs)
        ),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="unused",
    )
    results = list(solve_batch(batch, backend=_DiesMidStreamBackend()))
    assert [r.verdict for r in results] == ["valid", "error", "error"]
    # The ~0.05s spent before the context failure is charged exactly once
    # (to the first errored entry); the other entry is explicitly free.
    assert results[1].time_s >= 0.04
    assert results[2].time_s == 0.0


# -- 4: workers reset inherited signal handlers ------------------------------


def test_timeout_kills_worker_despite_returning_sigterm_handler(sleepy_backend):
    """With a parent SIGTERM handler that returns, a 0.5s timeout on a
    30s solve still ends in a ``timeout`` within a few seconds: the
    worker drops the inherited handler, so the kill ends it."""
    slow = T.mk_le(T.mk_const("slow", INT), T.mk_int(3))
    task = _canonical_task(slow, 0, "vc-slow", "sleepy-dl", timeout_s=0.5)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        start = time.perf_counter()
        (res,) = solve_tasks([task], jobs=1)
        elapsed = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert res.verdict == "timeout"
    assert elapsed < 5
    assert mp.active_children() == []
