"""Solve scheduler: one supervised worker loop with per-unit deadlines.

A unit is either a single :class:`~repro.engine.tasks.SolveTask` or a
:class:`~repro.engine.tasks.BatchTask` of N VCs sharing a hypothesis
prefix.  There are exactly two routes through :func:`stream_tasks`:

- the *in-process reference*: ``jobs=1`` with nothing that needs a
  worker (no per-VC timeout, no method budget, no portfolio race, no
  worker-site fault plan) solves every unit in this process, byte for
  byte the sequential ``Verifier.verify`` verdict computation;
- the *supervised loop* for everything else: every unit runs in a
  fresh worker process (forked under the platform's default start
  method; at most ``jobs`` in flight), which streams one result per VC
  back through its pipe as each goal is decided, so per-VC verdicts,
  timings and timeout attribution survive batching.  Deadlines are
  enforced by killing the worker from the parent (no
  ``signal.SIGALRM``, so the loop also runs inside threads), and a
  worker death goes through the retry/quarantine policy.

A unit's workers form one *slot group*.  A ``portfolio:`` unit (see
:mod:`repro.engine.backends`) runs one member worker per backend on the
same slots; a plain unit is a group of one.  A slot settles on the first
definitive verdict any member streams (attributed via
``TaskResult.winner``), or on its first non-definitive answer once no
live member can still answer it; the group's workers are killed as soon
as its last slot settles.  The race lives here rather than inside a
``SolverBackend`` because ``check_validity`` is synchronous and members
may be subprocess-bound -- only the scheduler can run them truly
concurrently and cancel the losers.

Before anything launches, every VC is keyed by its canonical formula
hash: persistent-cache hits short-circuit, and *in-flight duplicates*
(two VCs in the same bag with identical canonical formulas -- common
once the simplifier has normalized them) are solved exactly once, with
the verdict fanned out to the duplicate siblings and the cache written
once.  Only *definitive* verdicts (valid/invalid) fan out: a timeout or
error is a fact about this machine and schedule, not about the formula,
so duplicates of a failed owner are re-queued as standalone tasks
(mirroring :class:`~repro.engine.cache.VcCache`'s cacheability rule).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import replace
from multiprocessing.connection import wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..smt.solver import SolverError
from ..smt.terms import Term
from . import faults
from .backends import BackendError, SolverBackend, make_backend, portfolio_members
from .cache import VcCache, formula_text, key_for_text
from .codec import encode_term
from .tasks import (
    BatchTask,
    SolveTask,
    TaskResult,
    TaskUnit,
    flatten_units,
    unit_slots as _unit_slots,
)

__all__ = ["stream_tasks", "solve_tasks", "solve_one", "solve_batch"]

_POLL_S = 0.05
_DEFINITIVE = ("valid", "invalid")
# Exit code for fault-injected worker deaths (distinguishable from real
# crashes in logs, handled identically by the supervised-retry policy).
_FAULT_EXIT = 98
# Retry backoff: base * 2**attempt, capped.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 2.0


def _unit_token(unit: TaskUnit) -> str:
    """Stable per-unit token for deterministic fault decisions."""
    slots = _unit_slots(unit)
    return f"{unit.structure}|{unit.method}|{slots[0][0]}"


def solve_one(task: SolveTask, backend: Optional[SolverBackend] = None) -> TaskResult:
    """Solve a single task in this process (no timeout enforcement)."""
    if backend is None:
        backend = make_backend(task.backend_spec)
    start = time.perf_counter()
    try:
        verdict = backend.check_validity(
            task.formula(), task.conflict_budget, pre_simplified=task.pre_simplified
        )
        return TaskResult(
            index=task.index,
            label=task.label,
            verdict=verdict.status,
            detail=verdict.detail,
            time_s=time.perf_counter() - start,
        )
    except (SolverError, BackendError) as e:
        return TaskResult(
            index=task.index,
            label=task.label,
            verdict="error",
            detail=str(e),
            time_s=time.perf_counter() - start,
        )


def solve_batch(batch: BatchTask, backend: Optional[SolverBackend] = None):
    """Solve a batch in this process, yielding one TaskResult per entry
    (in entry order) as each goal is decided.

    Per-goal solver failures become per-entry ``error`` results; a
    context-level failure (prefix ingestion, dead external solver)
    errors every not-yet-answered entry.
    """
    if backend is None:
        backend = make_backend(batch.backend_spec)
    prefix, remainders, _formulas = batch.decode()
    gen = backend.batch_check_validity(
        prefix, remainders, batch.conflict_budget, pre_simplified=batch.pre_simplified
    )
    done = 0
    last = time.perf_counter()
    try:
        for entry, verdict in zip(batch.entries, gen):
            now = time.perf_counter()
            yield TaskResult(
                index=entry.index,
                label=entry.label,
                verdict=verdict.status,
                detail=verdict.detail,
                time_s=now - last,
            )
            last = now
            done += 1
    except (SolverError, BackendError) as e:
        # A context-level failure kills every remaining entry at once:
        # the wall clock since the last yield was spent *once*, so it is
        # charged to the first errored entry and the rest are explicitly
        # zero -- not re-measured per entry, which would attribute the
        # elapsed time to the first and ~0 to the rest by accident.
        elapsed = time.perf_counter() - last
        for entry in batch.entries[done:]:
            yield TaskResult(
                index=entry.index,
                label=entry.label,
                verdict="error",
                detail=str(e),
                time_s=elapsed,
            )
            elapsed = 0.0


def _requeue_singles(batch: BatchTask, remaining: Dict[int, str]) -> List[SolveTask]:
    """Standalone tasks for batch entries that were never attempted."""
    _prefix, _remainders, formulas = batch.decode()
    by_index = {e.index: f for e, f in zip(batch.entries, formulas)}
    return [
        SolveTask(
            structure=batch.structure,
            method=batch.method,
            index=ix,
            label=label,
            nodes=encode_term(by_index[ix]),
            encoding=batch.encoding,
            conflict_budget=batch.conflict_budget,
            backend_spec=batch.backend_spec,
            timeout_s=batch.timeout_s,
            pre_simplified=batch.pre_simplified,
        )
        for ix, label in remaining.items()
    ]


def _waiter_task(unit: TaskUnit, index: int, label: str, formula: Term) -> SolveTask:
    """A standalone task for a dedup waiter whose owner failed to produce
    a definitive verdict."""
    return SolveTask(
        structure=unit.structure,
        method=unit.method,
        index=index,
        label=label,
        nodes=encode_term(formula),
        encoding=unit.encoding,
        conflict_budget=unit.conflict_budget,
        backend_spec=unit.backend_spec,
        timeout_s=unit.timeout_s,
        pre_simplified=unit.pre_simplified,
    )


def _worker(conn, unit: TaskUnit) -> None:
    """Worker entry point: solve one unit, stream results, exit.

    Protocol: one ``TaskResult`` message per VC (batches stream them as
    goals are decided), then a ``None`` sentinel.
    """
    # A forked worker inherits its parent's Python-level signal
    # handlers.  The parent owns interrupts and kills workers with
    # SIGTERM, so a handler that returns (the daemon's drain trigger) or
    # raises (the CLI's interrupt) must not outlive the fork: the kill
    # has to end the process, and Ctrl-C reaches the parent only.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def ship(obj) -> bool:
        try:
            conn.send(obj)
            return True
        except (BrokenPipeError, OSError):
            return False

    # Chaos plane: a worker re-derives the fault plan from the inherited
    # REPRO_FAULTS env var.  ``worker_crash`` dies before solving (the
    # parent sees a clean death with zero progress); ``worker_stream``
    # dies between streamed batch results (progress, then death).  Both
    # use os._exit because the except-BaseException nets below would
    # otherwise convert an injected exception into polite error results.
    plan = faults.active()
    attempt = getattr(unit, "attempt", 0)
    if plan is not None and plan.fire(
        "worker_crash", token=_unit_token(unit), attempt=attempt
    ):
        os._exit(_FAULT_EXIT)

    if isinstance(unit, BatchTask):
        reported = 0
        try:
            for res in solve_batch(unit):
                if not ship(res):
                    break
                reported += 1
                if plan is not None and plan.fire(
                    "worker_stream",
                    token=f"{_unit_token(unit)}|{reported}",
                    attempt=attempt,
                ):
                    os._exit(_FAULT_EXIT)
        except BaseException as e:  # noqa: BLE001 - must never die silently
            for entry in unit.entries[reported:]:
                ship(
                    TaskResult(
                        entry.index, entry.label, "error", f"worker crash: {e!r}"
                    )
                )
    else:
        try:
            res = solve_one(unit)
        except BaseException as e:  # noqa: BLE001
            res = TaskResult(unit.index, unit.label, "error", f"worker crash: {e!r}")
        ship(res)
    ship(None)
    try:
        conn.close()
    except OSError:
        pass


class _Group:
    """One unit's slot group: the member workers answering its slots.

    A plain unit has one member; a ``portfolio:`` unit has one per
    member backend.  The group shares one summed timeout bank: a batch
    is granted the budget of all its entries up front (a non-streaming
    backend -- one smtlib2 subprocess answering all N goals at once --
    must not be killed after a single slice), and racing changes who
    answers first, not how long the unit may take.
    """

    __slots__ = ("unit", "runs", "remaining", "fallback", "started", "deadline",
                 "delivered")

    def __init__(self, unit: TaskUnit):
        self.unit = unit
        self.runs: List[_Running] = []
        self.remaining: Dict[int, str] = dict(_unit_slots(unit))
        self.fallback: Dict[int, TaskResult] = {}
        self.started = time.perf_counter()
        if unit.timeout_s is None:
            self.deadline = None
        else:
            self.deadline = self.started + unit.timeout_s * len(self.remaining)
        # Results the group's workers streamed back: the retry policy's
        # transient-vs-deterministic signal (a crash after progress is
        # not the same crash happening again).
        self.delivered = 0


class _Running:
    """One live member worker of a group."""

    __slots__ = ("proc", "conn", "group", "member", "remaining", "active")

    def __init__(self, proc, conn, group: _Group, member: Optional[str]):
        self.proc = proc
        self.conn = conn
        self.group = group
        self.member = member  # member backend spec when the group races
        self.remaining: Dict[int, str] = dict(group.remaining)
        self.active = True


def solve_tasks(
    units: Sequence[TaskUnit],
    jobs: int = 1,
    cache: Optional[VcCache] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 2,
) -> List[TaskResult]:
    """Solve every unit; returns per-VC results in unit/entry order.

    The collecting face of :func:`stream_tasks`: results are gathered
    and re-sorted into scheduling order, so the list is deterministic
    under any parallel completion order.
    """
    flat = flatten_units(units)
    results = {
        res.index: res
        for res in stream_tasks(
            units,
            jobs=jobs,
            cache=cache,
            deadline_s=deadline_s,
            max_retries=max_retries,
        )
    }
    return [results[ix] for ix, _label in flat]


def stream_tasks(
    units: Sequence[TaskUnit],
    jobs: int = 1,
    cache: Optional[VcCache] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 2,
):
    """Solve every unit, *yielding* one :class:`TaskResult` per VC slot
    as each verdict lands (completion order, not submission order).

    This generator is the engine's event source: cache hits and in-flight
    dedup fan-outs are yielded up front, then worker results are pushed
    out as the streaming worker protocol delivers them -- consumers see
    progress per VC instead of waiting for the whole bag.

    Cache hits short-circuit before any process is spawned (a fully
    warm run starts no worker); in-flight duplicates (same canonical
    ``formula_key``) are solved once, with definitive verdicts fanned
    out and failed owners' duplicates re-queued standalone; definitive
    verdicts of misses are written back exactly once per key.  ``jobs``
    bounds worker concurrency; ``timeout_s`` is enforced by killing the
    unit's workers once its group's bank runs out -- the pipes are
    drained first (already-streamed verdicts are real), then the
    in-flight entry is the timeout while never-attempted entries are
    re-queued standalone.  ``deadline_s`` additionally bounds the *whole
    bag's* wall clock (the per-method budget of the benchmark
    harnesses): when it expires, pipes are drained, then every
    unfinished VC is reported as ``timeout`` instead of being started.
    Raced verdicts are additionally cached under the winning member's
    key so a warm single-backend run replays them.

    Worker deaths are *supervised*: once no live member of a group can
    still answer its unsettled slots, they are retried up to
    ``max_retries`` times with bounded exponential backoff.  A crash is
    classified transient when it is the unit's first, or when the group
    streamed progress before dying; a unit that crashes twice in a row
    with no progress (a deterministic crash -- retrying would loop) or
    exhausts the retry budget is quarantined: its slots settle as
    ``error`` verdicts carrying ``retries``/``quarantined`` attribution.
    """
    key_of: Dict[int, Optional[str]] = {}
    attrib: Dict[int, Tuple[str, str, str]] = {}
    waiters: Dict[int, List[Tuple[int, str, Term, TaskUnit]]] = {}
    owner_of_key: Dict[str, int] = {}
    pending: List[TaskUnit] = []
    # index -> (canonical smtlib text, encoding, budget) for portfolio
    # slots, so a raced verdict can be re-keyed under its winning member.
    portfolio_text: Dict[int, Tuple[str, str, Optional[int]]] = {}
    # Dedup waiters orphaned by a non-definitive owner verdict, waiting
    # to be re-queued as standalone tasks.
    retry_tasks: List[SolveTask] = []

    members_of: Dict[str, Optional[List[str]]] = {}

    def portfolio_of(spec: str) -> Optional[List[str]]:
        """Probed member specs of a portfolio spec (memoized), else None."""
        if spec not in members_of:
            members_of[spec] = portfolio_members(spec)
        return members_of[spec]

    for unit in units:
        is_batch = isinstance(unit, BatchTask)
        # Keying a non-pre-simplified formula costs a full
        # rewrite+simplify pass here in the parent; only pay it (and the
        # decode it needs) when a cache can actually replay the verdict.
        keyed = cache is not None or unit.pre_simplified
        if is_batch:
            formulas = unit.decode()[2] if keyed else [None] * len(unit.entries)
            slots = list(zip(unit.entries, formulas))
        else:
            slots = [(unit, unit.formula() if keyed else None)]
        kept = []
        for slot, formula in slots:
            index, label = slot.index, slot.label
            attrib[index] = (unit.structure, unit.method, label)
            if not keyed:
                key_of[index] = None
                kept.append(slot)
                continue
            text = formula_text(formula, canonical=unit.pre_simplified)
            key = key_for_text(
                text, unit.encoding, unit.conflict_budget, unit.backend_spec
            )
            key_of[index] = key
            if cache is not None and portfolio_of(unit.backend_spec):
                portfolio_text[index] = (text, unit.encoding, unit.conflict_budget)
            if cache is not None:
                record = cache.get(key)
                if record is not None:
                    yield TaskResult(
                        index=index,
                        label=label,
                        verdict=record["verdict"],
                        detail=record.get("detail", ""),
                        time_s=0.0,
                        cached=True,
                        deduped=key in cache.session_keys,
                    )
                    continue
            owner = owner_of_key.get(key)
            if owner is not None:
                # In-flight duplicate: solve the canonical formula once,
                # fan the verdict out when the owner's result lands.
                waiters.setdefault(owner, []).append((index, label, formula, unit))
                continue
            owner_of_key[key] = index
            kept.append(slot)
        if not kept:
            continue
        if is_batch and len(kept) < len(unit.entries):
            unit = replace(unit, entries=tuple(kept))
        pending.append(unit)

    def settle(res: TaskResult, fanout_all: bool = False) -> List[TaskResult]:
        """A landed result plus its dedup fan-out (cache written once).

        Only definitive verdicts fan out to waiters: a timeout/error
        owner's duplicates are re-queued as standalone tasks instead of
        inheriting the machine-dependent failure.  ``fanout_all`` forces
        the fan-out regardless (the bag-deadline path, where a re-queued
        waiter could never run anyway).
        """
        out = [res]
        key = key_of.get(res.index)
        definitive = res.verdict in _DEFINITIVE
        if cache is not None and key is not None and not res.cached:
            structure, method, label = attrib[res.index]
            cache.put(
                key,
                res.verdict,
                res.detail,
                label=label,
                structure=structure,
                method=method,
                time_s=res.time_s,
            )
            if definitive and res.winner is not None:
                # A raced verdict is also published under the winning
                # member's own key, so a warm single-backend run of that
                # member replays it without re-racing.
                meta = portfolio_text.get(res.index)
                if meta is not None:
                    text, encoding, budget = meta
                    cache.put(
                        key_for_text(text, encoding, budget, res.winner),
                        res.verdict,
                        res.detail,
                        label=label,
                        structure=structure,
                        method=method,
                        time_s=res.time_s,
                    )
        for w_ix, w_label, w_formula, w_unit in waiters.pop(res.index, ()):
            if definitive or fanout_all:
                out.append(
                    TaskResult(
                        index=w_ix,
                        label=w_label,
                        verdict=res.verdict,
                        detail=res.detail,
                        time_s=0.0,
                        deduped=True,
                        winner=res.winner,
                    )
                )
            else:
                retry_tasks.append(_waiter_task(w_unit, w_ix, w_label, w_formula))
        return out

    fault_plan = faults.active()
    needs_worker = (
        jobs > 1
        or deadline_s is not None
        or any(u.timeout_s is not None for u in pending)
        # A race needs real concurrent workers to win and losers to kill.
        or any(portfolio_of(u.backend_spec) for u in pending)
        # Worker-killing fault plans need a worker to kill.
        or (fault_plan is not None and fault_plan.wants_worker_isolation())
    )
    if not needs_worker:
        # The in-process reference: identical to Verifier.verify's solve loop.
        for unit in pending:
            if isinstance(unit, BatchTask):
                for res in solve_batch(unit):
                    yield from settle(res)
            else:
                yield from settle(solve_one(unit))
        while retry_tasks:
            yield from settle(solve_one(retry_tasks.pop(0)))
        return

    queue: List[TaskUnit] = list(pending)
    running: List[_Running] = []
    # Crash-retried units parked until their backoff expires:
    # (not_before, unit) pairs drained back into the queue by the loop.
    delayed: List[Tuple[float, TaskUnit]] = []
    bag_deadline = (
        time.perf_counter() + deadline_s if deadline_s is not None else None
    )

    def launch(unit: TaskUnit) -> None:
        """Start one worker per member of the unit's group (one for a
        plain unit; a race's members each occupy a worker slot)."""
        group = _Group(unit)
        for member in portfolio_of(unit.backend_spec) or (None,):
            member_unit = unit if member is None else replace(unit, backend_spec=member)
            parent_conn, child_conn = mp.Pipe(duplex=False)
            proc = mp.Process(target=_worker, args=(child_conn, member_unit), daemon=True)
            proc.start()
            child_conn.close()
            run = _Running(proc, parent_conn, group, member)
            group.runs.append(run)
            running.append(run)

    def retire(run: _Running) -> None:
        """Terminate/join one worker and close its pipe (idempotent)."""
        if not run.active:
            return
        run.active = False
        if run.proc.is_alive():
            run.proc.terminate()
        run.proc.join()
        try:
            run.conn.close()
        except OSError:
            pass

    def retire_group(group: _Group) -> None:
        for run in group.runs:
            retire(run)

    def deliver(run: _Running, msg: TaskResult) -> List[TaskResult]:
        """Route one worker message: the first definitive verdict settles
        its slot; a non-definitive one waits for the other members."""
        group = run.group
        run.remaining.pop(msg.index, None)
        group.delivered += 1
        if msg.index not in group.remaining:
            return []  # a sibling already won this slot
        if group.unit.attempt and not msg.retries:
            msg.retries = group.unit.attempt
        if msg.verdict not in _DEFINITIVE:
            group.fallback.setdefault(msg.index, msg)
            return sweep(group)
        del group.remaining[msg.index]
        msg.winner = run.member
        out = settle(msg)
        if not group.remaining:
            retire_group(group)  # last slot settled: cancel the losers
        return out

    def drain(run: _Running) -> List[TaskResult]:
        """Deliver whatever results already sit in a run's pipe.  The
        worker may be dead or about to be killed -- verdicts it streamed
        are real (and cacheable) and must not be discarded."""
        out: List[TaskResult] = []
        try:
            while run.conn.poll():
                msg = run.conn.recv()
                if msg is None:
                    break
                out.extend(deliver(run, msg))
                if not run.active:
                    break
        except (EOFError, OSError):
            pass
        return out

    def sweep(group: _Group) -> List[TaskResult]:
        """Settle slots that hold a fallback and that no live member can
        still answer."""
        out: List[TaskResult] = []
        alive = [r for r in group.runs if r.active]
        for ix in list(group.remaining):
            if ix in group.fallback and not any(ix in r.remaining for r in alive):
                del group.remaining[ix]
                out.extend(settle(group.fallback[ix]))
        if not group.remaining:
            retire_group(group)
        return out

    def fail_remaining(
        group: _Group,
        verdict: str,
        detail: str,
        now: float,
        fanout_all: bool = False,
        **attribution,
    ) -> List[TaskResult]:
        out: List[TaskResult] = []
        for ix, label in group.remaining.items():
            res = TaskResult(
                ix, label, verdict, detail, time_s=now - group.started, **attribution
            )
            out.extend(settle(res, fanout_all=fanout_all))
        group.remaining.clear()
        return out

    def ended(run: _Running, now: float, crashed: bool) -> List[TaskResult]:
        """A member's worker is gone: it leaves the group, and once no
        member is left the unanswered slots go to the crash policy (or,
        after a clean exit, error out)."""
        retire(run)
        group = run.group
        out = sweep(group)
        if group.remaining and not any(r.active for r in group.runs):
            if crashed:
                out.extend(
                    crash_retry(group, now, f"worker died (exitcode {run.proc.exitcode})")
                )
            else:
                # Defensive: a sentinel without all results errors the gap.
                out.extend(
                    fail_remaining(group, "error", "worker ended without result", now)
                )
        return out

    def expire(group: _Group, now: float) -> List[TaskResult]:
        """The group's bank ran out: drain every member (streamed
        verdicts survive the kill), kill the group, then time out only
        the entry being solved and re-queue the never-attempted rest as
        standalone tasks with fresh budgets (the bag deadline still
        bounds the whole method)."""
        out: List[TaskResult] = []
        for run in group.runs:
            if run.active:
                out.extend(drain(run))
        retire_group(group)
        never: Dict[int, str] = {}
        if isinstance(group.unit, BatchTask) and len(group.remaining) > 1:
            _in_flight, *rest = group.remaining
            never = {ix: group.remaining.pop(ix) for ix in rest}
        out.extend(
            fail_remaining(group, "timeout", f"budget {group.unit.timeout_s:g}s", now)
        )
        if never:
            queue.extend(_requeue_singles(group.unit, never))
        return out

    def crash_retry(group: _Group, now: float, detail: str) -> List[TaskResult]:
        """Supervised retry for a dead group's unsettled slots.

        Transient crashes (the unit's first, or a death after streamed
        progress) respawn the remainder after a bounded exponential
        backoff; a unit that crashes twice in a row with no progress,
        or exhausts ``max_retries``, is quarantined: retrying a
        deterministic crash would loop forever.
        """
        unit = group.unit
        streak = 1 if group.delivered else unit.crash_streak + 1
        total = unit.attempt + 1
        if streak >= 2 or total > max_retries:
            why = (
                "crashed repeatedly with no progress"
                if streak >= 2
                else f"retry budget ({max_retries}) exhausted"
            )
            return fail_remaining(
                group,
                "error",
                f"quarantined after {total} worker crash(es), {why}: {detail}",
                now,
                retries=unit.attempt,
                quarantined=True,
            )
        backoff = min(_BACKOFF_BASE_S * (2 ** unit.attempt), _BACKOFF_CAP_S)
        if isinstance(unit, BatchTask) and len(group.remaining) < len(unit.entries):
            # Partial progress: only the unsettled entries come back, as
            # standalone tasks (the shared-prefix context died with the
            # worker anyway).
            retry_units: List[TaskUnit] = [
                replace(t, attempt=total, crash_streak=streak)
                for t in _requeue_singles(unit, group.remaining)
            ]
        else:
            retry_units = [replace(unit, attempt=total, crash_streak=streak)]
        group.remaining.clear()
        for retry_unit in retry_units:
            delayed.append((now + backoff, retry_unit))
        return []

    try:
        while queue or running or retry_tasks or delayed:
            if delayed:
                now0 = time.perf_counter()
                due = [u for t, u in delayed if t <= now0]
                if due:
                    delayed[:] = [(t, u) for t, u in delayed if t > now0]
                    queue.extend(due)
            if retry_tasks:
                # Orphaned dedup waiters go back into the bag standalone.
                queue.extend(retry_tasks)
                del retry_tasks[:]
            if bag_deadline is not None and time.perf_counter() > bag_deadline:
                detail = f"method budget {deadline_s:g}s"
                # Queued units and crash-retried units still waiting out
                # their backoff have no budget left.
                for unit in queue + [u for _not_before, u in delayed]:
                    for ix, label in _unit_slots(unit):
                        yield from settle(
                            TaskResult(ix, label, "timeout", detail), fanout_all=True
                        )
                queue.clear()
                del delayed[:]
                # Workers may have streamed verdicts the parent has not
                # received yet.  Those are real -- drain every pipe (as
                # the dead-worker path does) before terminating, so they
                # are reported and cached instead of misreported as
                # timeouts.
                for run in running:
                    if run.active:
                        yield from drain(run)
                # Draining may have orphaned dedup waiters (their owner
                # streamed a non-definitive verdict); there is no budget
                # left to re-run them, so they time out here.
                for t in retry_tasks:
                    yield from settle(
                        TaskResult(t.index, t.label, "timeout", detail),
                        fanout_all=True,
                    )
                del retry_tasks[:]
                now = time.perf_counter()
                for group in dict.fromkeys(run.group for run in running):
                    yield from fail_remaining(
                        group, "timeout", detail, now, fanout_all=True
                    )
                for run in running:
                    retire(run)
                running = []
                break
            while queue and len(running) < max(1, jobs):
                launch(queue.pop(0))
            ready = conn_wait(
                [r.conn for r in running if r.active], timeout=_POLL_S
            )
            now = time.perf_counter()
            for run in running:
                if not run.active:
                    continue  # retired mid-pass (e.g. a race sibling won)
                finished = died = False
                if run.conn in ready:
                    try:
                        while True:
                            msg = run.conn.recv()
                            if msg is None:
                                finished = True
                                break
                            yield from deliver(run, msg)
                            if not run.active or not run.conn.poll():
                                break
                    except (EOFError, OSError):
                        died = True
                if not run.active:
                    continue
                group = run.group
                if died or finished:
                    yield from ended(run, now, crashed=died)
                elif group.deadline is not None and now > group.deadline:
                    yield from expire(group, now)
                elif not run.proc.is_alive():
                    # The worker exited but conn_wait did not surface the
                    # pipe (or it held nothing): drain any results that
                    # made it out, then report the death for the rest.
                    # (An exited worker's pipe polls ready on EOF too, so
                    # ``poll()`` alone cannot prove results are pending.)
                    yield from drain(run)
                    if run.active:
                        yield from ended(run, now, crashed=True)
            running = [r for r in running if r.active]
    finally:
        for run in running:
            retire(run)
