"""The session-oriented verification API: requests in, event streams out.

This is the stable front door of the engine.  A
:class:`VerificationSession` is long-lived: it owns the backend spec
(validated once), the persistent verdict and plan caches, the run
journal, and -- because terms are hash-consed process-globally -- the
interned-term state every plan in the session shares.  Each
:meth:`~VerificationSession.submit` takes a :class:`VerificationRequest`
(program + intrinsic definition + method selection + budgets) and
returns a :class:`VerificationRun`: an iterator of typed
:class:`~repro.engine.events.VcEvent`s pushed out *as verdicts land*
(the scheduler's streaming worker protocol surfaced to the API), plus
the per-method :class:`~repro.engine.events.VerificationResult`s once
the stream is drained.

    with VerificationSession(jobs=4, cache_dir=".vc-cache") as session:
        run = session.submit(VerificationRequest(program, ids, ["bst_insert"]))
        for event in run:                  # planned / cache_hit / dedup /
            print(event.kind, event.label) # solved / timeout / error
        result = run.result()              # verdicts, timing, diagnostics

Event-stream contract (validated in ``tests/test_session.py`` and by
``benchmarks/check_schema.py``):

- every VC slot emits exactly one ``planned`` event, then exactly one
  terminal event (``cache_hit`` | ``dedup`` | ``solved`` | ``timeout`` |
  ``error``) -- a static plan-phase failure terminates immediately with
  an ``error`` event carrying ``stage="plan"``;
- a VC's ``planned`` event always precedes its terminal event; under
  ``jobs=1`` the whole stream is deterministic, under parallelism only
  this per-VC partial order (and per-method grouping) is guaranteed;
- ``seq`` is allocated from one *session-scoped* counter, so it is
  strictly increasing within every request's stream and totally ordered
  across every stream the session ever produced (a single-request
  session sees 0, 1, 2, ...; concurrent requests see gaps where the
  other streams' events interleaved).

Thread-safety contract (the ``repro serve`` daemon relies on this, and
``tests/test_session.py`` pins it): :meth:`~VerificationSession.submit`
may be called from any number of threads against one shared session.
Method verification serializes on an internal submission lock -- the
lock guards the process-global interned-term state and the
plan/verdict caches -- and is held while a method's
events are being produced, so each *run's* event stream must be
consumed from a single thread (draining it releases the lock for the
next tenant between methods).

Verdicts are identical to the sequential ``Verifier.verify`` reference
at any ``jobs``, with and without batching, warm or cold cache
(parity-tested).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from typing import Iterator, List, Optional, Sequence, Union

from ..core.ids import IntrinsicDefinition
from ..core.verifier import MethodPlan, Verifier
from ..lang.ast import Program
from .backends import make_backend
from .cache import VcCache
from .journal import JournalReplay, RunJournal
from .plancache import PlanCache, plan_key
from .diagnostics import diagnose
from .events import Diagnostic, VcEvent, VerificationResult, build_result, event_for_result
from .scheduler import stream_tasks
from .tasks import TaskResult, TaskUnit, batches_from_plan, tasks_from_plan

__all__ = ["VerificationRequest", "VerificationRun", "VerificationSession"]


@dataclass(frozen=True)
class VerificationRequest:
    """One unit of work for a session: what to verify, under what budgets.

    ``methods`` may be a single method name or a sequence; budgets are
    per-request overrides of the session defaults (``timeout_s`` bounds
    each VC's wall clock, ``method_budget_s`` each method's total).
    """

    program: Program
    ids: IntrinsicDefinition
    methods: Union[str, Sequence[str]]
    timeout_s: Optional[float] = None
    method_budget_s: Optional[float] = None

    @property
    def method_list(self) -> List[str]:
        if isinstance(self.methods, str):
            return [self.methods]
        return list(self.methods)


@dataclass
class _MethodState:
    plan: MethodPlan
    started: float
    task_results: List[TaskResult] = dc_field(default_factory=list)
    event_counts: dict = dc_field(default_factory=dict)
    solve_s: float = 0.0


class VerificationRun:
    """A submitted request: iterate the events, then read the results."""

    def __init__(self, events: Iterator[VcEvent], results: List[VerificationResult]):
        self._events = events
        self._results = results  # filled by the generator as methods finish

    def __iter__(self) -> Iterator[VcEvent]:
        return self._events

    def drain(self) -> "VerificationRun":
        """Consume any remaining events (discarding them)."""
        for _ in self._events:
            pass
        return self

    def results(self) -> List[VerificationResult]:
        """Per-method results, draining the stream first if needed."""
        self.drain()
        return list(self._results)

    def result(self) -> VerificationResult:
        """The single result of a one-method request."""
        results = self.results()
        if len(results) != 1:
            raise ValueError(
                f"request produced {len(results)} results; use .results()"
            )
        return results[0]

    def close(self) -> None:
        """Abandon the run without draining it.

        Closing the event generator unwinds the scheduler mid-stream --
        its ``finally`` retires every live worker -- and releases the
        session's submission lock.  The clean-interrupt path: a SIGINT
        handler (or a ``KeyboardInterrupt`` catcher) calls this so no
        worker processes outlive the run.
        """
        self._events.close()


class VerificationSession:
    """Long-lived verification service: backend + caches + journal.

    Construction fails fast on an unknown/unavailable backend.  The
    session is reusable across many :meth:`submit`/:meth:`run` calls --
    the verdict cache accumulates, in-flight dedup state is per-request.
    ``jobs=1`` with no budget and no race solves in this process;
    anything else runs each work unit in a fresh supervised worker
    process (at most ``jobs`` at a time), which holds no state between
    units.  Use as a
    context manager (or call :meth:`close`) to flush the journal and
    run the cache sweep.

    ``backend="portfolio:A,B[,...]"`` races the member backends per VC
    at the scheduler layer (first definitive verdict wins, losers are
    cancelled), always in worker processes.  Construction validates the
    member specs and degrades to the available subset.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "intree",
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        method_budget_s: Optional[float] = None,
        encoding: str = "decidable",
        memory_safety: bool = True,
        conflict_budget: Optional[int] = 200000,
        simplify: bool = True,
        batch: bool = True,
        batch_size: int = 16,
        batch_node_limit: int = 2400,
        diagnostics: bool = True,
        plan_cache: bool = True,
        cache_max_mb: Optional[float] = None,
        cache_max_age_days: Optional[float] = None,
        max_retries: int = 2,
        journal: bool = True,
        resume: Optional[JournalReplay] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.backend_spec = backend
        make_backend(backend)  # fail fast on unknown/unavailable backends
        self.cache_dir = cache_dir
        self.cache = VcCache(cache_dir) if cache_dir else None
        # The plan cache shares the verdict cache's root (its entries
        # live under ``<cache_dir>/plan``); ``plan_cache=False`` opts a
        # session out while keeping verdict caching.
        self.plan_cache = (
            PlanCache(Path(cache_dir) / "plan")
            if cache_dir and plan_cache
            else None
        )
        self.timeout_s = timeout_s
        self.method_budget_s = method_budget_s
        self.encoding = encoding
        self.memory_safety = memory_safety
        self.conflict_budget = conflict_budget
        self.simplify = simplify
        self.batch = batch
        self.batch_size = max(1, int(batch_size))
        self.batch_node_limit = batch_node_limit
        self.diagnostics = diagnostics
        # Cache lifecycle budgets: when either is set, closing the
        # session runs an age/LRU sweep over the cache dir, protecting
        # every key this session wrote.
        self.cache_max_mb = cache_max_mb
        self.cache_max_age_days = cache_max_age_days
        self._swept = False
        # Concurrent submit() support: the submission lock serializes
        # per-method plan+solve work across threads (interned terms and
        # caches are not otherwise thread-safe); reentrant
        # so a single thread may still interleave two of its own runs,
        # as the pre-daemon API allowed.  The seq counter is
        # session-scoped: every event the session ever emits gets a
        # globally unique, strictly increasing sequence number.
        self._lock = threading.RLock()
        self._seq_lock = threading.Lock()
        self._seq = 0
        # Supervised-retry budget for worker deaths.
        self.max_retries = max(0, int(max_retries))
        # Crash-safe run journal: every settled slot (timeouts, errors
        # and attribution included -- outcomes the VC cache deliberately
        # never stores) is appended under <cache_dir>/journal/ so a
        # killed run can be resumed.  A resumed session replays the
        # loaded journal's settled slots and solves only the remainder;
        # it writes a *new* journal of its own, so resumes chain.
        self.resume = resume
        self.run_journal = (
            RunJournal.create(cache_dir, self._journal_config())
            if cache_dir and journal
            else None
        )
        if resume is not None and resume.config != self._journal_config():
            raise ValueError(
                f"cannot resume run {resume.run_id}: its journal was written "
                f"under config {resume.config!r}, this session is "
                f"{self._journal_config()!r}"
            )

    def _journal_config(self) -> dict:
        """The configuration a journal's slots are only valid under."""
        return {
            "backend": self.backend_spec,
            "encoding": self.encoding,
            "memory_safety": self.memory_safety,
            "conflict_budget": self.conflict_budget,
            "simplify": self.simplify,
        }

    def _next_seq(self) -> int:
        with self._seq_lock:
            seq = self._seq
            self._seq += 1
            return seq

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the run journal and, when lifecycle budgets are
        configured, sweep the cache dir (idempotent).  Takes the
        submission lock, so an in-flight submit finishes its current
        method first.  No worker outlives a method's stream, so there
        are no processes to reclaim here."""
        with self._lock:
            if self.run_journal is not None:
                self.run_journal.close()
            self._sweep_caches()

    def _sweep_caches(self) -> None:
        if (
            self._swept
            or self.cache_dir is None
            or (self.cache_max_mb is None and self.cache_max_age_days is None)
        ):
            return
        self._swept = True
        from .cachectl import sweep

        protect = set()
        if self.cache is not None:
            protect |= self.cache.session_keys
        if self.plan_cache is not None:
            protect |= self.plan_cache.session_keys
        sweep(
            self.cache_dir,
            max_mb=self.cache_max_mb,
            max_age_days=self.cache_max_age_days,
            protect=protect,
        )

    def __enter__(self) -> "VerificationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------

    def _plan(
        self, program: Program, ids: IntrinsicDefinition, method: str
    ) -> MethodPlan:
        """Generate (or replay) one method's plan.

        With a plan cache, the finished plan -- simplified formulas,
        substitution logs, static failures -- is keyed on the program
        text, the intrinsic definition, the planning configuration and
        the planner's code fingerprint, so a warm run skips VC
        generation and simplification entirely.
        """
        verifier = self._verifier(program, ids)
        if self.plan_cache is None:
            return verifier.plan(method)
        key = plan_key(
            program,
            ids,
            method,
            encoding=self.encoding,
            memory_safety=self.memory_safety,
            simplify=self.simplify,
            instantiation_rounds=verifier.instantiation_rounds,
        )
        plan = self.plan_cache.get(key, conflict_budget=self.conflict_budget)
        if plan is not None:
            return plan
        plan = verifier.plan(method)
        self.plan_cache.put(key, plan)
        return plan

    def _verifier(self, program: Program, ids: IntrinsicDefinition) -> Verifier:
        return Verifier(
            program,
            ids,
            encoding=self.encoding,
            memory_safety=self.memory_safety,
            conflict_budget=self.conflict_budget,
            simplify=self.simplify,
        )

    def _units(
        self,
        plan: MethodPlan,
        timeout_s: Optional[float],
        skip: Optional[set] = None,
    ) -> List[TaskUnit]:
        if self.batch:
            return batches_from_plan(
                plan,
                backend_spec=self.backend_spec,
                timeout_s=timeout_s,
                batch_size=self.batch_size,
                batch_node_limit=self.batch_node_limit,
                skip=skip,
            )
        return list(
            tasks_from_plan(
                plan, backend_spec=self.backend_spec, timeout_s=timeout_s, skip=skip
            )
        )

    # -- the API ------------------------------------------------------------

    def submit(self, request: VerificationRequest) -> VerificationRun:
        """Start a request; returns its event stream + eventual results."""
        results: List[VerificationResult] = []
        return VerificationRun(self._event_stream(request, results), results)

    def run(self, request: VerificationRequest) -> List[VerificationResult]:
        """Blocking convenience: drain the stream, return the results."""
        return self.submit(request).results()

    def verify(
        self, program: Program, ids: IntrinsicDefinition, method: str
    ) -> VerificationResult:
        """Blocking convenience for one method."""
        return self.submit(
            VerificationRequest(program, ids, method)
        ).result()

    # -- event generation ---------------------------------------------------

    def _event_stream(
        self, request: VerificationRequest, results: List[VerificationResult]
    ) -> Iterator[VcEvent]:
        timeout_s = (
            request.timeout_s if request.timeout_s is not None else self.timeout_s
        )
        budget_s = (
            request.method_budget_s
            if request.method_budget_s is not None
            else self.method_budget_s
        )
        for method in request.method_list:
            # One method = one critical section: concurrent submits
            # interleave *between* methods, never inside one (the
            # interned-term state, plan cache and verdict cache are all
            # touched below).  The lock is deliberately held
            # across the yields -- the consumer drives the solve, so
            # releasing mid-method would let a second tenant corrupt
            # the shared state the first is still reading.
            with self._lock:
                yield from self._method_events(
                    request, method, timeout_s, budget_s, results
                )

    def _method_events(
        self,
        request: VerificationRequest,
        method: str,
        timeout_s: Optional[float],
        budget_s: Optional[float],
        results: List[VerificationResult],
    ) -> Iterator[VcEvent]:
        """One method's event stream; caller holds the submission lock."""

        def stamped(event: VcEvent, state: _MethodState) -> VcEvent:
            event = dc_replace(event, seq=self._next_seq())
            state.event_counts[event.kind] = state.event_counts.get(event.kind, 0) + 1
            return event

        started = time.perf_counter()
        plan = self._plan(request.program, request.ids, method)
        state = _MethodState(plan=plan, started=started)

        # Advisory lint events first: error-severity findings of the
        # pre-plan static analyzer, outside the per-VC slot contract
        # (index -1, no terminal event, never affect verdicts).
        for diag in plan.lint:
            if diag.severity != "error":
                continue
            yield stamped(
                VcEvent(
                    kind="lint",
                    structure=plan.structure,
                    method=plan.method,
                    index=-1,
                    label=diag.code,
                    detail=diag.render(),
                    stage="plan",
                ),
                state,
            )

        # Phase 1 events: every slot is announced, static failures
        # terminate immediately (stage="plan").
        for pvc in plan.vcs:
            yield stamped(
                VcEvent(
                    kind="planned",
                    structure=plan.structure,
                    method=plan.method,
                    index=pvc.index,
                    label=pvc.label,
                    detail=pvc.failure or "",
                    stage="plan",
                    nodes_before=pvc.nodes_before,
                    nodes_after=pvc.nodes_after,
                ),
                state,
            )
        for pvc in plan.vcs:
            if pvc.failure is not None:
                yield stamped(
                    VcEvent(
                        kind="error",
                        structure=plan.structure,
                        method=plan.method,
                        index=pvc.index,
                        label=pvc.label,
                        verdict="error",
                        detail=pvc.failure,
                        stage="plan",
                    ),
                    state,
                )

        # Resumed run: replay the loaded journal's settled slots for
        # this method (stored verdicts, timings and attribution, with
        # fresh seq numbers), then solve only the remainder.  A slot
        # whose label no longer matches the plan is not replayed -- the
        # program changed under the journal, so it re-solves.
        replayed: dict = {}
        if self.resume is not None:
            labels = {pvc.index: pvc.label for pvc in plan.solvable()}
            replayed = {
                ix: res
                for ix, res in self.resume.results_for(
                    plan.structure, plan.method
                ).items()
                if labels.get(ix) == res.label
            }
        for ix in sorted(replayed):
            res = replayed[ix]
            state.task_results.append(res)
            self._journal_slot(plan, res)
            yield stamped(event_for_result(plan.structure, plan.method, res), state)

        # Phase 2 events: one terminal event per solvable slot, pushed
        # as the scheduler's streaming protocol delivers verdicts.
        units = self._units(plan, timeout_s, skip=set(replayed) or None)
        solve_started = time.perf_counter()
        for res in stream_tasks(
            units,
            jobs=self.jobs,
            cache=self.cache,
            deadline_s=budget_s,
            max_retries=self.max_retries,
        ):
            state.task_results.append(res)
            self._journal_slot(plan, res)
            yield stamped(
                event_for_result(plan.structure, plan.method, res), state
            )
        state.solve_s = time.perf_counter() - solve_started

        result = self._finish(state)
        if self.run_journal is not None:
            self.run_journal.record_method_end(
                plan.structure, plan.method, result.ok
            )
        results.append(result)

    def _journal_slot(self, plan: MethodPlan, res: TaskResult) -> None:
        if self.run_journal is not None:
            self.run_journal.record_slot(plan.structure, plan.method, res)

    def _finish(self, state: _MethodState) -> VerificationResult:
        diagnostics: List[Diagnostic] = []
        if self.diagnostics:
            by_index = {res.index: res for res in state.task_results}
            for pvc in state.plan.vcs:
                diag = diagnose(
                    pvc,
                    by_index.get(pvc.index),
                    conflict_budget=self.conflict_budget,
                    pre_simplified=state.plan.simplify,
                )
                if diag is not None:
                    diagnostics.append(diag)
        return build_result(
            state.plan,
            state.task_results,
            state.started,
            jobs=self.jobs,
            event_counts=state.event_counts,
            diagnostics=diagnostics,
            solve_s=state.solve_s,
        )
