"""Shared-prefix incremental solving + VC batching, and the satellite
bugfixes that landed with it: in-flight dedup, CLI selection errors,
cache temp-file cleanup, and the scheduler's worker-death paths.

The headline property is *verdict parity*: batched+incremental mode must
produce verdicts identical to the non-batched engine across jobs=1/jobs=4,
including on a method that genuinely fails verification.
"""

import os
import stat
import time

import pytest

from repro.cli import SelectionError, _select, main as cli_main
from repro.core.verifier import Verifier
from repro.engine import (
    BatchTask,
    VcCache,
    VerificationEngine,
    batches_from_plan,
    formula_key,
    solve_tasks,
)
from repro.engine.backends import (
    BackendVerdict,
    CrossCheckBackend,
    CrossCheckMismatch,
    Smtlib2Backend,
    SolverBackend,
    register_backend,
    _REGISTRY,
)
from repro.engine.codec import decode_nodes, encode_term, encode_terms
from repro.engine.tasks import BatchEntry, SolveTask, split_vc_formula
from repro.smt import terms as T
from repro.smt.printer import incremental_script
from repro.smt.solver import IncrementalSolver, Solver
from repro.smt.sorts import INT, LOC, SET_LOC
from repro.structures.registry import EXPERIMENTS

PARITY_METHODS = [
    ("Singly-Linked List", "sll_find"),
    ("Sorted List", "sorted_find"),
    ("Binary Search Tree", "bst_find"),
    # Fails verification: the countermodel path must batch identically.
    ("Scheduler Queue (overlaid SLL+BST)", "sched_list_remove_first"),
]


def _experiment(structure):
    return next(e for e in EXPERIMENTS if e.structure == structure)


@pytest.fixture(scope="module")
def loaded():
    out = {}
    for structure, _m in PARITY_METHODS:
        if structure not in out:
            exp = _experiment(structure)
            out[structure] = (exp.program_factory(), exp.ids_factory())
    return out


# -- verdict parity ----------------------------------------------------------


@pytest.mark.parametrize("structure,method", PARITY_METHODS)
@pytest.mark.parametrize("jobs", [1, 4])
def test_batch_verdicts_match_unbatched(loaded, structure, method, jobs):
    program, ids = loaded[structure]
    ref = VerificationEngine(jobs=1, batch=False).verify(program, ids, method)
    bat = VerificationEngine(jobs=jobs, batch=True).verify(program, ids, method)
    assert (bat.ok, bat.n_vcs, bat.failed, bat.notes) == (
        ref.ok, ref.n_vcs, ref.failed, ref.notes
    )


def test_batch_parity_without_simplify(loaded):
    """No-simplify VCs keep their raw hypothesis towers; the incremental
    context rewrites each piece itself and must agree with Verifier."""
    program, ids = loaded["Singly-Linked List"]
    ref = Verifier(program, ids, simplify=False).verify("sll_find")
    bat = VerificationEngine(jobs=1, batch=True, simplify=False).verify(
        program, ids, "sll_find"
    )
    assert (bat.ok, bat.n_vcs, bat.failed) == (ref.ok, ref.n_vcs, ref.failed)


def test_batch_and_unbatched_share_the_cache(loaded, tmp_path):
    program, ids = loaded["Sorted List"]
    cold = VerificationEngine(jobs=1, batch=True, cache_dir=str(tmp_path)).verify(
        program, ids, "sorted_find"
    )
    assert cold.cache_hits == 0
    warm = VerificationEngine(jobs=1, batch=False, cache_dir=str(tmp_path)).verify(
        program, ids, "sorted_find"
    )
    # Every solved VC replays from the batched run's entries: per-VC cache
    # keys are identical whether or not the VC was solved in a batch.
    assert warm.cache_hits == warm.n_vcs


# -- plan factoring ----------------------------------------------------------


def test_batches_factor_and_reconstruct_exactly(loaded):
    """decode() must re-intern the full formula, and prefix+remainder must
    recompose to it (the shared prefix is a factoring, not a rewrite)."""
    program, ids = loaded["Singly-Linked List"]
    # simplify=False keeps the hypothesis towers, so prefixes are shared.
    plan = Verifier(program, ids, simplify=False).plan("sll_find")
    by_formula = {pvc.index: pvc.formula for pvc in plan.solvable()}
    units = batches_from_plan(plan)
    saw_batch = saw_shared_prefix = False
    for unit in units:
        if not isinstance(unit, BatchTask):
            continue
        saw_batch = True
        prefix, remainders, formulas = unit.decode()
        saw_shared_prefix = saw_shared_prefix or bool(prefix)
        for entry, rem, formula in zip(unit.entries, remainders, formulas):
            assert formula is by_formula[entry.index]  # re-interned exactly
            hyps, goal = split_vc_formula(formula)
            k = len(prefix)
            assert list(hyps[:k]) == prefix
            if k == 0:
                assert rem is formula
            elif k == len(hyps):
                assert rem is goal
            else:
                assert rem is T.mk_implies(T.mk_and(*hyps[k:]), goal)
    assert saw_batch
    assert saw_shared_prefix  # raw sll VCs share their leading hypotheses


def test_oversize_vcs_stay_standalone(loaded):
    program, ids = loaded["Binary Search Tree"]
    plan = Verifier(program, ids).plan("bst_find")
    units = batches_from_plan(plan, batch_node_limit=1)
    # Every multi-node VC exceeds a 1-node budget: no batch may form.
    assert all(not isinstance(u, BatchTask) for u in units)
    assert len(units) == len(plan.solvable())


# -- incremental solver ------------------------------------------------------


def test_incremental_matches_oneshot_on_shared_prefix():
    a = T.mk_const("inc_a", INT)
    b = T.mk_const("inc_b", INT)
    prefix = [T.mk_le(a, b), T.mk_le(b, T.mk_int(10))]
    goals = [
        T.mk_lt(T.mk_int(11), a),   # unsat given prefix
        T.mk_le(a, T.mk_int(10)),   # sat (implied, so satisfiable)
        T.mk_lt(b, a),              # unsat (contradicts a <= b? no: a<=b & b<a unsat)
    ]
    inc = IncrementalSolver()
    for h in prefix:
        inc.add_shared(h)
    for goal in goals:
        ref = Solver()
        for h in prefix:
            ref.add(h)
        ref.add(goal)
        assert inc.check_goal(goal) == ref.check()


def test_incremental_set_reduction_covers_cross_goal_elements():
    """The adversarial case for incremental set reduction: goal 2 reuses
    an element term that only goal 1 introduced.  The pointwise instance
    linking the *prefix's* set atom to that element must still be in
    force (deltas are permanent, not goal-scoped)."""
    s1 = T.mk_const("inc_S1", SET_LOC)
    s2 = T.mk_const("inc_S2", SET_LOC)
    x = T.mk_const("inc_x", LOC)
    inc = IncrementalSolver()
    inc.add_shared(T.mk_eq(s1, s2))
    # Goal 1 brings x into the element universe; satisfiable.
    assert inc.check_goal(T.mk_member(x, s1)) == "sat"
    # Goal 2: x in S1 but not in S2 contradicts S1 == S2.
    contradiction = T.mk_and(T.mk_member(x, s1), T.mk_not(T.mk_member(x, s2)))
    assert inc.check_goal(contradiction) == "unsat"
    # One-shot reference agrees.
    ref = Solver()
    ref.add(T.mk_eq(s1, s2))
    ref.add(contradiction)
    assert ref.check() == "unsat"


def test_incremental_goals_do_not_leak_into_each_other():
    c = T.mk_const("inc_c", INT)
    inc = IncrementalSolver()
    assert inc.check_goal(T.mk_le(c, T.mk_int(0))) == "sat"
    # If goal 1 leaked, c <= 0 would make this unsat.
    assert inc.check_goal(T.mk_le(T.mk_int(1), c)) == "sat"


def test_incremental_unsat_prefix_makes_every_goal_unsat():
    d = T.mk_const("inc_d", INT)
    inc = IncrementalSolver()
    inc.add_shared(T.mk_lt(d, d))
    assert inc.check_goal(T.mk_le(d, T.mk_int(5))) == "unsat"
    assert inc.check_goal(T.mk_le(T.mk_int(99), d)) == "unsat"


def test_retired_goal_gc_preserves_verdicts(monkeypatch):
    """Retired-goal garbage collection rebuilds the context mid-batch
    without changing any verdict, and actually sheds the retired goals'
    variables (what lets ``batch_node_limit`` default far above 200)."""
    monkeypatch.setattr(IncrementalSolver, "GC_MIN_VARS", 1)
    a = T.mk_const("gc_a", INT)
    b = T.mk_const("gc_b", INT)
    prefix = [T.mk_le(a, b), T.mk_le(b, T.mk_int(10))]
    # Distinct-constant goals so every goal retires fresh variables.
    goals = []
    for i in range(12):
        g = T.mk_const(f"gc_g{i}", INT)
        goals.append(T.mk_and(T.mk_le(a, g), T.mk_lt(g, T.mk_int(i))))
    goals.append(T.mk_lt(b, a))  # unsat under the prefix
    inc = IncrementalSolver(gc_ratio=0.5)
    for h in prefix:
        inc.add_shared(h)
    for goal in goals:
        ref = Solver()
        for h in prefix:
            ref.add(h)
        ref.add(goal)
        assert inc.check_goal(goal) == ref.check()
    assert inc.n_gc >= 1  # the threshold really fired mid-run
    # The rebuilt context is prefix-sized again, not a graveyard: after a
    # fresh collection it holds no more vars than a fresh prefix context.
    inc._collect_retired()
    fresh = IncrementalSolver()
    for h in prefix:
        fresh.add_shared(h)
    assert len(inc.sat.assigns) == len(fresh.sat.assigns)


def test_gc_then_cross_goal_set_elements_still_covered(monkeypatch):
    """A context rebuild must re-seed the set-reduction universe from the
    prefix: elements introduced by *retired* goals are forgotten, but a
    later goal re-mentioning them gets fresh pointwise instances."""
    monkeypatch.setattr(IncrementalSolver, "GC_MIN_VARS", 1)
    s1 = T.mk_const("gcs_S1", SET_LOC)
    s2 = T.mk_const("gcs_S2", SET_LOC)
    x = T.mk_const("gcs_x", LOC)
    inc = IncrementalSolver(gc_ratio=0.01)
    inc.add_shared(T.mk_eq(s1, s2))
    assert inc.check_goal(T.mk_member(x, s1)) == "sat"
    for i in range(6):  # churn enough retired vars to force a collection
        g = T.mk_const(f"gcs_g{i}", INT)
        assert inc.check_goal(T.mk_le(g, T.mk_int(i))) == "sat"
    assert inc.n_gc >= 1
    contradiction = T.mk_and(T.mk_member(x, s1), T.mk_not(T.mk_member(x, s2)))
    assert inc.check_goal(contradiction) == "unsat"


def _vars_added_by_set_equality_goal(n_elems):
    """Vars one goal ``S1 = S2`` adds to a context whose prefix already
    encodes the memberships of ``n_elems`` elements in both sets."""
    s1 = T.mk_const("cl_S1", SET_LOC)
    s2 = T.mk_const("cl_S2", SET_LOC)
    inc = IncrementalSolver()
    for i in range(n_elems):
        x = T.mk_const(f"cl_x{i}", LOC)
        inc.add_shared(T.mk_or(T.mk_member(x, s1), T.mk_member(x, s2)))
    before = len(inc.sat.assigns)
    assert inc.check_goal(T.mk_eq(s1, s2)) == "sat"
    return len(inc.sat.assigns) - before


def test_set_reduction_instances_add_no_tseitin_vars():
    """A new set-equality atom gets one pointwise instance per known
    element.  The instances are asserted as clauses over already-encoded
    atoms, so the goal's variable count does not grow with the number of
    instances: it is the atom, the witness's two memberships and the
    activation literal."""
    assert _vars_added_by_set_equality_goal(3) == 4
    assert _vars_added_by_set_equality_goal(12) == 4


# -- smtlib2 push/pop --------------------------------------------------------


def test_incremental_script_shape():
    a = T.mk_const("scr_a", INT)
    prefix = [T.mk_le(a, T.mk_int(7))]
    payloads = [T.mk_lt(T.mk_int(7), a), T.mk_le(a, T.mk_int(9))]
    text = incremental_script(prefix, payloads)
    lines = text.splitlines()
    assert lines[0] == "(set-logic ALL)"
    assert text.count("(push 1)") == 2
    assert text.count("(pop 1)") == 2
    assert text.count("(check-sat)") == 2
    # Declarations precede every assert; the prefix assert precedes push.
    assert lines.index("(declare-const scr_a Int)") < lines.index(
        "(assert (<= scr_a 7))"
    )
    assert lines.index("(assert (<= scr_a 7))") < lines.index("(push 1)")
    # Each payload sits inside its own scope.
    first_push = lines.index("(push 1)")
    first_pop = lines.index("(pop 1)")
    assert first_push < lines.index("(check-sat)") < first_pop


def test_smtlib2_batch_parses_one_answer_per_goal(tmp_path):
    fake = tmp_path / "fake-solver"
    fake.write_text("#!/bin/sh\necho unsat\necho sat\n")
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    backend = Smtlib2Backend(command=str(fake))
    a = T.mk_const("ext_a", INT)
    verdicts = list(
        backend.batch_check_validity(
            [T.mk_le(a, T.mk_int(3))],
            [T.mk_le(a, T.mk_int(4)), T.mk_le(T.mk_int(9), a)],
        )
    )
    assert [v.status for v in verdicts] == ["valid", "invalid"]


def test_crosscheck_batch_flags_disagreement():
    class Always(SolverBackend):
        name = "always"

        def __init__(self, status):
            self.status = status

        def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
            return BackendVerdict(self.status)

    f = T.mk_le(T.mk_const("cc_a", INT), T.mk_int(3))
    agree = CrossCheckBackend(Always("valid"), Always("valid"))
    assert [v.status for v in agree.batch_check_validity([], [f])] == ["valid"]
    disagree = CrossCheckBackend(Always("valid"), Always("invalid"))
    with pytest.raises(CrossCheckMismatch):
        list(disagree.batch_check_validity([], [f]))


# -- in-flight dedup (satellite bugfix) --------------------------------------


class _CountingBackend(SolverBackend):
    name = "counting"
    calls = []

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        _CountingBackend.calls.append(formula)
        return BackendVerdict("valid", "counted")


def _canonical_task(formula, index, label, **kw):
    from repro.smt.rewriter import rewrite
    from repro.smt.simplify import simplify

    canonical = simplify(rewrite(formula))
    return SolveTask(
        structure="S",
        method="m",
        index=index,
        label=label,
        nodes=encode_term(canonical),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="counting",
        pre_simplified=True,
        **kw,
    )


@pytest.fixture
def counting_backend():
    _CountingBackend.calls = []
    register_backend("counting", lambda arg=None: _CountingBackend())
    yield _CountingBackend
    _REGISTRY.pop("counting", None)


def test_in_flight_duplicates_solved_once(counting_backend, tmp_path):
    """Two pending tasks with identical formula_key used to both solve;
    now the canonical duplicate is solved once and fanned out."""
    a = T.mk_const("dup_a", INT)
    f = T.mk_le(a, T.mk_int(3))
    cache = VcCache(tmp_path)
    tasks = [
        _canonical_task(f, 0, "vc-0"),
        _canonical_task(f, 1, "vc-1"),  # same canonical formula
        _canonical_task(T.mk_le(a, T.mk_int(4)), 2, "vc-2"),
    ]
    results = solve_tasks(tasks, jobs=1, cache=cache)
    assert len(counting_backend.calls) == 2  # not 3
    assert [r.verdict for r in results] == ["valid", "valid", "valid"]
    assert [r.index for r in results] == [0, 1, 2]
    assert results[1].deduped and not results[1].cached
    assert not results[0].deduped
    assert len(cache) == 2  # one entry per canonical key, written once


def test_in_flight_dedup_without_cache(counting_backend):
    a = T.mk_const("dup_b", INT)
    f = T.mk_le(a, T.mk_int(5))
    tasks = [_canonical_task(f, 0, "vc-0"), _canonical_task(f, 1, "vc-1")]
    results = solve_tasks(tasks, jobs=1, cache=None)
    assert len(counting_backend.calls) == 1
    assert [r.verdict for r in results] == ["valid", "valid"]


def test_same_run_cache_hits_count_as_dedup(loaded, tmp_path):
    """A verdict written earlier in the same run and replayed by a later
    method is the cross-method dedup rate bench_results.json surfaces."""
    program, ids = loaded["Sorted List"]
    engine = VerificationEngine(jobs=1, cache_dir=str(tmp_path))
    first = engine.verify(program, ids, "sorted_find")
    again = engine.verify(program, ids, "sorted_find")
    assert first.cache_hits == 0
    assert again.cache_hits == again.n_vcs
    assert again.dedup_hits == again.n_vcs  # all hits came from this run
    fresh = VerificationEngine(jobs=1, cache_dir=str(tmp_path)).verify(
        program, ids, "sorted_find"
    )
    assert fresh.cache_hits == fresh.n_vcs
    assert fresh.dedup_hits == 0  # pre-existing cache, not this run's work


# -- VcCache.put cleanup (satellite bugfix) ----------------------------------


def test_cache_put_reclaims_tempfile_on_unserializable_meta(tmp_path):
    cache = VcCache(tmp_path)
    a = T.mk_const("leak_a", INT)
    key = formula_key(T.mk_le(a, T.mk_int(3)), "decidable", 1)
    with pytest.raises(TypeError):
        cache.put(key, "valid", "ok", meta=object())  # json.dump raises
    assert list(tmp_path.rglob("*.tmp")) == []  # no leaked mkstemp file
    assert cache.get(key) is None  # and no half-written entry
    cache.put(key, "valid", "ok")  # the slot still works afterwards
    assert cache.get(key)["verdict"] == "valid"


# -- CLI selection (satellite bugfix) ----------------------------------------


def test_select_raises_on_unmatched_method():
    with pytest.raises(SelectionError, match="tyop"):
        _select(None, ["bst_insert", "tyop"], False)


def test_select_raises_on_unknown_structure():
    with pytest.raises(SelectionError, match="unknown structure"):
        _select("Binary Search Treee", [], False)


def test_cli_verify_rejects_misspelled_method(capsys):
    rc = cli_main(["verify", "--method", "bst_insert", "--method", "tyop"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "tyop" in err and "selection error" in err


# -- scheduler worker-death paths --------------------------------------------


class _ExitBackend(SolverBackend):
    name = "die-exit"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        os._exit(3)


@pytest.fixture
def exit_backend():
    register_backend("die-exit", lambda arg=None: _ExitBackend())
    yield
    _REGISTRY.pop("die-exit", None)


def _exit_task(timeout_s=30.0):
    a = T.mk_const("die_a", INT)
    return SolveTask(
        structure="S",
        method="m",
        index=0,
        label="vc-0",
        nodes=encode_term(T.mk_le(a, T.mk_int(3))),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="die-exit",
        timeout_s=timeout_s,  # forces the process-isolation path
    )


def test_worker_hard_exit_reports_exitcode(exit_backend):
    (res,) = solve_tasks([_exit_task()], jobs=1)
    assert res.verdict == "error"
    assert "worker died (exitcode 3)" in res.detail


def test_worker_death_detected_without_pipe_readiness(exit_backend, monkeypatch):
    """The poll-path branch: the connection never reports ready (patched
    conn_wait), so the death is caught by the liveness check instead."""
    import repro.engine.scheduler as sched

    def no_ready(conns, timeout=None):
        time.sleep(0.02)
        return []

    monkeypatch.setattr(sched, "conn_wait", no_ready)
    (res,) = solve_tasks([_exit_task()], jobs=1)
    assert res.verdict == "error"
    assert "worker died (exitcode 3)" in res.detail


class _YieldThenExitBackend(SolverBackend):
    """Answers the first goal, then kills the worker process cold."""

    name = "yield-then-exit"
    answered = False

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        if _YieldThenExitBackend.answered:
            os._exit(3)
        _YieldThenExitBackend.answered = True
        return BackendVerdict("valid")


@pytest.fixture
def yield_then_exit_backend():
    register_backend("yield-then-exit", lambda arg=None: _YieldThenExitBackend())
    yield
    _REGISTRY.pop("yield-then-exit", None)


def test_batch_worker_death_after_partial_stream(yield_then_exit_backend, monkeypatch):
    """A batch worker that dies mid-stream, noticed via the liveness
    branch: the already-streamed result must be drained and kept, and
    the rest retried standalone by the supervisor -- the crash was
    transient (the fresh worker's backend answers), so the remainder
    settles with a real verdict carrying retry attribution."""
    import repro.engine.scheduler as sched

    def no_ready(conns, timeout=None):
        time.sleep(0.02)
        return []

    monkeypatch.setattr(sched, "conn_wait", no_ready)
    f1 = T.mk_le(T.mk_const("pd_a", INT), T.mk_int(3))
    f2 = T.mk_le(T.mk_const("pd_b", INT), T.mk_int(3))
    nodes, (i1, i2) = encode_terms([f1, f2])
    batch = BatchTask(
        structure="S",
        method="m",
        nodes=nodes,
        prefix=(),
        entries=(
            BatchEntry(index=0, label="vc-0", formula_ix=i1, remainder_ix=i1),
            BatchEntry(index=1, label="vc-1", formula_ix=i2, remainder_ix=i2),
        ),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="yield-then-exit",
        timeout_s=30.0,
    )
    results = solve_tasks([batch], jobs=1)
    assert results[0].verdict == "valid"  # drained from the dead worker's pipe
    assert results[0].retries == 0
    assert results[1].verdict == "valid"  # retried in a fresh worker
    assert results[1].retries == 1
    assert not results[1].quarantined


class _SleepyBackend(SolverBackend):
    name = "sleepy"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        for t in _iter_names(formula):
            if t == "slow":
                time.sleep(30)
        return BackendVerdict("valid")


def _iter_names(formula):
    from repro.smt.terms import iter_subterms

    return [t.name for t in iter_subterms(formula) if t.name]


@pytest.fixture
def sleepy_backend():
    register_backend("sleepy", lambda arg=None: _SleepyBackend())
    yield
    _REGISTRY.pop("sleepy", None)


def test_batch_timeout_keeps_completed_and_requeues_rest(sleepy_backend):
    """A batch whose second goal hangs: the first streamed result
    survives, the in-flight goal times out, and the never-attempted
    third entry is re-queued as a standalone task and still verifies."""
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
            BatchEntry(index=2, label="vc-after", formula_ix=f_ix, remainder_ix=f_ix),
        ),
        encoding="decidable",
        conflict_budget=None,
        backend_spec="sleepy",
        timeout_s=0.6,
    )
    results = solve_tasks([batch], jobs=1)
    assert results[0].verdict == "valid"
    assert results[1].verdict == "timeout"
    assert "budget" in results[1].detail
    assert results[2].verdict == "valid"  # requeued, not blamed for the hang


# -- codec shared tables -----------------------------------------------------


def test_encode_terms_shares_common_subterms():
    a = T.mk_const("sh_a", INT)
    big = T.mk_and(
        T.mk_le(a, T.mk_int(3)), T.mk_le(T.mk_int(0), a), T.mk_lt(a, T.mk_int(9))
    )
    f1 = T.mk_implies(big, T.mk_le(a, T.mk_int(100)))
    f2 = T.mk_implies(big, T.mk_le(a, T.mk_int(200)))
    nodes, (i1, i2) = encode_terms([f1, f2])
    solo1 = encode_term(f1)
    solo2 = encode_term(f2)
    assert len(nodes) < len(solo1) + len(solo2)  # shared prefix stored once
    built = decode_nodes(nodes)
    assert built[i1] is f1 and built[i2] is f2
