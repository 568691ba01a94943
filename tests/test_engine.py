"""Engine-layer tests: parallel/sequential verdict equivalence, the wire
codec, the persistent VC cache (including poison recovery), per-task
timeouts, and the backend registry.

Verdict equivalence against the sequential ``Verifier`` runs on a
representative method from every structure family (including a failing
one, so the countermodel path is exercised); full-suite equivalence at
default budgets is a benchmark-scale run (`repro verify --all`), not a
unit test.
"""

import json

import pytest

from repro.core.verifier import Verifier
from repro.engine import (
    BackendUnavailable,
    UnknownBackendError,
    VcCache,
    VerificationSession,
    formula_key,
    make_backend,
    solve_tasks,
    tasks_from_plan,
)
from repro.engine.backends import (
    BackendVerdict,
    CrossCheckBackend,
    CrossCheckMismatch,
    InTreeBackend,
    SolverBackend,
    available_backends,
    register_backend,
)
from repro.engine.codec import decode_term, encode_term
from repro.smt import terms as T
from repro.smt.sorts import INT, LOC, SET_LOC, MapSort
from repro.structures.registry import EXPERIMENTS

# One representative method per structure family: the fast "find"-style
# methods, plus a method that FAILS verification (scheduler queue) so the
# countermodel path is compared too.
REPRESENTATIVES = [
    ("Singly-Linked List", "sll_find"),
    ("Sorted List", "sorted_find"),
    ("Sorted List (w. min, max maps)", "sortedmm_find_last"),
    ("Binary Search Tree", "bst_find"),
    ("AVL Tree", "avl_find_min"),
    ("Scheduler Queue (overlaid SLL+BST)", "sched_find"),
    ("Scheduler Queue (overlaid SLL+BST)", "sched_list_remove_first"),
]


def _experiment(structure):
    return next(e for e in EXPERIMENTS if e.structure == structure)


def _report(program, ids, method, **session_kw):
    """One method through a fresh session, in the ``MethodReport`` shape
    of the sequential ``Verifier.verify`` reference."""
    with VerificationSession(diagnostics=False, **session_kw) as session:
        return session.verify(program, ids, method).to_report()


@pytest.fixture(scope="module")
def loaded():
    out = {}
    for structure, method in REPRESENTATIVES:
        if structure not in out:
            exp = _experiment(structure)
            out[structure] = (exp.program_factory(), exp.ids_factory())
    return out


# -- codec -------------------------------------------------------------------


def test_codec_roundtrip_preserves_interning():
    m = T.mk_const("M_next", MapSort(LOC, LOC))
    x = T.mk_const("x", LOC)
    s = T.mk_const("Br", SET_LOC)
    f = T.mk_implies(
        T.mk_and(
            T.mk_member(x, s),
            T.mk_eq(T.mk_select(T.mk_store(m, x, T.NIL), x), T.NIL),
            T.mk_le(T.mk_int(0), T.mk_const("k", INT)),
        ),
        T.mk_not(T.mk_eq(x, T.NIL)),
    )
    nodes = encode_term(f)
    assert decode_term(nodes) is f  # re-interned to the identical node


def test_codec_roundtrip_on_real_vcs(loaded):
    program, ids = loaded["Singly-Linked List"]
    plan = Verifier(program, ids).plan("sll_find")
    for pvc in plan.solvable():
        assert decode_term(encode_term(pvc.formula)) is pvc.formula


def test_codec_handles_quantifiers():
    v = T.mk_var("p", LOC)
    f = T.mk_forall([v], T.mk_eq(v, v))
    assert decode_term(encode_term(f)) is f


# -- parallel == sequential --------------------------------------------------


@pytest.mark.parametrize("structure,method", REPRESENTATIVES)
def test_parallel_verdicts_match_sequential(loaded, structure, method):
    program, ids = loaded[structure]
    ref = Verifier(program, ids).verify(method)
    par = _report(program, ids, method, jobs=2)
    assert (par.ok, par.n_vcs, par.failed, par.wb_ok, par.ghost_ok, par.notes) == (
        ref.ok, ref.n_vcs, ref.failed, ref.wb_ok, ref.ghost_ok, ref.notes
    )


def test_sequential_engine_matches_verifier(loaded):
    program, ids = loaded["Binary Search Tree"]
    ref = Verifier(program, ids).verify("bst_find")
    seq = _report(program, ids, "bst_find", jobs=1)
    assert (seq.ok, seq.n_vcs, seq.failed) == (ref.ok, ref.n_vcs, ref.failed)


# -- cache -------------------------------------------------------------------


def test_cache_hit_returns_same_report(loaded, tmp_path):
    program, ids = loaded["Singly-Linked List"]
    with VerificationSession(
        jobs=1, cache_dir=str(tmp_path), diagnostics=False
    ) as session:
        cold = session.verify(program, ids, "sll_find").to_report()
        warm = session.verify(program, ids, "sll_find").to_report()
    assert cold.cache_hits == 0
    assert warm.cache_hits == warm.n_vcs  # every solved VC skipped
    assert (warm.ok, warm.n_vcs, warm.failed, warm.notes) == (
        cold.ok, cold.n_vcs, cold.failed, cold.notes
    )
    # No wall-clock assertion: cache_hits == n_vcs already proves every
    # solve was skipped, and timing is noisy on loaded single-core CI.


def test_cache_shared_across_engines(loaded, tmp_path):
    """A second session (fresh process in real use) reuses the verdicts."""
    program, ids = loaded["Sorted List"]
    _report(program, ids, "sorted_find", jobs=1, cache_dir=str(tmp_path))
    warm = _report(program, ids, "sorted_find", jobs=2, cache_dir=str(tmp_path))
    assert warm.cache_hits == warm.n_vcs


def test_poisoned_cache_entry_is_detected_and_recomputed(loaded, tmp_path):
    program, ids = loaded["Singly-Linked List"]
    session = VerificationSession(jobs=1, cache_dir=str(tmp_path), diagnostics=False)
    cold = session.verify(program, ids, "sll_find").to_report()
    entries = sorted(tmp_path.glob("*/*.json"))
    # Simplification canonicalizes VCs, so several VCs may share one cache
    # entry -- there are never more entries than VCs.
    assert 2 <= len(entries) <= cold.n_vcs

    # Poison 1: flip a verdict but keep valid JSON -- checksum must catch it.
    victim = entries[0]
    record = json.loads(victim.read_text())
    record["verdict"] = "invalid" if record["verdict"] == "valid" else "valid"
    victim.write_text(json.dumps(record))
    # Poison 2: outright garbage.
    entries[1].write_text("{ not json !!!")

    # Every VC whose canonical key landed in a poisoned entry must re-solve.
    plan = Verifier(program, ids).plan("sll_find")
    keys = [
        formula_key(t.formula(), t.encoding, t.conflict_budget, t.backend_spec)
        for t in tasks_from_plan(plan)
    ]
    poisoned = {entries[0].stem, entries[1].stem}
    n_poisoned_vcs = sum(1 for k in keys if k in poisoned)
    assert n_poisoned_vcs >= 2

    again = session.verify(program, ids, "sll_find").to_report()
    assert (again.ok, again.failed) == (cold.ok, cold.failed)
    assert again.cache_hits == again.n_vcs - n_poisoned_vcs  # poisoned re-solved
    # And the recomputed entries were re-published.
    final = session.verify(program, ids, "sll_find").to_report()
    session.close()
    assert final.cache_hits == final.n_vcs


def test_cache_rejects_wrong_key_record(tmp_path):
    cache = VcCache(tmp_path)
    a = T.mk_const("a", INT)
    key = formula_key(T.mk_le(a, T.mk_int(3)), "decidable", 1)
    cache.put(key, "valid", "ok")
    # Copy the record under a different key: self-identifying entries bounce.
    other = formula_key(T.mk_le(a, T.mk_int(4)), "decidable", 1)
    assert other != key
    src = cache._path(key)
    dst = cache._path(other)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(src.read_text())
    assert cache.get(other) is None
    assert not dst.exists()  # purged


def test_formula_key_sensitivity():
    a = T.mk_const("a", INT)
    f = T.mk_le(a, T.mk_int(3))
    g = T.mk_le(a, T.mk_int(4))
    assert formula_key(f, "decidable", 100) == formula_key(f, "decidable", 100)
    assert formula_key(f, "decidable", 100) != formula_key(g, "decidable", 100)
    assert formula_key(f, "decidable", 100) != formula_key(f, "decidable", 200)
    assert formula_key(f, "decidable", 100) != formula_key(f, "quantified", 100)
    # Verdicts are backend-scoped: one backend's answers are never
    # replayed as another's (crosscheck must actually cross-check).
    assert formula_key(f, "decidable", 100, "intree") != formula_key(
        f, "decidable", 100, "smtlib2"
    )


def test_formula_key_canonical_fast_path_matches():
    """``canonical=True`` (the pre-simplified SolveTask path) must produce
    the exact key the full rewrite+simplify path computes."""
    from repro.smt.rewriter import rewrite
    from repro.smt.simplify import simplify

    a = T.mk_const("fka", INT)
    b = T.mk_const("fkb", INT)
    f = T.mk_and(
        T.mk_le(T.mk_add(a, T.mk_int(1)), T.mk_add(b, T.mk_int(1))),
        T.mk_implies(T.mk_eq(a, T.mk_int(2)), T.mk_lt(a, T.mk_int(9))),
    )
    slow = formula_key(f, "decidable", 100)
    fast = formula_key(simplify(rewrite(f)), "decidable", 100, canonical=True)
    assert slow == fast


# -- timeouts ----------------------------------------------------------------


def test_per_task_timeout_reports_budget_not_hang(loaded):
    program, ids = loaded["Binary Search Tree"]
    report = _report(program, ids, "bst_find", jobs=2, timeout_s=0.05)
    assert not report.ok
    assert report.timeouts > 0
    assert any(": timeout (" in f for f in report.failed)


def test_method_budget_bounds_the_bag(loaded):
    import time

    program, ids = loaded["Binary Search Tree"]
    # The budget must expire mid-bag: simplification makes bst_find's whole
    # solve phase sub-second, so the budget has to be far below one worker
    # spawn (~50ms) to guarantee unfinished tasks remain.
    start = time.perf_counter()
    report = _report(
        program, ids, "bst_find", jobs=2, timeout_s=30, method_budget_s=0.05
    )
    wall = time.perf_counter() - start
    assert wall < 20  # plan + ~0.05s of solving, not n_vcs * timeout
    assert any("method budget" in f for f in report.failed)


# -- backends ----------------------------------------------------------------


def test_backend_registry_rejects_unknown_names():
    with pytest.raises(UnknownBackendError):
        make_backend("does-not-exist")
    with pytest.raises(UnknownBackendError):
        VerificationSession(backend="does-not-exist")


def test_backend_registry_contents():
    names = available_backends()
    assert {"intree", "smtlib2", "crosscheck"} <= set(names)


def test_smtlib2_backend_gated_on_missing_binary():
    with pytest.raises(BackendUnavailable):
        make_backend("smtlib2:this-binary-does-not-exist")


def test_crosscheck_agreement_and_mismatch():
    class Always(SolverBackend):
        name = "always"

        def __init__(self, status):
            self.status = status

        def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
            return BackendVerdict(self.status)

    f = T.mk_eq(T.mk_int(1), T.mk_int(1))
    agree = CrossCheckBackend(InTreeBackend(), Always("valid"))
    assert agree.check_validity(f).status == "valid"
    disagree = CrossCheckBackend(InTreeBackend(), Always("invalid"))
    with pytest.raises(CrossCheckMismatch):
        disagree.check_validity(f)


def test_custom_backend_registration(loaded):
    class EchoValid(SolverBackend):
        name = "echo"

        def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
            return BackendVerdict("valid", "stubbed")

    register_backend("echo-valid", lambda arg=None: EchoValid())
    try:
        program, ids = loaded["Singly-Linked List"]
        report = _report(program, ids, "sll_find", jobs=1, backend="echo-valid")
        assert report.ok  # every VC "solved" by the stub
    finally:
        from repro.engine.backends import _REGISTRY

        _REGISTRY.pop("echo-valid", None)


# -- task plumbing -----------------------------------------------------------


def test_tasks_are_picklable_and_ordered(loaded):
    import pickle

    program, ids = loaded["Sorted List"]
    plan = Verifier(program, ids).plan("sorted_find")
    tasks = tasks_from_plan(plan)
    blob = pickle.dumps(tasks)
    back = pickle.loads(blob)
    assert [t.label for t in back] == [t.label for t in tasks]
    results = solve_tasks(tasks, jobs=1)
    assert [r.index for r in results] == [t.index for t in tasks]
    assert all(r.verdict == "valid" for r in results)
