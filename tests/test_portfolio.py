"""Portfolio backend racing: spec resolution, scheduler-level races,
winner attribution, loser cancellation, cache interaction, and verdict
parity with the single-backend paths.

The tentpole invariant: ``portfolio:intree,intree`` produces exactly the
verdicts of ``intree`` on every scheduler configuration (jobs 1/4, batch
on/off, passing and failing methods), with no worker process left alive
after the stream ends.
"""

import multiprocessing as mp
import os
import time

import pytest

from repro.core.verifier import Verifier
from repro.engine import (
    BackendUnavailable,
    UnknownBackendError,
    VcCache,
    VerificationSession,
    make_backend,
    solve_tasks,
)
from repro.engine.backends import (
    BackendVerdict,
    PortfolioBackend,
    SolverBackend,
    portfolio_members,
    register_backend,
    _REGISTRY,
)
from repro.engine.codec import encode_term
from repro.engine.session import VerificationRequest
from repro.engine.tasks import SolveTask
from repro.smt import terms as T
from repro.smt.rewriter import rewrite
from repro.smt.simplify import simplify
from repro.smt.solver import SolverError
from repro.smt.sorts import INT
from repro.structures.registry import EXPERIMENTS


def _experiment(structure):
    return next(e for e in EXPERIMENTS if e.structure == structure)


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


# -- member backends for race tests ------------------------------------------


class _FastValidBackend(SolverBackend):
    name = "fastwin"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        return BackendVerdict("valid", "fast")


class _SleepForeverBackend(SolverBackend):
    name = "sleeper"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        time.sleep(30)
        return BackendVerdict("valid")


class _ErroringBackend(SolverBackend):
    name = "erroring"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        raise SolverError("member broke")


class _UnknownBackend(SolverBackend):
    name = "shrugs"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        return BackendVerdict("unknown", "gave up")


class _DyingBackend(SolverBackend):
    name = "dies"

    def check_validity(self, formula, conflict_budget=None, pre_simplified=False):
        os._exit(3)


@pytest.fixture
def race_backends():
    register_backend("fastwin", lambda arg=None: _FastValidBackend())
    register_backend("sleeper", lambda arg=None: _SleepForeverBackend())
    register_backend("erroring", lambda arg=None: _ErroringBackend())
    register_backend("shrugs", lambda arg=None: _UnknownBackend())
    register_backend("dies", lambda arg=None: _DyingBackend())
    yield
    for name in ("fastwin", "sleeper", "erroring", "shrugs", "dies"):
        _REGISTRY.pop(name, None)


# -- spec parsing / validation / degradation ---------------------------------


def test_non_portfolio_specs_resolve_to_none():
    assert portfolio_members("intree") is None
    assert portfolio_members("smtlib2:z3") is None


def test_portfolio_spec_parses_members():
    assert portfolio_members("portfolio:intree,intree") == ["intree", "intree"]


def test_portfolio_spec_needs_two_members():
    with pytest.raises(UnknownBackendError, match="at least two"):
        portfolio_members("portfolio:intree")
    with pytest.raises(UnknownBackendError, match="at least two"):
        portfolio_members("portfolio:")


def test_portfolio_rejects_nested_portfolios():
    with pytest.raises(UnknownBackendError, match="cannot be portfolios"):
        portfolio_members("portfolio:intree,portfolio:intree,intree")


def test_portfolio_rejects_unknown_member():
    with pytest.raises(UnknownBackendError):
        portfolio_members("portfolio:intree,nosuchsolver")


def test_portfolio_degrades_to_available_subset():
    def unavailable_factory(arg=None):
        raise BackendUnavailable("binary not on PATH")

    register_backend("absent", unavailable_factory)
    try:
        assert portfolio_members("portfolio:intree,absent") == ["intree"]
        with pytest.raises(BackendUnavailable, match="no portfolio member"):
            portfolio_members("portfolio:absent,absent")
    finally:
        _REGISTRY.pop("absent", None)


def test_make_backend_builds_portfolio():
    backend = make_backend("portfolio:intree,intree")
    assert isinstance(backend, PortfolioBackend)
    assert backend.specs == ["intree", "intree"]


def test_session_fails_fast_on_bad_portfolio_spec(tmp_path):
    with pytest.raises(UnknownBackendError):
        VerificationSession(backend="portfolio:intree")
    with pytest.raises(UnknownBackendError):
        VerificationSession(backend="portfolio:intree,nosuchsolver")


# -- in-process fallthrough (non-scheduler holders of a live backend) --------


def test_portfolio_backend_falls_through_member_failures(race_backends):
    f = T.mk_le(T.mk_const("pf_a", INT), T.mk_int(3))
    backend = PortfolioBackend(
        [_ErroringBackend(), _FastValidBackend()], ["erroring", "fastwin"]
    )
    assert backend.check_validity(f).status == "valid"
    shrugging = PortfolioBackend(
        [_UnknownBackend(), _ErroringBackend()], ["shrugs", "erroring"]
    )
    assert shrugging.check_validity(f).status == "unknown"  # best fallback
    broken = PortfolioBackend([_ErroringBackend()], ["erroring"])
    with pytest.raises(SolverError, match="no portfolio member"):
        broken.check_validity(f)


# -- scheduler-level racing --------------------------------------------------


def test_race_settles_on_first_definitive_and_reaps_losers(race_backends):
    """A fast member wins every slot while a sibling sleeps for 30s: the
    results arrive promptly with winner attribution, and no worker
    process survives the stream."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const(f"race_{i}", INT), T.mk_int(3)),
            i,
            f"vc-{i}",
            "portfolio:fastwin,sleeper",
        )
        for i in range(3)
    ]
    start = time.perf_counter()
    results = solve_tasks(tasks, jobs=4)
    elapsed = time.perf_counter() - start
    assert [r.verdict for r in results] == ["valid"] * 3
    assert all(r.winner == "fastwin" for r in results)
    assert elapsed < 10  # the sleeper lost and was cancelled, not awaited
    assert mp.active_children() == []


def test_race_falls_through_member_error(race_backends):
    """One member errors; the race keeps the slot open and the other
    member's definitive verdict wins."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const("race_err", INT), T.mk_int(3)),
            0,
            "vc-0",
            "portfolio:erroring,fastwin",
        )
    ]
    (res,) = solve_tasks(tasks, jobs=1)
    assert res.verdict == "valid"
    assert res.winner == "fastwin"
    assert mp.active_children() == []


def test_race_with_no_definitive_member_reports_fallback(race_backends):
    """Every member fails: the slot settles with the first non-definitive
    result (here the erroring member's verdict), not a hang."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const("race_all_err", INT), T.mk_int(3)),
            0,
            "vc-0",
            "portfolio:erroring,erroring",
        )
    ]
    (res,) = solve_tasks(tasks, jobs=1)
    assert res.verdict == "error"
    assert res.winner is None
    assert mp.active_children() == []


def test_race_member_death_leaves_the_race(race_backends):
    """A member whose worker dies just leaves the race: the live member's
    verdict wins, with no retry charged to the slot."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const("race_die_one", INT), T.mk_int(3)),
            0,
            "vc-0",
            "portfolio:dies,fastwin",
        )
    ]
    (res,) = solve_tasks(tasks, jobs=1)
    assert (res.verdict, res.winner, res.retries) == ("valid", "fastwin", 0)
    assert mp.active_children() == []


def test_race_with_every_member_dead_goes_to_crash_policy(race_backends):
    """Once no member is left, the unanswered slots take the plain
    unit's retry/quarantine path: the race is re-run, then quarantined
    when it dies again without progress."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const("race_die_all", INT), T.mk_int(3)),
            0,
            "vc-0",
            "portfolio:dies,dies",
        )
    ]
    (res,) = solve_tasks(tasks, jobs=1)
    assert res.verdict == "error" and res.quarantined and res.retries == 1
    assert "worker died (exitcode 3)" in res.detail
    assert mp.active_children() == []


def test_race_timeout_applies_shared_budget(race_backends):
    """All members hang: the race times out on the unit's shared budget
    instead of waiting for any member."""
    tasks = [
        _canonical_task(
            T.mk_le(T.mk_const("race_hang", INT), T.mk_int(3)),
            0,
            "vc-0",
            "portfolio:sleeper,sleeper",
            timeout_s=0.6,
        )
    ]
    start = time.perf_counter()
    (res,) = solve_tasks(tasks, jobs=1)
    assert res.verdict == "timeout"
    assert time.perf_counter() - start < 10
    assert mp.active_children() == []


# -- cache interaction -------------------------------------------------------


def test_raced_verdict_cached_under_winner_key_too(race_backends, tmp_path):
    """A raced verdict is written under both the portfolio key and the
    winning member's own key, so a warm single-backend run of the winner
    replays it without re-racing."""
    f = T.mk_le(T.mk_const("race_cache", INT), T.mk_int(3))
    cache = VcCache(tmp_path)
    (res,) = solve_tasks(
        [_canonical_task(f, 0, "vc-0", "portfolio:fastwin,sleeper")],
        jobs=1,
        cache=cache,
    )
    assert res.verdict == "valid" and res.winner == "fastwin"
    assert len(cache) == 2  # portfolio key + winner-member key
    warm_cache = VcCache(tmp_path)
    (warm,) = solve_tasks(
        [_canonical_task(f, 0, "vc-0", "fastwin")], jobs=1, cache=warm_cache
    )
    assert warm.cached and warm.verdict == "valid"
    (warm_race,) = solve_tasks(
        [_canonical_task(f, 0, "vc-0", "portfolio:fastwin,sleeper")],
        jobs=1,
        cache=VcCache(tmp_path),
    )
    assert warm_race.cached  # the portfolio's own key replays too
    assert mp.active_children() == []


# -- parity with the single backend ------------------------------------------


PARITY_METHOD = ("Singly-Linked List", "sll_find")
FAILING_METHOD = ("Scheduler Queue (overlaid SLL+BST)", "sched_list_remove_first")


def _verify(structure, method, backend, jobs, batch):
    exp = _experiment(structure)
    with VerificationSession(jobs=jobs, backend=backend, batch=batch) as session:
        result = session.verify(exp.program_factory(), exp.ids_factory(), method)
    assert mp.active_children() == []
    return result


@pytest.mark.parametrize("jobs,batch", [(1, True), (1, False), (4, True), (4, False)])
def test_portfolio_of_identical_members_matches_single(jobs, batch):
    structure, method = PARITY_METHOD
    ref = _verify(structure, method, "intree", jobs, batch)
    por = _verify(structure, method, "portfolio:intree,intree", jobs, batch)
    assert (por.ok, por.n_vcs, por.failed, por.notes, por.wb_ok, por.ghost_ok) == (
        ref.ok, ref.n_vcs, ref.failed, ref.notes, ref.wb_ok, ref.ghost_ok
    )
    assert sum(por.portfolio_wins.values()) == por.n_vcs - por.dedup_hits
    assert set(por.portfolio_wins) == {"intree"}


def test_portfolio_parity_on_failing_method():
    structure, method = FAILING_METHOD
    exp = _experiment(structure)
    ref = Verifier(exp.program_factory(), exp.ids_factory()).verify(method)
    por = _verify(structure, method, "portfolio:intree,intree", 4, True)
    assert (por.ok, por.n_vcs, por.failed) == (ref.ok, ref.n_vcs, ref.failed)


# -- result/event surface ----------------------------------------------------


def test_portfolio_surfaces_in_events_and_result(race_backends):
    """Winner attribution flows through the session API: terminal events
    and verdicts carry ``winner``, the result carries per-member win
    counts, and both serialize into the JSON schema."""
    structure, method = PARITY_METHOD
    exp = _experiment(structure)
    with VerificationSession(jobs=2, backend="portfolio:intree,intree") as session:
        run = session.submit(
            VerificationRequest(exp.program_factory(), exp.ids_factory(), method)
        )
        events = list(run)
        result = run.result()
    winners = [e for e in events if e.winner is not None]
    assert winners and all(e.is_terminal for e in winners)
    assert all(e.to_json()["winner"] == "intree" for e in winners)
    assert result.portfolio_wins == {"intree": len(
        [e for e in winners if e.kind == "solved"]
    )}
    doc = result.to_json()
    assert doc["portfolio"] == {"wins": result.portfolio_wins}
    solved_verdicts = [v for v in result.verdicts if v.winner is not None]
    assert solved_verdicts
    assert all(v.to_json()["winner"] == "intree" for v in solved_verdicts)
    assert mp.active_children() == []
