"""Typed result events and the structured result model of the session API.

The session's unit of progress is the :class:`VcEvent`: every VC slot of
a method emits exactly one ``planned`` event when the plan lands and
exactly one *terminal* event (``cache_hit`` | ``dedup`` | ``solved`` |
``timeout`` | ``error``) when its verdict is known.  Events are typed,
JSON-serializable, and ordered -- ``seq`` is allocated from the owning
session's run-scoped counter, strictly increasing across every stream
the session produces -- so machine consumers (the ``--events`` JSONL
mode, the ``repro serve`` stream endpoint, dashboards, CI) replay
verification progress without parsing log text.

A method's events culminate in a :class:`VerificationResult`: per-VC
:class:`VcVerdict`s in plan order, timing and shrink stats, event-kind
counts, and a :class:`Diagnostic` per failed VC whose countermodel atoms
are rendered in the *original* VC vocabulary (the simplifier's equality
substitutions are inverted; see :mod:`repro.engine.diagnostics`).

``VerificationResult.to_report()`` degrades losslessly to the
:class:`~repro.core.verifier.MethodReport` shape of the sequential
``Verifier.verify`` reference, which is what parity tests and the
table benchmarks compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from ..analysis.diagnostics import LintDiagnostic
from ..core.verifier import MethodPlan, MethodReport
from .tasks import TaskResult, assemble_report

__all__ = [
    "EVENT_KINDS",
    "TERMINAL_KINDS",
    "VcEvent",
    "VcVerdict",
    "Diagnostic",
    "VerificationResult",
    "event_for_result",
    "build_result",
]

EVENT_KINDS = ("planned", "lint", "cache_hit", "dedup", "solved", "timeout", "error")
TERMINAL_KINDS = ("cache_hit", "dedup", "solved", "timeout", "error")


@dataclass(frozen=True)
class VcEvent:
    """One typed progress event for one VC slot."""

    kind: str  # one of EVENT_KINDS
    structure: str
    method: str
    index: int  # VC slot within the method's plan
    label: str
    verdict: Optional[str] = None  # terminal events: valid|invalid|timeout|error
    detail: str = ""
    time_s: float = 0.0
    seq: int = -1  # position in the request's event stream
    stage: str = "solve"  # "plan" for planned/static-failure events
    nodes_before: int = 0  # planned events: simplifier shrink accounting
    nodes_after: int = 0
    # Terminal events of a ``portfolio:`` race: the member backend spec
    # whose definitive verdict won the slot.
    winner: Optional[str] = None
    # Supervised-retry attribution (schema v8): worker-crash respawns
    # this slot's verdict survived, and whether the slot was quarantined
    # (forced to an error verdict after repeated crashes).
    retries: int = 0
    quarantined: bool = False

    @property
    def is_terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "seq": self.seq,
            "structure": self.structure,
            "method": self.method,
            "vc": self.index,
            "label": self.label,
            "stage": self.stage,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict
        if self.detail:
            out["detail"] = self.detail
        if self.is_terminal:
            out["time_s"] = round(self.time_s, 6)
        if self.kind == "planned" and self.nodes_before:
            out["nodes_before"] = self.nodes_before
            out["nodes_after"] = self.nodes_after
        if self.winner is not None:
            out["winner"] = self.winner
        if self.retries:
            out["retries"] = self.retries
        if self.quarantined:
            out["quarantined"] = True
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "VcEvent":
        """Inverse of :meth:`to_json`: rebuild an event from its wire form.

        The wire form elides defaults (``detail`` when empty, ``time_s``
        on non-terminal events, shrink stats when zero), so the
        round-trip law is on the *serialized* side:
        ``VcEvent.from_json(e.to_json()).to_json() == e.to_json()`` for
        every event the session emits.  This is what lets a remote
        consumer of the ``repro serve`` JSONL stream reconstruct typed
        events with in-process semantics (``is_terminal`` included).
        """
        return cls(
            kind=doc["kind"],
            structure=doc["structure"],
            method=doc["method"],
            index=doc["vc"],
            label=doc["label"],
            verdict=doc.get("verdict"),
            detail=doc.get("detail", ""),
            time_s=float(doc.get("time_s", 0.0)),
            seq=doc.get("seq", -1),
            stage=doc.get("stage", "solve"),
            nodes_before=doc.get("nodes_before", 0),
            nodes_after=doc.get("nodes_after", 0),
            winner=doc.get("winner"),
            retries=doc.get("retries", 0),
            quarantined=doc.get("quarantined", False),
        )


@dataclass(frozen=True)
class VcVerdict:
    """The settled outcome of one VC slot, in the result model."""

    index: int
    label: str
    status: str  # valid | invalid | timeout | error | static_failure
    detail: str = ""
    time_s: float = 0.0
    cached: bool = False
    deduped: bool = False
    winner: Optional[str] = None  # portfolio races: winning member spec
    retries: int = 0  # worker-crash respawns this verdict survived
    quarantined: bool = False  # errored out after repeated crashes

    def to_json(self) -> dict:
        out = {"vc": self.index, "label": self.label, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        out["time_s"] = round(self.time_s, 6)
        if self.cached:
            out["cached"] = True
        if self.deduped:
            out["deduped"] = True
        if self.winner is not None:
            out["winner"] = self.winner
        if self.retries:
            out["retries"] = self.retries
        if self.quarantined:
            out["quarantined"] = True
        return out


@dataclass
class Diagnostic:
    """Structured failure explanation for one VC.

    For refuted VCs, ``atoms`` are the countermodel's theory-atom truth
    assignments in the *post-simplification* vocabulary, and
    ``original_atoms`` the same atoms mapped back through the inverse of
    the simplifier's oriented equality substitutions -- the vocabulary
    the VC (and the annotated program) was written in.  ``substitutions``
    records the applied mapping, rendered, so a consumer can audit the
    translation.
    """

    index: int
    label: str
    kind: str  # countermodel | static_failure | timeout | solver_error
    message: str
    atoms: List[str] = dc_field(default_factory=list)
    original_atoms: List[str] = dc_field(default_factory=list)
    substitutions: List[Tuple[str, str]] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "vc": self.index,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
        }
        if self.atoms:
            out["atoms"] = list(self.atoms)
            out["original_atoms"] = list(self.original_atoms)
        if self.substitutions:
            out["substitutions"] = [list(p) for p in self.substitutions]
        return out

    def render(self) -> str:
        """Human-readable multi-line rendering (original vocabulary)."""
        lines = [f"{self.label}: {self.message}"]
        if self.original_atoms:
            lines.append("  countermodel (original VC vocabulary):")
            lines.extend(f"    {atom}" for atom in self.original_atoms)
        return "\n".join(lines)


@dataclass
class VerificationResult:
    """The session API's final answer for one method."""

    structure: str
    method: str
    encoding: str
    ok: bool
    n_vcs: int
    verdicts: List[VcVerdict]
    failed: List[str]  # byte-compatible with MethodReport.failed
    notes: List[str]
    wb_ok: bool
    ghost_ok: bool
    time_s: float
    jobs: int = 1
    cache_hits: int = 0
    dedup_hits: int = 0
    timeouts: int = 0
    errors: int = 0
    simplify: bool = False
    nodes_before: int = 0
    nodes_after: int = 0
    # Phase timing split (schema v5): ``plan_s`` covers generation
    # (checks, elaboration, VC generation) including the
    # ``simplify_s`` rewrite+simplify portion; ``solve_s`` covers the
    # scheduler's solve streaming.  ``plan_cached`` marks a plan
    # replayed from the persistent plan cache (its ``plan_s`` is the
    # load time and ``simplify_s`` is zero).
    plan_s: float = 0.0
    simplify_s: float = 0.0
    solve_s: float = 0.0
    plan_cached: bool = False
    event_counts: Dict[str, int] = dc_field(default_factory=dict)
    diagnostics: List[Diagnostic] = dc_field(default_factory=list)
    # Advisory pre-plan static-analysis findings (``repro lint``) in
    # deterministic order; never merged into ``failed``.
    lint: List[LintDiagnostic] = dc_field(default_factory=list)
    # ``portfolio:`` runs (schema v7): member backend spec -> number of
    # VC slots whose race that member won.  Empty for plain backends.
    portfolio_wins: Dict[str, int] = dc_field(default_factory=dict)
    # Supervised-retry aggregates (schema v8): total worker-crash
    # respawns absorbed across the method's VCs, and how many slots
    # were quarantined to error verdicts.
    retries: int = 0
    quarantined: int = 0

    @property
    def shrink_pct(self) -> float:
        if self.nodes_before <= 0:
            return 0.0
        return 100.0 * (self.nodes_before - self.nodes_after) / self.nodes_before

    def to_report(self) -> MethodReport:
        """The legacy MethodReport this result degrades to (the shim)."""
        return MethodReport(
            structure=self.structure,
            method=self.method,
            ok=self.ok,
            n_vcs=self.n_vcs,
            failed=list(self.failed),
            time_s=self.time_s,
            encoding=self.encoding,
            wb_ok=self.wb_ok,
            ghost_ok=self.ghost_ok,
            notes=list(self.notes),
            cache_hits=self.cache_hits,
            jobs=self.jobs,
            timeouts=self.timeouts,
            simplify=self.simplify,
            nodes_before=self.nodes_before,
            nodes_after=self.nodes_after,
            dedup_hits=self.dedup_hits,
        )

    def to_json(self) -> dict:
        out = {
            "structure": self.structure,
            "method": self.method,
            "encoding": self.encoding,
            "ok": self.ok,
            "n_vcs": self.n_vcs,
            "time_s": round(self.time_s, 4),
            "plan_s": round(self.plan_s, 4),
            "simplify_s": round(self.simplify_s, 4),
            "solve_s": round(self.solve_s, 4),
            "plan_cached": self.plan_cached,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "wb_ok": self.wb_ok,
            "ghost_ok": self.ghost_ok,
            "failed": list(self.failed),
            "notes": list(self.notes),
            "events": dict(self.event_counts),
            "verdicts": [v.to_json() for v in self.verdicts],
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "lint": [d.to_json() for d in self.lint],
        }
        if self.simplify:
            out["simplify"] = {
                "nodes_before": self.nodes_before,
                "nodes_after": self.nodes_after,
                "shrink_pct": round(self.shrink_pct, 2),
            }
        if self.portfolio_wins:
            out["portfolio"] = {"wins": dict(self.portfolio_wins)}
        return out


def event_for_result(structure: str, method: str, res: TaskResult) -> VcEvent:
    """Classify a scheduler TaskResult as its terminal event."""
    if res.deduped:
        kind = "dedup"
    elif res.cached:
        kind = "cache_hit"
    elif res.verdict == "timeout":
        kind = "timeout"
    elif res.verdict == "error":
        kind = "error"
    else:
        kind = "solved"
    return VcEvent(
        kind=kind,
        structure=structure,
        method=method,
        index=res.index,
        label=res.label,
        verdict=res.verdict,
        detail=res.detail,
        time_s=res.time_s,
        winner=res.winner,
        retries=res.retries,
        quarantined=res.quarantined,
    )


def build_result(
    plan: MethodPlan,
    results: List[TaskResult],
    started_at: float,
    jobs: int = 1,
    event_counts: Optional[Dict[str, int]] = None,
    diagnostics: Optional[List[Diagnostic]] = None,
    solve_s: float = 0.0,
) -> VerificationResult:
    """Assemble the session result model for one method.

    The ``failed``/``notes``/counter fields come from the one shared
    :func:`~repro.engine.tasks.assemble_report` merge, so the legacy
    ``to_report()`` view is identical to the historical engine's output
    by construction, not by parallel reimplementation.
    """
    report = assemble_report(plan, results, started_at, jobs=jobs)
    by_index = {res.index: res for res in results}
    # Race-win tally: only verdicts a member actually produced (dedup
    # fan-outs carry the winner for attribution but were not re-raced).
    wins: Dict[str, int] = {}
    for res in results:
        if res.winner is not None and not res.deduped:
            wins[res.winner] = wins.get(res.winner, 0) + 1
    verdicts: List[VcVerdict] = []
    for pvc in plan.vcs:
        if pvc.failure is not None:
            verdicts.append(
                VcVerdict(pvc.index, pvc.label, "static_failure", detail=pvc.failure)
            )
            continue
        res = by_index.get(pvc.index)
        if res is None:  # defensive: a slot the scheduler never answered
            verdicts.append(
                VcVerdict(pvc.index, pvc.label, "error", detail="no result")
            )
            continue
        verdicts.append(
            VcVerdict(
                index=res.index,
                label=res.label,
                status=res.verdict,
                detail=res.detail,
                time_s=res.time_s,
                cached=res.cached,
                deduped=res.deduped,
                winner=res.winner,
                retries=res.retries,
                quarantined=res.quarantined,
            )
        )
    return VerificationResult(
        structure=report.structure,
        method=report.method,
        encoding=report.encoding,
        ok=report.ok,
        n_vcs=report.n_vcs,
        verdicts=verdicts,
        failed=report.failed,
        notes=report.notes,
        wb_ok=report.wb_ok,
        ghost_ok=report.ghost_ok,
        time_s=report.time_s,
        jobs=report.jobs,
        cache_hits=report.cache_hits,
        dedup_hits=report.dedup_hits,
        timeouts=report.timeouts,
        errors=sum(1 for v in verdicts if v.status == "error"),
        simplify=report.simplify,
        nodes_before=report.nodes_before,
        nodes_after=report.nodes_after,
        plan_s=plan.plan_s,
        simplify_s=plan.simplify_s,
        solve_s=solve_s,
        plan_cached=plan.from_cache,
        event_counts=dict(event_counts or {}),
        diagnostics=list(diagnostics or []),
        lint=list(plan.lint),
        portfolio_wins=wins,
        retries=sum(r.retries for r in results),
        quarantined=sum(1 for r in results if r.quarantined),
    )
