"""The SMT solver: CDCL(T) over EUF + linear arithmetic + sets + maps.

Pipeline (all for *ground* formulas -- the decidable fragment the paper's
methodology guarantees):

1. ``rewrite``: eliminate ``store``/``map_ite``/``select``-composition and
   distribute ``member`` over set algebra (array theory -> EUF).
2. purify non-boolean ``ite`` terms into fresh constants with guarded
   definitions.
3. ``reduce_sets``: finite pointwise reduction of set equalities/subsets.
4. split clauses for numeric equality atoms (``a=b or a<b or a>b``).
5. Tseitin CNF; every theory atom becomes a SAT variable.  (The
   incremental solver asserts its set-reduction instances as clauses
   instead; see below.)
6. CDCL search; each trail literal is asserted into the congruence closure
   and/or the simplex solver, which veto with explanation-based conflict
   clauses.
7. final check: integer branch-and-bound + model-based theory combination
   (equalities implied by the arithmetic model are tested against EUF and
   vice versa; disagreements become lemma clauses).

The solver refuses quantified input -- quantifiers simply cannot reach it
from ``repro.core.vcgen``, reproducing the paper's "decidable verification"
guarantee.  The RQ3 Dafny-style mode grounds quantifiers *before* calling
this solver (see ``repro.smt.quant``).

:class:`IncrementalSolver` is the persistent-context variant used by the
engine's VC batching: the VCs of one method share an enormous hypothesis
prefix (intrinsic-definition local conditions, FWYB frame axioms), so the
session asserts that prefix *once* -- one CNF encoding, one congruence
closure, one simplex tableau -- and then decides each per-VC goal under a
fresh activation-literal assumption (MiniSat-style incremental solving
lifted to CDCL(T)).  Learned clauses, theory lemmas and Tseitin encodings
carry over between goals; everything asserted permanently is either from
the shared prefix, definitional (ite guards), or theory-valid (set
reduction instances), so per-goal verdicts match a from-scratch solve.
Set-reduction instances, the bulk of a batch's encoding, are not
Tseitin-encoded: each is asserted at level 0 as the clauses of its
top-level ``and``/``or``/``implies``/``not`` structure over the literals
of its leaves, which is equivalent to asserting it as a unit but adds no
variable for its boolean shell.  The prefix, goals and ite guards keep
the Tseitin encoding, as does the one-shot :meth:`Solver.check`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .euf import EufSolver
from .rewriter import rewrite
from .sat import SatSolver
from .setreduce import IncrementalSetReducer, reduce_sets
from .simplex import ArithSolver, Delta
from .sorts import BOOL, INT
from .terms import (
    FALSE,
    TRUE,
    Term,
    deep_recursion,
    fresh_const,
    iter_subterms,
    mk_and,
    mk_eq,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_not,
)

__all__ = [
    "Solver",
    "IncrementalSolver",
    "SolverError",
    "NonLinearError",
    "QuantifiedFormulaError",
    "is_valid",
]


class SolverError(Exception):
    pass


class NonLinearError(SolverError):
    """Raised on nonlinear arithmetic (undecidable; footnote 1 of the paper)."""


class QuantifiedFormulaError(SolverError):
    """The decidable pipeline received a quantifier."""


class BudgetExceeded(SolverError):
    pass


_ARITH_LEAF_OPS = ("add", "sub", "neg", "mul", "div", "intconst", "realconst")

_BOOL_CONNECTIVES = ("and", "or", "not", "implies")


def _purify_term(formula: Term, cache: Dict[Term, Term], defs: List[Term]) -> Term:
    """One purification walk: replace non-boolean ``ite`` terms by fresh
    constants, appending the guarded definitions to ``defs``.  ``cache``
    may persist across calls (the incremental session reuses it so shared
    subterms keep their purification constants between goals)."""
    from .terms import _rebuild

    def walk(t: Term) -> Term:
        got = cache.get(t)
        if got is not None:
            return got
        if t.args:
            new_args = tuple(walk(a) for a in t.args)
            t2 = _rebuild(t, new_args) if new_args != t.args else t
        else:
            t2 = t
        if t2.op == "ite" and t2.sort != BOOL:
            c, a, b = t2.args
            v = fresh_const("ite", t2.sort)
            defs.append(mk_implies(c, mk_eq(v, a)))
            defs.append(mk_implies(mk_not(c), mk_eq(v, b)))
            t2 = v
        cache[t] = t2
        return t2

    return walk(formula)


class _TheoryManager:
    """Bridges the SAT core with the EUF and arithmetic solvers."""

    def __init__(self, solver: "Solver"):
        self.solver = solver
        self.euf = EufSolver()
        self.arith = ArithSolver()
        self.arith_var_of: Dict[Term, int] = {}
        self.term_of_arith_var: Dict[int, Term] = {}
        # atom dispatch tables, indexed by SAT var
        self.atom_of_var: Dict[int, Term] = {}
        self.var_of_atom: Dict[Term, int] = {}
        # arith bound actions per atom var: (pos_bounds, neg_bounds)
        self.bounds_of_var: Dict[int, Tuple[list, list]] = {}
        self.euf_kind_of_var: Dict[int, str] = {}  # 'eq' | 'pred'
        self.marks: List[Tuple[int, int]] = []
        self.bb_rounds = 0
        self.max_bb_rounds = 2000
        self.euf.register(TRUE)
        self.euf.register(FALSE)

    # -- atom registration -------------------------------------------------

    def register_atom(self, atom: Term, var: int) -> None:
        self.atom_of_var[var] = atom
        self.var_of_atom[atom] = var
        if atom.op in ("le", "lt"):
            a, b = atom.args
            pos = self._bound_actions(a, b, strict=(atom.op == "lt"), negated=False)
            negb = self._bound_actions(a, b, strict=(atom.op == "lt"), negated=True)
            self.bounds_of_var[var] = (pos, negb)
        elif atom.op == "eq":
            sort = atom.args[0].sort
            if sort == BOOL:
                raise SolverError("boolean equality must be handled as iff in CNF")
            self.euf_kind_of_var[var] = "eq"
            self.euf.register(atom.args[0])
            self.euf.register(atom.args[1])
            if sort.is_numeric:
                a, b = atom.args
                le1 = self._bound_actions(a, b, strict=False, negated=False)
                le2 = self._bound_actions(b, a, strict=False, negated=False)
                self.bounds_of_var[var] = (le1 + le2, [])
        elif atom.op in ("member", "subset", "all_ge", "all_le", "select", "apply", "const"):
            self.euf_kind_of_var[var] = "pred"
            self.euf.register(atom)
        else:
            raise SolverError(f"unsupported atom: {atom.op}")

    def _linearize(self, term: Term):
        """Return (poly: dict var->Fraction, const: Fraction)."""
        poly: Dict[int, Fraction] = {}
        const = [Fraction(0)]

        def add(t: Term, coeff: Fraction):
            if t.op == "intconst" or t.op == "realconst":
                const[0] += coeff * t.value
            elif t.op == "add":
                for a in t.args:
                    add(a, coeff)
            elif t.op == "sub":
                add(t.args[0], coeff)
                add(t.args[1], -coeff)
            elif t.op == "neg":
                add(t.args[0], -coeff)
            elif t.op == "mul":
                a, b = t.args
                if a.is_literal_const:
                    add(b, coeff * a.value)
                elif b.is_literal_const:
                    add(a, coeff * b.value)
                else:
                    raise NonLinearError(f"nonlinear multiplication: {t}")
            elif t.op == "div":
                add(t.args[0], coeff / t.args[1].value)
            else:
                v = self._arith_var(t)
                poly[v] = poly.get(v, Fraction(0)) + coeff
                if poly[v] == 0:
                    del poly[v]
        add(term, Fraction(1))
        return poly, const[0]

    def _arith_var(self, t: Term) -> int:
        v = self.arith_var_of.get(t)
        if v is None:
            v = self.arith.new_var(is_int=(t.sort == INT))
            self.arith_var_of[t] = v
            self.term_of_arith_var[v] = t
            # Register in EUF too so congruence-implied equalities are
            # visible to the combination machinery.
            self.euf.register(t)
        return v

    def _bound_actions(self, a: Term, b: Term, strict: bool, negated: bool) -> list:
        """Bound assertions for (a < b), (a <= b) or their negations as a
        list of (arith_var, kind, Delta)."""
        poly_a, ka = self._linearize(a)
        poly_b, kb = self._linearize(b)
        poly = dict(poly_a)
        for v, c in poly_b.items():
            poly[v] = poly.get(v, Fraction(0)) - c
            if poly[v] == 0:
                del poly[v]
        k = ka - kb  # atom: poly + k (<|<=) 0
        if negated:
            # not (a <= b)  <=>  poly + k > 0 ; not (a < b) <=> poly + k >= 0
            strict = not strict
            lower = True
        else:
            lower = False
        if not poly:
            # Constant atom: encode as trivially true/false bound on a dummy.
            if lower:
                truth = (k > 0) if strict else (k >= 0)
            else:
                truth = (k < 0) if strict else (k <= 0)
            return [("const", truth)]
        sv, gamma = self.arith.slack_for(poly)
        c = Fraction(-k) / gamma
        if gamma < 0:
            lower = not lower
        if self.arith.is_int[sv]:
            # Integer bound tightening: strict and fractional bounds round to
            # the nearest integer bound, which keeps simplex models integral
            # and starves branch-and-bound of work.
            if lower:
                if strict or c.denominator != 1:
                    c = Fraction(c.numerator // c.denominator + 1)
                return [(sv, "ge", Delta(c))]
            if strict or c.denominator != 1:
                num, den = c.numerator, c.denominator
                floor = num // den
                c = Fraction(floor - 1 if (strict and den == 1) else floor)
            return [(sv, "le", Delta(c))]
        if lower:
            bound = Delta(c, Fraction(1) if strict else Fraction(0))
            return [(sv, "ge", bound)]
        bound = Delta(c, Fraction(-1) if strict else Fraction(0))
        return [(sv, "le", bound)]

    # -- SAT-driven callbacks ----------------------------------------------

    def assert_lit(self, lit: int) -> Optional[List[int]]:
        self.marks.append((self.euf.mark(), self.arith.mark()))
        var = lit >> 1
        positive = (lit & 1) == 0
        atom = self.atom_of_var.get(var)
        if atom is None:
            return None
        conflict: Optional[List[int]] = None
        kind = self.euf_kind_of_var.get(var)
        if kind == "eq":
            a, b = atom.args
            if positive:
                conflict = self.euf.assert_eq(a, b, lit)
            else:
                conflict = self.euf.assert_diseq(a, b, lit)
        elif kind == "pred":
            target = TRUE if positive else FALSE
            conflict = self.euf.assert_eq(atom, target, lit)
        if conflict is not None:
            return self._clause_from(conflict)
        bounds = self.bounds_of_var.get(var)
        if bounds is not None:
            actions = bounds[0] if positive else bounds[1]
            for action in actions:
                if action[0] == "const":
                    if not action[1]:
                        return [lit ^ 1]
                    continue
                sv, bkind, delta = action
                conflict = self.arith.assert_bound(sv, bkind, delta, lit)
                if conflict is not None:
                    return self._clause_from(conflict + [lit] if lit not in conflict else conflict)
            conflict = self.arith.check()
            if conflict is not None:
                return self._clause_from(conflict)
        return None

    def backjump(self, trail_size: int) -> None:
        while len(self.marks) > trail_size:
            em, am = self.marks.pop()
            self.euf.undo_to(em)
            self.arith.undo_to(am)

    def _clause_from(self, true_lits: List[int]) -> List[int]:
        seen = []
        for l in true_lits:
            if l not in seen:
                seen.append(l)
        return [l ^ 1 for l in seen]

    # -- final check: integers + theory combination -------------------------

    def final_check(self):
        conflict = self.arith.check()
        if conflict is not None:
            return self._clause_from(conflict)
        self.bb_rounds += 1
        if self.bb_rounds > self.max_bb_rounds:
            raise BudgetExceeded("branch-and-bound budget exceeded")
        model = self.arith.concrete_model()
        lemmas: List[List[int]] = []
        # 1. Integer branch-and-bound on term-backed int variables.
        for t, v in list(self.arith_var_of.items()):
            if t.sort == INT:
                val = model[v]
                if val.denominator != 1:
                    floor = val.numerator // val.denominator
                    below = self._get_atom_lit(mk_le(t, mk_int(floor)))
                    above = self._get_atom_lit(mk_le(mk_int(floor + 1), t))
                    lemmas.append([below, above])
        if lemmas:
            return lemmas
        # 2. Model-based combination: shared numeric terms.
        shared = [t for t in self.arith_var_of if t in self.euf.rep]
        # 2a. EUF-equal shared terms must get equal arithmetic values.
        by_class: Dict[Term, List[Term]] = {}
        for t in shared:
            by_class.setdefault(self.euf.find(t), []).append(t)
        for cls in by_class.values():
            if len(cls) < 2:
                continue
            base = cls[0]
            for other in cls[1:]:
                if model[self.arith_var_of[base]] != model[self.arith_var_of[other]]:
                    expl = self.euf.explain(base, other)
                    eq_lit = self._get_atom_lit(mk_eq(base, other))
                    # EUF-valid lemma: explanation implies the equality atom,
                    # whose truth the arithmetic side then has to honour.
                    lemmas.append([l ^ 1 for l in expl] + [eq_lit])
        if lemmas:
            return lemmas
        # 2b. arith-model-equal shared terms must be mergeable in EUF.
        # Grouped per sort: equality atoms are only well-sorted between
        # same-sort terms (an Int and a Real can share a model value,
        # especially in a long-lived incremental context).
        by_value: Dict[tuple, List[Term]] = {}
        for t in shared:
            by_value.setdefault((t.sort, model[self.arith_var_of[t]]), []).append(t)
        mark = self.euf.mark()
        for group in by_value.values():
            if len(group) < 2:
                continue
            base = group[0]
            for other in group[1:]:
                if self.euf.are_equal(base, other):
                    continue
                confl = self.euf.assert_eq(base, other, None)
                if confl is not None:
                    # EUF refuses this equality: split on it explicitly.
                    eq_lit = self._get_atom_lit(mk_eq(base, other))
                    lemmas.append([l ^ 1 for l in confl] + [eq_lit ^ 1])
                    break
            if lemmas:
                break
        self.euf.undo_to(mark)
        if lemmas:
            return lemmas
        return None

    def _get_atom_lit(self, atom: Term) -> int:
        """Positive SAT literal for an atom, creating it (with split clauses
        for numeric equalities) if needed."""
        if atom is TRUE:
            return self.solver.true_lit
        if atom is FALSE:
            return self.solver.true_lit ^ 1
        var = self.var_of_atom.get(atom)
        if var is None:
            var = self.solver.sat.new_var()
            self.register_atom(atom, var)
            if atom.op == "eq" and atom.args[0].sort.is_numeric:
                self.solver._add_numeric_eq_split(atom, var)
        return 2 * var


class Solver:
    """Public quantifier-free SMT solver interface."""

    def __init__(
        self, conflict_budget: Optional[int] = None, assume_rewritten: bool = False
    ):
        """``assume_rewritten`` declares the assertions already in
        rewrite-normal form (the output of :func:`repro.smt.rewriter.rewrite`
        or :func:`repro.smt.simplify.simplify` thereof), skipping the
        array-elimination pass.  The simplification pipeline preserves
        rewrite-normality, so pre-simplified VCs take this fast path."""
        self.assertions: List[Term] = []
        self.conflict_budget = conflict_budget
        self.assume_rewritten = assume_rewritten
        self.stats: Dict[str, float] = {}
        self.sat = None
        self.manager = None
        self.true_lit = None
        self._formula_vars: Dict[Term, int] = {}

    def add(self, term: Term) -> None:
        if term.sort != BOOL:
            raise SolverError("assertions must be boolean")
        self.assertions.append(term)

    def _fresh_context(self) -> None:
        """(Re)initialize the SAT core + theory manager + true literal."""
        self.sat = SatSolver()
        self.manager = _TheoryManager(self)
        self.sat.theory = self.manager
        tv = self.sat.new_var()
        self.true_lit = 2 * tv
        self.sat.add_clause([self.true_lit])
        self._formula_vars = {}

    # -- preprocessing ------------------------------------------------------

    def _purify_ites(self, formula: Term) -> Term:
        """Replace non-boolean ite terms by fresh constants with guarded
        definitions (boolean ites were already eliminated at construction)."""
        defs: List[Term] = []
        cache: Dict[Term, Term] = {}
        out = _purify_term(formula, cache, defs)
        while defs:
            pending = defs[:]
            defs.clear()
            out = mk_and(out, *[_purify_term(d, cache, defs) for d in pending])
        return out

    def _check_ground(self, formula: Term) -> None:
        for t in iter_subterms(formula):
            if t.op == "forall" or t.op == "var":
                raise QuantifiedFormulaError(
                    "quantified formula reached the decidable solver: " + t.pretty()[:200]
                )

    # -- CNF ------------------------------------------------------------

    def _formula_lit(self, t: Term) -> int:
        if t is TRUE:
            return self.true_lit
        if t is FALSE:
            return self.true_lit ^ 1
        if t.op == "not":
            return self._formula_lit(t.args[0]) ^ 1
        cached = self._formula_vars.get(t)
        if cached is not None:
            return 2 * cached
        if t.op in ("and", "or"):
            v = self.sat.new_var()
            self._formula_vars[t] = v
            plit = 2 * v
            arg_lits = [self._formula_lit(a) for a in t.args]
            if t.op == "and":
                for al in arg_lits:
                    self.sat.add_clause([plit ^ 1, al])
                self.sat.add_clause([plit] + [al ^ 1 for al in arg_lits])
            else:
                for al in arg_lits:
                    self.sat.add_clause([plit, al ^ 1])
                self.sat.add_clause([plit ^ 1] + arg_lits)
            return plit
        if t.op == "implies":
            a = self._formula_lit(t.args[0])
            b = self._formula_lit(t.args[1])
            v = self.sat.new_var()
            self._formula_vars[t] = v
            plit = 2 * v
            self.sat.add_clause([plit ^ 1, a ^ 1, b])
            self.sat.add_clause([plit, a])
            self.sat.add_clause([plit, b ^ 1])
            return plit
        if t.op == "eq" and t.args[0].sort == BOOL:
            a = self._formula_lit(t.args[0])
            b = self._formula_lit(t.args[1])
            v = self.sat.new_var()
            self._formula_vars[t] = v
            plit = 2 * v
            self.sat.add_clause([plit ^ 1, a ^ 1, b])
            self.sat.add_clause([plit ^ 1, a, b ^ 1])
            self.sat.add_clause([plit, a, b])
            self.sat.add_clause([plit, a ^ 1, b ^ 1])
            return plit
        # Theory atom.
        v = self.sat.new_var()
        self._formula_vars[t] = v
        self.manager.register_atom(t, v)
        if t.op == "eq" and t.args[0].sort.is_numeric:
            self._add_numeric_eq_split(t, v)
        return 2 * v

    def _add_numeric_eq_split(self, atom: Term, var: int) -> None:
        a, b = atom.args
        lt1 = self._formula_lit(mk_lt(a, b))
        lt2 = self._formula_lit(mk_lt(b, a))
        self.sat.add_clause([2 * var, lt1, lt2])
        self.sat.add_clause([2 * var + 1, lt1 ^ 1])
        self.sat.add_clause([2 * var + 1, lt2 ^ 1])

    # -- main entry ------------------------------------------------------

    def check(self) -> str:
        """Returns 'sat' or 'unsat' (raises on budget exhaustion)."""
        formula = mk_and(*self.assertions) if self.assertions else TRUE
        if not self.assume_rewritten:
            formula = rewrite(formula)
        self._check_ground(formula)
        formula = self._purify_ites(formula)
        formula = reduce_sets(formula)
        if formula is FALSE:
            return "unsat"
        self._fresh_context()
        root = self._formula_lit(formula)
        self.sat.add_clause([root])
        result = self.sat.solve(conflict_budget=self.conflict_budget)
        if result is None:
            raise BudgetExceeded("conflict budget exceeded")
        self.stats["conflicts"] = self.sat.n_conflicts
        self.stats["vars"] = len(self.sat.assigns)
        self.stats["clauses"] = len(self.sat.clauses)
        return "sat" if result else "unsat"

    def model_atoms(self) -> Dict[Term, bool]:
        """Truth values of the original theory atoms (for countermodels)."""
        out = {}
        if self.manager is None:
            return out
        for var, atom in self.manager.atom_of_var.items():
            val = self.sat.assigns[var]
            if val is not None:
                out[atom] = val
        return out


class IncrementalSolver(Solver):
    """Persistent-context CDCL(T) session (assert once, check many).

    Usage::

        inc = IncrementalSolver(conflict_budget=..., assume_rewritten=True)
        for hyp in shared_prefix:
            inc.add_shared(hyp)           # asserted once, permanently
        for goal in goals:
            status = inc.check_goal(goal)  # 'sat' | 'unsat'

    ``check_goal(g)`` decides satisfiability of ``shared /\\ g`` -- to
    check validity of ``prefix -> R``, pass ``mk_not(R)``.  Each goal is
    encoded under a fresh activation literal, checked via
    ``solve(assumptions=[act])``, then retired with a permanent unit
    ``~act``, so goals never constrain each other.  Side conditions
    produced by preprocessing (ite purification guards, finite set
    reduction instances, the latter as clauses rather than Tseitin units)
    are asserted *permanently*: they are
    definitional or theory-valid, hence harmless to every other goal,
    and asserting them unguarded is what keeps the accumulated element
    universe complete when later goals mention the same element terms.
    """

    #: Retired-goal garbage collection: a retired goal's Tseitin clauses
    #: and theory-atom registrations stay in the persistent context, and
    #: every later ``solve`` re-propagates them (and re-asserts their
    #: atoms into EUF/simplex on each decision), so an unbounded batch
    #: slows down linearly in *retired* work.  When the variables
    #: attributable to retired goals exceed ``gc_ratio`` times the shared
    #: prefix's own variables (and the ``gc_min_vars`` floor), the
    #: context is rebuilt from the recorded shared prefix alone --
    #: exactly the state a fresh solver would build, so verdicts are
    #: unaffected.  This is what lets the engine's ``batch_node_limit``
    #: default far above the old 200-node ceiling.  The floor counts
    #: variables, and set-reduction instances (asserted as clauses) add
    #: none of their own, so it sits low: a context kept longer carries
    #: the retired goals' set elements into every later search.
    GC_MIN_VARS = 750

    def __init__(
        self,
        conflict_budget: Optional[int] = None,
        assume_rewritten: bool = False,
        gc_ratio: float = 1.0,
    ):
        super().__init__(
            conflict_budget=conflict_budget, assume_rewritten=assume_rewritten
        )
        self._fresh_context()
        self._purify_cache: Dict[Term, Term] = {}
        self._reducer = IncrementalSetReducer()
        self.n_checks = 0
        self.gc_ratio = gc_ratio
        self.n_gc = 0  # context rebuilds performed
        self._shared: List[Term] = []
        self._base_vars: Optional[int] = None  # var count after the prefix
        self._retired_vars = 0  # vars attributable to retired goals

    def _assert_permanent(self, term: Term) -> None:
        self.sat._cancel_until(0)
        self.sat.add_clause([self._formula_lit(term)])

    def _reduce_and_assert_deltas(self, term: Term) -> None:
        """Feed ``term`` to the incremental set reducer and permanently
        assert, as clauses, whatever pointwise instances the universe now
        needs."""
        deltas = self._reducer.add(term)
        if deltas:
            self.sat._cancel_until(0)
            for constraint in deltas:
                self._assert_clauses(constraint)

    def _assert_clauses(self, formula: Term) -> None:
        """Permanently assert ``formula`` as the clauses of its top-level
        boolean structure instead of one Tseitin-encoded unit.  The SAT
        core must be at decision level 0.

        ``and`` / ``or`` / ``implies`` / ``not`` are flattened into
        disjunctions of literals; each clause distributes over at most one
        conjunction, so the clause count stays linear in the formula's
        tree size.  Leaves and any further conjunctions go through
        :meth:`_formula_lit`.  A unit asserted at level 0 is equivalent to
        its top-level clauses, so this only sheds the shell's variables."""
        stack = [([], [(formula, True)])]
        while stack:
            lits, todo = stack.pop()
            split = None  # conjuncts this clause is distributed over
            while todo:
                t, pos = todo.pop()
                op = t.op
                if op == "not":
                    todo.append((t.args[0], not pos))
                    continue
                if op == "boolconst":
                    if t.value == pos:
                        break  # clause satisfied
                    continue  # false literal: drop it
                if op == "implies":
                    a, b = t.args
                    parts = [(a, not pos), (b, pos)]
                elif op == "and" or op == "or":
                    parts = [(a, pos) for a in t.args]
                else:
                    parts = None
                if parts is not None:
                    if pos == (op != "and"):
                        todo.extend(parts)  # a disjunction: inline it
                        continue
                    if split is None:
                        split = parts
                        continue
                lit = self._formula_lit(t)
                lits.append(lit if pos else lit ^ 1)
            else:
                if split is None:
                    self.sat.add_clause(lits)
                else:
                    stack.extend((list(lits), [part]) for part in split)

    def _ingest(self, term: Term) -> int:
        """Preprocess one boolean term into the shared context and return
        its CNF literal.  Emitted side constraints are asserted permanently."""
        if term.sort != BOOL:
            raise SolverError("assertions must be boolean")
        with deep_recursion():
            if not self.assume_rewritten:
                term = rewrite(term)
            self._check_ground(term)
            defs: List[Term] = []
            term = _purify_term(term, self._purify_cache, defs)
            while defs:
                pending = defs[:]
                defs.clear()
                for d in pending:
                    d = _purify_term(d, self._purify_cache, defs)
                    # Guard definitions can mention set-sorted terms (a
                    # purified set ite yields a set equality), so they go
                    # through the reducer exactly like user assertions --
                    # the one-shot pipeline reduces *after* purification
                    # over the whole conjunction.
                    self._reduce_and_assert_deltas(d)
                    self._assert_permanent(d)
            self._reduce_and_assert_deltas(term)
            return self._formula_lit(term)

    def add_shared(self, term: Term) -> None:
        """Assert ``term`` into the persistent context (the VC prefix)."""
        self._shared.append(term)
        self._base_vars = None  # prefix still growing: re-baseline later
        self.sat._cancel_until(0)
        lit = self._ingest(term)
        self.sat.add_clause([lit])

    def _collect_retired(self) -> None:
        """Rebuild the context from the shared prefix alone, dropping the
        retired goals' clauses, atoms and theory state."""
        self._fresh_context()
        self._purify_cache = {}
        self._reducer = IncrementalSetReducer()
        self._retired_vars = 0
        self._base_vars = None
        self.n_gc += 1
        for term in self._shared:
            self.sat._cancel_until(0)
            lit = self._ingest(term)
            self.sat.add_clause([lit])

    def check_goal(self, goal: Term) -> str:
        """Decide satisfiability of ``shared /\\ goal``; context survives."""
        if self._base_vars is not None and self._retired_vars > max(
            self.GC_MIN_VARS, self.gc_ratio * self._base_vars
        ):
            self._collect_retired()
        if self._base_vars is None:
            self._base_vars = len(self.sat.assigns)
        vars_before = len(self.sat.assigns)
        self.sat._cancel_until(0)
        lit = self._ingest(goal)
        act = self.sat.new_var()
        self.sat.add_clause([2 * act + 1, lit])
        self.manager.bb_rounds = 0
        self.n_checks += 1
        result = self.sat.solve(
            conflict_budget=self.conflict_budget, assumptions=[2 * act]
        )
        self.sat._cancel_until(0)
        self.sat.add_clause([2 * act + 1])  # retire the goal
        self._retired_vars += len(self.sat.assigns) - vars_before
        if result is None:
            raise BudgetExceeded("conflict budget exceeded")
        self.stats["conflicts"] = self.sat.n_conflicts
        self.stats["vars"] = len(self.sat.assigns)
        self.stats["clauses"] = len(self.sat.clauses)
        return "sat" if result else "unsat"


def is_valid(formula: Term, conflict_budget: Optional[int] = None):
    """Check validity of a ground formula.  Returns (bool, Solver)."""
    solver = Solver(conflict_budget=conflict_budget)
    solver.add(mk_not(formula))
    result = solver.check()
    return result == "unsat", solver
