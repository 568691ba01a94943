"""Complete ground reduction of quantifier-free set algebra.

After ``rewriter.rewrite`` distributes membership over composite set terms,
the remaining set reasoning concerns *equality* and *subset* atoms between
set terms.  For ground formulas these admit a classic finite reduction:

- Collect the relevant element terms ``E``: every element that occurs in a
  ``member`` atom or inside a ``singleton``.
- For every set-equality atom ``q = (S1 = S2)`` add, for each ``e`` in
  ``E`` plus witnesses, the guarded pointwise clause
  ``q -> (e in S1 <-> e in S2)``; and for the *negated* case a fresh witness
  ``w_q`` with ``~q -> (w_q in S1 xor w_q in S2)``.
- For every ``subset(A, B)`` atom: ``p -> (e in A -> e in B)`` pointwise and
  ``~p -> (w_p in A and w_p not in B)``.

All generated memberships go through the rewriter, so they bottom out in
memberships over *base* set terms (which the congruence closure treats as
uninterpreted boolean applications) and element equalities.  This is the
standard decision procedure for the QF theory of finite sets (without
cardinality), which is all the paper's local conditions need.

:class:`IncrementalSetReducer` is the same reduction made *stateful* for
the incremental solver: the element universe and the atom set grow as
goals are added, and each ``add`` returns only the *delta* constraints
(new elements x known atoms, new atoms x known elements).  Every emitted
constraint is either a valid fact of set semantics or a fresh-witness
Skolem axiom, so asserting deltas permanently -- across push/pop of the
goals that introduced them -- is sound for every later goal, and keeping
earlier goals' elements in the universe only adds redundant (valid)
pointwise instances.  Deltas come back rewritten through one memo that
lives as long as the reducer: successive instances share most of their
subterms (the same set terms against each new element), so each is
rewritten once.  The incremental solver rebuilds its reducer at
retired-goal collection, which bounds the memo with the context.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .rewriter import rewrite
from .sorts import SetSort
from .terms import (
    Term,
    fresh_const,
    iter_subterms,
    mk_and,
    mk_implies,
    mk_le,
    mk_lt,
    mk_member,
    mk_not,
    mk_or,
)

__all__ = ["reduce_sets", "IncrementalSetReducer"]


class IncrementalSetReducer:
    """Stateful finite set reduction for a persistent solver context."""

    def __init__(self) -> None:
        # atom -> witness constant (insertion-ordered: dicts keep order)
        self.eq_atoms: Dict[Term, Term] = {}
        self.subset_atoms: Dict[Term, Term] = {}
        self.bound_atoms: Dict[Term, Term] = {}
        self.elems_by_sort: Dict[object, List[Term]] = {}
        self._elem_seen: Set[Term] = set()
        self._atom_order: List[Term] = []
        self._rewrite_cache: Dict[Term, Term] = {}  # see the module docstring

    def _add_elem(self, e: Term) -> bool:
        if e in self._elem_seen:
            return False
        self._elem_seen.add(e)
        self.elems_by_sort.setdefault(e.sort, []).append(e)
        return True

    def _pointwise(self, atom: Term, e: Term) -> Term:
        if atom in self.eq_atoms:
            s1, s2 = atom.args
            return mk_implies(atom, _iff(mk_member(e, s1), mk_member(e, s2)))
        if atom in self.subset_atoms:
            a, b = atom.args
            return mk_implies(atom, mk_implies(mk_member(e, a), mk_member(e, b)))
        s, bound = atom.args
        cond = mk_le(bound, e) if atom.op == "all_ge" else mk_le(e, bound)
        return mk_implies(atom, mk_implies(mk_member(e, s), cond))

    def _witness_clauses(self, atom: Term, w: Term) -> List[Term]:
        if atom in self.eq_atoms:
            s1, s2 = atom.args
            mw1 = mk_member(w, s1)
            mw2 = mk_member(w, s2)
            # ~atom -> (mw1 xor mw2)
            return [mk_or(atom, mw1, mw2), mk_or(atom, mk_not(mw1), mk_not(mw2))]
        if atom in self.subset_atoms:
            a, b = atom.args
            return [mk_or(atom, mk_member(w, a)), mk_or(atom, mk_not(mk_member(w, b)))]
        s, bound = atom.args
        bad = mk_lt(w, bound) if atom.op == "all_ge" else mk_lt(bound, w)
        return [mk_or(atom, mk_member(w, s)), mk_or(atom, bad)]

    def add(self, formula: Term, rewrite_deltas: bool = True) -> List[Term]:
        """Record ``formula``'s atoms and elements; return the delta
        constraints the accumulated reduction now additionally needs.

        Deltas are rewritten through the reducer's memo for callers that
        assert them directly (the incremental solver); ``reduce_sets``
        passes ``rewrite_deltas=False`` because it rewrites the whole
        conjunction once at the end anyway."""
        new_atoms: List[Term] = []
        new_elems: List[Term] = []
        known = self._atom_order
        for t in iter_subterms(formula):
            if t.op == "eq" and isinstance(t.args[0].sort, SetSort):
                if t not in self.eq_atoms:
                    self.eq_atoms[t] = None
                    new_atoms.append(t)
            elif t.op == "subset":
                if t not in self.subset_atoms:
                    self.subset_atoms[t] = None
                    new_atoms.append(t)
            elif t.op in ("all_ge", "all_le"):
                if t not in self.bound_atoms:
                    self.bound_atoms[t] = None
                    new_atoms.append(t)
            elif t.op in ("member", "singleton"):
                if self._add_elem(t.args[0]):
                    new_elems.append(t.args[0])

        if not new_atoms and not new_elems:
            return []

        # Fresh witness per new atom (the witness is itself an element).
        for atom in new_atoms:
            w = fresh_const("setw", atom.args[0].sort.elem)
            self._set_witness(atom, w)
            if self._add_elem(w):
                new_elems.append(w)

        constraints: List[Term] = []
        # New atoms see the *whole* accumulated universe...
        for atom in new_atoms:
            elem_sort = atom.args[0].sort.elem
            for e in self.elems_by_sort.get(elem_sort, ()):
                constraints.append(self._pointwise(atom, e))
            constraints.extend(self._witness_clauses(atom, self._witness(atom)))
        # ...and new elements are instantiated against the *old* atoms
        # (new x new was covered above).
        new_atom_set = set(new_atoms)
        new_elem_set = set(new_elems)
        for atom in known:
            if atom in new_atom_set:
                continue
            elem_sort = atom.args[0].sort.elem
            for e in self.elems_by_sort.get(elem_sort, ()):
                if e in new_elem_set:
                    constraints.append(self._pointwise(atom, e))
        for atom in new_atoms:
            known.append(atom)
        if not constraints or not rewrite_deltas:
            return constraints
        return [rewrite(c, self._rewrite_cache) for c in constraints]

    def _set_witness(self, atom: Term, w: Term) -> None:
        for table in (self.eq_atoms, self.subset_atoms, self.bound_atoms):
            if atom in table:
                table[atom] = w
                return

    def _witness(self, atom: Term) -> Term:
        for table in (self.eq_atoms, self.subset_atoms, self.bound_atoms):
            if atom in table:
                return table[atom]
        raise KeyError(atom)


def reduce_sets(formula: Term) -> Term:
    """Return ``formula`` conjoined with the finite pointwise reduction of
    its set-equality and subset atoms (one-shot form of the reducer)."""
    reducer = IncrementalSetReducer()
    constraints = reducer.add(formula, rewrite_deltas=False)
    if not constraints:
        return formula
    return rewrite(mk_and(formula, *constraints))


def _iff(a: Term, b: Term) -> Term:
    return mk_and(mk_implies(a, b), mk_implies(b, a))
