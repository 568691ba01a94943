"""Eager rewriting that eliminates the map (array) theory from ground VCs.

The verification conditions produced by ``repro.core.vcgen`` are *ground*:
every ``select``, ``store`` and ``map_ite`` has concrete (program-derived)
index terms.  For ground formulas, the read-over-write axioms can be applied
exhaustively as rewrite rules:

    select(store(A, i, v), j)     -->  ite(i = j, v, select(A, j))
    select(map_ite(S, A, B), j)   -->  ite(j in S, select(A, j), select(B, j))
    select(ite(c, A, B), j)       -->  ite(c, select(A, j), select(B, j))

After this pass the only remaining map terms are *base* maps under ``select``
with ground indices, which the congruence closure treats as uninterpreted
function applications.  This is how "decidable verification" is realized:
the generalized array theory reduces to EUF on the paper's VCs.

Membership over composite set terms is also distributed eagerly:

    e in (A union B)   -->  e in A  or  e in B
    e in (A inter B)   -->  e in A and e in B
    e in (A diff B)    -->  e in A and not (e in B)
    e in ite(c, A, B)  -->  ite(c, e in A, e in B)

(``e in {t}`` and ``e in empty`` simplify at construction time already.)
This leaves ``member`` applied only to base set terms; equalities and subset
atoms between composite sets are handled by ``setreduce``.
"""

from __future__ import annotations

from typing import Dict, Optional

from .terms import (
    Term,
    mk_and,
    mk_ite,
    mk_member,
    mk_not,
    mk_or,
    mk_select,
    _rebuild,
)

__all__ = ["rewrite"]


def rewrite(term: Term, cache: Optional[Dict[Term, Term]] = None) -> Term:
    """Bottom-up exhaustive application of the elimination rules.

    ``cache`` memoises rewritten subterms; pass the same dict to later
    calls to share that work across terms (the result depends only on
    the term, so a long-lived memo never changes an answer)."""
    if cache is None:
        cache = {}

    def walk(t: Term) -> Term:
        got = cache.get(t)
        if got is not None:
            return got
        if t.args:
            new_args = tuple(walk(a) for a in t.args)
            if new_args != t.args:
                t2 = _rebuild(t, new_args)
                # Rebuilding may constant-fold; restart on the new node.
                out = walk(t2) if t2 is not t else _apply_rules(t2, walk)
            else:
                out = _apply_rules(t, walk)
        else:
            out = t
        cache[t] = out
        return out

    return walk(term)


def _apply_rules(t: Term, walk) -> Term:
    if t.op == "select":
        the_map, idx = t.args
        if the_map.op == "store":
            base, i, v = the_map.args
            from .terms import mk_eq

            return walk(mk_ite(mk_eq(i, idx), v, mk_select(base, idx)))
        if the_map.op == "map_ite":
            sel, a, b = the_map.args
            return walk(mk_ite(mk_member(idx, sel), mk_select(a, idx), mk_select(b, idx)))
        if the_map.op == "ite":
            c, a, b = the_map.args
            return walk(mk_ite(c, mk_select(a, idx), mk_select(b, idx)))
        return t
    if t.op == "member":
        elem, the_set = t.args
        if the_set.op == "union":
            a, b = the_set.args
            return walk(mk_or(mk_member(elem, a), mk_member(elem, b)))
        if the_set.op == "inter":
            a, b = the_set.args
            return walk(mk_and(mk_member(elem, a), mk_member(elem, b)))
        if the_set.op == "setdiff":
            a, b = the_set.args
            return walk(mk_and(mk_member(elem, a), mk_not(mk_member(elem, b))))
        if the_set.op == "ite":
            c, a, b = the_set.args
            return walk(mk_ite(c, mk_member(elem, a), mk_member(elem, b)))
        return t
    return t
