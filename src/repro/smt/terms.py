"""Hash-consed term DAG for the quantifier-free SMT language.

Every term is an immutable, interned :class:`Term`.  Interning makes
structural equality a pointer comparison and lets the solver use terms as
dictionary keys cheaply -- both matter because verification conditions share
enormous amounts of structure (SSA snapshots of the same heap maps).

The operator set covers exactly the combination of theories the paper's
verification conditions need (Section 3.7):

- boolean structure (``and`` / ``or`` / ``not`` / ``implies`` / ``ite``),
- equality and disequality over all sorts (EUF),
- linear integer/real arithmetic,
- finite sets (union, intersection, difference, singleton, membership,
  subset),
- maps with ``select`` / ``store`` and the *pointwise* ``map_ite`` update of
  the generalized array theory (used for frame conditions across calls),
- uninterpreted functions/constants,
- ``forall`` (only for the RQ3 "quantified/Dafny-style" encoding; the
  decidable pipeline rejects it -- see ``printer.assert_quantifier_free``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from hashlib import blake2b
from typing import Iterable, Iterator, Optional, Sequence

from .sorts import BOOL, INT, LOC, REAL, MapSort, SetSort, Sort

__all__ = [
    "Term",
    "TRUE",
    "FALSE",
    "NIL",
    "mk_true",
    "mk_false",
    "mk_bool",
    "mk_int",
    "mk_real",
    "mk_const",
    "mk_var",
    "mk_apply",
    "mk_not",
    "mk_and",
    "mk_or",
    "mk_implies",
    "mk_iff",
    "mk_eq",
    "mk_ne",
    "mk_distinct",
    "mk_ite",
    "mk_add",
    "mk_sub",
    "mk_neg",
    "mk_mul",
    "mk_div",
    "mk_le",
    "mk_lt",
    "mk_ge",
    "mk_gt",
    "mk_empty_set",
    "mk_singleton",
    "mk_union",
    "mk_inter",
    "mk_setdiff",
    "mk_member",
    "mk_subset",
    "mk_all_ge",
    "mk_all_le",
    "mk_select",
    "mk_store",
    "mk_map_ite",
    "mk_forall",
    "fresh_const",
    "substitute",
    "iter_subterms",
    "collect",
    "deep_recursion",
]


@contextmanager
def deep_recursion(limit: int = 20000):
    """Raise the interpreter recursion limit for VC-depth term walks.

    Verification conditions are deep implication towers; every recursive
    traversal over them (rewrite, simplify, printing) runs under this
    guard.  Nesting is harmless and the previous limit is restored."""
    previous = sys.getrecursionlimit()
    if previous < limit:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


class SortError(TypeError):
    """Raised when a term constructor is applied at the wrong sorts."""


class Term:
    """An interned node of the term DAG.

    Attributes:
        op: operator tag (e.g. ``"and"``, ``"select"``, ``"const"``).
        args: child terms.
        sort: the term's sort.
        name: symbol name for ``const`` / ``var`` / ``apply``.
        value: literal value for ``intconst`` / ``realconst`` / ``boolconst``.
        binders: bound variables for ``forall``.
    """

    # ``_tsize`` / ``_fv`` are *lazily* filled caches (capped tree size and
    # free-constant leaf set) owned by :mod:`repro.smt.simplify`.  Storing
    # them on the interned node bounds their lifetime by the intern table
    # itself instead of a second, separately-growing module-global dict.
    __slots__ = (
        "op", "args", "sort", "name", "value", "binders",
        "_hash", "_id", "_fp", "_tsize", "_fv",
    )

    _intern: dict = {}
    _next_id = 0

    def __new__(
        cls,
        op: str,
        args: tuple = (),
        sort: Sort = BOOL,
        name: Optional[str] = None,
        value=None,
        binders: tuple = (),
    ):
        key = (op, args, sort, name, value, binders)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.sort = sort
        self.name = name
        self.value = value
        self.binders = binders
        self._hash = hash(key)
        self._id = Term._next_id
        Term._next_id += 1
        # Structural fingerprint: a content hash independent of interning
        # order, unlike `_id` (which counts global construction order and
        # therefore differs between processes that built other terms
        # first).  Every *canonical-ordering* decision -- `mk_eq` argument
        # order, the simplifier's conjunct sorting and equality
        # orientation -- keys on `_fp`, so the canonical serialization of
        # a formula (and hence the engine's cache key) is reproducible
        # across runs and method selections.  blake2b, not `hash()`:
        # string hashing is randomized per process.
        digest = blake2b(digest_size=8)
        digest.update(f"{op}\x1f{name}\x1f{value!r}\x1f{sort.name}\x1f".encode())
        for child in args:
            digest.update(child._fp.to_bytes(8, "big"))
        digest.update(b"\x1e")
        for child in binders:
            digest.update(child._fp.to_bytes(8, "big"))
        self._fp = int.from_bytes(digest.digest(), "big")
        cls._intern[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other

    def __repr__(self) -> str:
        return self.pretty()

    def pretty(self) -> str:
        if self.op == "boolconst":
            return "true" if self.value else "false"
        if self.op in ("intconst", "realconst"):
            return str(self.value)
        if self.op in ("const", "var"):
            return str(self.name)
        if self.op == "apply":
            inner = " ".join(a.pretty() for a in self.args)
            return f"({self.name} {inner})"
        if self.op == "forall":
            bound = " ".join(f"({v.name} {v.sort})" for v in self.binders)
            return f"(forall ({bound}) {self.args[0].pretty()})"
        inner = " ".join(a.pretty() for a in self.args)
        return f"({self.op} {inner})" if inner else f"({self.op})"

    @property
    def is_literal_const(self) -> bool:
        return self.op in ("boolconst", "intconst", "realconst")


# ---------------------------------------------------------------------------
# Atomic constructors
# ---------------------------------------------------------------------------

TRUE = Term("boolconst", value=True, sort=BOOL)
FALSE = Term("boolconst", value=False, sort=BOOL)


def mk_true() -> Term:
    return TRUE


def mk_false() -> Term:
    return FALSE


def mk_bool(b: bool) -> Term:
    return TRUE if b else FALSE


def mk_int(value) -> Term:
    return Term("intconst", value=Fraction(value), sort=INT)


def mk_real(value) -> Term:
    return Term("realconst", value=Fraction(value), sort=REAL)


def mk_const(name: str, sort: Sort) -> Term:
    """A free constant (nullary uninterpreted symbol)."""
    return Term("const", name=name, sort=sort)


def mk_var(name: str, sort: Sort) -> Term:
    """A bound variable (only appears under ``forall``)."""
    return Term("var", name=name, sort=sort)


def mk_apply(name: str, args: Sequence[Term], sort: Sort) -> Term:
    """Uninterpreted function application."""
    return Term("apply", args=tuple(args), name=name, sort=sort)


NIL = mk_const("nil", LOC)


_fresh_counter = [0]


def fresh_const(prefix: str, sort: Sort) -> Term:
    _fresh_counter[0] += 1
    return mk_const(f"{prefix}!{_fresh_counter[0]}", sort)


# ---------------------------------------------------------------------------
# Boolean structure (with light constant folding to keep VCs small)
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SortError(message)


def mk_not(a: Term) -> Term:
    _require(a.sort == BOOL, f"not: expected Bool, got {a.sort}")
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.op == "not":
        return a.args[0]
    return Term("not", (a,), BOOL)


def _flatten(op: str, args: Iterable[Term]) -> list:
    out = []
    for a in args:
        if a.op == op:
            out.extend(a.args)
        else:
            out.append(a)
    return out


def mk_and(*args: Term) -> Term:
    flat = _flatten("and", args)
    kept: dict = {}  # insertion-ordered set: first occurrence wins
    for a in flat:
        _require(a.sort == BOOL, f"and: expected Bool, got {a.sort}")
        if a is FALSE:
            return FALSE
        if a is not TRUE:
            kept[a] = None
    if not kept:
        return TRUE
    if len(kept) == 1:
        return next(iter(kept))
    return Term("and", tuple(kept), BOOL)


def mk_or(*args: Term) -> Term:
    flat = _flatten("or", args)
    kept: dict = {}  # insertion-ordered set: first occurrence wins
    for a in flat:
        _require(a.sort == BOOL, f"or: expected Bool, got {a.sort}")
        if a is TRUE:
            return TRUE
        if a is not FALSE:
            kept[a] = None
    if not kept:
        return FALSE
    if len(kept) == 1:
        return next(iter(kept))
    return Term("or", tuple(kept), BOOL)


def mk_implies(a: Term, b: Term) -> Term:
    _require(a.sort == BOOL and b.sort == BOOL, "implies: expected Bool operands")
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return mk_not(a)
    return Term("implies", (a, b), BOOL)


def mk_iff(a: Term, b: Term) -> Term:
    return mk_eq(a, b)


def mk_eq(a: Term, b: Term) -> Term:
    _require(a.sort == b.sort, f"eq: sort mismatch {a.sort} vs {b.sort}")
    if a is b:
        return TRUE
    if a.is_literal_const and b.is_literal_const:
        return mk_bool(a.value == b.value)
    # Canonical argument order so `eq(a, b)` and `eq(b, a)` intern
    # identically -- by structural fingerprint (process-independent), with
    # the interning id as a collision tie-break.
    if (b._fp, b._id) < (a._fp, a._id):
        a, b = b, a
    return Term("eq", (a, b), BOOL)


def mk_ne(a: Term, b: Term) -> Term:
    return mk_not(mk_eq(a, b))


def mk_distinct(*args: Term) -> Term:
    terms = list(args)
    parts = []
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            parts.append(mk_ne(terms[i], terms[j]))
    return mk_and(*parts)


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    _require(cond.sort == BOOL, "ite: condition must be Bool")
    _require(then.sort == els.sort, f"ite: branch sorts differ {then.sort} vs {els.sort}")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.sort == BOOL:
        return mk_and(mk_implies(cond, then), mk_implies(mk_not(cond), els))
    return Term("ite", (cond, then, els), then.sort)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _numeric_sort(args: Sequence[Term], opname: str) -> Sort:
    sort = args[0].sort
    _require(sort in (INT, REAL), f"{opname}: expected numeric sort, got {sort}")
    for a in args:
        _require(a.sort == sort, f"{opname}: mixed numeric sorts")
    return sort


def mk_add(*args: Term) -> Term:
    flat = _flatten("add", args)
    sort = _numeric_sort(flat, "add")
    const = Fraction(0)
    rest = []
    for a in flat:
        if a.is_literal_const:
            const += a.value
        else:
            rest.append(a)
    if not rest:
        return mk_int(const) if sort == INT else mk_real(const)
    if const != 0:
        rest.append(mk_int(const) if sort == INT else mk_real(const))
    if len(rest) == 1:
        return rest[0]
    return Term("add", tuple(rest), sort)


def mk_neg(a: Term) -> Term:
    sort = _numeric_sort([a], "neg")
    if a.is_literal_const:
        return mk_int(-a.value) if sort == INT else mk_real(-a.value)
    return Term("neg", (a,), sort)


def mk_sub(a: Term, b: Term) -> Term:
    sort = _numeric_sort([a, b], "sub")
    if a.is_literal_const and b.is_literal_const:
        v = a.value - b.value
        return mk_int(v) if sort == INT else mk_real(v)
    return Term("sub", (a, b), sort)


def mk_mul(a: Term, b: Term) -> Term:
    sort = _numeric_sort([a, b], "mul")
    if a.is_literal_const and b.is_literal_const:
        v = a.value * b.value
        return mk_int(v) if sort == INT else mk_real(v)
    return Term("mul", (a, b), sort)


def mk_div(a: Term, b: Term) -> Term:
    """Division by a nonzero literal constant only (keeps arithmetic linear)."""
    sort = _numeric_sort([a, b], "div")
    _require(b.is_literal_const and b.value != 0, "div: divisor must be a nonzero literal")
    if a.is_literal_const:
        v = Fraction(a.value) / b.value
        return mk_int(v) if sort == INT else mk_real(v)
    return Term("div", (a, b), sort)


def _cmp(op: str, a: Term, b: Term) -> Term:
    _numeric_sort([a, b], op)
    if a.is_literal_const and b.is_literal_const:
        table = {
            "le": a.value <= b.value,
            "lt": a.value < b.value,
        }
        return mk_bool(table[op])
    if a is b:
        return TRUE if op == "le" else FALSE
    return Term(op, (a, b), BOOL)


def mk_le(a: Term, b: Term) -> Term:
    return _cmp("le", a, b)


def mk_lt(a: Term, b: Term) -> Term:
    return _cmp("lt", a, b)


def mk_ge(a: Term, b: Term) -> Term:
    return _cmp("le", b, a)


def mk_gt(a: Term, b: Term) -> Term:
    return _cmp("lt", b, a)


# ---------------------------------------------------------------------------
# Sets
# ---------------------------------------------------------------------------


def mk_empty_set(elem_sort: Sort) -> Term:
    return Term("emptyset", (), SetSort(elem_sort))


def mk_singleton(elem: Term) -> Term:
    return Term("singleton", (elem,), SetSort(elem.sort))


def _set_binop(op: str, a: Term, b: Term) -> Term:
    _require(isinstance(a.sort, SetSort), f"{op}: expected set, got {a.sort}")
    _require(a.sort == b.sort, f"{op}: set sort mismatch {a.sort} vs {b.sort}")
    if op in ("union", "inter") and a is b:
        return a
    if op == "union":
        if a.op == "emptyset":
            return b
        if b.op == "emptyset":
            return a
    if op == "inter" and (a.op == "emptyset" or b.op == "emptyset"):
        return mk_empty_set(a.sort.elem)
    if op == "setdiff" and b.op == "emptyset":
        return a
    return Term(op, (a, b), a.sort)


def mk_union(a: Term, b: Term) -> Term:
    return _set_binop("union", a, b)


def mk_inter(a: Term, b: Term) -> Term:
    return _set_binop("inter", a, b)


def mk_setdiff(a: Term, b: Term) -> Term:
    return _set_binop("setdiff", a, b)


def mk_member(elem: Term, the_set: Term) -> Term:
    _require(isinstance(the_set.sort, SetSort), f"member: expected set, got {the_set.sort}")
    _require(elem.sort == the_set.sort.elem, "member: element sort mismatch")
    if the_set.op == "emptyset":
        return FALSE
    if the_set.op == "singleton":
        return mk_eq(elem, the_set.args[0])
    return Term("member", (elem, the_set), BOOL)


def mk_subset(a: Term, b: Term) -> Term:
    _require(isinstance(a.sort, SetSort) and a.sort == b.sort, "subset: expected equal set sorts")
    if a is b or a.op == "emptyset":
        return TRUE
    return Term("subset", (a, b), BOOL)


def mk_all_ge(the_set: Term, bound: Term) -> Term:
    """Every element of an integer set is >= bound (a pointwise-comparison
    predicate; decidable via the same ground reduction as set equality --
    the combinatory-array-logic gadget the paper's Boogie encoding uses for
    key-interval conditions on BSTs)."""
    _require(
        isinstance(the_set.sort, SetSort) and the_set.sort.elem == INT,
        "all_ge: expected a set of Int",
    )
    _require(bound.sort == INT, "all_ge: bound must be Int")
    if the_set.op == "emptyset":
        return TRUE
    if the_set.op == "singleton":
        return mk_le(bound, the_set.args[0])
    return Term("all_ge", (the_set, bound), BOOL)


def mk_all_le(the_set: Term, bound: Term) -> Term:
    """Every element of an integer set is <= bound."""
    _require(
        isinstance(the_set.sort, SetSort) and the_set.sort.elem == INT,
        "all_le: expected a set of Int",
    )
    _require(bound.sort == INT, "all_le: bound must be Int")
    if the_set.op == "emptyset":
        return TRUE
    if the_set.op == "singleton":
        return mk_le(the_set.args[0], bound)
    return Term("all_le", (the_set, bound), BOOL)


# ---------------------------------------------------------------------------
# Maps (heap fields) -- select / store / pointwise map_ite
# ---------------------------------------------------------------------------


def mk_select(the_map: Term, idx: Term) -> Term:
    _require(isinstance(the_map.sort, MapSort), f"select: expected map, got {the_map.sort}")
    _require(idx.sort == the_map.sort.dom, "select: index sort mismatch")
    return Term("select", (the_map, idx), the_map.sort.rng)


def mk_store(the_map: Term, idx: Term, val: Term) -> Term:
    _require(isinstance(the_map.sort, MapSort), f"store: expected map, got {the_map.sort}")
    _require(idx.sort == the_map.sort.dom, "store: index sort mismatch")
    _require(val.sort == the_map.sort.rng, "store: value sort mismatch")
    return Term("store", (the_map, idx, val), the_map.sort)


def mk_map_ite(selector: Term, then_map: Term, else_map: Term) -> Term:
    """Pointwise update: ``select(map_ite(S, A, B), i)`` is
    ``ite(i in S, select(A, i), select(B, i))``.

    This is the parameterized map update of the generalized array theory
    (de Moura & Bjorner 2009) that the paper uses to model heap change across
    function calls without quantifiers (Appendix A.3).
    """
    _require(isinstance(then_map.sort, MapSort), "map_ite: expected maps")
    _require(then_map.sort == else_map.sort, "map_ite: map sort mismatch")
    _require(
        isinstance(selector.sort, SetSort) and selector.sort.elem == then_map.sort.dom,
        "map_ite: selector must be a set over the map domain",
    )
    return Term("map_ite", (selector, then_map, else_map), then_map.sort)


# ---------------------------------------------------------------------------
# Quantifiers (RQ3 "unpredictable" mode only)
# ---------------------------------------------------------------------------


def mk_forall(binders: Sequence[Term], body: Term) -> Term:
    _require(body.sort == BOOL, "forall: body must be Bool")
    for v in binders:
        _require(v.op == "var", "forall: binders must be vars")
    return Term("forall", (body,), BOOL, binders=tuple(binders))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def iter_subterms(term: Term) -> Iterator[Term]:
    """Yield every distinct subterm (DAG nodes, each once), bottom-up."""
    seen = set()
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            yield node
        else:
            stack.append((node, True))
            for a in node.args:
                if a not in seen:
                    stack.append((a, False))


def collect(term: Term, predicate) -> list:
    return [t for t in iter_subterms(term) if predicate(t)]


def substitute(term: Term, mapping: dict) -> Term:
    """Simultaneous substitution of subterms (used for LC instantiation and
    quantifier instantiation).  ``mapping`` maps terms to replacement terms."""
    cache: dict = {}

    def walk(t: Term) -> Term:
        hit = mapping.get(t)
        if hit is not None:
            return hit
        got = cache.get(t)
        if got is not None:
            return got
        if not t.args:
            cache[t] = t
            return t
        new_args = tuple(walk(a) for a in t.args)
        if new_args == t.args:
            out = t
        else:
            out = _rebuild(t, new_args)
        cache[t] = out
        return out

    return walk(term)


def _rebuild(t: Term, new_args: tuple) -> Term:
    op = t.op
    if op == "and":
        return mk_and(*new_args)
    if op == "or":
        return mk_or(*new_args)
    if op == "not":
        return mk_not(new_args[0])
    if op == "implies":
        return mk_implies(*new_args)
    if op == "eq":
        return mk_eq(*new_args)
    if op == "ite":
        return mk_ite(*new_args)
    if op == "add":
        return mk_add(*new_args)
    if op == "sub":
        return mk_sub(*new_args)
    if op == "neg":
        return mk_neg(new_args[0])
    if op == "mul":
        return mk_mul(*new_args)
    if op == "div":
        return mk_div(*new_args)
    if op == "le":
        return mk_le(*new_args)
    if op == "lt":
        return mk_lt(*new_args)
    if op == "union":
        return mk_union(*new_args)
    if op == "inter":
        return mk_inter(*new_args)
    if op == "setdiff":
        return mk_setdiff(*new_args)
    if op == "singleton":
        return mk_singleton(new_args[0])
    if op == "member":
        return mk_member(*new_args)
    if op == "subset":
        return mk_subset(*new_args)
    if op == "all_ge":
        return mk_all_ge(*new_args)
    if op == "all_le":
        return mk_all_le(*new_args)
    if op == "select":
        return mk_select(*new_args)
    if op == "store":
        return mk_store(*new_args)
    if op == "map_ite":
        return mk_map_ite(*new_args)
    if op == "apply":
        return mk_apply(t.name, new_args, t.sort)
    if op == "forall":
        return mk_forall(t.binders, new_args[0])
    return Term(op, new_args, t.sort, name=t.name, value=t.value, binders=t.binders)
