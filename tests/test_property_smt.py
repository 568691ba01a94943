"""Property-based tests for the SMT substrate (hypothesis).

These validate the solver against a ground-truth evaluator: random ground
formulas over a small universe are checked both by brute-force enumeration
of models and by the CDCL(T) solver -- the two verdicts must agree.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    INT,
    LOC,
    MapSort,
    SetSort,
    Solver,
    mk_and,
    mk_const,
    mk_eq,
    mk_implies,
    mk_int,
    mk_le,
    mk_lt,
    mk_member,
    mk_not,
    mk_or,
    mk_singleton,
    mk_subset,
    mk_union,
    mk_inter,
    mk_setdiff,
    mk_ite,
    mk_select,
    mk_store,
)
from repro.smt.rewriter import rewrite
from repro.smt.solver import IncrementalSolver
from repro.smt.terms import mk_all_ge, mk_all_le

LOCS = [mk_const(f"pl{i}", LOC) for i in range(3)]
INTS = [mk_const(f"pi{i}", INT) for i in range(3)]
SETS = [mk_const(f"ps{i}", SetSort(INT)) for i in range(2)]


# ---------------------------------------------------------------------------
# random formula generator + brute-force evaluator
# ---------------------------------------------------------------------------


@st.composite
def arith_atoms(draw):
    a = draw(st.sampled_from(INTS))
    b = draw(st.sampled_from(INTS + [mk_int(draw(st.integers(-2, 2)))]))
    op = draw(st.sampled_from([mk_le, mk_lt, mk_eq]))
    return op(a, b)


@st.composite
def set_atoms(draw):
    base = draw(st.sampled_from(SETS))
    other = draw(st.sampled_from(SETS))
    elem = draw(st.sampled_from(INTS))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return mk_member(elem, base)
    if kind == 1:
        return mk_subset(base, mk_union(base, other))
    if kind == 2:
        return mk_eq(mk_union(base, other), mk_union(other, base))
    return mk_member(elem, mk_setdiff(base, mk_singleton(elem)))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(st.one_of(arith_atoms(), set_atoms()))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.one_of(arith_atoms(), set_atoms()))
    if kind == 1:
        return mk_not(draw(formulas(depth=depth - 1)))
    sub = [draw(formulas(depth=depth - 1)) for _ in range(2)]
    return (mk_and if kind == 2 else mk_or)(*sub)


def brute_force_sat(formula) -> bool:
    """Enumerate models over a tiny universe: ints in -2..2, sets over the
    same range."""
    from repro.smt.terms import iter_subterms

    int_consts = sorted(
        {t for t in iter_subterms(formula) if t.op == "const" and t.sort == INT},
        key=lambda t: t.name,
    )
    set_consts = sorted(
        {t for t in iter_subterms(formula) if t.op == "const" and isinstance(t.sort, SetSort)},
        key=lambda t: t.name,
    )
    universe = [-1, 0, 1]
    subsets = [frozenset(s) for r in range(4) for s in itertools.combinations(universe, r)]

    def eval_term(t, env):
        if t.op == "intconst":
            return t.value
        if t.op == "const":
            return env[t]
        if t.op == "add":
            return sum(eval_term(a, env) for a in t.args)
        if t.op == "sub":
            return eval_term(t.args[0], env) - eval_term(t.args[1], env)
        if t.op == "neg":
            return -eval_term(t.args[0], env)
        if t.op == "singleton":
            return frozenset([eval_term(t.args[0], env)])
        if t.op == "union":
            return eval_term(t.args[0], env) | eval_term(t.args[1], env)
        if t.op == "inter":
            return eval_term(t.args[0], env) & eval_term(t.args[1], env)
        if t.op == "setdiff":
            return eval_term(t.args[0], env) - eval_term(t.args[1], env)
        if t.op == "emptyset":
            return frozenset()
        raise ValueError(t.op)

    def eval_formula(f, env):
        if f.op == "boolconst":
            return f.value
        if f.op == "not":
            return not eval_formula(f.args[0], env)
        if f.op == "and":
            return all(eval_formula(a, env) for a in f.args)
        if f.op == "or":
            return any(eval_formula(a, env) for a in f.args)
        if f.op == "implies":
            return (not eval_formula(f.args[0], env)) or eval_formula(f.args[1], env)
        if f.op == "eq":
            return eval_term(f.args[0], env) == eval_term(f.args[1], env)
        if f.op == "le":
            return eval_term(f.args[0], env) <= eval_term(f.args[1], env)
        if f.op == "lt":
            return eval_term(f.args[0], env) < eval_term(f.args[1], env)
        if f.op == "member":
            return eval_term(f.args[0], env) in eval_term(f.args[1], env)
        if f.op == "subset":
            return eval_term(f.args[0], env) <= eval_term(f.args[1], env)
        raise ValueError(f.op)

    for ints in itertools.product(universe, repeat=len(int_consts)):
        for sets in itertools.product(subsets, repeat=len(set_consts)):
            env = dict(zip(int_consts, [Fraction(i) for i in ints]))
            env.update(dict(zip(set_consts, [frozenset(Fraction(e) for e in s) for s in sets])))
            if eval_formula(formula, env):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_solver_agrees_with_brute_force(formula):
    solver = Solver()
    solver.add(formula)
    solver_verdict = solver.check()
    brute = brute_force_sat(formula)
    if brute:
        # a model exists within the small universe => solver must say sat
        assert solver_verdict == "sat"
    # (brute-force UNSAT over the tiny universe does not imply real UNSAT,
    # so no assertion in that direction for arithmetic atoms; but pure
    # bounded-set formulas are small-model-complete for this size)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_arith_chain_consistency(values):
    """x0 < x1 < ... < xn is satisfiable; adding xn < x0 makes it unsat."""
    consts = [mk_const(f"ch{i}", INT) for i in range(len(values) + 1)]
    chain = [mk_lt(a, b) for a, b in zip(consts, consts[1:])]
    s = Solver()
    for c in chain:
        s.add(c)
    assert s.check() == "sat"
    s2 = Solver()
    for c in chain:
        s2.add(c)
    s2.add(mk_lt(consts[-1], consts[0]))
    assert s2.check() == "unsat"


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(-3, 3), max_size=4),
    st.sets(st.integers(-3, 3), max_size=4),
)
def test_set_algebra_identities(sa, sb):
    """Concrete set identities hold as validities."""

    def lit_set(values):
        out = None
        for v in sorted(values):
            s = mk_singleton(mk_int(v))
            out = s if out is None else mk_union(out, s)
        if out is None:
            from repro.smt import mk_empty_set

            return mk_empty_set(INT)
        return out

    from repro.smt import is_valid

    a, b = lit_set(sa), lit_set(sb)
    ok, _ = is_valid(mk_eq(mk_union(a, b), mk_union(b, a)))
    assert ok
    ok, _ = is_valid(mk_subset(mk_inter(a, b), a))
    assert ok
    k = mk_const("prop_k", INT)
    ok, _ = is_valid(
        mk_eq(
            mk_member(k, mk_union(a, b)),
            mk_or(mk_member(k, a), mk_member(k, b)),
        )
        if False
        else mk_or(
            mk_not(mk_member(k, mk_union(a, b))),
            mk_or(mk_member(k, a), mk_member(k, b)),
        )
    )
    assert ok


# ---------------------------------------------------------------------------
# the incremental solver's set-reduction path
# ---------------------------------------------------------------------------

MAPS = [mk_const(f"pm{i}", MapSort(INT, INT)) for i in range(2)]


@st.composite
def set_terms(draw, depth=1):
    base = draw(st.sampled_from(SETS))
    if depth == 0 or draw(st.booleans()):
        return base
    kind = draw(st.integers(0, 4))
    other = draw(set_terms(depth=depth - 1))
    if kind == 0:
        return mk_union(base, other)
    if kind == 1:
        return mk_inter(base, other)
    if kind == 2:
        return mk_setdiff(base, other)
    if kind == 3:
        return mk_union(base, mk_singleton(draw(st.sampled_from(INTS))))
    return mk_ite(draw(arith_atoms()), base, other)


@st.composite
def reduction_atoms(draw):
    """Atoms the finite set reduction instantiates, plus the memberships
    and map reads that feed its element universe."""
    kind = draw(st.integers(0, 5))
    a, b = draw(set_terms()), draw(set_terms())
    elem = draw(st.sampled_from(INTS))
    if kind == 0:
        return mk_eq(a, b)
    if kind == 1:
        return mk_subset(a, b)
    if kind == 2:
        return mk_all_ge(a, elem)
    if kind == 3:
        return mk_all_le(a, elem)
    if kind == 4:
        return mk_member(elem, a)
    the_map = draw(st.sampled_from(MAPS))
    stored = mk_store(the_map, elem, draw(st.sampled_from(INTS)))
    return mk_le(mk_select(stored, draw(st.sampled_from(INTS))), elem)


@st.composite
def reduction_formulas(draw, depth=2):
    if depth == 0:
        return draw(reduction_atoms())
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(reduction_atoms())
    if kind == 1:
        return mk_not(draw(reduction_formulas(depth=depth - 1)))
    a = draw(reduction_formulas(depth=depth - 1))
    b = draw(reduction_formulas(depth=depth - 1))
    return (mk_and, mk_or, mk_implies)[kind - 2](a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(reduction_formulas(), min_size=1, max_size=6))
def test_shared_rewrite_memo_matches_fresh_rewrite(terms):
    """One memo reused across a sequence of terms returns exactly the
    interned term a fresh ``rewrite`` does."""
    cache = {}
    for t in terms:
        assert rewrite(t, cache) is rewrite(t)
    # A second pass is answered from the memo, still identically.
    for t in terms:
        assert rewrite(t, cache) is rewrite(t)


class _EagerGcSolver(IncrementalSolver):
    GC_MIN_VARS = 1  # collect retired goals before every check


@pytest.mark.parametrize("solver_cls", [IncrementalSolver, _EagerGcSolver])
@settings(max_examples=40, deadline=None)
@given(
    st.lists(reduction_formulas(), max_size=2),
    st.lists(reduction_formulas(), min_size=1, max_size=4),
)
def test_incremental_check_goal_agrees_with_one_shot(solver_cls, prefix, goals):
    """Clausal set-reduction instances in the persistent context decide
    every goal exactly as the one-shot Tseitin pipeline does, before and
    after retired-goal collections."""
    inc = solver_cls(gc_ratio=0.0)
    for hyp in prefix:
        inc.add_shared(hyp)
    # The opening goal retires an atom no drawn formula mentions, so the
    # eager solver collects before the first drawn goal.
    for goal in [mk_le(mk_const("p_gc", INT), mk_int(0))] + goals:
        ref = Solver()
        for hyp in prefix:
            ref.add(hyp)
        ref.add(goal)
        assert inc.check_goal(goal) == ref.check(), goal
    if solver_cls is _EagerGcSolver:
        assert inc.n_gc >= 1


def test_incremental_agreement_covers_sat_and_unsat_goals():
    """The property above sees both verdicts: a satisfiable goal and an
    unsatisfiable one under the same set-equality prefix."""
    s0, s1 = SETS
    x, y = INTS[:2]
    inc = IncrementalSolver()
    inc.add_shared(mk_eq(s0, mk_union(s1, mk_singleton(y))))
    assert inc.check_goal(mk_and(mk_member(x, s0), mk_not(mk_member(x, s1)))) == "sat"
    assert inc.check_goal(mk_and(mk_member(x, s1), mk_not(mk_member(x, s0)))) == "unsat"
    assert inc.check_goal(mk_and(mk_all_ge(s0, x), mk_lt(y, x))) == "unsat"
